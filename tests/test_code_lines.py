"""Smoke test of ``tests/code_lines.py``, checking only the format of what it
prints."""

import re
import subprocess
import sys

import code_lines
import mlmc_boed

ROW = re.compile(r" *(\d+) +(\d+)  (\S+)")


def test_code_lines_prints_one_row_per_module_and_the_totals():
    run = subprocess.run([sys.executable, code_lines.__file__], capture_output=True, text=True,
                         check=True, timeout=60)
    header, *rows, exports = run.stdout.splitlines()
    assert exports.split() == [str(len(mlmc_boed.__all__)), "exported", "names"]
    assert header.split() == ["lines", "code", "module"]
    matches = [ROW.fullmatch(row) for row in rows]
    assert all(matches), rows
    modules = sorted(p.name for p in code_lines.PACKAGE.glob("*.py"))
    assert [m[3] for m in matches] == modules + ["total"]
    for i in (1, 2):
        assert sum(int(m[i]) for m in matches[:-1]) == int(matches[-1][i])
