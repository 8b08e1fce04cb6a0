"""Smoke test of ``tests/paired_probe.py``: this tree against itself, two
pairs a case, checking only the format of what it prints and writes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import paired_probe

ROW = re.compile(r"(\S+) +(\d+) +(\d+\.\d{4}) +(\d+\.\d{4}) +(\d+\.\d{4}) +(\d+)")


def test_paired_probe_prints_one_row_per_case(tmp_path):
    out = tmp_path / "probe.json"
    run = subprocess.run(
        [sys.executable, paired_probe.__file__, str(paired_probe.SRC), "--pairs", "2",
         "--json", str(out)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["case", "pairs", "parent_ms", "change_ms", "ratio", "won"]
    matches = [ROW.fullmatch(row) for row in rows]
    assert all(matches), rows
    assert [m[1] for m in matches] == list(paired_probe.CASES)
    for m in matches:
        assert int(m[2]) == 2 and 0 <= int(m[6]) <= 2
    written = json.loads(Path(out).read_text())
    assert [r["case"] for r in written] == list(paired_probe.CASES)
    assert all(set(r) == {"case", "what", "pairs", "parent_ms", "change_ms",
                          "change_over_parent", "change_faster_pairs"} for r in written)
