"""Smoke test of ``tests/fault_probe.py``: two timed calls a case on this
tree, checking only the format of what it prints and writes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import fault_probe

ROW = re.compile(r"(\S+) +(\d+) +(\d+\.\d{4}) +(\d+\.\d{4}) +(\d+\.\d{4})")


def test_fault_probe_prints_one_row_per_case(tmp_path):
    out = tmp_path / "faults.json"
    run = subprocess.run(
        [sys.executable, fault_probe.__file__, "--ops", "2", "--json", str(out)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["case", "ops", "faults_per_op", "sys_ms_per_op", "median_ms"]
    matches = [ROW.fullmatch(row) for row in rows]
    assert all(matches), rows
    assert [m[1] for m in matches] == list(fault_probe.CASES)
    assert all(int(m[2]) == 2 for m in matches)
    written = json.loads(Path(out).read_text())
    assert [r["case"] for r in written] == list(fault_probe.CASES)
    assert all(set(r) == {"case", "what", "warmup", "ops", "seed", "faults_per_op",
                          "sys_ms_per_op", "median_ms"} for r in written)
