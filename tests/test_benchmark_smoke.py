"""The benchmark harness's smoke mode, run as part of the test suite so that
the harness cannot silently stop working: one tiny enum_tables batch, every
report checked against the catalog's expected output, no timing asserts."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_is_correct():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "enum_tables", "--seed", "1",
         "--seconds", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
        # the harness names its result file after its own process id
        for path in (ROOT / "perfbench" / "results").glob(f"enum_tables-seed1-*-{proc.pid}.json"):
            path.unlink()
    assert proc.returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
