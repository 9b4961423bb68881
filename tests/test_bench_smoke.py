"""The benchmark still runs: one smoke pass per workload, correctness only.

``bench/run.py --smoke`` runs a few items of a workload and checks their
outputs.  Timings are never asserted here; they depend on the host.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["check_d2", "check_d4", "session_rt"])
def test_benchmark_smoke_run_is_correct(workload):
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
