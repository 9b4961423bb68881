"""The benchmark still runs: one smoke pass per workload, correctness only.

``bench/run.py --smoke`` runs a few items of a workload and checks their
outputs.  A traced session_rt pass must also count its parses, so a change
that breaks the tracer's wrapping of ``parse_session`` shows here.  Timings
are never asserted here; they depend on the host.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke(*args):
    """The result object of one ``bench/run.py --smoke`` run, which must exit 0."""
    done = subprocess.run([sys.executable, "bench/run.py", *args, "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["check_d2", "check_d4", "session_rt"])
def test_benchmark_smoke_run_is_correct(workload):
    result = _smoke("--workload", workload)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_session_smoke_run_counts_parses():
    # the tracer wraps parse_session; a pass that parses must count its calls
    result = _smoke("--workload", "session_rt", "--trace", "1")
    assert result["correct"] is True
    assert result["metrics"]["session.parse.calls"]["value"] > 0
