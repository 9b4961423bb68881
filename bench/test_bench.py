"""The benchmark's own tests: smoke runs of every workload and the tracer's contract.

    python3 -m pytest -q bench/test_bench.py

Timings are never checked here, only names, units, correctness, digests and
exact counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import genform.cli  # noqa: E402
import tracer  # noqa: E402
from workloads import Workload, digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("check_d2", "check_d4", "session_rt")  # check_d4 is run by hand only


def test_spec_lists_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _result(done) -> tuple[dict, list[str]]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _units(metrics: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def _digests(lines: list[str]) -> dict:
    (line,) = [x for x in lines if x.startswith("digest ")]
    return dict(part.split("=", 1) for part in line.split()[2:])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_report_every_metric_and_agree(workload):
    digests = {}
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, lines = _result(_run("--workload", workload, "--smoke", "--trace", str(trace)))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(spec)
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        digests.update(_digests(lines))
    assert digests["seed"] == "7"
    assert digests["sha256"] == digests["untraced"] == digests["traced"]


def test_first_check_pass_prints_what_check_all_prints():
    workload = Workload("check_d2", 7, smoke=True)
    (result,) = workload.run_pass(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = genform.cli.main(["check", "all", "--dim", "2", "--trials", "5", "--seed", "7"])
    assert status == 0 and out.getvalue() == result.output
    assert workload.verify(result) == 0


def _traced_pass(name: str, seed: int) -> tuple[dict, str]:
    workload = Workload(name, seed, smoke=True)
    workload.prepare()
    t = tracer.Tracer()
    plain, traced = workload.run_pass(0, t)
    tracer.assert_clean()
    assert workload.verify(plain) == workload.verify(traced) == 0
    assert plain.outputs == traced.outputs
    return t.counts(), digest(traced.output)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_and_seed_matters(workload):
    counts, first = _traced_pass(workload, 7)
    again, second = _traced_pass(workload, 7)
    assert counts == again and first == second
    assert counts["scalars.mul.term_products"] > 0
    other_counts, other = _traced_pass(workload, 8)
    assert other_counts["scalars.mul.term_products"] != counts["scalars.mul.term_products"]
    if workload == "session_rt":  # a passing check prints no seed-dependent text
        assert other != first


def test_tracer_restores_every_patch_site():
    from genform import cli, harness, scalars

    def sites():
        return (scalars.ScalarField.__dict__["__mul__"], scalars.ScalarField.__dict__["__rmul__"],
                scalars.ScalarField.__dict__["from_terms"], harness.cartan_residual,
                cli.run_identity, harness.parse_session, genform.parse_session)

    before = sites()
    with tracer.Tracer():
        assert not any(a is b for a, b in zip(before, sites()))
        with pytest.raises(RuntimeError):
            tracer.assert_clean()
    assert all(a is b for a, b in zip(before, sites()))
    tracer.assert_clean()


def test_calibration_samples_host_speed_between_items():
    import calibrate

    workload = Workload("check_d2", 7, smoke=True)
    calibration = calibrate.Calibration()
    (result,) = workload.run_pass(0, calibration=calibration)
    assert workload.verify(result) == 0
    # one sample at the start of the pass, then at most one after each item
    assert 1 < len(calibration.samples) <= 1 + len(result.latencies)
    assert calibration.factor() > 0
    calibration.start_pass()
    assert len(calibration.samples) == 1


def test_layer_map_names_real_layers_metrics_and_workloads():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert set(layer_map) == set(tracer.LAYERS)
    metrics = set(_units(SPEC["end_to_end"]))
    per_layer = set(_units(SPEC["per_layer"]))
    for layer, entry in layer_map.items():
        assert all(name.startswith(f"{layer}.") for name in entry["per_layer"])
        assert set(entry["per_layer"]) <= per_layer
        for claim in entry["moves"]:
            assert claim["metric"] in metrics
            assert set(claim["workloads"]) <= {w["name"] for w in SPEC["workloads"]}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--smoke"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0 and done.stdout == ""
