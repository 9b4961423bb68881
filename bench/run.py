"""Layered benchmark for genform, driven only through its public entry points.

    python3 bench/run.py --workload check_d2|check_d4|session_rt
                         [--seed 7] [--seconds 50] [--trace 0|1] [--smoke]

Run from the root of a source checkout; genform is imported from ``src/``.
One process, one thread, a closed loop with one caller.

``--trace 0`` measures the end-to-end metrics with no tracing installed:

* ``setup_s``: median time to import ``genform`` and ``genform.cli`` in a
  fresh interpreter (several interpreters per run, after one warm-up that
  fills the bytecode cache);
* ``verdict_s``: median time of one pass (P1..P17 with the trials of a
  ``check all`` sweep, or one round trip of every session text);
* ``latency_ms.p50`` / ``latency_ms.p90``: per item (one ``check Pk``
  command, or one session round trip).  check_d2 completes 120-160 items in
  a 50 s run, so p90 keeps at least ten samples beyond it on every workload;
* ``items_per_s``: items completed per second of pass time;
* ``peak_rss_mb``: this process's peak resident set, one fresh process per run;
* ``pass_ratio``: items with the right answer over items attempted.

Every time above is CPU time (``calibrate.clock``), scaled to a fixed host
speed: a calibration kernel of the benchmark's own is timed between the items
of each pass, and in each import interpreter, and the times are multiplied by
``calibrate.NOMINAL_S`` over its median there.  On a shared virtual machine
both steps are needed to keep runs of the same code within the regression
bounds; ``calibrate.py`` says why.  The traced run times in wall seconds,
unscaled, as its per-layer self times do.

``--trace 1`` repeats the first pass, running every item untraced and then
traced, and reports the per-layer metrics of ``tracer.Tracer.metrics``,
including ``trace.overhead``.  Counts repeat exactly for a given seed.

Every run checks the program's outputs: each ``check Pk`` must print its
``pass`` line and exit 0, and each round trip must reach a fixed point and
parse to the generators' values.  The sha256 of the first pass's output is
printed so that two commits can be compared byte for byte; a traced item must
print what its untraced run printed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, Calibration
from tracer import Tracer, assert_clean

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("check_d2", "check_d4", "session_rt")
IMPORT_SAMPLES = 9
SMOKE_IMPORT_SAMPLES = 2
# calibrate is imported only after the timed import, so that the modules it
# loads (fractions, random, ...) are still genform's to load
_IMPORT_PROBE = ("import statistics, sys, time\n"
                 "start = time.process_time()\n"
                 "import genform, genform.cli\n"
                 "spent = time.process_time() - start\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "import calibrate\n"
                 "speed = statistics.median(calibrate.sample() for _ in range(5))\n"
                 "print(spent, speed)\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single pass, to check the benchmark works")
    return parser.parse_args(argv)


def import_seconds(samples: int) -> float:
    """Median import time of genform and its CLI across fresh interpreters,
    each scaled by the calibration kernel's speed in that interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for index in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(BENCH)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        if index:  # the first interpreter only fills the bytecode cache
            spent, speed = map(float, done.stdout.split())
            times.append(spent * NOMINAL_S / speed)
    return statistics.median(times)


def _checked(workload, result) -> int:
    """Verify a pass, then drop what only the check needed."""
    failed = workload.verify(result)
    result.results = None
    return failed


def run_untraced(workload, seconds: float) -> tuple[dict, list, int]:
    """Run passes until the next would end after ``seconds`` of wall time."""
    assert_clean()
    calibration = Calibration()
    passes, times, latencies = [], [], []
    failed = 0
    start = time.perf_counter()
    while True:
        (result,) = workload.run_pass(len(passes), calibration=calibration)
        failed += _checked(workload, result)
        if passes:  # only the first pass's output is digested
            result.outputs = []
        passes.append(result)
        factor = calibration.factor()
        times.append(result.seconds * factor)
        latencies += [x * factor for x in result.latencies]
        spent = time.perf_counter() - start
        if workload.smoke or spent + spent / len(passes) > seconds:
            break
    metrics = {
        "verdict_s": (statistics.median(times), "s"),
        "latency_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms.p90": (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
                           "ms"),
        "items_per_s": (len(latencies) / sum(times), "1/s"),
    }
    return metrics, passes, failed


def run_traced(workload, seconds: float) -> tuple[dict, list, int]:
    """Repeat the first pass, each item untraced and then traced."""
    tracer = Tracer()
    plain, traced = [], []
    failed = 0
    while True:
        assert_clean()
        untraced_pass, traced_pass = workload.run_pass(0, tracer)
        failed += _checked(workload, untraced_pass) + _checked(workload, traced_pass)
        failed += sum(a != b for a, b in zip(untraced_pass.outputs, traced_pass.outputs))
        plain.append(untraced_pass)
        traced.append(traced_pass)
        spent = sum(p.seconds for p in plain + traced)
        if workload.smoke or spent * (len(plain) + 1) / len(plain) > seconds:
            break
    assert_clean()
    metrics = tracer.metrics(len(traced), sum(p.seconds for p in traced),
                             sum(p.seconds for p in plain))
    return metrics, plain + traced, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "genform" / "__init__.py").is_file():
        print(f"bench: no genform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import genform
    from workloads import Workload, digest  # imports genform, so only now

    if Path(genform.__file__).resolve().parent != (SRC / "genform").resolve():
        print(f"bench: imported genform from {genform.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed, smoke=args.smoke,
                        **({"clock": time.perf_counter} if args.trace else {}))
    workload.prepare()
    if args.trace:
        metrics, passes, failed = run_traced(workload, args.seconds)
        print(f"digest {args.workload} seed={args.seed} untraced={digest(passes[0].output)} "
              f"traced={digest(passes[-1].output)}")
    else:
        setup = import_seconds(SMOKE_IMPORT_SAMPLES if args.smoke else IMPORT_SAMPLES)
        metrics, passes, failed = run_untraced(workload, args.seconds)
        print(f"digest {args.workload} seed={args.seed} sha256={digest(passes[0].output)}")
    attempted = sum(len(p.latencies) for p in passes)
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": (setup, "s"), **metrics,
                   "peak_rss_mb": (rss_kb / 1024, "MB"),
                   "pass_ratio": ((attempted - failed) / attempted, "ratio")}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
