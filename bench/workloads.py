"""The benchmark's workloads: inputs, one pass of work, and its correctness check.

Every workload is a closed loop with one caller in one thread: the next item
starts only after the previous one returned.  A *pass* is the workload's unit
of repetition and an *item* is one result a user receives:

* ``check_d2`` / ``check_d4``: an item is one ``genform check Pk`` command
  through ``genform.cli.main``, and a pass runs P1..P17 in order, the same
  trials as one ``check all`` sweep.  The first pass gives every identity the
  benchmark seed, so its output is byte for byte that of
  ``check all --seed S``.  Later passes give each identity its own seed: with
  one seed for all, P10, P13 and P14 draw the same inputs, so one heavy draw
  slows all three at once.  At dim 4 that made one pass vary by about 11%
  (standard deviation over seeds) against about 6% with a seed per identity.
* ``session_rt``: a pass is one round trip of each of 200 generated session
  texts; an item is one round trip, parse -> render -> parse -> render.  The
  first pass uses the texts of the benchmark seed, later passes fresh texts
  of their own (generated before the pass, untimed), so that a run's
  latency quantiles rest on a thousand texts or more and not on the few
  heaviest of one set of 200.

``check_d4`` is left out of BENCHMARK.json so that the two workloads there
get long runs within the benchmark's time budget.  Run it by hand to see a
coefficient-kernel change at its largest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from typing import Callable

import genform
import genform.cli

import calibrate

CHECK_ARGS = {"check_d2": ("2", "100"), "check_d4": ("4", "25")}
SMOKE_CHECK_ARGS = {"check_d2": ("2", "5"), "check_d4": ("4", "2")}
SESSION_TEXTS = 200
SMOKE_SESSION_TEXTS = 20
SESSION_BYTES = 700
NAMES = tuple(genform.IDENTITIES)


@dataclass
class Pass:
    """What one pass did: its time, item latencies and output.

    ``results`` holds what ``Workload.verify`` needs, so the check can run
    after the pass and outside any tracing.
    """

    seconds: float
    latencies: list[float]
    outputs: list[str]
    results: list

    @property
    def output(self) -> str:
        return "".join(self.outputs)


@dataclass
class SessionCase:
    text: str
    expected: dict  # definition name -> value built by the generators


@dataclass
class Workload:
    name: str
    seed: int
    smoke: bool = False
    # times items: CPU seconds by default, wall seconds for traced runs
    clock: Callable[[], float] = calibrate.clock
    cases: list[SessionCase] = field(default_factory=list)

    def prepare(self) -> None:
        """Generate the first pass's inputs; the benchmark's own work, never timed."""
        if self.name == "session_rt":
            self.cases = self._sessions(0)
        elif self.name not in CHECK_ARGS:
            raise ValueError(f"unknown workload {self.name!r}")

    def run_pass(self, index: int, tracer=None, calibration=None) -> list[Pass]:
        """Run pass ``index``: ``[untraced]``, or with a tracer ``[untraced, traced]``.

        With a tracer every item runs twice in a row, untraced then traced, so
        that a drift in host speed falls on both sides alike.  A
        ``calibrate.Calibration`` samples host speed between the items.
        """
        runs = [[] for _ in range(1 if tracer is None else 2)]
        if calibration is not None:
            calibration.start_pass()
        for item in self._items(index):
            runs[0].append(self._run_item(item))
            if tracer is not None:
                with tracer:
                    runs[1].append(self._run_item(item))
            if calibration is not None:
                calibration.after_item(runs[0][-1][0])
        return [Pass(sum(r[0] for r in run), [r[0] for r in run],
                     [r[1] for r in run], [r[2] for r in run]) for run in runs]

    def verify(self, result: Pass) -> int:
        """Count the items of a pass that gave a wrong answer."""
        if self.name in CHECK_ARGS:
            trials = (SMOKE_CHECK_ARGS if self.smoke else CHECK_ARGS)[self.name][1]
            return sum(status != 0 or text != f"{name}: pass ({trials} trials)\n"
                       for name, (status, text) in zip(NAMES, result.results))
        return sum(again != rendered or not _same_definitions(first.definitions, case.expected)
                   for case, first, rendered, again in result.results)

    def _items(self, index: int) -> list:
        if self.name not in CHECK_ARGS:
            return self.cases if index == 0 else self._sessions(index)
        dim, trials = (SMOKE_CHECK_ARGS if self.smoke else CHECK_ARGS)[self.name]
        return [["check", name, "--dim", dim, "--trials", trials,
                 "--seed", str(self.check_seed(index, identity))]
                for identity, name in enumerate(NAMES)]

    def _sessions(self, index: int) -> list[SessionCase]:
        count = SMOKE_SESSION_TEXTS if self.smoke else SESSION_TEXTS
        return make_sessions(self.seed, count, index)

    def check_seed(self, index: int, identity: int) -> int:
        return self.seed if index == 0 else self.seed * 1000 + 17 * index + identity

    def _run_item(self, item) -> tuple[float, str, tuple]:
        """Latency, output text and what ``verify`` needs, for one item."""
        if self.name in CHECK_ARGS:
            out = io.StringIO()
            start = self.clock()
            with contextlib.redirect_stdout(out):
                status = genform.cli.main(item)
            spent = self.clock() - start
            return spent, out.getvalue(), (status, out.getvalue())
        start = self.clock()
        first = genform.parse_session(item.text)
        rendered = first.render()
        again = genform.parse_session(rendered).render()
        spent = self.clock() - start
        return spent, rendered, (item, first, rendered, again)


def _same_definitions(parsed: dict, expected: dict) -> bool:
    return list(parsed) == list(expected) and all(
        parsed[name] == value for name, value in expected.items())


def make_sessions(seed: int, count: int, pass_index: int = 0) -> list[SessionCase]:
    """``count`` session texts of about SESSION_BYTES bytes each, dims 1-4, for
    pass ``pass_index`` of a run with ``seed``.

    Each text holds literal definitions drawn by the public generators plus
    one small power of its first scalar.  No compound operation (comm, L)
    appears: those would turn this into another scalar-kernel workload.
    """
    rng = random.Random(f"session_rt:{seed}" + (f":{pass_index}" if pass_index else ""))
    cases = []
    for index in range(count):
        cfg = genform.GenConfig(seed=rng.randrange(2 ** 31), dimension=index % 4 + 1,
                                max_poly_degree=4, max_terms=6)
        chart = genform.default_chart(cfg)
        exponent = rng.choice((2, 3, 4))
        defs = {"s0": genform.gen_scalar(cfg, 0, chart)}
        position = 1
        # the last definition and the power line bring the text to about SESSION_BYTES
        while len(genform.render_session(chart, defs)) < SESSION_BYTES - 100:
            kind = position % 3
            if kind == 0:
                value = genform.gen_scalar(cfg, position, chart)
                name = f"s{position}"
            elif kind == 1:
                degree = rng.randrange(-1, chart.dim + 1)
                value = genform.gen_gform(cfg, degree, position, chart)
                name = f"A{position}"
            else:
                value = genform.gen_gvector(cfg, position, chart)
                name = f"W{position}"
            defs[name] = value
            position += 1
        text = genform.render_session(chart, defs) + f"p = (s0 - 1)^{exponent}\n"
        base = defs["s0"] - 1
        power = chart.constant(1)
        for _ in range(exponent):
            power = power * base
        cases.append(SessionCase(text, {**defs, "p": power}))
    return cases


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
