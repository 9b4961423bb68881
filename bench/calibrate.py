"""The benchmark's clock, and host-speed calibration by a fixed kernel.

On a shared virtual machine two things make times of the same work differ
between runs by more than a regression bound:

* the hypervisor gives part of this vCPU's time to other guests ("steal":
  3-10% of a busy minute on a 2-vCPU host, more when the host is loaded).
  ``clock`` reads CPU seconds, which leave steal out;
* the core itself runs up to 1.6 times faster or slower as the other guests
  load the machine, switching within seconds or holding for a whole run.
  ``Calibration`` times this module's kernel, which never changes and never
  calls genform, between the items of every pass, and scales the pass's
  times by ``NOMINAL_S / median(kernel samples of the pass)``: a time is
  reported as the seconds the work takes at the host speed where one sample
  takes ``NOMINAL_S``.  A change to genform moves the items and not the
  kernel, so it shows in full; a change in host speed moves both and cancels.

The kernel is chosen because it slows down with the host as genform does: a
product of two fixed 30-term polynomials in four variables with large
``Fraction`` coefficients, the same dict-of-exponent-tuples work as
genform's scalar product.  Over 50 s runs of check_d2 in which the raw pass
time ranged over 4.3-5.6 s, the scaled time stayed within 5%; smaller or more
scattered kernels tracked the host less closely.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from fractions import Fraction

# Median of one sample on a loaded 2-vCPU x86-64 host, Python 3.11.7.  It only
# sets the scale of the reported seconds; both sides of a comparison use it.
NOMINAL_S = 0.0093
# One sample after every INTERVAL_S of item time: about 5% of a run.
INTERVAL_S = 0.2


def clock() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    For this single-threaded, CPU-bound program CPU time is the wall time the
    work takes without steal.  Children count, so work moved into
    subprocesses is still timed.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _poly(rng: random.Random) -> dict:
    return {tuple(rng.randrange(5) for _ in range(4)):
            Fraction(rng.randrange(1, 10 ** 6) * rng.choice((-1, 1)), rng.randrange(1, 10 ** 4))
            for _ in range(30)}


_RNG = random.Random("calibration")
_A, _B = _poly(_RNG), _poly(_RNG)


def kernel() -> dict:
    """One unit of reference work; its result never varies."""
    acc: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return acc


_EXPECTED = kernel()


def sample() -> float:
    """CPU seconds of one run of the kernel."""
    start = clock()
    result = kernel()
    spent = clock() - start
    if result != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return spent


class Calibration:
    """Samples the kernel between items and gives each pass its speed factor."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def start_pass(self) -> None:
        self.samples = [sample()]
        self._due = 0.0

    def after_item(self, seconds: float) -> None:
        self._due += seconds
        if self._due >= INTERVAL_S:
            self._due = 0.0
            self.samples.append(sample())

    def factor(self) -> float:
        """Multiplier from this pass's seconds to seconds at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
