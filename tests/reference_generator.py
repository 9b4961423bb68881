"""The trial generator's scalar draws, frozen as the stream's reference.

A frozen copy of the helper-per-draw generator: every uniform draw goes
through ``below``, CPython's ``Random._randbelow``.  ``genform.harness``
draws the same way through its own ``_below``, but this copy does not
follow it: ``tests/test_generator_stream.py`` checks the harness's draws
against it, value for value and generator state for generator state, so a
change to the harness that moves the stream fails there.
"""

from math import lcm

from genform.scalars import _from_ints


def below(getrandbits, n):
    """A uniform draw from range(n), n >= 1, as CPython's ``Random._randbelow``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def gen_ratio(rng, bound, nonzero=False):
    """A random rational as (numerator, positive denominator), not reduced."""
    bits = rng.getrandbits
    if nonzero:
        num = (1 + below(bits, bound)) * (-1, 1)[below(bits, 2)]
    else:
        num = below(bits, 2 * bound + 1) - bound
    return num, 1 + below(bits, bound)


def scalar(rng, cfg, chart):
    bits = rng.getrandbits
    n = chart.dim
    terms = []
    for _ in range(1 + below(bits, cfg.max_terms)):
        exps = [0] * n
        remaining = below(bits, cfg.max_poly_degree + 1)
        for i in range(n - 1):
            e = below(bits, remaining + 1)
            exps[i] = e
            remaining -= e
        exps[n - 1] = remaining
        for i in range(n - 1, 0, -1):  # rng.shuffle(exps)
            j = below(bits, i + 1)
            exps[i], exps[j] = exps[j], exps[i]
        terms.append((tuple(exps), *gen_ratio(rng, cfg.coefficient_bound, nonzero=True)))
    # integer numerators over the lcm of the drawn denominators
    den = lcm(*(d for _, _, d in terms))
    num = {}
    for exps, c, d in terms:
        num[exps] = num.get(exps, 0) + c * (den // d)
    return _from_ints(chart, {e: c for e, c in num.items() if c}, den)
