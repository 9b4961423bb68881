"""Every pair operation against the ζ-algebra oracle of ``oracle_zeta``.

At dims 1-4, for k = 0 and k != 0 and a few fixed seeds, each operation
runs on every pair degree in [-1, n] (every degree pair for wedge).  A pair
form result is compared with the oracle's as one element a_p + a_{p+1} ∧ ζ
together with its degree, which is the generator rule's degree even for a
zero result, and a pair vector result by its parts.
"""

from fractions import Fraction

import pytest

from genform import Chart, GenConfig, gen_gform, gen_gvector
from oracle_zeta import Oracle, pair_element, vector_element, vector_parts, wedge

NAMES = ("x", "y", "z", "w")
KS = (Fraction(0), Fraction(-2, 3))
SEEDS = (0, 1, 2, 3)


def comparisons(n):
    """(label, got, expected) for every operation at dim n, each k and each seed."""
    for k in KS:
        chart = Chart(NAMES[:n], k)
        oracle = Oracle(chart)
        for seed in SEEDS:
            cfg = GenConfig(seed=seed, dimension=n, k=k)
            V = gen_gvector(cfg, ("V",), chart)
            W = gen_gvector(cfg, ("W",), chart)
            v, w = vector_parts(V), vector_parts(W)
            forms = {p: gen_gform(cfg, p, ("a",), chart) for p in range(-1, n + 1)}
            at = f"k={k} seed={seed}"

            def form_case(name, result, degree, expected):
                return (f"{name} {at}", (result.degree, pair_element(result)),
                        (degree, expected))

            for p, a in forms.items():
                e = pair_element(a)
                for q, b in forms.items():
                    yield form_case(f"wedge p={p} q={q}", a.wedge(b), p + q,
                                    wedge(e, pair_element(b)))
                yield form_case(f"d p={p}", a.d(), p + 1, oracle.d(e))
                yield form_case(f"contract p={p}", V.contract(a), p - 1, oracle.contract(v, e))
                yield form_case(f"lie p={p}", V.lie(a), p, oracle.lie(v, e))
                yield form_case(f"lie_cartan p={p}", V.lie_cartan(a), p, oracle.lie_cartan(v, e))
            for name, result, expected in (("V.lie(W)", V.lie(W), oracle.vector_lie(v, w)),
                                           ("V.commutator(W)", V.commutator(W),
                                            oracle.commutator(v, w))):
                yield (f"{name} {at}", (None, vector_element(*vector_parts(result))),
                       (None, vector_element(*expected)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_operations_follow_the_generator_rules(n):
    cases = list(comparisons(n))
    assert [label for label, got, expected in cases if got != expected] == []
    # the comparisons are not vacuous: most expected results are nonzero
    assert sum(bool(expected[1]) for _, _, expected in cases) > len(cases) // 2
