"""The scaling of a pair vector by a pair zero-form, against sympy.

``scaled_by`` is the one row of the pair calculus that the ζ oracle
(``oracle_zeta``) cannot derive, because a0 ∧ I_V is not a contraction by a
pair vector.  Here the row

    a0 V = (a0_0 v1, a0_0 v0 + i_{v1} a0_1)

is recomputed with sympy polynomials over ``Rational`` coefficients.  The
inputs are read only through ``.terms``, ``.components``, ``.v1``, ``.v0``,
``.ordinary`` and ``.companion``, so no genform arithmetic takes part in the
expected value, and the result is compared coefficient by coefficient.
"""

from fractions import Fraction

import pytest

from genform import (Chart, Form, GenConfig, GeneralizedForm, GeneralizedVector, VectorField,
                     gen_gform, gen_gvector)

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z", "w")
KS = (Fraction(0), Fraction(2, 3))
SEEDS = range(6)


def to_sympy(f, xs):
    """The polynomial of a ScalarField, built from its ``.terms`` alone."""
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                       for exps, c in f.terms.items()))


def coefficients(expr, xs) -> dict:
    """``{exponents: Fraction}`` of a sympy polynomial, without zero coefficients."""
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *xs, domain="QQ").as_dict(native=False).items()
            if c != 0}


def component(form, key, xs):
    """The coefficient of the basis block ``key`` of a form, 0 when it has none."""
    f = form.components.get(key)
    return sympy.Integer(0) if f is None else to_sympy(f, xs)


def expected_row(V, a0, xs):
    """The components of a0_0 v1, then a0_0 v0 + i_{v1} a0_1, then i_{v1} a0_1,
    as sympy polynomials."""
    alpha0 = component(a0.ordinary, (), xs)
    v1 = [to_sympy(c, xs) for c in V.v1.components]
    contraction = sympy.expand(sympy.Add(*(c * component(a0.companion, (i,), xs)
                                           for i, c in enumerate(v1))))
    return ([sympy.expand(alpha0 * c) for c in v1],
            sympy.expand(alpha0 * to_sympy(V.v0, xs) + contraction), contraction)


def cases(n, k):
    """(label, V, a0) drawn at dim n, with a zero v1 and a zero companion among them."""
    chart = Chart(NAMES[:n], k)
    for seed in SEEDS:
        cfg = GenConfig(seed=seed, dimension=n, k=k)
        V = gen_gvector(cfg, ("V",), chart)
        a0 = gen_gform(cfg, 0, ("a0",), chart)
        yield f"seed={seed}", V, a0
        yield f"seed={seed} zero v1", GeneralizedVector(VectorField.zero(chart), V.v0), a0
        yield f"seed={seed} zero companion", V, GeneralizedForm(a0.ordinary, Form.zero(chart, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", KS)
def test_scaled_by_matches_its_row_computed_by_sympy(n, k):
    xs = sympy.symbols(NAMES[:n])
    contracted = 0
    for label, V, a0 in cases(n, k):
        got = V.scaled_by(a0)
        v1, v0, contraction = expected_row(V, a0, xs)
        assert [dict(c.terms) for c in got.v1.components] == [coefficients(c, xs)
                                                               for c in v1], label
        assert dict(got.v0.terms) == coefficients(v0, xs), label
        contracted += contraction != 0
    assert contracted >= len(SEEDS) // 2  # the i_{v1} a0_1 term is exercised
