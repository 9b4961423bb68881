r"""A complete certificate of P1-P17 at dim 1, by derivative order.

Random trials sample the inputs of each identity; this test covers all of
them at dim 1, under one assumption stated below.

The argument.  For fixed form degrees, the residual lhs - rhs of each
equation an identity checks is multilinear in the coefficient functions of
its slots, and has constant coefficients: the operators use products and
∂_x only, never the coordinate x itself, and k is a constant.  So each
component of the residual is

    R = Σ c_α ∂^{α_1} f_1 ⋯ ∂^{α_m} f_m,

summed over the components f_j of the slots.  With f_j = x^{β_j} for
every j, evaluating R at 0 leaves β_1! ⋯ β_m! c_β alone.  Hence R = 0 for
every input if and only if R = 0 on every tuple of single-component basis
inputs whose coefficient is a monomial of degree at most D, where D bounds
the derivative order R applies to one slot.  D is at most the nesting depth
of the first-order operators (d, lie, lie_cartan, commutator, bracket):

    D = 0  P1-P3, P6-P8     (wedge, scaled_by and contract only)
    D = 1  P5, P9-P13, P15, P17
    D = 2  P4 (d d), P14 (lie of lie, lie along a commutator),
           P16 (commutator of a commutator)

The residual is also a polynomial in k, of degree at most the nesting depth
of the operators that carry k (the pair d and lie): 2 for P4 and P14; 0
for P1-P3, P6-P8, P15 and P16; 1 for the rest, where P17's k terms all
multiply a zero v0 or companion.  So the three values k = 0, 1 and -2
decide it.

The basis inputs, for each degree in [-1, 1] of each form slot:
  - a scalar slot is one monomial, and a const slot is the constant 1;
  - a form is one key with one monomial coefficient;
  - a pair form is such a form in one part and zero in the other;
  - a vector field is one component, a pair vector one component of v1 or
    its v0, each one monomial.

The assumption.  Completeness is a claim about the formulas, so it holds
only if the code's residual has the shape above.  That is true of the
kernels as written, but nothing here checks it: a fault that breaks
multilinearity, that appears only at exponent D + 1 and above, or that
scales a const slot other than 1 differently could pass.  In P8 and in
the last two equations of P15 a slot appears in only some terms (R is
affine in it), so the same shape must hold term by term.  The dims 2-3
certificate is a separate, longer run.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

from genform import (IDENTITIES, Chart, Form, GeneralizedForm, GeneralizedVector, ScalarField,
                     VectorField, render_session)

KS = (Fraction(0), Fraction(1), Fraction(-2))
ORDER = {"P4": 2, "P14": 2, "P16": 2,
         **{f"P{i}": 0 for i in (1, 2, 3, 6, 7, 8)}}  # 1 for every other identity


def basis(chart, kind, D, degree=None):
    """The single-component basis values of one slot kind, monomials of degree <= D."""
    n = chart.dim
    monomials = [ScalarField(chart, {e: 1}) for e in product(range(D + 1), repeat=n)
                 if sum(e) <= D]
    zero = chart.constant(0)

    def forms(p):
        keys = list(combinations(range(n), p)) if 0 <= p <= n else []
        return [Form(chart, p, {key: m}) for key in keys for m in monomials]

    def vectors():
        return [VectorField(chart, tuple(m if j == i else zero for j in range(n)))
                for i in range(n) for m in monomials]

    if kind == "scalar":
        return monomials
    if kind == "const":
        return [chart.constant(1)]
    if kind == "form":
        return forms(degree)
    if kind in ("gform", "gform0"):
        p = 0 if kind == "gform0" else degree
        return ([GeneralizedForm(f, Form.zero(chart, p + 1)) for f in forms(p)]
                + [GeneralizedForm(Form.zero(chart, p), f) for f in forms(p + 1)])
    if kind == "vector":
        return vectors()
    assert kind == "gvector", kind
    return ([GeneralizedVector(v, zero) for v in vectors()]
            + [GeneralizedVector(VectorField.zero(chart), m) for m in monomials])


def tuples(name, chart):
    """Every input tuple of identity ``name``, as a slot environment, at every form degree."""
    ident, D = IDENTITIES[name], ORDER.get(name, 1)
    degree_slots = [slot for slot, kind in ident.slots if kind in ("form", "gform")]
    for degrees in product(range(-1, chart.dim + 1), repeat=len(degree_slots)):
        degree_of = dict(zip(degree_slots, degrees))
        choices = [basis(chart, kind, D, degree_of.get(slot)) for slot, kind in ident.slots]
        for values in product(*choices):
            yield dict(zip((slot for slot, _ in ident.slots), values))


def certificate_failures(name):
    """(count of tuples, sessions of the failing ones) for one identity at dim 1."""
    count, failures = 0, []
    for k in KS:
        chart = Chart(("x",), k)
        for env in tuples(name, chart):
            count += 1
            if any(lhs != rhs for lhs, rhs in IDENTITIES[name].check(chart, **env)):
                failures.append(render_session(chart, env))
    return count, failures


def test_the_certificate_runs_4704_tuples():
    assert set(IDENTITIES) == {f"P{i}" for i in range(1, 18)}
    assert sum(1 for name in IDENTITIES for k in KS
               for _ in tuples(name, Chart(("x",), k))) == 4704


@pytest.mark.parametrize("name", sorted(IDENTITIES, key=lambda name: int(name[1:])))
def test_every_identity_holds_on_every_basis_tuple_at_dim_1(name):
    count, failures = certificate_failures(name)
    assert count > 0
    assert failures == [], "\n\n".join(failures[:3])
