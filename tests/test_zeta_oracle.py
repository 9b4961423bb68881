"""Every pair operation against the ζ-algebra oracle of ``oracle_zeta``.

At dims 1-4, for k = 0 and k != 0 and a few fixed seeds, each operation
runs on every pair degree in [-1, n] (every degree pair for wedge).  A pair
form result is compared with the oracle's as one element a_p + a_{p+1} ∧ ζ
together with its degree, which is the generator rule's degree even for a
zero result, and a pair vector result by its parts.

The next two tests complete the graded Cartan table beyond P4, P9, P13 and
P14: the oracle builds {I_V, I_W} and [d, L^_V] from their values on
generators with its own ``_extend``, and each is also checked against the
closed form its docstring derives.

The next two state the algebra of the uncorrected derivative L^c_V =
I_V d + d I_V (``lie_cartan``), which P9-P11 relate to other operations
but no identity states on its own: [d, L^c_V] = 0 and
[L^c_V, L^c_W] = L^c_{{V,W}}, with the commutator {V,W} of the corrected
algebra.  Each law is checked on the library's values and on the oracle's
own compositions, and the library's side is compared with the oracle's.

The last one checks the README's V.lie(W) - V.commutator(W) =
(k v0 w1, L_{w1} v0) against the oracle's two vector rules and their closed
form.  The Leibniz rule of L^_V over ``scaled_by`` is not among these: the
ζ algebra cannot state ``scaled_by`` (see ``oracle_zeta``), so that law is
checked against the library's closed forms only, in ``test_generalized``.
"""

from fractions import Fraction

import pytest

from genform import Chart, Form, GenConfig, GeneralizedForm, gen_gform, gen_gvector
from oracle_zeta import (Oracle, _apply, _extend, add, pair_element, vector_element,
                         vector_parts, wedge)

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


CARTAN_KS = (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-5, 3))
CARTAN_SEEDS = (0, 1, 2)


def vector_pairs(n):
    """(label, cfg, chart, oracle, V, W) for each k and seed at dim n."""
    for k in CARTAN_KS:
        chart = Chart(NAMES[:n], k)
        oracle = Oracle(chart)
        for seed in CARTAN_SEEDS:
            cfg = GenConfig(seed=seed, dimension=n, k=k)
            V = gen_gvector(cfg, ("V",), chart)
            W = gen_gvector(cfg, ("W",), chart)
            yield f"k={k} seed={seed}", cfg, chart, oracle, V, W


def cartan_instances(n):
    """(label, chart, oracle, V, W, p, a) for each k, seed and pair degree at dim n."""
    for label, cfg, chart, oracle, V, W in vector_pairs(n):
        for p in range(-1, n + 1):
            yield (f"{label} p={p}", chart, oracle, V, W, p, gen_gform(cfg, p, ("a",), chart))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_anticommutator_follows_its_generator_values(n):
    r"""{I_V, I_W} = I_V I_W + I_W I_V against the oracle and its closed form.

    Both contractions are odd antiderivations, so their anticommutator is an
    even derivation, fixed by its values on generators:
      f:    I_V I_W f + I_W I_V f = 0, as I f = 0;
      dx_i: I_W dx_i = w1^i + w0 dx_i ζ, and I_V w1^i = 0, while
            I_V (w0 dx_i ∧ ζ) = w0 (v1^i + v0 dx_i ζ) ∧ ζ - w0 dx_i ∧ I_V ζ
            = w0 v1^i ζ, since ζ ∧ ζ = 0 and I_V ζ = 0; with the same
            terms for I_W I_V, dx_i ↦ (w0 v1^i + v0 w1^i) ζ;
      ζ:    I ζ = 0, so ζ ↦ 0.
    On f dx_I with p slots the derivation puts u^{i_s} ζ in slot s, where
    u = w0 v1 + v0 w1; moving ζ past the p - s slots after it gives
    (-1)^{p-s} = (-1)^{p-1} (-1)^{s-1}, and (-1)^{s-1} u^{i_s} dx_{I \ i_s}
    summed over s is i_u.  On a_{p+1} ∧ ζ every term ends in ζ ∧ ζ = 0 or
    contains I ζ = 0.  So {I_V, I_W} a = (0, (-1)^{p-1} i_u a_p), of degree
    p - 2.
    """
    failures, nonzero, count = [], 0, 0
    for label, chart, oracle, V, W, p, a in cartan_instances(n):
        (v1, v0), (w1, w0) = vector_parts(V), vector_parts(W)
        zeta = n

        def on_generator(g):
            u = w0 * v1[g] + v0 * w1[g] if g != zeta else 0
            return {(zeta,): u} if u else {}

        expected = _extend(pair_element(a), lambda f: {}, on_generator, odd=False)
        got = V.contract(W.contract(a)) + W.contract(V.contract(a))
        u = w0 * V.v1 + v0 * W.v1
        sign = 1 if p % 2 else -1  # (-1)^{p-1}
        closed = GeneralizedForm(Form.zero(chart, p - 2), sign * u.contract(a.ordinary))
        if (got.degree, pair_element(got)) != (p - 2, expected) or got != closed:
            failures.append(label)
        nonzero += bool(expected)
        count += 1
    assert failures == []
    assert count == 12 * (n + 2)
    if n > 1:  # at dim 1 only p = 1 has a nonzero i_u a_p
        assert nonzero > count // 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_of_d_and_the_corrected_lie_derivative(n):
    r"""[d, L^_V] = d L^_V - L^_V d against the oracle and its closed form.

    d is an odd antiderivation and L^_V an even derivation, so their
    commutator is an odd antiderivation, fixed by its values on generators:
      f:    d(v1(f)) - L^_V(Σ_i ∂_i f dx_i).  The first is
            Σ_j ∂_j f dv1^j + Σ_i v1(∂_i f) dx_i, and L^_V dx_i =
            dv1^i - k v0 dx_i makes the second Σ_i v1(∂_i f) dx_i +
            Σ_i ∂_i f (dv1^i - k v0 dx_i), so f ↦ k v0 df;
      dx_i: d(dv1^i - k v0 dx_i) - L^_V(d dx_i) = -k dv0 ∧ dx_i;
      ζ:    d(L^_V ζ) - L^_V(dζ) = d0 - v1(k) = 0.
    On f dx_I with p slots, slot s gives (-1)^{s-1} dx_{i_1} ... ∧
    (-k dv0 ∧ dx_{i_s}) ∧ ..., and moving dv0 to the front undoes that
    sign, so the slots add -p k dv0 ∧ f dx_I to k v0 df ∧ dx_I.  On
    a_{p+1} ∧ ζ the ζ term vanishes.  So
    [d, L^_V] a = k (v0 da_p - p dv0 ∧ a_p, v0 da_{p+1} - (p+1) dv0 ∧ a_{p+1}),
    of degree p + 1.
    """
    failures, nonzero, count = [], 0, 0
    for label, chart, oracle, V, W, p, a in cartan_instances(n):
        k, v0 = chart.k, V.v0
        kv0 = k * v0
        dv0 = oracle.d({(): v0} if v0 else {})

        def on_function(f):
            return {(i,): c for i in range(n) if (c := kv0 * f.diff(i))}

        def on_generator(g):
            return wedge(dv0, {(g,): -k * oracle.one}) if g != n and k else {}

        expected = _extend(pair_element(a), on_function, on_generator, odd=True)
        got = V.lie(a).d() - V.lie(a.d())
        dv0_form = Form.from_scalar(v0).d()

        def slot(form, degree):
            return k * (v0 * form.d() - degree * dv0_form.wedge(form))

        closed = GeneralizedForm(slot(a.ordinary, p), slot(a.companion, p + 1))
        if (got.degree, pair_element(got)) != (p + 1, expected) or got != closed:
            failures.append(label)
        nonzero += bool(expected)
        count += 1
    assert failures == []
    assert count == 12 * (n + 2)
    assert nonzero > count // 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_commutes_with_the_uncorrected_lie_derivative(n):
    r"""[d, L^c_V] = d L^c_V - L^c_V d = 0, in the library and in the oracle.

    I_V and d are odd, so L^c_V = I_V d + d I_V is their graded commutator,
    and d L^c_V - L^c_V d = d I_V d + d d I_V - I_V d d - d I_V d
    = d² I_V - I_V d².  d² is the even derivation ½[d, d], which vanishes on
    every generator: d²f = Σ_{i,j} ∂_j ∂_i f dx_j ∧ dx_i = 0,
    d² dx_i = 0 and d² ζ = d k = 0.  So d² = 0 (P4) and [d, L^c_V] a = 0,
    a zero of degree p + 1, for every k.  Unlike [d, L^_V], whose closed
    form carries k, nothing of this law depends on the deformation.
    """
    failures, nonzero, count = [], 0, 0
    for label, chart, oracle, V, W, p, a in cartan_instances(n):
        v, e = vector_parts(V), pair_element(a)
        image = V.lie_cartan(a).d()
        got = image - V.lie_cartan(a.d())
        expected = add(oracle.d(oracle.lie_cartan(v, e)),
                       oracle.lie_cartan(v, oracle.d(e)), -1)
        if not got.is_zero or got.degree != p + 1 or expected != {}:
            failures.append(label)
        nonzero += bool(image)
        count += 1
    assert failures == []
    assert count == 12 * (n + 2)
    assert nonzero > count // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_of_uncorrected_lie_derivatives_is_along_the_bracket(n):
    r"""[L^c_V, L^c_W] = L^c_{{V,W}}, in the library and in the oracle.

    Both sides are even derivations: L^c_V is the graded commutator of the
    odd I_V and d, and a commutator of even derivations is one.  Both kill
    ζ, as L^c_V ζ = I_V k + d I_V ζ = 0, and both commute with d: the left
    side by the graded Jacobi identity and [d, L^c_V] = 0 (the test
    above), the right side by that law itself.  So each is fixed by its
    values on functions, since D dx_i = D d x_i = d D x_i.  On a function,
    I_V df = Σ_i ∂_i f (v1^i + v0 dx_i ∧ ζ) and I_V f = 0 give
    L^c_V f = v1(f) + v0 df ∧ ζ.  So L^c_V df = d L^c_V f =
    d v1(f) + dv0 ∧ df ∧ ζ - k v0 df, as dζ = k, and with ζ ∧ ζ = 0
      L^c_V L^c_W f = v1(w1(f)) + (v0 d w1(f) + v1(w0) df + w0 d v1(f)
                       - k v0 w0 df) ∧ ζ.
    Subtracting V ↔ W cancels the v0 d w1(f), the w0 d v1(f) and the k
    terms, so [L^c_V, L^c_W] f = [v1, w1](f) + (v1(w0) - w1(v0)) df ∧ ζ,
    which is L^c_X f for X = ([v1, w1], L_{v1} w0 - L_{w1} v0) = {V, W}.
    The Lie bracket ``V.lie(W)``, with its k v0 w1 term, would not do.
    """
    failures, nonzero, count = [], 0, 0
    for label, chart, oracle, V, W, p, a in cartan_instances(n):
        v, w, e = vector_parts(V), vector_parts(W), pair_element(a)
        left = V.lie_cartan(W.lie_cartan(a)) - W.lie_cartan(V.lie_cartan(a))
        right = V.commutator(W).lie_cartan(a)
        oracle_left = add(oracle.lie_cartan(v, oracle.lie_cartan(w, e)),
                          oracle.lie_cartan(w, oracle.lie_cartan(v, e)), -1)
        oracle_right = oracle.lie_cartan(oracle.commutator(v, w), e)
        if (left != right or left.degree != p or oracle_left != oracle_right
                or pair_element(left) != oracle_left):
            failures.append(label)
        nonzero += bool(left)
        count += 1
    assert failures == []
    assert count == 12 * (n + 2)
    assert nonzero > count // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lie_bracket_minus_commutator_is_the_readme_closed_form(n):
    r"""V.lie(W) - V.commutator(W) = (k v0 w1, L_{w1} v0), in three computations.

    The oracle reads V.lie(W) off [L_V, I_W] dx_i = I_X dx_i and
    V.commutator(W) off [L_V, L_W] = L_Y on x_i and dx_i (the derivations in
    ``oracle_zeta``):
      [L_V, I_W] dx_i = ([v1, w1] + k v0 w1)^i + L_{v1} w0 dx_i ζ, so
            X = ([v1, w1] + k v0 w1, L_{v1} w0);
      [L_V, L_W] x_i = [v1, w1]^i and [L_V, L_W] dx_i =
            d [v1, w1]^i - k (L_{v1} w0 - L_{w1} v0) dx_i, so
            Y = ([v1, w1], L_{v1} w0 - L_{w1} v0).
    Part by part, the bracket [v1, w1] and L_{v1} w0 cancel in X - Y, which
    leaves (k v0 w1, L_{w1} v0).  As {V,W} is antisymmetric and
    k-independent, this difference holds all of the Lie bracket's k
    dependence and its failure of antisymmetry; it vanishes when k v0 = 0
    and w1(v0) = 0, as for constant v0 at k = 0.
    """
    failures, nonzero, count = [], 0, 0
    for label, cfg, chart, oracle, V, W in vector_pairs(n):
        v, w = vector_parts(V), vector_parts(W)
        v0, w1 = v[1], w[0]
        (x1, x0), (y1, y0) = oracle.vector_lie(v, w), oracle.commutator(v, w)
        oracle_side = vector_element([xi - yi for xi, yi in zip(x1, y1)], x0 - y0)
        closed = vector_element([chart.k * v0 * wi for wi in w1], _apply(w1, v0))
        got = vector_element(*vector_parts(V.lie(W) - V.commutator(W)))
        if not got == oracle_side == closed:
            failures.append(label)
        nonzero += bool(closed)
        count += 1
    assert failures == []
    assert count == 12
    assert nonzero > count // 2
