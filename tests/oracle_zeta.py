r"""Independent oracle for the pair calculus: one odd generator ζ more.

A pair (a_p, a_{p+1}) is read as the single element a_p + a_{p+1} ∧ ζ of the
exterior algebra over the polynomials on dx_0, ..., dx_{n-1} and one more
odd generator ζ of degree -1, with ζ ∧ ζ = 0.  Both summands have degree p,
and a generator's parity is odd whatever its degree, so moving ζ past a
q-form gives (-1)^q.  A pair vector V = (v1, v0) acts through four rules,
each fixed by its values on a function f, on dx_i and on ζ:

  wedge  the exterior product;
  d      the antiderivation with  df = Σ_i ∂_i f dx_i,  d dx_i = 0,  dζ = k;
  I_V    the antiderivation with  I_V f = 0,  I_V dx_i = v1^i + v0 dx_i ∧ ζ,
         I_V ζ = 0;
  L_V    the derivation with  L_V f = v1(f),  L_V dx_i = d v1^i - k v0 dx_i,
         L_V ζ = 0.

An antiderivation D obeys D(α ∧ β) = Dα ∧ β + (-1)^{|α|} α ∧ Dβ, and a
derivation the same rule without the sign.  Every row of the table in
``genform.generalized`` follows, writing a = a_p + a_{p+1} ζ and
b = b_q + b_{q+1} ζ:

  wedge      a ∧ b = a_p b_q + a_p b_{q+1} ζ + a_{p+1} ζ b_q + a_{p+1} ζ b_{q+1} ζ,
             and ζ b_q = (-1)^q b_q ζ, ζ b_{q+1} ζ = ±b_{q+1} ζ ζ = 0, so
             a ∧ b = (a_p b_q, a_p b_{q+1} + (-1)^q a_{p+1} b_q).
  d          d(a_{p+1} ∧ ζ) = d a_{p+1} ∧ ζ + (-1)^{p+1} a_{p+1} k, so
             d a = (d a_p + (-1)^{p+1} k a_{p+1}, d a_{p+1}).
  contract   On f dx_{i_1} ∧ ... ∧ dx_{i_p}, slot s of I_V gives (-1)^{s-1}
             v1^{i_s} f dx_{I \ i_s}, the contraction i_{v1}, and
             (-1)^{s-1} v0 f dx_I ... ∧ ζ ∧ ... with ζ right after slot s;
             moving ζ past the p - s slots after it makes that
             (-1)^{p-1} v0 f dx_I ∧ ζ for every s, p of them in all.  On
             a_{p+1} ∧ ζ the v0 terms end in ζ ∧ ζ = 0 and I_V ζ = 0, so
             I_V a = (i_{v1} a_p, i_{v1} a_{p+1} + p (-1)^{p-1} v0 a_p).
  lie_cartan I_V d + d I_V, computed here from the two rules above.
  lie (form) L_V is the ordinary Lie derivative L_{v1} (L_{v1} dx_i = d v1^i)
             plus -k v0 for each dx_i, p of them in a_p and p + 1 in
             a_{p+1}; L_V ζ = 0, so
             L_V a = (L_{v1} a_p - p k v0 a_p, L_{v1} a_{p+1} - (p+1) k v0 a_{p+1}).
  lie (vector)  [L_V, I_W] dx_i = L_V(w1^i + w0 dx_i ζ) - I_W(d v1^i - k v0 dx_i)
             = v1(w1^i) + v1(w0) dx_i ζ + w0 (d v1^i - k v0 dx_i) ζ
               - w1(v1^i) - w0 d v1^i ζ + k v0 (w1^i + w0 dx_i ζ)
             = ([v1, w1] + k v0 w1)^i + L_{v1} w0 dx_i ζ,
             which is I_X dx_i for X = ([v1, w1] + k v0 w1, L_{v1} w0).
  commutator [L_V, L_W] x_i = v1(w1^i) - w1(v1^i) = [v1, w1]^i, and since
             [L_V, d] = -k v0 d on functions,
             [L_V, L_W] dx_i = d [v1, w1]^i - k (L_{v1} w0 - L_{w1} v0) dx_i,
             which is L_X dx_i for X = ([v1, w1], L_{v1} w0 - L_{w1} v0); this
             X does not depend on k, so it is read off with k = 1 when the
             chart's k is 0.
  scaled_by  not derived here: the rule a0 V would need I_{a0 V} = a0 ∧ I_V,
             but (α0 + α1 ζ) ∧ I_V dx_i carries v1^i α1 ∧ ζ where I_{a0 V} dx_i
             carries i_{v1} α1 dx_i ∧ ζ, so a0 ∧ I_V is no contraction by a
             pair vector.

An element is a dict from a strictly increasing tuple of generator indices
(ζ is index n, so it sorts last) to a nonzero ``ScalarField``.  The oracle
reads only the parts of its inputs and the scalar operations ``+``, ``*``
and ``diff``; its product, sort and signs are its own, and it calls no
``Form``, ``VectorField`` or pair operation.
"""

from fractions import Fraction


def _sorted_key(key):
    """(sorted key, sign of the sort), or (None, 0) on a repeated generator."""
    if len(set(key)) < len(key):
        return None, 0
    items = list(key)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


def _add_into(out, key, coeff):
    total = out[key] + coeff if key in out else coeff
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def add(a, b, sign=1):
    """a + sign * b."""
    out = dict(a)
    for key, coeff in b.items():
        _add_into(out, key, sign * coeff)
    return out


def wedge(a, b):
    """The exterior product."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, sign = _sorted_key(ka + kb)
            if key is not None:
                _add_into(out, key, sign * (ca * cb))
    return out


def _apply(v1, f):
    """v1(f) = Σ_j v1^j ∂_j f."""
    total = 0 * f
    for j, vj in enumerate(v1):
        total = total + vj * f.diff(j)
    return total


def _extend(elem, on_function, on_generator, odd):
    """The (anti)derivation fixed by its values on functions and on generators."""
    out = {}
    for key, coeff in elem.items():
        one = coeff.chart.constant(1)
        out = add(out, wedge(on_function(coeff), {key: one}))
        for s, g in enumerate(key):
            image = on_generator(g)
            if image:
                sign = -1 if odd and s % 2 else 1
                out = add(out, wedge(wedge({key[:s]: sign * coeff}, image), {key[s + 1:]: one}))
    return out


class Oracle:
    """The four rules on one chart, with the deformation constant ``k``."""

    def __init__(self, chart, k=None):
        self.chart = chart
        self.n = chart.dim
        self.k = chart.k if k is None else Fraction(k)
        self.one = chart.constant(1)

    def d(self, elem):
        def on_function(f):
            return {(i,): df for i in range(self.n) if (df := f.diff(i))}

        def on_generator(g):
            return {(): self.k * self.one} if g == self.n and self.k else {}

        return _extend(elem, on_function, on_generator, odd=True)

    def contract(self, V, elem):
        v1, v0 = V

        def on_generator(g):
            if g == self.n:
                return {}
            return {key: c for key, c in (((), v1[g]), ((g, self.n), v0)) if c}

        return _extend(elem, lambda f: {}, on_generator, odd=True)

    def lie(self, V, elem):
        v1, v0 = V

        def on_function(f):
            vf = _apply(v1, f)
            return {(): vf} if vf else {}

        def on_generator(g):
            if g == self.n:
                return {}
            kv0 = self.k * v0
            return add(self.d({(): v1[g]}), {(g,): kv0} if kv0 else {}, -1)

        return _extend(elem, on_function, on_generator, odd=False)

    def lie_cartan(self, V, elem):
        return add(self.contract(V, self.d(elem)), self.d(self.contract(V, elem)))

    def vector_lie(self, V, W):
        """X with I_X dx_i = [L_V, I_W] dx_i for every i, as (x1, x0)."""
        zero = 0 * self.one
        x1, x0 = [], []
        for i in range(self.n):
            dx = {(i,): self.one}
            rest = add(self.lie(V, self.contract(W, dx)), self.contract(W, self.lie(V, dx)), -1)
            x1.append(rest.pop((), zero))
            x0.append(rest.pop((i, self.n), zero))
            assert not rest, f"[L_V, I_W] dx_{i} is no contraction: {rest}"
        assert all(c == x0[0] for c in x0), f"[L_V, I_W] reads a different x0 on each dx_i: {x0}"
        return x1, x0[0]

    def commutator(self, V, W):
        """X with L_X = [L_V, L_W] on the x_i and the dx_i, as (x1, x0)."""
        if not self.k:  # x0 is read off the k term, and X does not depend on k
            return Oracle(self.chart, 1).commutator(V, W)

        def bracket(elem):
            return add(self.lie(V, self.lie(W, elem)), self.lie(W, self.lie(V, elem)), -1)

        zero = 0 * self.one
        x1, x0 = [], []
        for i in range(self.n):
            x1.append(bracket({(): self.chart.coordinate(i)}).get((), zero))
            rest = add(bracket({(i,): self.one}), self.d({(): x1[i]}), -1)
            x0.append(rest.pop((i,), zero) * (-1 / self.k))
            assert not rest, f"[L_V, L_W] dx_{i} is no Lie derivative: {rest}"
        assert all(c == x0[0] for c in x0), f"[L_V, L_W] reads a different x0 on each dx_i: {x0}"
        return x1, x0[0]


def pair_element(a):
    """a_p + a_{p+1} ∧ ζ, read from the parts of a pair form."""
    zeta = (a.chart.dim,)
    elem = dict(a.ordinary.components)
    elem.update((key + zeta, c) for key, c in a.companion.components.items())
    return elem


def vector_parts(V):
    """(v1 components, v0) of a pair vector."""
    return list(V.v1.components), V.v0


def vector_element(x1, x0):
    """The nonzero parts of a pair vector (x1, x0), by component index and ``"v0"``."""
    parts = dict(enumerate(x1))
    parts["v0"] = x0
    return {key: c for key, c in parts.items() if c}
