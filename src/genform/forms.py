"""Ordinary exterior calculus on a single chart.

A p-form is stored sparsely as a map from strictly increasing coordinate
index tuples of length p to scalar-field coefficients; insertion through
:meth:`Form.from_terms` sorts arbitrary index tuples and absorbs the
permutation parity into the coefficient, so the representation is canonical
and equality is structural.  Degrees outside [0, n] are representable and are
always the canonical zero, which keeps every operator total: contracting a
0-form, or differentiating a top form, simply yields zero instead of an
error.  Zero forms of different degree tags compare equal.

Every sign of the calculus is one rule, ``_sign(e)`` = (-1)^e: sorting a
multi-index (``_normalize_key``) gives ``_sign`` of its inversion count,
dropping slot j in a contraction gives ``_sign(j)``, and the pair formulas
of :mod:`genform.generalized` take ``_sign`` of a degree.

Vector fields hold one scalar component per coordinate.  The Lie derivative
of a form is computed with the coordinate formula

    (L_v a)_I = sum_j v^j d_j a_I + sum_s sum_j a_I d_j v^{i_s} [slot s of I := j],

not with the homotopy formula i_v d + d i_v, so the identity suite's checks
of the homotopy formula compare two independent computations.

Every coefficient of a wedge product, an exterior derivative (as products
1 * d_i a_I), a contraction, a Lie derivative, a directional derivative or a
bracket is a sum of products of coefficients; each is built by one call of
the scalar kernel's fused sum of products.  The private accumulators
``_wedge_into``, ``_d_into``, ``_contract_into``, ``_scale_into``,
``_lie_into`` and ``_apply_into`` append the kernel products of one
operation, (sign, a, b) for sign * a * b and (sign, a, b, i) for
sign * a * d_i b, to a map from output index tuple to products (a list for
scalar results), so a sum of several operations is still one kernel call
per coefficient.  An accumulator appends no product that is zero by its
factor: none for a zero vector component (``_contract_into``,
``_apply_into``), and none at all for a zero factor or a zero sign
(``_scale_into``), so its callers test no factor and no sign for zero.  A
partial derivative is never built on its own: the derivative products run
only along the coordinates their operand depends on
(``scalars._variables``, in ascending order), and the kernel reads d_i b
off b's terms.

``Form`` and ``VectorField`` are slotted frozen dataclasses.  The public
constructors ``Form(...)``, ``Form.from_terms`` and ``VectorField(...)``
check keys, degrees, lengths and charts.  Results of the operations here go
through one private trusted constructor per type, ``_trusted_form`` (which
only drops zero coefficients) and ``_trusted_vector``, which fill the slots
through their descriptors' cached setters.  ``_trusted_vector`` is made by
``_trusted_two_part``, which reads a two-field type's dataclass fields and
returns its trusted constructor; the pair types' constructors are made by
it too.  It is memoized, one constructor per type, so every caller that
asks for a type's constructor gets the same function.

Every value type walks its coefficients in one place: ``_map(fn)`` is the
value of the same type with ``fn`` applied to each coefficient, built by the
type's trusted constructor, and ``_coefficients()`` lists them; the pair
types of :mod:`genform.generalized` build both from their parts' by one
rule, ``generalized._pair_type``, and
``ScalarField`` is its own one coefficient.  The six rules the value types
share are written once here: the zero test ``is_zero`` (no nonzero
coefficient, ``_is_zero``), ``+`` between two values (``_add``: one type,
one chart, and a zero summand leaves the other; any other sum is the type's
own partwise ``_plus``, where ``Form``'s checks the degree), ``-``
(``_sub``), truth (``_nonzero``), unary ``-`` (``_neg``) and scalar ``*``
(``_rmul``), the last two through ``_map``.  One class decorator,
``_value_type``, declares ``Form``, ``VectorField`` and both pair types: it
makes the class a slotted frozen dataclass, seals it with
``scalars._sealed`` (no assignment, no hash, ``repr`` is ``str``) and binds
the six rules into the class's own ``__dict__``, so no base class is needed
and every operator stays an attribute of its own class.  Equality is the
dataclass's generated ``__eq__``: one class, and equal compared fields in
order.  ``Form.degree`` is not compared, so a form compares its chart and
components; a ``VectorField`` compares its chart and components.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from operator import add, neg
from typing import Iterable, Mapping

from .errors import ChartMismatchError, DegreeError
from .scalars import (
    Chart,
    ScalarField,
    _require_same_chart,
    _sealed,
    _sum_products,
    _variables,
    coefficient_block,
)

Key = tuple[int, ...]
Groups = dict[Key, list]  # output index tuple -> kernel products


def _sign(e: int) -> int:
    """The parity sign (-1)^e of an integer e."""
    return -1 if e & 1 else 1


# The most multi-indices ``_normalize_key`` remembers.  A ``check all`` pass
# sorts 12 distinct ones at dim 2 and 224 at dim 4, but over 10,000 at dim 8
# in five trials, and a session chart may have thousands of coordinates, so
# the memo is bounded.
_KEY_MEMO = 4096


@lru_cache(maxsize=_KEY_MEMO)
def _normalize_key(key: Key) -> tuple[Key | None, int]:
    """Sort a multi-index, returning (sorted key, parity sign); None for repeats.
    A pure function of a small tuple, so the last ``_KEY_MEMO`` results are kept."""
    if len(set(key)) < len(key):
        return None, 0
    inversions = sum(a > b for a, b in combinations(key, 2))
    return tuple(sorted(key)), _sign(inversions)


# ---------------------------------------------------------------------------
# Rules shared by the four value types here and in ``generalized``, which
# ``_value_type`` binds into each class's own ``__dict__``.


def _is_zero(self) -> bool:
    return not any(self._coefficients())


def _nonzero(self) -> bool:
    return not self.is_zero


def _add(self, other):
    """``self + other`` for two values of one type on one chart: a zero summand
    leaves the other, and any other sum is the type's partwise ``_plus``."""
    if not isinstance(other, type(self)):
        return NotImplemented
    _require_same_chart(self.chart, other.chart)
    if self.is_zero:
        return other
    if other.is_zero:
        return self
    return self._plus(other)


def _sub(self, other):
    if not isinstance(other, type(self)):
        return NotImplemented
    return self + (-other)


def _neg(self):
    return self._map(neg)


def _rmul(self, factor):
    """``factor * self``, coefficient by coefficient, for a rational factor or a
    scalar field on the value's chart; a field on another chart raises
    ChartMismatchError."""
    if isinstance(factor, ScalarField):
        _require_same_chart(self.chart, factor.chart)
    elif not isinstance(factor, (Fraction, int)):
        return NotImplemented
    return self._map(lambda c: factor * c)


def _value_type(cls):
    """Make cls a slotted frozen dataclass, seal it (``scalars._sealed``) and
    bind the shared rules as its zero test, truth, ``+``, unary ``-``, ``-``
    and scalar ``*``."""
    cls = _sealed(dataclass(frozen=True, repr=False, slots=True)(cls))
    cls.is_zero, cls.__bool__, cls.__add__ = property(_is_zero), _nonzero, _add
    cls.__neg__, cls.__sub__, cls.__rmul__ = _neg, _sub, _rmul
    return cls


@_value_type
class Form:
    """An antisymmetric p-form with exact polynomial coefficients."""

    chart: Chart
    degree: int = field(compare=False)  # a key's length is the degree, so zero is degree-agnostic
    components: Mapping[Key, ScalarField]

    def __post_init__(self):
        n = self.chart.dim
        clean: dict[Key, ScalarField] = {}
        for key, poly in self.components.items():
            key = tuple(key)
            if poly.chart is not self.chart and poly.chart != self.chart:
                raise ChartMismatchError("component coefficient lives on a different chart")
            if poly.is_zero:
                continue
            if not 0 <= self.degree <= n:
                raise DegreeError(f"a degree-{self.degree} form on {n} coordinates must be zero")
            if len(key) != self.degree:
                raise DegreeError(f"key {key} has length {len(key)}, form degree is {self.degree}")
            if any(not 0 <= i < n for i in key):
                raise ValueError(f"key {key} uses indices outside [0, {n})")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not strictly increasing")
            clean[key] = poly
        _set_form_components(self, clean)

    @classmethod
    def from_terms(cls, chart: Chart, degree: int, pairs: Iterable[tuple[Key, ScalarField]]) -> "Form":
        """Build a form from arbitrary-order index tuples, normalizing parity."""
        acc: dict[Key, ScalarField] = {}
        for key, poly in pairs:
            if not poly.is_zero:
                sorted_key, sign = _normalize_key(tuple(key))
                if sorted_key is not None:
                    signed = poly if sign > 0 else -poly
                    cur = acc.get(sorted_key)
                    acc[sorted_key] = signed if cur is None else cur + signed
        return cls(chart, degree, acc)

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "Form":
        return _trusted_form(chart, degree, ())

    @classmethod
    def from_scalar(cls, f: ScalarField) -> "Form":
        return _trusted_form(f.chart, 0, [((), f)])

    def scalar_part(self) -> ScalarField:
        """The () component of a degree <= 0 form (zero if absent)."""
        if self.degree > 0:
            raise DegreeError(f"degree-{self.degree} form has no scalar part")
        return self.components.get(()) or self.chart.constant(0)  # a stored coefficient is nonzero

    def _plus(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise DegreeError(f"cannot add forms of degree {self.degree} and {other.degree}")
        acc = dict(self.components)
        for key, poly in other.components.items():
            cur = acc.get(key)
            acc[key] = poly if cur is None else cur + poly
        return _trusted_form(self.chart, self.degree, acc.items())

    def _map(self, fn) -> "Form":
        return _trusted_form(self.chart, self.degree,
                             [(k, fn(p)) for k, p in self.components.items()])

    def _coefficients(self) -> list[ScalarField]:
        return list(self.components.values())

    def wedge(self, other: "Form") -> "Form":
        """Antisymmetrized product; degree adds, repeated indices cancel."""
        _require_same_chart(self.chart, other.chart)
        groups: Groups = {}
        _wedge_into(groups, self, other)
        return _fused_form(self.chart, self.degree + other.degree, groups)

    def d(self) -> "Form":
        """Exterior derivative: d(f dx_I) = sum_i (d_i f) dx_i ^ dx_I."""
        groups: Groups = {}
        _d_into(groups, self)
        return _fused_form(self.chart, self.degree + 1, groups)

    def __str__(self) -> str:
        if self.degree == 0:
            return str(self.scalar_part())
        names = self.chart.names
        return _basis_sum((self.components[key], "^".join(f"d{names[i]}" for i in key))
                          for key in sorted(self.components))


@_value_type
class VectorField:
    """An ordinary vector field: one scalar component per coordinate."""

    chart: Chart
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.chart.dim:
            raise ChartMismatchError(
                f"vector field needs {self.chart.dim} components, got {len(comps)}"
            )
        for c in comps:
            if c.chart is not self.chart and c.chart != self.chart:
                raise ChartMismatchError("vector component lives on a different chart")
        _set_vector_components(self, comps)

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return _trusted_vector(chart, (chart.constant(0),) * chart.dim)

    def _plus(self, other: "VectorField") -> "VectorField":
        return _trusted_vector(self.chart, tuple(map(add, self.components, other.components)))

    def _map(self, fn) -> "VectorField":
        return _trusted_vector(self.chart, tuple(map(fn, self.components)))

    def _coefficients(self) -> list[ScalarField]:
        return list(self.components)

    def apply(self, f: ScalarField) -> ScalarField:
        """Directional derivative: sum_i v^i d_i f."""
        _require_same_chart(self.chart, f.chart)
        products: list = []
        _apply_into(products, self, f)
        return _sum_products(self.chart, products)

    def contract(self, a: Form) -> Form:
        """Interior product: slot-wise pairing with alternating signs."""
        _require_same_chart(self.chart, a.chart)
        groups: Groups = {}
        _contract_into(groups, self, a)
        return _fused_form(self.chart, a.degree - 1, groups)

    def lie(self, a: Form) -> Form:
        """Lie derivative of a form along this field (coordinate formula)."""
        _require_same_chart(self.chart, a.chart)
        groups: Groups = {}
        _lie_into(groups, self, a)
        return _fused_form(self.chart, a.degree, groups)

    def bracket(self, other: "VectorField") -> "VectorField":
        """Commutator of vector fields, component i: sum_j (v^j d_j w^i - w^j d_j v^i)."""
        _require_same_chart(self.chart, other.chart)
        return _fused_vector(self.chart, _bracket_rows(self, other))

    def __str__(self) -> str:
        pairs = zip(self.components, self.chart.names)
        return _basis_sum((comp, f"@{name}") for comp, name in pairs if not comp.is_zero)


def _basis_sum(pairs: Iterable[tuple[ScalarField, str]]) -> str:
    """The signed sum of ``coefficient*basis`` over (coefficient, basis) pairs;
    a coefficient of one prints as its basis alone, a summand's leading minus
    becomes the operator before it, and no pairs print as 0."""
    out = ""
    for c, basis in pairs:
        block = coefficient_block(c)
        term = basis if block is None else f"{block}*{basis}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


# ---------------------------------------------------------------------------
# Trusted constructors.  Internal results skip the public checks and fill the
# slots through their descriptors' cached ``__set__`` (see ``scalars``).

_set_form_chart = Form.chart.__set__
_set_degree = Form.degree.__set__
_set_form_components = Form.components.__set__
_set_vector_components = VectorField.components.__set__


def _trusted_form(chart: Chart, degree: int, pairs: Iterable[tuple[Key, ScalarField]]) -> Form:
    """The trusted constructor of internal forms: drops zeros, checks nothing else.

    ``pairs`` must be (key, coefficient) pairs with distinct, strictly
    increasing keys of length ``degree``, indices in range and coefficients
    on ``chart``; the form's components are built from them in one pass.
    """
    f = object.__new__(Form)
    _set_form_chart(f, chart)
    _set_degree(f, degree)
    _set_form_components(f, {k: p for k, p in pairs if p})
    return f


@cache
def _trusted_two_part(cls):
    """The trusted constructor of a value type with two fields: it takes them in
    field order, fills the two slots through their cached setters and checks
    nothing.  It is made once per type, so every caller gets the same one."""
    set_first, set_second = [getattr(cls, f.name).__set__ for f in fields(cls)]

    def trusted(first, second):
        value = object.__new__(cls)
        set_first(value, first)
        set_second(value, second)
        return value
    return trusted


# ``_trusted_vector(chart, components)``: ``components`` must be a tuple of
# ``chart.dim`` scalars on ``chart``.
_trusted_vector = _trusted_two_part(VectorField)


def _fused_form(chart: Chart, degree: int, groups: Groups) -> Form:
    """The form whose coefficient at each key is the kernel's sum of that key's products."""
    return _trusted_form(chart, degree, [(key, _sum_products(chart, products))
                                         for key, products in groups.items()])


def _fused_vector(chart: Chart, rows: list[list]) -> VectorField:
    """The vector field whose component i is the kernel's sum of ``rows[i]``."""
    return _trusted_vector(chart, tuple(_sum_products(chart, products) for products in rows))


# ---------------------------------------------------------------------------
# Accumulators.  Each appends the kernel products of one operation, (sign, a, b)
# or the derivative product (sign, a, b, i), scaled by an integer ``sign``
# where it takes one, to ``groups``, a map from output index tuple to
# products, or to ``products``, those of one scalar.  None appends a product
# that is zero by its factor: a zero vector component, or in ``_scale_into``
# a zero factor or a zero sign, adds nothing, so no caller tests for zero.
# Operands must share one chart; nothing checks it.


def _wedge_into(groups: Groups, a: Form, b: Form, sign: int = 1) -> None:
    """sign * (a ^ b)."""
    for ka, pa in a.components.items():
        for kb, pb in b.components.items():
            key, parity = _normalize_key(ka + kb)
            if key is not None:
                groups.setdefault(key, []).append((sign * parity, pa, pb))


def _contract_into(groups: Groups, v: VectorField, a: Form) -> None:
    """i_v a: slot j is dropped with sign (-1)^j."""
    comps = v.components
    for key, poly in a.components.items():
        for j, idx in enumerate(key):
            comp = comps[idx]
            if comp:
                groups.setdefault(key[:j] + key[j + 1:], []).append((_sign(j), comp, poly))


def _scale_into(groups: Groups, f: ScalarField, a: Form, sign: int = 1) -> None:
    """sign * f a; nothing for a zero f or a zero sign."""
    if f and sign:
        for key, poly in a.components.items():
            groups.setdefault(key, []).append((sign, f, poly))


def _d_into(groups: Groups, a: Form) -> None:
    """d a: the product 1 * d_i a_I on the sorted key of (i,) + I, for each i
    that a_I depends on and I does not hold."""
    one = a.chart.constant(1)
    for key, poly in a.components.items():
        for i in _variables(poly):
            new, parity = _normalize_key((i,) + key)
            if new is not None:
                groups.setdefault(new, []).append((parity, one, poly, i))


def _apply_into(products: list, v: VectorField, f: ScalarField, sign: int = 1) -> None:
    """sign * v(f) = sign * sum_i v^i d_i f, over the i that f depends on."""
    comps = v.components
    for i in _variables(f):
        if comps[i]:
            products.append((sign, comps[i], f, i))


def _lie_into(groups: Groups, v: VectorField, a: Form) -> None:
    """L_v a by the coordinate formula.

    Coefficient I gets v(a_I), and for each slot s of I and each coordinate
    j that v^{i_s} depends on the term a_I d_j v^{i_s} on I with slot s
    replaced by j (L_v dx^i is d v^i), sorted by ``_normalize_key`` and
    dropped on a repeated index.
    """
    comps = v.components
    for key, poly in a.components.items():
        _apply_into(groups.setdefault(key, []), v, poly)
        for s, i in enumerate(key):
            for j in _variables(comps[i]):
                new, parity = _normalize_key(key[:s] + (j,) + key[s + 1:])
                if new is not None:
                    groups.setdefault(new, []).append((parity, poly, comps[i], j))


def _bracket_rows(v: VectorField, w: VectorField) -> list[list]:
    """The products of each component of [v, w]: v(w^i) - w(v^i)."""
    rows = []
    for vi, wi in zip(v.components, w.components):
        products: list = []
        _apply_into(products, v, wi)
        _apply_into(products, w, vi, -1)
        rows.append(products)
    return rows


def one_forms(chart: Chart) -> tuple[Form, ...]:
    """The coordinate differentials dx_0, ..., dx_{n-1}."""
    return tuple(_basis_form(chart, (i,)) for i in range(chart.dim))


def coordinate_vectors(chart: Chart) -> tuple[VectorField, ...]:
    """The coordinate vector fields, dual to the coordinate differentials."""
    return tuple(_coordinate_vector(chart, i) for i in range(chart.dim))


def _coordinate_vector(chart: Chart, i: int, coefficient: ScalarField | None = None) -> VectorField:
    """The coordinate vector field of coordinate i, which must be in range, times
    ``coefficient``, a scalar on ``chart`` (one when omitted): its only component
    that may be nonzero is ``coefficient`` itself."""
    comps = [chart.constant(0)] * chart.dim
    comps[i] = chart.constant(1) if coefficient is None else coefficient
    return _trusted_vector(chart, tuple(comps))


def _basis_form(chart: Chart, indices: Key, coefficient: ScalarField | None = None) -> Form:
    """The basis form dx_i ^ dx_j ^ ... of the in-range ``indices``, in any order,
    times ``coefficient``, a scalar on ``chart`` (one when omitted): the sorted
    key with ``coefficient`` times the parity of the sort, and zero on a
    repeated index or a zero coefficient."""
    key, sign = _normalize_key(indices)
    coefficient = chart.constant(1) if coefficient is None else coefficient
    pairs = () if key is None else ((key, sign * coefficient),)
    return _trusted_form(chart, len(indices), pairs)
