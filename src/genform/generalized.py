"""Pair-valued calculus: generalized forms and generalized vector fields.

A generalized p-form is an ordered pair (ordinary p-form, ordinary
(p+1)-form); degree -1 is allowed and has an identically zero ordinary part.
A generalized vector field is an ordered pair (ordinary vector field,
ordinary scalar field).  The chart's constant k deforms the exterior
derivative; k = 0 recovers the componentwise ordinary calculus.

The operations, writing a = (a_p, a_{p+1}), b = (b_q, b_{q+1}),
V = (v1, v0), W = (w1, w0):

  wedge        a ^ b  = (a_p b_q,  a_p b_{q+1} + (-1)^q a_{p+1} b_q)
  d            d a    = (d a_p + (-1)^{p+1} k a_{p+1},  d a_{p+1})
  contract     I_V a  = (i_{v1} a_p,  i_{v1} a_{p+1} + p (-1)^{p-1} v0 a_p)
  scaled_by    a0 V   = (a0_0 v1,  a0_0 v0 + i_{v1} a0_1)        [a0 of degree 0]
  lie_cartan   L_V a  = I_V d a + d I_V a
  lie (form)   L^_V a = (L_{v1} a_p - p k v0 a_p,
                         L_{v1} a_{p+1} - (p+1) k v0 a_{p+1})
  lie (vector) L^_V W = ([v1, w1] + k v0 w1,  L_{v1} w0)
  commutator   {V,W}  = ([v1, w1],  L_{v1} w0 - L_{w1} v0)

lie_cartan is the raw homotopy-formula derivative; its defect of failing to
intertwine with contraction is exposed as :func:`cartan_residual`.  lie is
the corrected derivative that repairs the defect; the two differ by an exact
pair supported in the companion slot.  lie on vectors is not antisymmetric
and depends on k; commutator is antisymmetric, k-independent, and is the
bracket under which generalized vector fields form a Lie algebra.  The
sign conventions above are normative and the identity suite guards them;
do not swap them for rearranged equivalents.

Every pair result carries the degree its formula gives: p + q for wedge,
p + 1 for d, p - 1 for contract and cartan_residual, p for lie and
lie_cartan.  A nonzero pair lies in [-1, n], since its nonzero part does;
a zero result may fall outside, as a zero ``Form`` may, and zero pairs
compare equal whatever their degree tag.

Each coefficient of a result of wedge, d, contract, scaled_by, lie or
commutator is one call of the scalar kernel's fused sum of products: the slot
formulas above are collected with the accumulators of :mod:`genform.forms`
into one list of products per output coefficient, so a slot that is a sum
of several terms, such as the ordinary slot of d with its k term, builds no
intermediate form.  A term whose factor or sign is zero, such as that k term
at k = 0 or the v0 term of contract at p = 0, adds no product to its sum:
the accumulators drop it, so no formula here tests for zero.  In lie on
forms, ``k v0`` is scaled once and each slot multiplies it by minus the
degree of the part it scales, -p or -(p+1).  The ordinary Lie derivative
L_{v1} uses the coordinate formula, while lie_cartan stays the literal
composition I_V d + d I_V, so the identities relating the two compare
independent computations.

Both pair types are declared by one class decorator, ``_pair_type``.  It
applies ``_value_type`` of :mod:`genform.forms`, as ``Form`` and
``VectorField`` are declared, which makes each a sealed slotted frozen
dataclass with the shared rules in its own ``__dict__``, ``+`` and
``is_zero`` among them; its equality is the dataclass's comparison of its
two parts.  It then reads the type's two fields and binds the three members
a value made of two values has: ``chart`` is the first part's, ``_map(fn)``
is the pair of both parts' ``_map(fn)``, and ``_coefficients()`` lists the
first part's coefficients, then the second's, so ``is_zero`` holds when both
parts are zero.  Every part has these three, ``ScalarField`` (the v0 of a
pair vector) included, so one body of each serves both types, and unary
``-`` and scalar ``*`` act slot by slot; scaling a pair vector by a pair
zero-form is ``scaled_by``.  What stays per type is what differs: the
public checks, ``degree``, ``zero`` and the embedding of an ordinary value,
the partwise sum ``_plus`` (with the pair form's degree rule) and the
formulas.  The signs (-1)^q, (-1)^{p+1} and (-1)^{p-1} above are
``forms._sign`` of the degree.  ``GeneralizedForm(...)`` and
``GeneralizedVector(...)`` check charts and degrees; every operation
result, ``_map``'s included, goes through one private trusted constructor
per type, ``_trusted_pair`` and ``_trusted_gvector``, which check nothing.
Both are made by ``forms._trusted_two_part`` from the type's two fields, as
``forms._trusted_vector`` is; it is memoized, so ``_pair_type`` and this
module's names hold the same constructor.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter

from .errors import ChartMismatchError, DegreeError
from .scalars import Chart, ScalarField, _require_same_chart, _sum_products
from .forms import (
    Form,
    Groups,
    VectorField,
    _apply_into,
    _bracket_rows,
    _contract_into,
    _d_into,
    _fused_form,
    _fused_vector,
    _lie_into,
    _scale_into,
    _sign,
    _trusted_two_part,
    _value_type,
    _wedge_into,
)


def _pair_type(cls):
    """Declare cls with ``_value_type``, which binds ``+`` and ``is_zero``, and
    bind the members a value made of two values takes from its two fields:
    ``chart`` is the first part's, ``_map(fn)`` is the pair of both parts'
    ``_map(fn)``, built by the type's trusted constructor, and
    ``_coefficients()`` lists the first part's, then the second's."""
    cls = _value_type(cls)
    first, second = (attrgetter(f.name) for f in fields(cls))
    trusted = _trusted_two_part(cls)
    cls.chart = property(attrgetter(f"{fields(cls)[0].name}.chart"))
    cls._map = lambda self, fn: trusted(first(self)._map(fn), second(self)._map(fn))
    cls._coefficients = lambda self: first(self)._coefficients() + second(self)._coefficients()
    return cls


@_pair_type
class GeneralizedForm:
    """An ordered pair of an ordinary p-form and an ordinary (p+1)-form."""

    ordinary: Form
    companion: Form

    def __post_init__(self):
        if self.ordinary.chart != self.companion.chart:
            raise ChartMismatchError("pair components live on different charts")
        if self.companion.degree != self.ordinary.degree + 1:
            raise DegreeError(
                f"companion degree {self.companion.degree} does not follow "
                f"ordinary degree {self.ordinary.degree}"
            )

    @property
    def degree(self) -> int:
        return self.ordinary.degree

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0) -> "GeneralizedForm":
        return _trusted_pair(Form.zero(chart, degree), Form.zero(chart, degree + 1))

    @classmethod
    def from_form(cls, a: Form) -> "GeneralizedForm":
        """Embed an ordinary form as the pair (a, 0)."""
        return _trusted_pair(a, Form.zero(a.chart, a.degree + 1))

    def _plus(self, other: "GeneralizedForm") -> "GeneralizedForm":
        if self.degree != other.degree:
            raise DegreeError(f"cannot add pairs of degree {self.degree} and {other.degree}")
        return _trusted_pair(self.ordinary + other.ordinary,
                             self.companion + other.companion)

    def wedge(self, other: "GeneralizedForm") -> "GeneralizedForm":
        _require_same_chart(self.chart, other.chart)
        q = other.degree
        groups: Groups = {}
        _wedge_into(groups, self.ordinary, other.companion)
        _wedge_into(groups, self.companion, other.ordinary, _sign(q))
        return _trusted_pair(self.ordinary.wedge(other.ordinary),
                             _fused_form(self.chart, self.degree + q + 1, groups))

    def d(self) -> "GeneralizedForm":
        chart = self.chart
        ordinary: Groups = {}
        _d_into(ordinary, self.ordinary)
        _scale_into(ordinary, chart.constant(chart.k), self.companion, _sign(self.degree + 1))
        return _trusted_pair(_fused_form(chart, self.degree + 1, ordinary), self.companion.d())

    def __str__(self) -> str:
        return f"[{self.ordinary} ; {self.companion}]"


@_pair_type
class GeneralizedVector:
    """An ordered pair of an ordinary vector field and an ordinary scalar field."""

    v1: VectorField
    v0: ScalarField

    def __post_init__(self):
        if self.v1.chart != self.v0.chart:
            raise ChartMismatchError("pair components live on different charts")

    @classmethod
    def zero(cls, chart: Chart) -> "GeneralizedVector":
        return _trusted_gvector(VectorField.zero(chart), chart.constant(0))

    @classmethod
    def from_vector(cls, v: VectorField) -> "GeneralizedVector":
        """Embed an ordinary vector field as the pair (v, 0)."""
        return _trusted_gvector(v, v.chart.constant(0))

    def _plus(self, other: "GeneralizedVector") -> "GeneralizedVector":
        return _trusted_gvector(self.v1 + other.v1, self.v0 + other.v0)

    def scaled_by(self, a0: GeneralizedForm) -> "GeneralizedVector":
        """Scale by a generalized zero-form: a0 V = (a0_0 v1, a0_0 v0 + i_{v1} a0_1)."""
        _require_same_chart(self.chart, a0.chart)
        if a0.degree != 0:
            raise DegreeError(f"scaling needs a degree-0 pair, got degree {a0.degree}")
        alpha0 = a0.ordinary.scalar_part()
        groups: Groups = {(): [(1, alpha0, self.v0)]}
        _contract_into(groups, self.v1, a0.companion)
        return _trusted_gvector(alpha0 * self.v1, _sum_products(self.chart, groups[()]))

    def contract(self, a: GeneralizedForm) -> GeneralizedForm:
        """Interior product I_V; the explicit degree factor kills the v0 term at p = 0."""
        _require_same_chart(self.chart, a.chart)
        p = a.degree
        groups: Groups = {}
        _contract_into(groups, self.v1, a.companion)
        _scale_into(groups, self.v0, a.ordinary, p * _sign(p - 1))
        return _trusted_pair(self.v1.contract(a.ordinary),
                             _fused_form(self.chart, p, groups))

    def lie_cartan(self, a: GeneralizedForm) -> GeneralizedForm:
        """Uncorrected Lie derivative from the homotopy formula I_V d + d I_V."""
        return self.contract(a.d()) + self.contract(a).d()

    def lie(self, target):
        """Corrected Lie derivative, of a pair form or of a pair vector field.

        On forms this is the closed formula
        (L_{v1} a_p - p k v0 a_p, L_{v1} a_{p+1} - (p+1) k v0 a_{p+1});
        on vector fields it is ([v1, w1] + k v0 w1, L_{v1} w0), which is not
        antisymmetric and not k-independent.
        """
        if isinstance(target, GeneralizedForm):
            _require_same_chart(self.chart, target.chart)
            kv0 = self.chart.k * self.v0
            slots = []
            for part in (target.ordinary, target.companion):
                groups: Groups = {}
                _lie_into(groups, self.v1, part)
                _scale_into(groups, kv0, part, -part.degree)
                slots.append(_fused_form(self.chart, part.degree, groups))
            return _trusted_pair(*slots)
        if isinstance(target, GeneralizedVector):
            _require_same_chart(self.chart, target.chart)
            return _trusted_gvector(_deformed_bracket(self, target),
                                    self.v1.apply(target.v0))
        raise TypeError(f"cannot take a Lie derivative of {type(target).__name__}")

    def commutator(self, other: "GeneralizedVector") -> "GeneralizedVector":
        """Antisymmetric, k-independent bracket ([v1, w1], L_{v1} w0 - L_{w1} v0)."""
        _require_same_chart(self.chart, other.chart)
        return _trusted_gvector(self.v1.bracket(other.v1), _cross_scalar(self, other))

    def __str__(self) -> str:
        return f"{{{self.v1} ; {self.v0}}}"


def cartan_residual(V: GeneralizedVector, W: GeneralizedVector,
                    a: GeneralizedForm) -> GeneralizedForm:
    """How far the uncorrected Lie derivative is from intertwining with I_W.

    Returns L_V(I_W a) - I_W(L_V a) - I_X a, where L is the homotopy-formula
    derivative and X = ([v1, w1] + k v0 w1, L_{v1} w0 - L_{w1} v0).  The
    result equals -(-1)^p (0, L_{v0 w1} a_p): supported entirely in the
    companion slot, and not expressible as a contraction.
    """
    _require_same_chart(V.chart, W.chart)
    _require_same_chart(V.chart, a.chart)
    cross = _trusted_gvector(_deformed_bracket(V, W), _cross_scalar(V, W))
    return (V.lie_cartan(W.contract(a))
            - W.contract(V.lie_cartan(a))
            - cross.contract(a))


# ---------------------------------------------------------------------------
# Trusted constructors of internal results, made by ``forms._trusted_two_part``
# (the ones ``_pair_type`` bound into ``_map``): they check neither charts nor
# degrees.  ``_trusted_pair(ordinary, companion)`` needs both parts on one
# chart and the companion's degree to follow; ``_trusted_gvector(v1, v0)``
# needs both parts on one chart.

_trusted_pair = _trusted_two_part(GeneralizedForm)
_trusted_gvector = _trusted_two_part(GeneralizedVector)


def _deformed_bracket(V: GeneralizedVector, W: GeneralizedVector) -> VectorField:
    """[v1, w1] + k v0 w1, each component one fused sum."""
    rows = _bracket_rows(V.v1, W.v1)
    kv0 = V.chart.k * V.v0
    for products, wi in zip(rows, W.v1.components):
        products.append((1, kv0, wi))
    return _fused_vector(V.chart, rows)


def _cross_scalar(V: GeneralizedVector, W: GeneralizedVector) -> ScalarField:
    """L_{v1} w0 - L_{w1} v0, one fused sum."""
    products: list = []
    _apply_into(products, V.v1, W.v0)
    _apply_into(products, W.v1, V.v0, -1)
    return _sum_products(V.chart, products)
