"""Exact scalar fields: sparse multivariate polynomials over the rationals.

A scalar field over a chart is a polynomial in the chart coordinates with
rational coefficients.  It is stored as integer numerators over one common
denominator, the layout of FLINT's ``fmpq_poly``: a map from exponent vectors
(one non-negative integer per coordinate) to nonzero integer numerators, and
a positive integer denominator.  The canonical form shares no factor between
the denominator and all numerators together, and the zero polynomial is the
empty map over denominator one.  All arithmetic is exact and runs on
integers; results are canonical (zero coefficients dropped, duplicate
monomials merged, common content divided out), so equality is a plain
structural comparison and two mathematically equal polynomials always
compare equal.  ``ScalarField.terms`` shows the coefficients as ``Fraction``
values.

Sums of products, the bulk of the exterior calculus above this module, go
through one fused kernel, ``_sum_products``: it multiplies and accumulates
every product into a single numerator map over the lcm of the operands'
denominators (FLINT's "addmul into one accumulator") and canonicalises once,
so no intermediate polynomial is built.  ``*`` is its sum of one product,
except that a product by the constant 0, 1 or -1 returns the zero, the other
operand or its negation; likewise ``_combine`` returns the other operand of a
sum with a zero summand, or of a difference with a zero subtrahend.  The
chart check comes before either shortcut.

Values are immutable after construction, so scalar fields are safe to share
between threads, and an operation may return one of its operands.  Every
arithmetic result is built by one trusted constructor, ``_from_ints``, which
fills the three slots through their descriptors' cached setters and checks
nothing.  Every scalar given as (numerator, denominator, exponents) monomials
is built by ``_from_monomials``: the checked public constructors, the session
parser and the trial generator.  No other module reads the layout; the
session's limits use the private size queries here.

The chart also carries the deformation constant ``k`` used by the pair
calculus built on top of this module; two charts are interchangeable only if
they agree on dimension, coordinate names and ``k``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, attrgetter
from types import MappingProxyType

from .errors import ChartMismatchError

Exponents = tuple[int, ...]
RationalLike = Fraction | int


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart: ordered coordinate names plus the constant k."""

    names: tuple[str, ...]
    k: Fraction = Fraction(0)
    dim: int = field(init=False, repr=False, compare=False)  # len(names), stored

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "k", Fraction(self.k))
        object.__setattr__(self, "dim", len(self.names))
        if not self.names:
            raise ValueError("a chart needs at least one coordinate")
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be distinct")

    def constant(self, value: RationalLike) -> "ScalarField":
        c = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return _from_ints(self, {(0,) * self.dim: c.numerator} if c else {}, c.denominator)

    def coordinate(self, index: int) -> "ScalarField":
        """The coordinate function x_index as a scalar field."""
        if not 0 <= index < self.dim:
            raise IndexError(f"coordinate index {index} out of range for dimension {self.dim}")
        exps = [0] * self.dim
        exps[index] = 1
        return _from_ints(self, {tuple(exps): 1}, 1)

    def coordinates(self) -> tuple["ScalarField", ...]:
        return tuple(self.coordinate(i) for i in range(self.dim))


def _require_same_chart(a: Chart, b: Chart) -> None:
    if a is not b and a != b:
        raise ChartMismatchError(
            f"operands live on different charts: ({', '.join(a.names)}; k={a.k}) "
            f"vs ({', '.join(b.names)}; k={b.k})"
        )


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _sealed(cls):
    """Set the rules every value type shares in cls's own ``__dict__``: its
    instances are frozen and unhashable, and ``repr`` is cls's ``__str__``.

    Every assignment or deletion of an attribute raises
    ``FrozenInstanceError``.  ``dataclass(frozen=True, slots=True)`` does so
    itself only for the fields on Python 3.11: it builds a new class to hold
    the slots, and its generated ``__setattr__`` still refers to the old one,
    so any other name ends in a ``TypeError``.
    """
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    cls.__hash__ = None
    cls.__repr__ = cls.__str__
    return cls


@_sealed
class ScalarField:
    """A polynomial with rational coefficients over a chart's coordinates.

    ``ScalarField(chart, terms)`` takes a map from exponent vectors to
    rationals (``int``, ``Fraction`` or anything ``Fraction`` accepts),
    checks every exponent vector against the chart dimension and drops zero
    coefficients, as ``from_terms`` does for a list of pairs.  Arithmetic
    results skip those checks: they are built from integer numerators that
    are already clean.
    """

    __slots__ = ("chart", "_num", "_den")

    def __new__(cls, chart: Chart, terms: Mapping[Exponents, RationalLike]):
        return cls.from_terms(chart, terms.items())

    @classmethod
    def from_terms(cls, chart: Chart, pairs: Iterable[tuple[Exponents, RationalLike]]) -> "ScalarField":
        """Canonical form of a raw term list: duplicates merged, zeros dropped.

        Each exponent vector is checked against the chart, then its
        coefficient is read, before the next pair.
        """
        n = chart.dim
        monomials = []
        for exps, coeff in pairs:
            exps = tuple(exps)
            if len(exps) != n:
                raise ChartMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, chart dimension is {n}"
                )
            c = Fraction(coeff)
            monomials.append((c.numerator, c.denominator, exps))
        return _from_monomials(chart, monomials)

    def __reduce__(self):
        return ScalarField, (self.chart, dict(self.terms))

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """The coefficients as a fresh read-only ``{exponents: Fraction}`` mapping."""
        den = self._den
        return MappingProxyType({e: Fraction(c, den) for e, c in self._num.items()})

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return ((self.chart is other.chart or self.chart == other.chart)
                and self._den == other._den and self._num == other._num)

    def _coerce(self, other) -> "ScalarField | None":
        if isinstance(other, ScalarField):
            _require_same_chart(self.chart, other.chart)
            return other
        if isinstance(other, (Fraction, int)):
            return self.chart.constant(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, 1)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints(self.chart, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, -1)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(rhs, self, -1)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _require_same_chart(self.chart, other.chart)
            if not self._num:
                return self
            if not other._num:
                return other
            unit = _unit(other)
            if unit:
                return self if unit == 1 else -self
            unit = _unit(self)
            if unit:
                return other if unit == 1 else -other
            return _sum_products(self.chart, ((1, self, other),))
        if isinstance(other, (int, Fraction)):
            if other == 1 or not self._num:
                return self
            if not other:
                return _from_ints(self.chart, {}, 1)
            # a rational factor scales the numerators and the denominator
            num = {e: c * other.numerator for e, c in self._num.items()}
            return _from_ints(self.chart, num, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _map(self, fn) -> "ScalarField":
        """``fn`` of the one coefficient, the walk every value type has."""
        return fn(self)

    def _coefficients(self) -> list["ScalarField"]:
        return [self]

    def diff(self, coord: int) -> "ScalarField":
        """Exact partial derivative with respect to coordinate ``coord``."""
        if not 0 <= coord < self.chart.dim:
            raise IndexError(f"coordinate index {coord} out of range for dimension {self.chart.dim}")
        num: dict[Exponents, int] = {}
        for exps, c in self._num.items():
            e = exps[coord]
            if e:
                num[exps[:coord] + (e - 1,) + exps[coord + 1:]] = c * e
        return _from_ints(self.chart, num, self._den)

    def eval_at(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point (one value per coordinate).

        The terms are summed as integers over one common denominator, ``_den``
        times ``q ** top`` for each coordinate whose value has denominator
        ``q`` and whose largest exponent is ``top``, so the sum is reduced to
        lowest terms once.
        """
        values = [Fraction(v) for v in point]
        if len(values) != self.chart.dim:
            raise ValueError(
                f"point has {len(values)} entries, chart dimension is {self.chart.dim}"
            )
        num = self._num
        den = self._den
        scales = []  # per coordinate: exponent e -> p ** e * q ** (top - e)
        for i, v in enumerate(values):
            used = {exps[i] for exps in num}
            top = max(used, default=0)
            p, q = v.numerator, v.denominator
            scales.append({e: p ** e * q ** (top - e) for e in used})
            den *= q ** top
        total = 0
        for exps, c in num.items():
            for scale, e in zip(scales, exps):
                c *= scale[e]
            total += c
        return Fraction(total, den)

    def __str__(self) -> str:
        return poly_str(self)


# ---------------------------------------------------------------------------
# Integer kernel.  Every arithmetic result is built by ``_from_ints`` from a
# numerator map without zero entries and a positive denominator.  It fills
# the slots through their descriptors' cached ``__set__``, which passes by the
# frozen ``__setattr__`` at about half the cost of ``object.__setattr__``.

_set_chart = ScalarField.chart.__set__
_set_num = ScalarField._num.__set__
_set_den = ScalarField._den.__set__


def _from_ints(chart: Chart, num: dict[Exponents, int], den: int) -> ScalarField:
    """The trusted constructor: divides out the content, checks nothing else."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:  # also turns the zero polynomial's denominator into one
            den //= g
            num = {e: c // g for e, c in num.items()}
    f = object.__new__(ScalarField)
    _set_chart(f, chart)
    _set_num(f, num)
    _set_den(f, den)
    return f


def _from_monomials(chart: Chart, monomials: Sequence[tuple[int, int, Exponents]]) -> ScalarField:
    """The sum of (numerator, denominator, exponents) monomials, merged over the lcm
    of their denominators, which must be positive; exponents must fit the chart."""
    den = lcm(*[d for _, d, _ in monomials])
    acc: dict[Exponents, int] = {}
    get = acc.get
    for num, d, exps in monomials:
        acc[exps] = get(exps, 0) + (num if d == den else num * (den // d))
    if 0 in acc.values():
        acc = {e: c for e, c in acc.items() if c}
    return _from_ints(chart, acc, den)


def _combine(a: ScalarField, b: ScalarField, sign: int) -> ScalarField:
    """a + sign * b over the lcm of the two denominators: ``a`` itself when b is
    zero, and ``b`` itself when a is zero and the sign is +1."""
    if not b._num:
        return a
    if not a._num and sign == 1:
        return b
    da, db = a._den, b._den
    if da == db:
        acc = dict(a._num)
        fb = sign
    else:
        g = gcd(da, db)
        fa = db // g
        fb = sign * (da // g)
        acc = {e: c * fa for e, c in a._num.items()}
        da *= fa
    get = acc.get
    for e, c in b._num.items():
        s = get(e, 0) + c * fb
        if s:
            acc[e] = s
        else:
            del acc[e]
    return _from_ints(a.chart, acc, da)


def _unit(f: ScalarField) -> int:
    """1 or -1 when f is that constant, else 0."""
    num = f._num
    if len(num) != 1 or f._den != 1:
        return 0
    ((exps, c),) = num.items()
    return c if c in (1, -1) and not any(exps) else 0


def _mac(acc: dict[Exponents, int], a_num: dict[Exponents, int],
         b_num: dict[Exponents, int], factor: int) -> None:
    """Multiply-accumulate: acc += factor * a_num * b_num, zeros left in place."""
    get = acc.get
    for ea, ca in a_num.items():
        ca *= factor
        for eb, cb in b_num.items():
            key = tuple(map(add, ea, eb))
            acc[key] = get(key, 0) + ca * cb


def _sum_products(chart: Chart,
                  triples: Sequence[tuple[int, ScalarField, ScalarField]]) -> ScalarField:
    """The fused kernel: sum of sign * a * b over the triples, canonicalised once.

    Every product is accumulated into one numerator map over the lcm of the
    operands' denominator products, so the sum builds no intermediate
    ``ScalarField`` and divides out its content with a single gcd.  The
    operands must live on ``chart``; nothing checks it.
    """
    dens = [a._den * b._den for _, a, b in triples]
    den = lcm(*dens)
    acc: dict[Exponents, int] = {}
    for (sign, a, b), d in zip(triples, dens):
        _mac(acc, a._num, b._num, sign * (den // d))
    return _from_ints(chart, {e: c for e, c in acc.items() if c}, den)


# ---------------------------------------------------------------------------
# Size queries.  The session's limits measure values through these, so that
# no other module reads the layout.

_numerators = attrgetter("_num")


def _term_count(fields: Iterable[ScalarField]) -> int:
    """The number of terms of all the fields together."""
    return sum(map(len, map(_numerators, fields)))


def _int_bits(f: ScalarField) -> int:
    """The bit length of the largest integer of f, a numerator or its denominator."""
    return max(f._den.bit_length(), max(map(int.bit_length, f._num.values()), default=0))


def _max_exponent(f: ScalarField) -> int:
    """The largest exponent in any monomial of f, 0 for none; no call runs per monomial."""
    return max(chain.from_iterable(f._num), default=0)


def _is_unit_monomial(f: ScalarField) -> bool:
    """Whether f is 1 or -1 times a monomial."""
    return f._den == 1 and list(f._num.values()) in ([1], [-1])


# ---------------------------------------------------------------------------
# Canonical rendering.
#
# Monomials are printed in ascending graded order (total degree first, then
# earlier coordinates before later ones), coefficients of magnitude one are
# dropped except on a leading negative term, which keeps an explicit -1* so
# the output stays a plain product grammar.


def rational_str(q: Fraction) -> str:
    return _ratio_str(q.numerator, q.denominator)


def _ratio_str(num: int, den: int) -> str:
    """The rational num/den in lowest terms; ``den`` is positive."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), tuple(-e for e in exps))


def _mono_str(chart: Chart, exps: Exponents) -> str:
    parts = []
    for name, e in zip(chart.names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(f: ScalarField) -> str:
    num, den = f._num, f._den
    if not num:
        return "0"
    pieces = []
    for exps in sorted(num, key=_grlex_key):  # a constant term comes first
        c = num[exps]  # the coefficient is c/den; it is one exactly when c == den
        mono = _mono_str(f.chart, exps)
        if pieces:  # a later term's sign is the operator before it
            pieces.append(" - " if c < 0 else " + ")
            c = abs(c)
        if not mono:
            pieces.append(_ratio_str(c, den))
        elif c == den:
            pieces.append(mono)
        else:
            pieces.append(f"{_ratio_str(c, den)}*{mono}")
    return "".join(pieces)


def coefficient_block(f: ScalarField) -> str | None:
    """Render ``f`` for use in front of a basis factor; None means "omit".

    Single-term polynomials splice in directly (``3``, ``x^2``, ``-1*x``),
    anything longer is parenthesized, and the constant one is omitted.
    """
    if len(f._num) == 1:
        ((exps, c),) = f._num.items()
        if c == f._den and not any(exps):
            return None
        return poly_str(f)
    return f"({poly_str(f)})"
