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
so no intermediate polynomial is built.  A product may carry a coordinate
i, and then it is a * d_i b: the kernel lowers exponent i of each term of a
once and reads d_i b straight off b's numerators (a term with exponent 0 in
x_i is skipped, any other is multiplied by that exponent), so no partial
derivative is built as a scalar of its own, and ``diff`` is the kernel's one
such product with the constant 1.  The whole kernel, not just its inner
loop, is compiled once per chart dimension, on first use, from source built
from that integer alone (``_kernel_for``): each product's exponent key is
one tuple display instead of a generic elementwise add, which was the
largest cost of a term product, and the work around that loop runs in the
compiled function too: in a dim-2 ``check all`` pass (17,612 calls, about
140,000 term products) it took about two thirds of the kernel's time when
only the loop was compiled.  Nothing is compiled per coordinate: the kernel
for a chart of 1,000, 2,000 or 8,000 coordinates takes about 13, 27 or
124 ms to compile (CPython 3.11.7, 2-vCPU VM).  ``*`` of two scalars is the
chart check and the kernel's sum of one product, whose result is already
canonical for a zero or unit operand.  Only ``_combine`` keeps a shortcut,
after the chart check: a sum with a zero summand, or a difference with a
zero subtrahend, returns the other operand, because sums of basis blocks
mostly have one (a vector field's components outside its blocks'
coordinates are zero).

Values are immutable after construction, so scalar fields are safe to share
between threads, and an operation may return one of its operands.  Every
arithmetic result is built by one trusted constructor, ``_from_ints``, which
fills the three slots through their descriptors' cached setters and checks
nothing.  Every scalar given as (numerator, denominator, exponents) monomials
is built by ``_from_monomials``: the checked public constructors, the session
parser and the trial generator.  No other module reads the layout; the
session's limits and the derivative products of ``forms`` use the private
size queries here.

The chart also carries the deformation constant ``k`` used by the pair
calculus built on top of this module; two charts are interchangeable only if
they agree on dimension, coordinate names and ``k``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, neg
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
            return _sum_products(self.chart, ((1, self, other),))
        if isinstance(other, (int, Fraction)):
            if other == 1:
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
        """Exact partial derivative with respect to coordinate ``coord``: the
        kernel's one derivative product 1 * d_coord self."""
        if not 0 <= coord < self.chart.dim:
            raise IndexError(f"coordinate index {coord} out of range for dimension {self.chart.dim}")
        return _sum_products(self.chart, ((1, self.chart.constant(1), self, coord),))

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
# ``_sum_products`` runs the kernel that ``_kernel_for(n)`` compiles lazily,
# once per dimension n, from a template that takes only the integer n, so
# that each product's key is a tuple display; a derivative product's
# coordinate is a value the kernel reads, so none is compiled per coordinate.
# Compiling the whole sum lets a single product take its denominator with no
# lcm, a derivative product lower a's exponents once instead of rebuilding
# the exponent tuple of every term of d_i b, and the result skip its zero
# filter when no zero is left.
# The exponent key is the largest cost of a term product:
# ``tuple(map(add, ea, eb))`` took 0.6-0.7 us at dims 2 and 4, against
# 0.10-0.16 us for the unrolled tuple display and 0.2 us for the accumulate
# step (timeit, CPython 3.11.7, 2-vCPU VM), and a dim-2 ``check all`` pass
# makes about 140,000 term products.

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


_KERNEL_TEMPLATE = """\
def _sum_products(chart, products):
    if len(products) == 1:
        den = products[0][1]._den * products[0][2]._den
    else:
        den = lcm(*[p[1]._den * p[2]._den for p in products])
    acc = {{}}
    get = acc.get
    for product in products:
        if len(product) == 3:
            sign, a, b = product
            factor = sign * (den // (a._den * b._den))
            b_terms = b._num.items()
            for ({a}), ca in a._num.items():
                ca *= factor
                for eb, cb in b_terms:
                    key = ({key})
                    acc[key] = get(key, 0) + ca * cb
        else:  # a * d_i b: a's terms with exponent i lowered (to -1 at worst, which
            # only meets terms of b with e_i >= 1), times b's terms times e_i
            sign, a, b, i = product
            factor = sign * (den // (a._den * b._den))
            b_terms = b._num.items()
            for e, ca in a._num.items():
                e = [*e]
                e[i] -= 1
                {a} = e
                ca *= factor
                for eb, cb in b_terms:
                    ei = eb[i]
                    if ei:
                        key = ({key})
                        acc[key] = get(key, 0) + ca * cb * ei
    if 0 in acc.values():
        acc = {{e: c for e, c in acc.items() if c}}
    return _from_ints(chart, acc, den)
"""


@cache
def _kernel_for(n: int):
    """The fused kernel ``_sum_products`` for charts of dimension n.

    Its source is built once per dimension, on first use, from the integers
    of ``range(n)`` alone, which refuses any n but an integer: it unpacks
    each exponent vector of a product's first operand into n locals and
    writes each term product's key as one tuple display.  Nothing in it
    depends on a coordinate: a derivative product's i is a value it reads.
    """
    source = _KERNEL_TEMPLATE.format(a="".join(f"a{j}, " for j in range(n)),
                                     key="".join(f"a{j} + eb[{j}], " for j in range(n)))
    namespace = {"lcm": lcm, "_from_ints": _from_ints}
    exec(compile(source, f"<scalars._kernel_for({n})>", "exec"), namespace)
    return namespace["_sum_products"]


def _sum_products(chart: Chart, products: Sequence[tuple]) -> ScalarField:
    """The fused kernel: the sum of the products, canonicalised once.

    A product ``(sign, a, b)`` is sign * a * b, and a derivative product
    ``(sign, a, b, i)`` is sign * a * d_i b.  Every product is accumulated
    into one numerator map over the lcm of the operands' denominator
    products, so the sum builds no intermediate ``ScalarField``, not even a
    partial derivative, and divides out its content with a single gcd.  The
    operands must live on ``chart`` and ``i`` must be one of its
    coordinates; nothing checks either.
    """
    return _kernel_for(chart.dim)(chart, products)


# ---------------------------------------------------------------------------
# Size queries.  The session's limits, and the derivative products of
# ``forms``, measure values through these, so that no other module reads the
# layout.

_numerators = attrgetter("_num")


def _term_count(fields: Iterable[ScalarField]) -> int:
    """The number of terms of all the fields together."""
    return sum(map(len, map(_numerators, fields)))


def _int_bits(f: ScalarField) -> int:
    """The bit length of the largest integer of f, a numerator or its denominator."""
    return max(f._den.bit_length(), max(map(int.bit_length, f._num.values()), default=0))


def _variables(f: ScalarField) -> list[int]:
    """The coordinates f depends on, in ascending order: each i with d_i f nonzero."""
    return [i for i, column in enumerate(zip(*f._num)) if any(column)]


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
    return (sum(exps), tuple(map(neg, exps)))


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
