"""Text DSL for defining charts, fields and forms, and rendering them back.

A session file is a chart declaration followed by named definitions::

    chart x, y k=1/2          # coordinates, then the deformation constant
    f  = x^2*y + 1/3          # scalar: polynomial in the coordinates
    al = x*dx + 3*dy          # form: sum of coefficient * d-blocks
    v  = y*@x + x^2*@y        # vector field: sum of coefficient * @-blocks
    a  = [x*dy ; dx^dy]       # pair form: [ordinary part ; companion]
    V  = {v ; f}              # pair vector: {vector part ; scalar part}
    b  = L(V, a)              # operations compose by name

Grammar sketch (whitespace and newlines are insignificant, ``#`` starts a
line comment)::

    session   := chartdecl def*
    chartdecl := "chart" IDENT ("," IDENT)* ("k" "=" "-"* rational)?
    def       := IDENT "=" expr
    expr      := term (("+" | "-") term)*
    term      := factor ("*" factor)*
    factor    := "-" factor | atom ("^" INT)*
    atom      := rational | IDENT | dblock | "@" IDENT | "(" expr ")"
               | opname "(" expr ("," expr)* ")"
               | "[" expr ";" expr "]" | "{" expr ";" expr "}"
    dblock    := dIDENT ("^" dIDENT)*
    rational  := INT ("/" INT)?

Operation names: ``wedge`` (product), ``d`` (exterior derivative), ``I``
(contraction), ``L`` (corrected Lie derivative), ``Lc`` (uncorrected
homotopy-formula Lie derivative), ``Lv`` (Lie derivative of a pair vector),
``comm`` (bracket), ``scale`` (zero-form scaling of a pair vector), ``add``,
``smul`` (ordinary-scalar scaling).  ``I``, ``L`` and ``comm`` also accept
ordinary vector fields and forms.  Definitions are evaluated eagerly in
order, so a name must be defined before it is used.

Values print in a canonical layout (graded monomial order, strictly
increasing d-indices, explicit ``-1*`` leading coefficients) chosen so that
parsing, printing and re-parsing is the identity on parsed sessions.

Diagnostics carry a position and one of the stable codes E_LEX, E_PARSE,
E_NAME, E_REDEF, E_TYPE, E_DEGREE.  Crossing any of these limits is an
E_PARSE error:

- expressions nest at most ``MAX_NESTING`` levels deep (parentheses, pair
  brackets and operation calls each open a level), which keeps the
  recursive-descent parser within Python's recursion limit;
- ``^`` takes exponents up to ``MAX_EXPONENT``;
- an integer literal (numerator, denominator or the chart's ``k``) has at
  most ``MAX_LITERAL_DIGITS`` digits after its leading zeros, Python's
  default limit on converting a decimal string to an ``int``;
- a product, by ``*``, ``smul``, a step of ``^`` or one of the operations
  ``wedge``, ``I``, ``L``, ``Lc``, ``Lv``, ``comm`` and ``scale``, may take
  at most ``MAX_PRODUCT_TERMS`` term products (the terms of all
  coefficients of one operand times those of the other), checked before it
  is computed and reported at its ``*``, operation name or ``^``;
- a step of ``^`` whose operands' largest integers (numerators or
  denominator) together have more than ``_PRINTABLE_BITS + 1`` bits is
  refused at the ``^`` before it is computed: for a one-term base its
  result could not be printed;
- any product above whose operands' largest integers together have more
  than ``_PRODUCT_BITS`` bits, twice the bound of a ``^`` step, is refused
  at its ``*``, operation name or ``^`` before it is computed; the bound is
  doubled because one operand may be an intermediate value too large to
  print by itself;
- every coefficient of a definition's value must print with at most
  ``MAX_LITERAL_DIGITS`` digits in its numerator and its denominator, and
  no exponent of it may exceed ``MAX_EXPONENT``, reported at the
  definition's name in that order (digits first), so that every value that
  parses can be printed and read back.

The limits on term products and on the integers of a product skip a factor
of a single term whose coefficient is 1 or -1 times a monomial (``dx``,
``dx^dy``, ``@x``, ``-x*dy``, and ``x`` in a product of numbers and
coordinates such as ``5*x``), which changes neither the term count nor the
integers of the other operand.  An operation call is checked for the kinds
of its operands before the product limits, so a call with operands of the
wrong kinds is E_TYPE whatever their size.  For input from outside a session
(``eval --at``, ``check --k``), ``parse_rational`` applies the literal rules
and ``value_at`` the product and printing limits, raising ValueError.  The
limits and ``substitute`` see a value only through its ``_coefficients()``
and ``_map``, so this module reads no part of any value.

The tokenizer is one ``findall`` of one regular expression, each match being
the whitespace and comments before a token and the token's text in its only
group; the list ends in the empty ``eof`` text.  A character no token starts
with is matched with the rest of the text, so lexing stops there, and E_LEX
is raised before any parsing.  The parser reads the token texts by index and
keeps the index of a token it may report at; only a raised diagnostic turns
an index into an offset, by matching the same expression again up to that
token, and the offset into ``line:col``.  The chart declaration fills one
map, coordinate name to index, as it reads the names; it finds a duplicate
and a name clashing with a differential (``x`` and ``dx``) by lookups in that
map, so a chart is read in time linear in its length, and every later test
of a coordinate name looks there too.  ``_atom`` is the only reader of a pair
bracket: it reads ``expr ; expr`` and the closing ``]`` or ``}``, then
``_pair_form`` or ``_pair_vector`` checks the parts' kinds and degrees and
builds the pair.

``_term`` reads a term in one loop: for each factor the minus chain, then
the factor by its kind.  A coordinate with its ``^`` chain, or a number not
raised by ``^``, folds into the term's pending monomial (numerator and
denominator in lowest terms, exponents) without building a ScalarField; two
numbers multiply under the integer limit of products.  ``_ratio`` reads a
number (the chart's ``k`` too) and ``_exponent`` the integer after a ``^``.
Each converts a token of at most ``MAX_LITERAL_DIGITS`` characters by one
``int()`` in place and hands a longer one to ``_literal``, which strips its
leading zeros and applies the digit limit; ``_int`` reports a token that is
not an integer.  The short case stays in place because a call per literal
to one reader made a parse about 2% slower.  ``_term`` also reads a
basis block, ``dx^dy`` or ``@x``.  A nonzero block, not followed by ``^``,
with the pending monomial or a scalar on its left is built once with that as
its coefficient, by ``forms._basis_form`` (the sorted key with the parity of
the sort) or ``forms._coordinate_vector``, through the trusted constructors:
a block is a unit term, so that product passes every limit, and none runs.
``_factor`` reads every other factor, an atom with its ``^`` chain (a number
raised by ``^`` among them), and raises E_TYPE at a ``^`` after a block.
``_mul`` multiplies at its ``*`` such a factor, a number or coordinate after
it, a zero block (``dx^dx``) and a block after anything but a scalar.  The
pending monomial becomes a ScalarField only when it meets such a factor;
``_expr`` adds a run of monomial terms with one ``scalars._from_monomials``
call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul
from typing import Union

from .errors import DegreeError, ParseError
from .forms import Form, VectorField, _basis_form, _coordinate_vector
from .generalized import GeneralizedForm, GeneralizedVector
from .scalars import (
    Chart,
    ScalarField,
    _from_monomials,
    _int_bits,
    _is_unit_monomial,
    _max_exponent,
    _term_count,
    rational_str,
)

Value = Union[ScalarField, Form, VectorField, GeneralizedForm, GeneralizedVector]
_Monomial = tuple[int, int, tuple[int, ...]]  # numerator, denominator, exponents

MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_LITERAL_DIGITS = 4300
MAX_PRODUCT_TERMS = 10 ** 5

_KINDS = {
    ScalarField: "scalar",
    Form: "form",
    VectorField: "vector",
    GeneralizedForm: "pair form",
    GeneralizedVector: "pair vector",
}


def _kind(value) -> str:
    return _KINDS[type(value)]


# The smallest integer with more than MAX_LITERAL_DIGITS digits, and a bit
# length below which an integer is certainly smaller.
_UNPRINTABLE = 10 ** MAX_LITERAL_DIGITS
_PRINTABLE_BITS = _UNPRINTABLE.bit_length()
# The most bits the largest integers of a product's two operands may have together.
_PRODUCT_BITS = 2 * (_PRINTABLE_BITS + 1)


def _fault(f: ScalarField) -> bool:
    """Whether a coefficient of f, in lowest terms as it prints, has more than
    MAX_LITERAL_DIGITS digits in its numerator or its denominator, so the
    parser could not read it back."""
    return _int_bits(f) >= _PRINTABLE_BITS and any(
        abs(c.numerator) >= _UNPRINTABLE or c.denominator >= _UNPRINTABLE for c in f.terms.values())


def _is_unit_term(value: Value) -> bool:
    """Whether value is a form or vector field of a single term whose coefficient
    is 1 or -1 times a monomial (``dx``, ``dx^dy``, ``@x``, ``-x*dy``).

    A product with such a factor has as many terms as the other operand and
    the same integers, so the product limits need not look at it.
    """
    if type(value) not in (Form, VectorField):
        return False
    coefficients = [c for c in value._coefficients() if c]
    return len(coefficients) == 1 and _is_unit_monomial(*coefficients)


def _as_form(value: ScalarField | Form) -> Form:
    return Form.from_scalar(value) if isinstance(value, ScalarField) else value


def _collapse(value: Value) -> Value:
    """Canonical session kinds: degree <= 0 and zero ordinary values are scalars.

    Zero forms and zero vector fields print as plain ``0``, so they collapse
    to the scalar zero to keep parse -> print -> parse the identity.
    """
    if isinstance(value, Form):
        if value.degree <= 0:
            return value.scalar_part()
        if value.is_zero:
            return value.chart.constant(0)
    if isinstance(value, VectorField) and value.is_zero:
        return value.chart.constant(0)
    return value


# One match per token: the whitespace, newlines and comments before it, then
# the token's text in the only group.  A character no token starts with takes
# the rest of the text with it, so it is the last token before the empty one
# that ``\Z`` matches.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    ( [A-Za-z_][A-Za-z_0-9]*      # identifier
    | \d+                         # integer
    | [@,=()\[\]{};+\-*^/]        # punctuation
    | \Z                          # end of text
    | .(?s:.*))                   # a character no token starts with, and the rest
""", re.VERBOSE)
_PUNCTUATION = frozenset("@,=()[]{};+-*^/")


def _line_col(text: str, off: int) -> tuple[int, int]:
    """The line and column, both counted from one, of character ``off`` of ``text``."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _token_offset(text: str, index: int) -> int:
    """The offset in ``text`` of token ``index`` of ``_tokenize(text)``.

    The empty ``eof`` token sits at the ``#`` of a comment on the last line,
    else at the end of the text.
    """
    match = next(islice(_TOKEN_RE.finditer(text), index, None))
    start = match.start(1)
    if match[1]:
        return start
    comment = text.find("#", text.rfind("\n", 0, start) + 1)
    return comment if comment >= 0 else start


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, ending in the empty ``eof`` text.

    Every token the parser sees is then an identifier, an integer, one
    punctuation character or the empty ``eof``, so ``str.isidentifier`` and
    ``str.isdecimal`` tell them apart.
    """
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1:
        last = tokens[-2]
        if not last:  # after trailing whitespace or a comment, ``\Z`` matches again
            del tokens[-1]
        elif not (last.isdecimal() or last in _PUNCTUATION
                  or last.isascii() and last.isidentifier()):
            raise ParseError(*_line_col(text, len(text) - len(last)), "E_LEX",
                             f"unexpected character {last[0]!r}")
    return tokens


@dataclass
class Session:
    """A parsed session: the chart plus named, already-evaluated definitions."""

    chart: Chart
    definitions: dict[str, Value]

    def render(self) -> str:
        return render_session(self.chart, self.definitions)


def render_session(chart: Chart, definitions) -> str:
    """Canonical text for a chart and a name -> value mapping; re-parseable."""
    lines = [f"chart {', '.join(chart.names)} k={rational_str(chart.k)}"]
    for name, value in definitions.items():
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def parse_session(text: str) -> Session:
    return _Parser(text).parse()


# A rational from outside a session as a session writes it: -?INT(/INT)?, so no "+", ".", "e".
_RATIONAL_RE = re.compile(r"(-?)(\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    """The rational ``text`` writes, within the digits of a literal; else ValueError."""
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"bad rational {text!r}: expected INT or INT/INT, optionally negative")
    sign, num, den = match.groups(default="1")
    num, den = num.lstrip("0") or "0", den.lstrip("0") or "0"
    for digits in (num, den):
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ValueError(f"integer of {len(digits)} digits exceeds {MAX_LITERAL_DIGITS}")
    if den == "0":
        raise ValueError(f"bad rational {text!r}: zero denominator")
    return Fraction(int(sign + num), int(den))


def substitute(value: Value, point) -> Value:
    """Replace every polynomial coefficient by its exact value at the point."""
    if type(value) not in _KINDS:
        raise TypeError(f"cannot substitute into {type(value).__name__}")
    return value._map(lambda c: c.chart.constant(c.eval_at(point)))


def value_at(value: Value, point) -> Value:
    """``substitute(value, point)``, a ValueError before the work when the integers of
    one of its terms could pass ``_PRODUCT_BITS``, and after it when it would not print."""
    sizes = [max(abs(v.numerator), v.denominator).bit_length() for v in point]
    for f in value._coefficients():
        for exps, c in f.terms.items():
            bits = max(abs(c.numerator), c.denominator).bit_length()
            if bits + sum(map(mul, exps, sizes)) > _PRODUCT_BITS:
                raise ValueError(f"a term of the value at the point could need integers "
                                 f"of more than {_PRODUCT_BITS} bits")
    at = substitute(value, point)
    if any(map(_fault, at._coefficients())):
        raise ValueError(f"the value at the point has a coefficient of more than "
                         f"{MAX_LITERAL_DIGITS} digits")
    return at


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.chart: Chart | None = None  # set by _parse_chart
        # coordinate name -> index, filled by _parse_chart as it reads the names;
        # the one structure every later lookup of a coordinate name uses
        self.coords: dict[str, int] = {}
        self.definitions: dict[str, Value] = {}
        self.depth = 0  # expressions currently open

    # -- token plumbing ----------------------------------------------------
    #
    # A token is its text, and the parser keeps the index of a token it may
    # report at.  The token list ends in the empty ``eof`` text, and every
    # rule that consumes ``eof`` raises, so the parser never looks past it.

    def _err(self, index: int, code: str, message: str):
        raise ParseError(*_line_col(self.text, _token_offset(self.text, index)), code, message)

    def _expected(self, what: str):
        """Raise E_PARSE at the current token, which is not ``what``."""
        tok = self.tokens[self.pos]
        self._err(self.pos, "E_PARSE", f"expected {what}, found {tok!r}" if tok
                  else f"expected {what} at end of input")

    def _expect(self, punct: str) -> None:
        if self.tokens[self.pos] != punct:
            self._expected(f"'{punct}'")
        self.pos += 1

    def _int(self, what: str) -> int:
        """The index of the integer token read next, which is ``what``."""
        at = self.pos
        if not self.tokens[at].isdecimal():
            self._expected(what)
        self.pos = at + 1
        return at

    # -- session structure -------------------------------------------------

    def parse(self) -> Session:
        self._parse_chart()
        tokens = self.tokens
        while tokens[self.pos]:
            at = self.pos
            name = tokens[at]
            if not name.isidentifier():
                self._err(at, "E_PARSE", f"expected a definition name, found {name!r}")
            self.pos = at + 1
            if name in _OPS:
                self._err(at, "E_REDEF", f"'{name}' is a reserved operation name")
            if name in self.coords:
                self._err(at, "E_REDEF", f"'{name}' is already a coordinate name")
            if self._is_differential(name):
                self._err(at, "E_REDEF", f"'{name}' collides with a coordinate differential")
            if name in self.definitions:
                self._err(at, "E_REDEF", f"'{name}' is already defined")
            self._expect("=")
            value = self._expr()
            coefficients = value._coefficients()
            if any(map(_fault, coefficients)):
                self._err(at, "E_PARSE",
                          f"value of '{name}' has a coefficient of more than "
                          f"{MAX_LITERAL_DIGITS} digits")
            if max(map(_max_exponent, coefficients), default=0) > MAX_EXPONENT:
                self._err(at, "E_PARSE",
                          f"value of '{name}' has an exponent above {MAX_EXPONENT}")
            self.definitions[name] = value
        return Session(self.chart, self.definitions)

    def _parse_chart(self):
        tokens, coords = self.tokens, self.coords
        if tokens[0] != "chart":
            self._err(0, "E_PARSE", "a session must start with a 'chart' declaration")
        self.pos = 1
        while True:
            at = self.pos
            name = tokens[at]
            if not name.isidentifier():
                self._expected("a coordinate name")
            if name in _OPS:
                self._err(at, "E_PARSE", f"coordinate name '{name}' is reserved")
            if name in coords:
                self._err(at, "E_PARSE", f"duplicate coordinate '{name}'")
            # an earlier d<name>, or the <x> of a name d<x>: the first declared is reported
            clashes = [other for other in ("d" + name, name[1:] if name[0] == "d" else "")
                       if other in coords]
            if clashes:
                short, long = sorted((min(clashes, key=coords.get), name), key=len)
                self._err(at, "E_PARSE",
                          f"coordinate '{long}' collides with the differential of '{short}'")
            coords[name] = len(coords)
            self.pos = at + 1
            if tokens[self.pos] != ",":
                break
            self.pos += 1
        k = Fraction(0)
        if tokens[self.pos] == "k" and tokens[self.pos + 1] == "=":
            self.pos += 2
            k = self._signed_rational()
        self.chart = Chart(tuple(coords), k)

    def _signed_rational(self) -> Fraction:
        negative = False
        while self.tokens[self.pos] == "-":
            self.pos += 1
            negative = not negative
        value = Fraction(*self._ratio(self._int("a number")))
        return -value if negative else value

    def _ratio(self, at: int) -> tuple[int, int]:
        """The literal ``INT ("/" INT)?`` at token ``at`` as (num, den) in lowest terms."""
        tokens = self.tokens
        num = int(tokens[at]) if len(tokens[at]) <= MAX_LITERAL_DIGITS else self._literal(at)
        if tokens[self.pos] != "/":
            return num, 1
        den_at = self.pos = self.pos + 1
        digits = tokens[den_at]
        if digits.isdecimal() and len(digits) <= MAX_LITERAL_DIGITS:
            den = int(digits)
            self.pos += 1
        else:
            den = self._literal(self._int("a denominator"))
        if den == 0:
            self._err(den_at, "E_PARSE", "zero denominator")
        g = gcd(num, den)
        return num // g, den // g

    def _literal(self, at: int) -> int:
        """The integer token ``at``; E_PARSE when it has more than MAX_LITERAL_DIGITS
        digits after its leading zeros."""
        digits = self.tokens[at].lstrip("0") or "0"
        if len(digits) > MAX_LITERAL_DIGITS:
            self._err(at, "E_PARSE",
                      f"integer literal of {len(digits)} digits exceeds {MAX_LITERAL_DIGITS}")
        return int(digits)

    # -- expressions: see the module docstring ------------------------------

    def _expr(self) -> Value:
        if self.depth == MAX_NESTING:
            self._err(self.pos, "E_PARSE",
                      f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        tokens = self.tokens
        value = None  # the sum of the terms before the pending monomials
        monomials: list[_Monomial] = []
        op = None  # the index of the sign before the term
        while True:
            term = self._term()
            negate = op is not None and tokens[op] == "-"
            if type(term) is tuple and (value is None or isinstance(value, ScalarField)):
                num, den, exps = term
                monomials.append((-num if negate else num, den, exps))
            else:
                term = self._as_value(term)
                if negate:
                    term = -term
                if monomials:
                    total = _from_monomials(self.chart, monomials)
                    value = total if value is None else value + total
                    monomials = []
                value = term if value is None else self._add(value, term, op)
            if tokens[self.pos] not in ("+", "-"):
                break
            op = self.pos
            self.pos += 1
        if monomials:
            total = _from_monomials(self.chart, monomials)
            value = total if value is None else value + total
        self.depth -= 1
        return _collapse(value)

    def _as_value(self, value: Value | _Monomial) -> Value:
        return _from_monomials(self.chart, (value,)) if type(value) is tuple else value

    def _term(self) -> Value | _Monomial:
        """A term's value, or its monomial when every factor is a number or a coordinate.

        While every factor so far is a number or a coordinate, the pending
        monomial is the term.  The module docstring says which factors fold
        into it, which basis blocks are built with a coefficient and which
        products ``_mul`` computes.
        """
        tokens, coords, chart, dim = self.tokens, self.coords, self.chart, self.chart.dim
        num, den, exps = 1, 1, [0] * dim  # the pending monomial
        value = None  # the term so far, once a factor other than a number or coordinate joined it
        op = None  # the index of the '*' before the factor, None for the first factor
        while True:
            at = start = self.pos
            while tokens[at] == "-":  # a loop, not recursion: "- - - x" is flat
                at += 1
            negate = (at - start) & 1
            tok = tokens[at]
            self.pos = at + 1
            factor = None  # set when the factor starts the term or joins it by ``_mul``
            if tok in coords:
                i, power = coords[tok], 1
                while tokens[self.pos] == "^":
                    self.pos += 1
                    power *= self._exponent()
                if value is None:
                    num = -num if negate else num
                    exps[i] += power
                else:
                    factor = self._as_value((1, 1, (0,) * i + (power,) + (0,) * (dim - i - 1)))
            elif tok.isdecimal():
                bn, bd = self._ratio(at)
                if tokens[self.pos] == "^" or value is not None:
                    factor = self._factor(self._as_value((bn, bd, (0,) * dim)))
                else:
                    bn = -bn if negate else bn
                    if not (den == 1 and num in (1, -1) or bd == 1 and bn in (1, -1)):
                        self._check_bits(max(num.bit_length(), den.bit_length()),
                                         max(bn.bit_length(), bd.bit_length()), op)
                    g, h = gcd(num, bd), gcd(bn, den)  # keeps the product in lowest terms
                    num, den = (num // g) * (bn // h), (den // h) * (bd // g)
            elif tok == "@" or self._is_differential(tok):
                if tok == "@":
                    if tokens[self.pos] not in coords:
                        self._err(self.pos, "E_NAME", "'@' must be followed by a coordinate name")
                    build, index = _coordinate_vector, coords[tokens[self.pos]]
                    self.pos += 1
                else:
                    build, index = _basis_form, self._dblock(tok)
                if (tokens[self.pos] == "^" or build is _basis_form and len(set(index)) < len(index)
                        or not (value is None or isinstance(value, ScalarField))):
                    factor = self._factor(build(chart, index))  # E_TYPE at a '^', else ``_mul``
                else:  # a nonzero block: a scalar times a unit term passes every limit
                    c = self._as_value((num, den, tuple(exps))) if value is None else value
                    value = build(chart, index, -c if negate else c)
            else:
                self.pos = at
                factor = self._factor()
            if factor is not None:
                if negate:
                    factor = -factor
                value = factor if op is None else self._mul(
                    self._as_value((num, den, tuple(exps))) if value is None else value, factor, op)
            if tokens[self.pos] != "*":
                return (num, den, tuple(exps)) if value is None else value
            op = self.pos
            self.pos += 1

    def _factor(self, atom: Value | None = None) -> Value:
        """``atom``, or else the atom read next, with its ``^`` chain: a factor that
        ``_term`` neither folds into its monomial nor builds as a basis block."""
        tokens = self.tokens
        value = self._atom() if atom is None else atom
        while tokens[self.pos] == "^":
            caret = self.pos
            if not isinstance(value, ScalarField):
                self._err(caret, "E_TYPE",
                          "'^' raises a scalar to an integer power; basis differentials "
                          "chain directly (dx^dy) and general forms use wedge(...)")
            self.pos += 1
            value = self._power(value, self._exponent(), caret)
        return value

    def _exponent(self) -> int:
        """The integer after a ``^``, at most MAX_EXPONENT."""
        at = self.pos
        digits = self.tokens[at]
        if digits.isdecimal() and len(digits) <= MAX_LITERAL_DIGITS:
            self.pos = at + 1
            exponent = int(digits)
        else:
            exponent = self._literal(self._int("an integer exponent"))
        if exponent > MAX_EXPONENT:
            self._err(at, "E_PARSE", f"exponent {self.tokens[at]} exceeds {MAX_EXPONENT}")
        return exponent

    def _power(self, base: ScalarField, exponent: int, caret: int) -> ScalarField:
        """base ** exponent by repeated squaring: one product per bit and per set bit."""
        out = None
        while True:
            if exponent & 1:
                out = base if out is None else self._power_step(out, base, caret)
            exponent >>= 1
            if not exponent:
                return self.chart.constant(1) if out is None else out
            base = self._power_step(base, base, caret)

    def _power_step(self, a: ScalarField, b: ScalarField, caret: int) -> ScalarField:
        """a * b inside ``_power``, refused before any work when it is too large.

        Integers of i and j bits multiply to at least 2 ** (i + j - 2), which
        has more than MAX_LITERAL_DIGITS digits once i + j > _PRINTABLE_BITS + 1.
        """
        if _int_bits(a) + _int_bits(b) > _PRINTABLE_BITS + 1:
            self._err(caret, "E_PARSE",
                      f"'^' builds a coefficient of more than {MAX_LITERAL_DIGITS} digits")
        self._check_product(a, b, caret)
        return a * b

    def _check_product(self, a: Value, b: Value, at: int) -> None:
        """Refuse, before any work, a product that needs too many term products
        or whose operands' largest integers together pass ``_PRODUCT_BITS`` bits.

        The size bound is twice that of a step of ``^``: one operand may be an
        intermediate value that could not be printed by itself.
        """
        if _is_unit_term(a) or _is_unit_term(b):
            return
        fa, fb = a._coefficients(), b._coefficients()
        m, n = _term_count(fa), _term_count(fb)
        if m * n > MAX_PRODUCT_TERMS:
            self._err(at, "E_PARSE",
                      f"product of a {m}-term and a {n}-term operand "
                      f"exceeds {MAX_PRODUCT_TERMS} term products")
        self._check_bits(max(map(_int_bits, fa), default=0),
                         max(map(_int_bits, fb), default=0), at)

    def _check_bits(self, i: int, j: int, at: int) -> None:
        """Refuse a product whose operands' largest integers, of i and j bits,
        pass ``_PRODUCT_BITS`` bits together."""
        if i + j > _PRODUCT_BITS:
            self._err(at, "E_PARSE",
                      f"product of operands with {i}-bit and {j}-bit integers "
                      f"exceeds {_PRODUCT_BITS} bits")

    def _atom(self) -> Value:
        """An atom that is not a number, a coordinate or a basis block, which ``_term`` reads."""
        tokens = self.tokens
        at = self.pos
        tok = tokens[at]
        self.pos = at + 1
        if tok.isidentifier():
            if tok in _OPS and tokens[self.pos] == "(":
                return self._opcall(at)
            if tok in self.definitions:
                return self.definitions[tok]
            self._err(at, "E_NAME", f"unknown name '{tok}'")
        if tok == "(":
            value = self._expr()
            self._expect(")")
            return value
        if tok == "[" or tok == "{":  # the one reader of a pair bracket
            first = self._expr()
            self._expect(";")
            second = self._expr()
            self._expect("]" if tok == "[" else "}")
            return (self._pair_form if tok == "[" else self._pair_vector)(at, first, second)
        self._err(at, "E_PARSE", f"unexpected {tok!r}" if tok else "unexpected end of input")

    def _is_differential(self, tok: str) -> bool:
        return len(tok) > 1 and tok[0] == "d" and tok[1:] in self.coords

    def _dblock(self, first: str) -> tuple[int, ...]:
        """The coordinate indices of the differentials ``first^dy^...``, in the order written."""
        tokens = self.tokens
        indices = [self.coords[first[1:]]]
        while tokens[self.pos] == "^" and self._is_differential(tokens[self.pos + 1]):
            indices.append(self.coords[tokens[self.pos + 1][1:]])
            self.pos += 2
        return tuple(indices)

    def _pair_form(self, open_at: int, first: Value, second: Value) -> GeneralizedForm:
        """The pair form ``[first ; second]`` whose ``[`` is token ``open_at``."""
        for part in (first, second):
            if not isinstance(part, (ScalarField, Form)):
                self._err(open_at, "E_TYPE",
                          f"pair form components must be forms or scalars, got {_kind(part)}")
        ordinary, companion = _as_form(first), _as_form(second)
        # a zero part takes its degree from the other part, or 0 when both are zero
        if ordinary.is_zero:
            ordinary = Form.zero(self.chart, companion.degree - 1 if companion else 0)
        if companion.is_zero:
            companion = Form.zero(self.chart, ordinary.degree + 1)
        if companion.degree != ordinary.degree + 1:
            self._err(open_at, "E_DEGREE",
                      f"companion degree {companion.degree} must be one more than "
                      f"ordinary degree {ordinary.degree}")
        return GeneralizedForm(ordinary, companion)

    def _pair_vector(self, open_at: int, first: Value, second: Value) -> GeneralizedVector:
        """The pair vector ``{first ; second}`` whose ``{`` is token ``open_at``."""
        if isinstance(first, ScalarField) and first.is_zero:
            first = VectorField.zero(self.chart)
        if not isinstance(first, VectorField):
            self._err(open_at, "E_TYPE",
                      f"pair vector needs a vector field first, got {_kind(first)}")
        if not isinstance(second, ScalarField):
            self._err(open_at, "E_TYPE",
                      f"pair vector needs a scalar second, got {_kind(second)}")
        return GeneralizedVector(first, second)

    # -- operations ----------------------------------------------------------

    def _opcall(self, name_at: int) -> Value:
        name = self.tokens[name_at]
        self._expect("(")
        args = [self._expr()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            args.append(self._expr())
        self._expect(")")
        arity, product, message, signatures = _OPS[name]
        if len(args) != arity:
            self._err(name_at, "E_PARSE", f"{name} takes {arity} arguments, got {len(args)}")
        for classes, compute in signatures:
            if all(map(isinstance, args, classes)):
                break
        else:
            self._err(name_at, "E_TYPE", message.format(*map(_kind, args)))
        if product:
            self._check_product(*args, name_at)
        try:
            return _collapse(compute(self, name_at, *args))
        except DegreeError as exc:
            self._err(name_at, "E_DEGREE", str(exc))

    def _add(self, a: Value, b: Value, at: int) -> Value:
        if _kind(a) == _kind(b):
            try:
                return a + b
            except DegreeError as exc:
                self._err(at, "E_DEGREE", str(exc))
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        self._err(at, "E_TYPE", f"cannot add {_kind(a)} and {_kind(b)}")

    def _mul(self, a: Value, b: Value, at: int) -> Value:
        if isinstance(a, ScalarField):
            self._check_product(a, b, at)
            return a * b if isinstance(b, ScalarField) else b.__rmul__(a)
        if isinstance(b, ScalarField):
            self._check_product(a, b, at)
            return a.__rmul__(b)
        self._err(at, "E_TYPE",
                  f"'*' scales by scalars only; cannot multiply {_kind(a)} and {_kind(b)} "
                  "(use wedge for products of forms)")


# The operations, by name (each a reserved name): (arity, whether the product
# limits apply to the two operands, the E_TYPE message, formatted with the
# operands' kinds, and the signatures).  A signature is a tuple of operand classes and the
# computation that runs on operands of those classes, as
# ``compute(parser, index of the name token, *operands)``.  ``_opcall`` takes
# the first signature that matches, so a call with operands of the wrong kinds
# is E_TYPE whatever their size, then applies the product limits, then computes.
# Each computation looks its method up on the operands when it runs.
_FORMS = (ScalarField, Form)  # a scalar is a 0-form
_OPS = {
    "wedge": (2, True, "wedge needs two forms or two pair forms, got {} and {}", (
        ((_FORMS, _FORMS), lambda p, t, a, b: _as_form(a).wedge(_as_form(b))),
        ((GeneralizedForm, GeneralizedForm), lambda p, t, a, b: a.wedge(b)))),
    "d": (1, False, "d applies to forms and pair forms, got {}", (
        ((_FORMS,), lambda p, t, a: _as_form(a).d()),
        ((GeneralizedForm,), lambda p, t, a: a.d()))),
    "I": (2, True, "I needs (vector, form) or (pair vector, pair form), got {} and {}", (
        ((VectorField, _FORMS), lambda p, t, v, a: v.contract(_as_form(a))),
        ((GeneralizedVector, GeneralizedForm), lambda p, t, v, a: v.contract(a)))),
    "L": (2, True, "L needs (vector, form) or (pair vector, pair form), got {} and {}", (
        ((VectorField, ScalarField), lambda p, t, v, f: v.apply(f)),
        ((VectorField, Form), lambda p, t, v, a: v.lie(a)),
        ((GeneralizedVector, GeneralizedForm), lambda p, t, v, a: v.lie(a)))),
    "Lc": (2, True, "Lc needs (pair vector, pair form), got {} and {}", (
        ((GeneralizedVector, GeneralizedForm), lambda p, t, v, a: v.lie_cartan(a)),)),
    "Lv": (2, True, "Lv needs two pair vectors, got {} and {}", (
        ((GeneralizedVector, GeneralizedVector), lambda p, t, v, w: v.lie(w)),)),
    "comm": (2, True, "comm needs two vectors or two pair vectors, got {} and {}", (
        ((VectorField, VectorField), lambda p, t, v, w: v.bracket(w)),
        ((GeneralizedVector, GeneralizedVector), lambda p, t, v, w: v.commutator(w)))),
    # a degree above 0 raises DegreeError: E_DEGREE
    "scale": (2, True, "scale needs (degree-0 pair form, pair vector), got {} and {}", (
        ((GeneralizedForm, GeneralizedVector), lambda p, t, a0, v: v.scaled_by(a0)),)),
    # ``_add`` checks the kinds of its operands itself
    "add": (2, False, None, (((object, object), lambda p, t, a, b: p._add(a, b, t)),)),
    # ``_mul`` applies the product limits itself
    "smul": (2, False, "smul needs an ordinary scalar first, got {}", (
        ((ScalarField, object), lambda p, t, mu, a: p._mul(mu, a, t)),)),
}
