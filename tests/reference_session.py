"""Reference session parser: the tokenizer and recursive-descent parser of
``genform.session`` before its fast path, frozen.

It builds values with the library's value types (``Chart``, ``ScalarField``,
``Form``, ...), one ``ScalarField`` per literal and coordinate and one product
per ``*`` and ``^``, and it has none of the limits added since
(``MAX_PRODUCT_TERMS`` and the printable-value check).  The property tests
require ``genform.session.parse_session`` to agree with it on every input
inside those limits: the same chart, the same definitions in the same order
with structurally equal values, or a ``ParseError`` with the same position,
code and message.  Nothing here imports ``genform.session``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from genform.errors import ChartMismatchError, DegreeError, ParseError
from genform.forms import Form, VectorField
from genform.generalized import GeneralizedForm, GeneralizedVector
from genform.scalars import Chart, ScalarField

Value = Union[ScalarField, Form, VectorField, GeneralizedForm, GeneralizedVector]

MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_LITERAL_DIGITS = 4300

OP_NAMES = ("wedge", "d", "I", "L", "Lc", "Lv", "comm", "scale", "add", "smul")

_KINDS = (
    (ScalarField, "scalar"),
    (Form, "form"),
    (VectorField, "vector"),
    (GeneralizedForm, "pair form"),
    (GeneralizedVector, "pair vector"),
)


def _kind(value) -> str:
    for cls, label in _KINDS:
        if isinstance(value, cls):
            return label
    return type(value).__name__


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "eof", or the punctuation character itself
    text: str
    line: int
    col: int


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"\d+")
_PUNCT = "@,=()[]{};+-*^/"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _INT_RE.match(text, i)
        if m:
            tokens.append(_Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, "E_LEX", f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens



def parse_session(text: str) -> tuple[Chart, dict[str, Value]]:
    """The chart and the definitions, in order, of a session text."""
    return _Parser(_tokenize(text)).parse()


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.chart: Chart | None = None  # set by _parse_chart
        self.definitions: dict[str, Value] = {}
        self.depth = 0  # expressions currently open

    # -- token plumbing ----------------------------------------------------

    def _peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def _next(self) -> _Token:
        tok = self._peek()
        self.pos += 1
        return tok

    def _err(self, tok: _Token, code: str, message: str):
        raise ParseError(tok.line, tok.col, code, message)

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            self._err(tok, "E_PARSE", f"expected {what}, found {tok.text!r}" if tok.text
                      else f"expected {what} at end of input")
        return tok

    # -- session structure -------------------------------------------------

    def parse(self) -> tuple[Chart, dict[str, Value]]:
        self._parse_chart()
        while self._peek().kind != "eof":
            name_tok = self._next()
            if name_tok.kind != "ident":
                self._err(name_tok, "E_PARSE", f"expected a definition name, found {name_tok.text!r}")
            name = name_tok.text
            if name in OP_NAMES:
                self._err(name_tok, "E_REDEF", f"'{name}' is a reserved operation name")
            if name in self.chart.names:
                self._err(name_tok, "E_REDEF", f"'{name}' is already a coordinate name")
            if len(name) > 1 and name[0] == "d" and name[1:] in self.chart.names:
                self._err(name_tok, "E_REDEF", f"'{name}' collides with a coordinate differential")
            if name in self.definitions:
                self._err(name_tok, "E_REDEF", f"'{name}' is already defined")
            self._expect("=", "'='")
            self.definitions[name] = _collapse(self._expr())
        return self.chart, self.definitions

    def _parse_chart(self):
        tok = self._next()
        if tok.kind != "ident" or tok.text != "chart":
            self._err(tok, "E_PARSE", "a session must start with a 'chart' declaration")
        names: list[str] = []
        while True:
            nt = self._expect("ident", "a coordinate name")
            if nt.text in OP_NAMES:
                self._err(nt, "E_PARSE", f"coordinate name '{nt.text}' is reserved")
            if nt.text in names:
                self._err(nt, "E_PARSE", f"duplicate coordinate '{nt.text}'")
            names.append(nt.text)
            if self._peek().kind == ",":
                self._next()
                continue
            break
        k = Fraction(0)
        if (self._peek().kind == "ident" and self._peek().text == "k"
                and self._peek(1).kind == "="):
            self._next()
            self._next()
            k = self._signed_rational()
        self.chart = Chart(tuple(names), k)

    def _signed_rational(self) -> Fraction:
        negative = False
        while self._peek().kind == "-":
            self._next()
            negative = not negative
        value = self._rational(self._expect("int", "a number"))
        return -value if negative else value

    def _rational(self, int_tok: _Token) -> Fraction:
        num = self._literal(int_tok)
        if self._peek().kind == "/":
            self._next()
            den_tok = self._expect("int", "a denominator")
            den = self._literal(den_tok)
            if den == 0:
                self._err(den_tok, "E_PARSE", "zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def _literal(self, tok: _Token) -> int:
        digits = tok.text.lstrip("0") or "0"
        if len(digits) > MAX_LITERAL_DIGITS:
            self._err(tok, "E_PARSE",
                      f"integer literal of {len(digits)} digits exceeds {MAX_LITERAL_DIGITS}")
        return int(digits)

    # -- expressions ---------------------------------------------------------

    def _expr(self) -> Value:
        if self.depth == MAX_NESTING:
            self._err(self._peek(), "E_PARSE",
                      f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        value = self._term()
        while self._peek().kind in ("+", "-"):
            op = self._next()
            rhs = self._term()
            if op.kind == "-":
                rhs = -rhs
            value = self._add(value, rhs, op)
        self.depth -= 1
        return _collapse(value)

    def _term(self) -> Value:
        value = self._factor()
        while self._peek().kind == "*":
            op = self._next()
            value = self._mul(value, self._factor(), op)
        return value

    def _factor(self) -> Value:
        negate = False
        while self._peek().kind == "-":  # a loop, not recursion: "- - - x" is flat
            self._next()
            negate = not negate
        value = self._atom()
        while self._peek().kind == "^":
            caret = self._peek()
            if not isinstance(value, ScalarField):
                self._err(caret, "E_TYPE",
                          "'^' raises a scalar to an integer power; basis differentials "
                          "chain directly (dx^dy) and general forms use wedge(...)")
            self._next()
            exp_tok = self._expect("int", "an integer exponent")
            exponent = self._literal(exp_tok)
            if exponent > MAX_EXPONENT:
                self._err(exp_tok, "E_PARSE", f"exponent {exp_tok.text} exceeds {MAX_EXPONENT}")
            value = self._power(value, exponent)
        return -value if negate else value

    def _power(self, base: ScalarField, exponent: int) -> ScalarField:
        """base ** exponent by repeated squaring: one product per bit and per set bit."""
        out = None
        while True:
            if exponent & 1:
                out = base if out is None else out * base
            exponent >>= 1
            if not exponent:
                return self.chart.constant(1) if out is None else out
            base = base * base

    def _atom(self) -> Value:
        tok = self._next()
        if tok.kind == "int":
            return self.chart.constant(self._rational(tok))
        if tok.kind == "ident":
            text = tok.text
            if text in OP_NAMES and self._peek().kind == "(":
                return self._opcall(tok)
            if text in self.definitions:
                return self.definitions[text]
            if text in self.chart.names:
                return self.chart.coordinate(self.chart.names.index(text))
            if self._is_differential(tok):
                return self._dblock(tok)
            self._err(tok, "E_NAME", f"unknown name '{text}'")
        if tok.kind == "@":
            nt = self._next()
            if nt.kind != "ident" or nt.text not in self.chart.names:
                self._err(nt, "E_NAME", f"'@' must be followed by a coordinate name")
            index = self.chart.names.index(nt.text)
            comps = [self.chart.constant(0)] * self.chart.dim
            comps[index] = self.chart.constant(1)
            return VectorField(self.chart, tuple(comps))
        if tok.kind == "(":
            value = self._expr()
            self._expect(")", "')'")
            return value
        if tok.kind == "[":
            return self._pair_form(tok)
        if tok.kind == "{":
            return self._pair_vector(tok)
        self._err(tok, "E_PARSE",
                  f"unexpected {tok.text!r}" if tok.text else "unexpected end of input")

    def _is_differential(self, tok: _Token) -> bool:
        return (tok.kind == "ident" and len(tok.text) > 1 and tok.text[0] == "d"
                and tok.text[1:] in self.chart.names)

    def _dblock(self, first: _Token) -> Form:
        indices = [self.chart.names.index(first.text[1:])]
        while self._peek().kind == "^" and self._is_differential(self._peek(1)):
            self._next()
            indices.append(self.chart.names.index(self._next().text[1:]))
        return Form.from_terms(self.chart, len(indices),
                               [(tuple(indices), self.chart.constant(1))])

    def _pair_form(self, open_tok: _Token) -> GeneralizedForm:
        first = self._expr()
        self._expect(";", "';'")
        second = self._expr()
        self._expect("]", "']'")
        for part in (first, second):
            if not isinstance(part, (ScalarField, Form)):
                self._err(open_tok, "E_TYPE",
                          f"pair form components must be forms or scalars, got {_kind(part)}")
        ordinary, companion = _as_form(first), _as_form(second)
        if ordinary.is_zero and companion.is_zero:
            return GeneralizedForm.zero(self.chart, 0)
        if ordinary.is_zero:
            return GeneralizedForm(Form.zero(self.chart, companion.degree - 1), companion)
        if companion.is_zero:
            return GeneralizedForm(ordinary, Form.zero(self.chart, ordinary.degree + 1))
        if companion.degree != ordinary.degree + 1:
            self._err(open_tok, "E_DEGREE",
                      f"companion degree {companion.degree} must be one more than "
                      f"ordinary degree {ordinary.degree}")
        return GeneralizedForm(ordinary, companion)

    def _pair_vector(self, open_tok: _Token) -> GeneralizedVector:
        first = self._expr()
        self._expect(";", "';'")
        second = self._expr()
        self._expect("}", "'}'")
        if isinstance(first, ScalarField) and first.is_zero:
            first = VectorField.zero(self.chart)
        if not isinstance(first, VectorField):
            self._err(open_tok, "E_TYPE",
                      f"pair vector needs a vector field first, got {_kind(first)}")
        if not isinstance(second, ScalarField):
            self._err(open_tok, "E_TYPE",
                      f"pair vector needs a scalar second, got {_kind(second)}")
        return GeneralizedVector(first, second)

    # -- operations ----------------------------------------------------------

    def _opcall(self, name_tok: _Token) -> Value:
        self._expect("(", "'('")
        args = [self._expr()]
        while self._peek().kind == ",":
            self._next()
            args.append(self._expr())
        self._expect(")", "')'")
        arity, impl = _OPS[name_tok.text]
        if len(args) != arity:
            self._err(name_tok, "E_PARSE",
                      f"{name_tok.text} takes {arity} arguments, got {len(args)}")
        try:
            return _collapse(impl(self, args, name_tok))
        except DegreeError as exc:
            self._err(name_tok, "E_DEGREE", str(exc))
        except ChartMismatchError as exc:
            self._err(name_tok, "E_CHART", str(exc))

    def _add(self, a: Value, b: Value, tok: _Token) -> Value:
        if _kind(a) == _kind(b):
            try:
                return a + b
            except DegreeError as exc:
                self._err(tok, "E_DEGREE", str(exc))
        if getattr(a, "is_zero", False):
            return b
        if getattr(b, "is_zero", False):
            return a
        self._err(tok, "E_TYPE", f"cannot add {_kind(a)} and {_kind(b)}")

    def _mul(self, a: Value, b: Value, tok: _Token) -> Value:
        if isinstance(a, ScalarField):
            return a * b if isinstance(b, ScalarField) else b.__rmul__(a)
        if isinstance(b, ScalarField):
            return a.__rmul__(b)
        self._err(tok, "E_TYPE",
                  f"'*' scales by scalars only; cannot multiply {_kind(a)} and {_kind(b)} "
                  "(use wedge for products of forms)")


def _op_wedge(p: _Parser, args, tok) -> Value:
    a, b = args
    if isinstance(a, (ScalarField, Form)) and isinstance(b, (ScalarField, Form)):
        return _as_form(a).wedge(_as_form(b))
    if isinstance(a, GeneralizedForm) and isinstance(b, GeneralizedForm):
        return a.wedge(b)
    p._err(tok, "E_TYPE", f"wedge needs two forms or two pair forms, got {_kind(a)} and {_kind(b)}")


def _op_d(p: _Parser, args, tok) -> Value:
    (a,) = args
    if isinstance(a, (ScalarField, Form)):
        return _as_form(a).d()
    if isinstance(a, GeneralizedForm):
        return a.d()
    p._err(tok, "E_TYPE", f"d applies to forms and pair forms, got {_kind(a)}")


def _op_contract(p: _Parser, args, tok) -> Value:
    v, a = args
    if isinstance(v, VectorField) and isinstance(a, (ScalarField, Form)):
        return v.contract(_as_form(a))
    if isinstance(v, GeneralizedVector) and isinstance(a, GeneralizedForm):
        return v.contract(a)
    p._err(tok, "E_TYPE", f"I needs (vector, form) or (pair vector, pair form), "
                          f"got {_kind(v)} and {_kind(a)}")


def _op_lie(p: _Parser, args, tok) -> Value:
    v, a = args
    if isinstance(v, VectorField) and isinstance(a, ScalarField):
        return v.apply(a)
    if isinstance(v, VectorField) and isinstance(a, Form):
        return v.lie(a)
    if isinstance(v, GeneralizedVector) and isinstance(a, GeneralizedForm):
        return v.lie(a)
    p._err(tok, "E_TYPE", f"L needs (vector, form) or (pair vector, pair form), "
                          f"got {_kind(v)} and {_kind(a)}")


def _op_lie_cartan(p: _Parser, args, tok) -> Value:
    v, a = args
    if isinstance(v, GeneralizedVector) and isinstance(a, GeneralizedForm):
        return v.lie_cartan(a)
    p._err(tok, "E_TYPE", f"Lc needs (pair vector, pair form), got {_kind(v)} and {_kind(a)}")


def _op_lie_vector(p: _Parser, args, tok) -> Value:
    v, w = args
    if isinstance(v, GeneralizedVector) and isinstance(w, GeneralizedVector):
        return v.lie(w)
    p._err(tok, "E_TYPE", f"Lv needs two pair vectors, got {_kind(v)} and {_kind(w)}")


def _op_comm(p: _Parser, args, tok) -> Value:
    v, w = args
    if isinstance(v, VectorField) and isinstance(w, VectorField):
        return v.bracket(w)
    if isinstance(v, GeneralizedVector) and isinstance(w, GeneralizedVector):
        return v.commutator(w)
    p._err(tok, "E_TYPE", f"comm needs two vectors or two pair vectors, "
                          f"got {_kind(v)} and {_kind(w)}")


def _op_scale(p: _Parser, args, tok) -> Value:
    a0, v = args
    if isinstance(a0, GeneralizedForm) and isinstance(v, GeneralizedVector):
        return v.scaled_by(a0)  # degree check raises DegreeError -> E_DEGREE
    p._err(tok, "E_TYPE", f"scale needs (degree-0 pair form, pair vector), "
                          f"got {_kind(a0)} and {_kind(v)}")


def _op_add(p: _Parser, args, tok) -> Value:
    a, b = args
    return p._add(a, b, tok)


def _op_smul(p: _Parser, args, tok) -> Value:
    mu, a = args
    if not isinstance(mu, ScalarField):
        p._err(tok, "E_TYPE", f"smul needs an ordinary scalar first, got {_kind(mu)}")
    return p._mul(mu, a, tok)


_OPS = {
    "wedge": (2, _op_wedge),
    "d": (1, _op_d),
    "I": (2, _op_contract),
    "L": (2, _op_lie),
    "Lc": (2, _op_lie_cartan),
    "Lv": (2, _op_lie_vector),
    "comm": (2, _op_comm),
    "scale": (2, _op_scale),
    "add": (2, _op_add),
    "smul": (2, _op_smul),
}
