"""The session parser against its frozen reference and recorded diagnostics.

``tests/reference_session.py`` is the parser as it was before its fast path
and ``tests/golden/diagnostics.txt`` holds the exact diagnostics that parser
gave on malformed sessions; both were recorded before the fast path existed.
"""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import reference_session
from genform import ParseError, parse_session, render_session
from session_texts import mutated_sessions, session_text, short_texts

GOLDEN = Path(__file__).parent / "golden" / "diagnostics.txt"

# Each line is the repr of a session text, a tab, then its diagnostic.
DIAGNOSTICS = [line.split("\t") for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _diagnostic(parse, text):
    with pytest.raises(ParseError) as info:
        parse(text)
    exc = info.value
    return f"{exc.line}:{exc.col}: {exc.code}: {exc.message}"


@pytest.mark.parametrize("text_repr,expected", DIAGNOSTICS,
                         ids=[f"line{i + 1}" for i in range(len(DIAGNOSTICS))])
def test_golden_diagnostics(text_repr, expected):
    text = ast.literal_eval(text_repr)
    assert _diagnostic(parse_session, text) == expected
    assert _diagnostic(reference_session.parse_session, text) == expected


def test_golden_diagnostics_cover_the_listed_cases():
    texts = [ast.literal_eval(text_repr) for text_repr, _ in DIAGNOSTICS]
    assert len(texts) >= 40
    for needle in ("# c", "\t", "\r", "²", "٣", "x^2^3", "2^3", "x*-y", "-(-x)",
                   "x(1)", "x + dx", "dx + x", "[x ; dx", "/0"):
        assert any(needle in text for text in texts), needle


# -- differential test against the reference parser ---------------------------

# Limits the reference does not have; inputs that reach them are outside its domain.
_NEW_LIMITS = ("term products", "coefficient of more than", "exponent above")


def _outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        return ("error", exc.line, exc.col, exc.code, exc.message)
    chart, definitions = result
    return ("ok", chart, [(name, type(value), value) for name, value in definitions.items()])


def _parse_new(text):
    session = parse_session(text)
    return session.chart, session.definitions


def _assert_agrees(text):
    new = _outcome(_parse_new, text)
    if new[0] == "error" and new[3] == "E_PARSE" and any(s in new[4] for s in _NEW_LIMITS):
        return
    assert new == _outcome(reference_session.parse_session, text)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutated_sessions())
def test_parser_agrees_with_reference_on_mutated_sessions(text):
    _assert_agrees(text)


# Factor order: unary minus, '^' chains, and numbers or coordinates next to other factors;
# then positions after a trailing comment on the last line, '\r\n' line ends and a tab.
@settings(derandomize=True, max_examples=400, deadline=None)
@given(short_texts)
@example("chart x, y\na = -2^2*x\nb = - -x^2^3*y\nc = x*2^3\ng = (x)^2*3\nh = 1/2*x^0*y")
@example("chart x, y\na = x*dy\nb = 2*x*a*3*y\nc = a*2*x\ng = x*-a")
@example("chart x, y\na = x*dy\nb = x*-")
@example("chart x, y\na = x*dy\nb = a*2*x^2*dx")
@example("chart x, y\na = x +  # trailing comment")
@example("chart x, y\r\na = x\r\nb = 2*\r\n )")
@example("chart x, y\r\na = x\r\nb = $")
@example("chart x, y\na =\tx\t*\t")
@example("chart x, y\na =\tx\t%")
# Basis blocks built with their coefficient, and the cases left to '*': a block
# on the left, a zero block, a factor after a block, a block raised by '^' and a
# pair vector before a block.
@example("chart x, y\na = x*dx^dy\nb = dx^dy*x\nc = x*dy^dx\ng = x*dx^dx\nh = 0*dx")
@example("chart x, y\na = -x*@y\nb = @y*x\nc = 2*x*dx*3\ng = x*dx*y\nh = x^2^3*dy")
@example("chart x, y\na = x*dx^2")
@example("chart x, y\na = {@x ; 1}*dx")
def test_parser_agrees_with_reference_on_short_text(text):
    _assert_agrees(text)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_parser_agrees_with_reference_on_generated_sessions(dim):
    for seed in range(5):
        text = session_text(seed, dim)
        assert _outcome(_parse_new, text)[0] == "ok"
        _assert_agrees(text)


# -- every operation on every operand kind --------------------------------------

# One operand of each kind an operation can be given, on the chart below.
OPERANDS = ("x + 2*y", "y*dx - x*dy", "x*@y + @x", "[x ; y*dx]",
            "[y*dx ; 3/2*x*dx^dy]", "{y*@x ; x}")
OPERATION_CHART = "chart x, y k=1/2\n"


def _operation_texts():
    for name in reference_session.OP_NAMES:
        for arity in (1, 2, 3):
            for operands in itertools.product(OPERANDS, repeat=arity):
                yield f"{OPERATION_CHART}r = {name}({', '.join(operands)})\n"


def _rendering_or_diagnostic(parse, text):
    try:
        chart, definitions = parse(text)
    except ParseError as exc:
        return f"{exc.line}:{exc.col}: {exc.code}: {exc.message}"
    return render_session(chart, definitions)


def test_every_operation_on_every_operand_kind_agrees_with_reference():
    texts = list(_operation_texts())
    assert len(texts) == 2580
    for text in texts:
        assert (_rendering_or_diagnostic(_parse_new, text)
                == _rendering_or_diagnostic(reference_session.parse_session, text)), text
