"""The session tokenizer against the frozen reference tokenizer, token by token.

``genform.session._tokenize`` returns token texts only, and a position is
computed from a token's index (``_token_offset``) only when a diagnostic
needs one.  The tests here check every token's text and position against
``tests/reference_session.py``, not only the position of the token a
diagnostic names.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_session
from genform import ParseError, parse_session
from genform.session import _line_col, _token_offset, _tokenize
from session_texts import mutated_sessions, session_text, short_texts

GOLDEN = Path(__file__).parent / "golden" / "diagnostics.txt"
GOLDEN_TEXTS = [ast.literal_eval(line.split("\t")[0])
                for line in GOLDEN.read_text(encoding="utf-8").splitlines()]

EXTRA_TEXTS = [
    "chart x\na = ٣٤*x",
    "chart x, y  # é in a comment\na = x",
    "chart x, y\r\na = x\r\nb = 2*y\r\n",
    "chart x,\ty\na =\tx\t*\t2",
    "chart x\na = x  # a trailing comment",
    "chart x\na = x\n# only a comment on the last line",
    "chart x\na = x\n   ",
    "",
    "   \n\t",
]


def _diagnostic(exc: ParseError):
    return exc.line, exc.col, exc.code, exc.message


def _assert_tokens_agree(text):
    try:
        expected = reference_session._tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            _tokenize(text)
        assert _diagnostic(info.value) == _diagnostic(exc)
        return
    tokens = _tokenize(text)
    assert tokens == [tok.text for tok in expected]
    positions = [_line_col(text, _token_offset(text, i)) for i in range(len(tokens))]
    assert positions == [(tok.line, tok.col) for tok in expected]


@pytest.mark.parametrize("text", GOLDEN_TEXTS + EXTRA_TEXTS)
def test_tokens_and_positions_agree_with_reference(text):
    _assert_tokens_agree(text)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_tokens_and_positions_agree_on_generated_sessions(dim):
    for seed in range(3):
        _assert_tokens_agree(session_text(seed, dim))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(mutated_sessions(), short_texts))
def test_tokens_and_positions_agree_on_session_texts(text):
    _assert_tokens_agree(text)


def test_lexical_error_wins_over_an_earlier_parse_error():
    with pytest.raises(ParseError) as info:
        parse_session("chart x\nf = )\ng = é")
    assert _diagnostic(info.value) == (3, 5, "E_LEX", "unexpected character 'é'")


def test_lexical_error_among_many_distinct_characters():
    # every character after the valid lines is a different one no token starts with
    text = "chart x\nf = x\n" + "".join(chr(0x4E00 + i) for i in range(16000))
    with pytest.raises(ParseError) as info:
        parse_session(text)
    assert _diagnostic(info.value) == (3, 1, "E_LEX", "unexpected character '一'")
