"""The README's examples run as written.

The ``python`` quickstart block runs, and each line it prints is the one the
``# ...`` comment on its ``print`` call shows.  The ``text`` session example
parses, and its canonical rendering is a fixed point of parse then render.
The limits the README states as numbers are the constants of
``genform.session``, so neither can change without the other.
"""

import contextlib
import io
import re
from pathlib import Path

from genform import parse_session

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language: str) -> str:
    """The first fenced block of ``language`` in the README."""
    match = re.search(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"README has no {language} block"
    return match.group(1)


def test_quickstart_prints_what_its_comments_show():
    code = _block("python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_session_example_renders_to_a_fixed_point():
    session = parse_session(_block("text"))
    assert set(session.definitions) == {"f", "al", "v", "a", "V", "b"}
    rendered = session.render()
    assert parse_session(rendered).render() == rendered


def test_stated_limits_are_the_constants_of_the_session():
    from genform.session import (_PRINTABLE_BITS, _PRODUCT_BITS, MAX_EXPONENT,
                                 MAX_LITERAL_DIGITS, MAX_NESTING, MAX_PRODUCT_TERMS)
    text = " ".join(README.split())
    phrases = [
        f"nest at most {MAX_NESTING} levels deep",
        f"exponents from 0 to {MAX_EXPONENT}",
        f"no exponent of it is above {MAX_EXPONENT}",
        f"at most {MAX_PRODUCT_TERMS} term products",
        f"more than {_PRINTABLE_BITS + 1} bits together",
        f"more than {_PRODUCT_BITS} bits together",
        f"could pass {_PRODUCT_BITS} bits",
        f"at most {MAX_LITERAL_DIGITS} digits in each integer",
        f"at most {MAX_LITERAL_DIGITS} digits, not counting leading zeros",
        f"at most {MAX_LITERAL_DIGITS} digits in its numerator",
    ]
    assert [phrase for phrase in phrases if phrase not in text] == []
