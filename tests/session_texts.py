"""Session texts for property tests: generated, mutated and arbitrary.

Every integer a mutation or an arbitrary text can bring in is small, so no
text raises a polynomial to a large power and every parse stays fast.
"""

import math
import re

from hypothesis import strategies as st

from genform import (
    GenConfig,
    default_chart,
    gen_form,
    gen_gform,
    gen_gvector,
    gen_scalar,
    gen_vector,
    render_session,
)

# Lines that use every operation and mix monomial terms with other terms.
OPERATIONS = """h = f^2*g - 3/4*f + x*g - 2 + (f - x)*1/2
B = d(A) + 0*x
C = I(V, A)
D = L(V, A)
E = Lc(V, A)
q = wedge(al, al) + smul(f, al) - x*al
u = comm(v, v) + 2*v - v*x^2
W = Lv(V, V)
s = add(f, -g^2) - -x
t = --3/2^3*x^2^2*-x - -1^2 + 0^0 - 2^3^2*x*--x + 4/6*x^0 - 1/3
"""


def session_text(seed, dim):
    cfg = GenConfig(seed=seed, dimension=dim)
    chart = default_chart(cfg)
    defs = {
        "f": gen_scalar(cfg, 0, chart),
        "g": gen_scalar(cfg, 1, chart),
        "al": gen_form(cfg, 1, 2, chart),
        "v": gen_vector(cfg, 3, chart),
        "A": gen_gform(cfg, seed % (dim + 2) - 1, 4, chart),
        "V": gen_gvector(cfg, 5, chart),
    }
    return render_session(chart, defs) + OPERATIONS


_PIECE = re.compile(r"\s+|#[^\n]*|[A-Za-z_][A-Za-z_0-9]*|\d+|.", re.S)
# Only small integers, so that a mutation cannot raise a polynomial to a large power.
_ALPHABET = ["x", "y", "dx", "dy", "@", "(", ")", "[", "]", "{", "}", ";", ",", "+", "-",
             "*", "^", "/", "0", "1", "2", "=", "d", "I", "wedge", "f", "A", "#", "$",
             "\n", "\t"]


@st.composite
def mutated_sessions(draw):
    """A generated session with up to three token deletions, copies, replacements or insertions."""
    pieces = _PIECE.findall(session_text(draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 4))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.sampled_from([i for i, p in enumerate(pieces) if not p.isspace()]))
        token = f" {draw(st.sampled_from(_ALPHABET))} "
        how = draw(st.sampled_from(("delete", "copy", "replace", "insert")))
        if how == "delete":
            pieces[i] = ""
        elif how == "copy":
            pieces[i] = f"{pieces[i]} {pieces[i]}"
        elif how == "replace":
            pieces[i] = token
        else:
            pieces[i] = token + pieces[i]
    return "".join(pieces)


_CHARS = list("chartxyzk,=012/+-*^()[]{};@dILw_ #\t\r\n") + ["é", "٣", "²", "$", "dx", "wedge"]


def _small_powers(text):
    # every exponent is a digit run, so this bounds the product of any chain of them
    return math.prod(max(int(run), 1) for run in re.findall(r"\d+", text)) <= 10 ** 4


_snippets = st.lists(st.sampled_from(_CHARS), max_size=30).map("".join)
short_texts = st.one_of(
    _snippets,
    _snippets.map(lambda s: "chart x, y k=1\n" + s),
    st.text(max_size=20),
).filter(_small_powers)
