"""The inline draws of the trial generator replay the helper-per-draw stream.

``harness._scalar`` writes every uniform draw out inline.  These tests run it
beside ``reference_generator.scalar``, a frozen copy of the version that
called a helper per draw, on generators with one state: each draw must give
the same polynomial and leave the generator in the same state, so every
later draw of a trial is unchanged too.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genform import Chart, GenConfig
from genform.harness import _gen_rational, _scalar

import reference_generator as ref

NAMES = ("x", "y", "z", "w")
stream_settings = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("bound", [1, 2, 4, 5, 8])
@pytest.mark.parametrize("terms", [1, 4, 6])
@pytest.mark.parametrize("degree", [0, 3, 4])
@stream_settings
@given(seed=st.integers(0, 2 ** 64 - 1), dim=st.integers(1, 4), draws=st.integers(1, 6))
def test_inline_scalar_draws_match_the_reference(bound, terms, degree, seed, dim, draws):
    cfg = GenConfig(seed=0, dimension=dim, max_poly_degree=degree, max_terms=terms,
                    coefficient_bound=bound)
    chart = Chart(NAMES[:dim])
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        got = _scalar(new, cfg, chart)
        expected = ref.scalar(old, cfg, chart)
        assert got == expected
        assert str(got) == str(expected)
        assert new.getstate() == old.getstate()


@stream_settings
@given(seed=st.integers(0, 2 ** 64 - 1), bound=st.integers(1, 40))
def test_rational_and_below_match_the_reference(seed, bound):
    new, old = random.Random(seed), random.Random(seed)
    assert _gen_rational(new, bound) == Fraction(*ref.gen_ratio(old, bound))
    assert new.getstate() == old.getstate()
