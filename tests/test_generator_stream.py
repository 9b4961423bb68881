"""The trial generator's draws replay the frozen reference stream.

``harness._scalar``, ``_gen_rational`` and the third-slot degrees of
``scheduled_degrees`` draw every integer through ``harness._below``.  These
tests run them beside ``reference_generator``, a frozen copy of the
helper-per-draw generator, on generators with one state: each draw must give
the same value and leave the generator in the same state, so every later
draw of a trial is unchanged too.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genform import Chart, GenConfig
from genform.harness import (MAX_DIMENSION, _chart_names, _gen_rational, _scalar,
                             scheduled_degrees)

import reference_generator as ref

stream_settings = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("bound", [1, 2, 4, 5, 8])
@pytest.mark.parametrize("terms", [1, 4, 6])
@pytest.mark.parametrize("degree", [0, 3, 4])
@stream_settings
@given(seed=st.integers(0, 2 ** 64 - 1), dim=st.integers(1, MAX_DIMENSION), draws=st.integers(1, 6))
def test_scalar_draws_match_the_reference(bound, terms, degree, seed, dim, draws):
    cfg = GenConfig(seed=0, dimension=dim, max_poly_degree=degree, max_terms=terms,
                    coefficient_bound=bound)
    chart = Chart(_chart_names(dim))
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


@pytest.mark.parametrize("count", [3, 4, 5])
@pytest.mark.parametrize("dim", range(1, MAX_DIMENSION + 1))
@stream_settings
@given(seed=st.integers(0, 2 ** 64 - 1), trials=st.lists(st.integers(0, 500), min_size=1, max_size=4))
def test_third_slot_degrees_match_the_reference(count, dim, seed, trials):
    new, old = random.Random(seed), random.Random(seed)
    for trial in trials:
        drawn = scheduled_degrees(dim, trial, count, new)[2:]
        assert drawn == tuple(ref.below(old.getrandbits, dim + 2) - 1 for _ in range(count - 2))
        assert new.getstate() == old.getstate()
