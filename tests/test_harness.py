"""Generator determinism, trial scheduling, and the identity runner itself."""

from fractions import Fraction

import pytest

from genform import (
    Chart,
    DegreeError,
    Form,
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    IDENTITIES,
    UnknownIdentityError,
    VectorField,
    gen_gform,
    gen_gvector,
    gen_scalar,
    replay_env,
    run_identity,
)
from genform.generalized import _sign
from genform.harness import (
    _trial,
    residual_witness,
    scheduled_degrees,
)
from genform.session import render_session


def test_gen_scalar_respects_degenerate_bounds():
    cfg = GenConfig(seed=1, dimension=2, max_terms=1, max_poly_degree=0)
    f = gen_scalar(cfg, 0)
    assert len(f.terms) <= 1
    assert all(sum(e) == 0 for e in f.terms)


def test_gen_scalar_deterministic_per_position():
    cfg = GenConfig(seed=9, dimension=3)
    chart = Chart(("x", "y", "z"))
    for pos in range(8):
        assert gen_scalar(cfg, pos, chart) == gen_scalar(cfg, pos, chart)
        assert str(gen_scalar(cfg, pos, chart)) == str(gen_scalar(cfg, pos, chart))


def test_gen_scalar_seed_changes_output():
    chart = Chart(("x", "y"))
    a = GenConfig(seed=1, dimension=2)
    b = GenConfig(seed=2, dimension=2)
    assert any(gen_scalar(a, i, chart) != gen_scalar(b, i, chart) for i in range(32))


def test_gen_gform_boundary_degrees():
    cfg = GenConfig(seed=3, dimension=2)
    chart = Chart(("x", "y"), Fraction(1, 2))
    low = gen_gform(cfg, -1, 0, chart)
    assert low.ordinary.is_zero and low.degree == -1
    top = gen_gform(cfg, 2, 1, chart)
    assert top.companion.is_zero and top.degree == 2
    mid = gen_gform(cfg, 1, 2, chart)
    assert mid.degree == 1
    assert mid.ordinary.degree == 1 and mid.companion.degree == 2
    assert not mid.ordinary.is_zero and not mid.companion.is_zero
    for key in mid.ordinary.components:
        assert len(key) == 1
    with pytest.raises(DegreeError):
        gen_gform(cfg, 3, 0, chart)


def test_scheduled_degrees_cover_all_pairs():
    for n in (1, 2, 3):
        span = n + 2
        seen = {scheduled_degrees(n, t, 2)[:2] for t in range(4 * span * span)}
        expected = {(p, q) for p in range(-1, n + 1) for q in range(-1, n + 1)}
        assert seen == expected


# the type of each slot kind that a scheduled trial forces to zero
_FORCED_TYPES = {"form": Form, "gform": GeneralizedForm,
                 "vector": VectorField, "gvector": GeneralizedVector}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(IDENTITIES))
def test_forced_degenerate_trials(name, dim):
    cfg = GenConfig(seed=5, dimension=dim)
    ident = IDENTITIES[name]
    # trial 3 zeroes the first form slot, trial 5 the first vector slot
    for trial, kinds in ((3, ("form", "gform")), (5, ("vector", "gvector"))):
        _, env = _trial(ident, cfg, trial)
        first = next(((slot, kind) for slot, kind in ident.slots if kind in kinds), None)
        if first is not None:
            slot, kind = first
            assert type(env[slot]) is _FORCED_TYPES[kind]
            assert env[slot].is_zero
    assert _trial(ident, cfg, 6)[0].k == 0
    assert _trial(ident, GenConfig(seed=5, dimension=dim, k=Fraction(3)), 6)[0].k == 3


def test_p10_witness_is_scheduled_and_nonzero():
    from genform import cartan_residual

    cfg = GenConfig(seed=6, dimension=2)
    chart, env = _trial(IDENTITIES["P10"], cfg, 1)
    expected = residual_witness(chart)
    assert env["V"] == expected["V"] and env["W"] == expected["W"] and env["a"] == expected["a"]
    assert not cartan_residual(env["V"], env["W"], env["a"]).is_zero


def test_run_identity_passes_for_theorems():
    cfg = GenConfig(seed=7, dimension=3)
    assert run_identity("P4", cfg, 40).ok
    assert run_identity("P16", cfg, 25).ok


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        run_identity("P99", GenConfig(), 5)


def test_bad_trial_count():
    with pytest.raises(ValueError):
        run_identity("P4", GenConfig(), 0)


def _corrupted_d(self):
    # drop the degree-alternating sign on the k-term (a uniform k -> -k flip
    # is still a valid derivative, so the corruption must break alternation)
    ordinary = self.ordinary.d() + self.chart.k * self.companion
    return GeneralizedForm(ordinary, self.companion.d())


def _corrupted_contract(self, a):
    p = a.degree
    ordinary = self.v1.contract(a.ordinary)
    companion = self.v1.contract(a.companion) - (p * _sign(p - 1)) * (self.v0 * a.ordinary)
    return GeneralizedForm(ordinary, companion)


def test_mutated_derivative_breaks_nilpotency(monkeypatch):
    monkeypatch.setattr(GeneralizedForm, "d", _corrupted_d)
    report = run_identity("P4", GenConfig(seed=3, dimension=2), 50)
    assert report.failures
    assert report.failures[0].trial < 50


def test_mutated_contraction_breaks_residual_law(monkeypatch):
    monkeypatch.setattr(GeneralizedVector, "contract", _corrupted_contract)
    report = run_identity("P10", GenConfig(seed=3, dimension=2), 50)
    assert report.failures


def test_counterexample_reparses_and_reproduces(monkeypatch):
    monkeypatch.setattr(GeneralizedForm, "d", _corrupted_d)
    cfg = GenConfig(seed=4, dimension=2)
    report = run_identity("P4", cfg, 50)
    assert report.failures
    failure = report.failures[0]
    chart, env = replay_env("P4", failure.session)
    pairs = IDENTITIES["P4"].check(chart, **env)
    assert any(str(lhs) == failure.lhs and str(rhs) == failure.rhs for lhs, rhs in pairs)
    assert any(lhs != rhs for lhs, rhs in pairs)


def test_reports_are_deterministic(monkeypatch):
    monkeypatch.setattr(GeneralizedForm, "d", _corrupted_d)
    cfg = GenConfig(seed=12, dimension=2)
    first = run_identity("P4", cfg, 30)
    second = run_identity("P4", cfg, 30)
    assert first == second
    assert [f.session for f in first.failures] == [f.session for f in second.failures]


def test_gvector_generator_objects_are_valid():
    cfg = GenConfig(seed=8, dimension=3)
    chart = Chart(("x", "y", "z"), Fraction(2))
    for i in range(5):
        V = gen_gvector(cfg, i, chart)
        assert V.chart == chart
        assert len(V.v1.components) == 3


def test_fixed_k_is_every_trials_k():
    cfg = GenConfig(k=Fraction(2, 3))
    assert _trial(IDENTITIES["P1"], cfg, 0)[0].k == Fraction(2, 3)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_replay_env_restores_zero_form_and_zero_vector_slots(dim):
    # trial 3 forces the first form slot (al) to zero, trial 5 the first vector slot (v)
    cfg = GenConfig(seed=4, dimension=dim)
    ident = IDENTITIES["P17"]
    for trial, slot in ((3, "al"), (5, "v")):
        chart, env = _trial(ident, cfg, trial)
        assert not env[slot]
        replayed_chart, replayed = replay_env("P17", render_session(chart, env))
        assert replayed_chart == chart
        for name, value in env.items():
            assert type(replayed[name]) is type(value)
            assert replayed[name] == value
        assert ident.check(chart, **replayed) == ident.check(chart, **env)
