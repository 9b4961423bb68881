"""Golden outputs: every printing path, byte for byte.

The digests and counterexample texts below were recorded with the original
``Fraction``-per-term scalar kernel, so they pin the printed form of scalars,
forms, vectors and pairs across changes to the coefficient storage.  The
trial-input digests were recorded before trial generation built integer
numerators directly, so they pin every trial a ``check`` run draws.  The
trial-side digests were recorded while every partial derivative was still
built as a scalar of its own, so they pin both computed sides of every
equation across changes to how the operators differentiate.
"""

import hashlib
from pathlib import Path

import pytest

from genform import (
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    default_chart,
    gen_form,
    gen_gform,
    gen_gvector,
    gen_scalar,
    gen_vector,
    render_session,
)
from genform.cli import main
from genform.harness import IDENTITIES, _trial

from test_harness import _corrupted_contract, _corrupted_d

GOLDEN_DIR = Path(__file__).parent / "golden"

# sha256 of the rendered sessions of seeds 0-9, concatenated, per dimension
SESSION_DIGESTS = {
    1: "ddcefe24b1f5bd7b03fabca3a2bb607a70eabd5703b28601a5af1e2e64e8be68",
    2: "441e15ca548f9e3a369f9fddd72ea3cd065c16a9c2290614ae61d8fe9b9a545c",
    3: "bab2d2d20d06a6bdce03ca846add1b1e335853a26c0423828e5ec9225210be4f",
    4: "cf6a8425abe1a9f1ac5534b50e038975c89fb9de97bb511fb97b83ef07f55435",
}

SESSION_SEED0_DIM2 = """chart x, y k=-5/3
f0 = 3/2 + x^2 - 3*y^4
f1 = -49/12 + x^3*y
f2 = 3/5*y^2
a0 = [0 ; 0]
a1 = [3/2*y + 5/4*x*y + x^2*y + y^4 ; (-5/2 - 1/4*x + 4/3*x^2)*dx + (-1 - y)*dy]
a2 = [(4/3*y + 1/4*x*y - 3/2*y^3)*dx + (4/5 - 1/5*x - 1/4*x*y^2 - 1/5*x^2*y^2)*dy ; (-2/3 - 1/2*x)*dx^dy]
a3 = [x^2*dx^dy ; 0]
V0 = {(-2/5*x + y^2 + 4*x^4)*@x + (-2/3*y + 4/3*x^2 + 9/4*y^2 + 2/5*x^4)*@y ; -1 - 1/4*y + 5/4*x*y + x^2*y + x^2*y^2}
V1 = {(2/3 + 1/2*y - 1/2*x*y^2 + 1/4*y^4)*@x + (-3/2*y - 3*x^4)*@y ; 1/3 - 2*x + 1/5*y + 5/4*x^2 - 1/5*x*y^2}
"""

# sha256 of the rendered inputs of trials 0-15 of every identity P1-P17 at
# seed 11, concatenated, per dimension.  A passing check prints nothing that
# depends on its inputs, so these pin the trials themselves: every slot kind,
# the forced-zero schedule and the per-trial k.
TRIAL_INPUT_DIGESTS = {
    1: "a29444ddb4ac145b35d8b648bdef547f5a21b0c1c54e5da6b5856f02cf2827d0",
    2: "32253cc0af94884be45179dc553c7313effbba597d5cf34d2032f4f6a2f1f81d",
    3: "963c07b4314310cc13df025052cc58c0238fd80797738bd49cf0c22c63818507",
    4: "af51efbbb8d2c83a0980f610b75a7d756370a02e0b707398e6b90283b025de95",
}

# sha256 of ``str(lhs)`` and ``str(rhs)``, each followed by a newline, of
# every equation of every identity P1-P17 over the same trials, per
# dimension.  Both sides of a passing equation print alike, so these pin the
# computed values: an operator wrong in the same way on both sides of an
# identity still changes them.
TRIAL_SIDE_DIGESTS = {
    1: "ed7ba721e06b8f9793561bd739f4c537eff18cf07b0b22ad24894c8e66191d39",
    2: "6be65877e30869fdff9fbbb9b93b2d813c6050453fb04ed9ec7c88695df36fa2",
    3: "5f15b116d501e1bafd94314dcda953f018e5de295db7aabce5aa25cf5f9a8278",
    4: "67fef568ba44f8614522279b039439ef8f437236955e1591ffbea5c4b1b5f292",
}

# sha256 of the printed ``gen_form`` values of every degree from -1 to dim + 1
# and the ``gen_vector`` values, at the positions below, for seeds 0-5,
# concatenated, per dimension; then one of each on the default chart.  These
# pin the "form" and "vector" streams, which no session above draws from.
GENERATOR_DIGESTS = {
    1: "c5d1343664508291b02dae4da8a0f39b68184031ad1963d17a3261e7ff4f82be",
    2: "857c76d00c54601e43240ad6d6014a2416b520c7e8055fe36348be27c9e6d902",
    3: "2a8a0755615efe9dc1b0522ef5007b9f9085bbc559daaa2c1545b1e6895e837d",
    4: "21ab153acf1c64bc9bca55f946d7bed5e9126e5d6b215a9d4fa6d3308fe7ce94",
}
GENERATOR_POSITIONS = (0, 7, (3, 1), (12, 0, 5))


def _generated_forms_and_vectors(seed, dim):
    cfg = GenConfig(seed=seed, dimension=dim)
    chart = default_chart(cfg)
    lines = [str(gen_form(cfg, p, pos, chart))
             for p in range(-1, dim + 2) for pos in GENERATOR_POSITIONS]
    lines += [str(gen_vector(cfg, pos, chart)) for pos in GENERATOR_POSITIONS]
    lines += [str(gen_form(cfg, 1, 3)), str(gen_vector(cfg, 3))]
    return "\n".join(lines) + "\n"


def _generated_session(seed, dim):
    cfg = GenConfig(seed=seed, dimension=dim, max_poly_degree=4, max_terms=6)
    chart = default_chart(cfg)
    defs = {f"f{i}": gen_scalar(cfg, i, chart) for i in range(3)}
    for p in range(-1, dim + 1):
        defs[f"a{p + 1}"] = gen_gform(cfg, p, 10 + p, chart)
    for i in range(2):
        defs[f"V{i}"] = gen_gvector(cfg, 20 + i, chart)
    return render_session(chart, defs)


def test_generated_session_text():
    assert _generated_session(0, 2) == SESSION_SEED0_DIM2


@pytest.mark.parametrize("dim", sorted(SESSION_DIGESTS))
def test_generated_session_digests(dim):
    digest = hashlib.sha256()
    for seed in range(10):
        digest.update(_generated_session(seed, dim).encode("utf-8"))
    assert digest.hexdigest() == SESSION_DIGESTS[dim]


@pytest.mark.parametrize("dim", sorted(GENERATOR_DIGESTS))
def test_form_and_vector_stream_digests(dim):
    digest = hashlib.sha256()
    for seed in range(6):
        digest.update(_generated_forms_and_vectors(seed, dim).encode("utf-8"))
    assert digest.hexdigest() == GENERATOR_DIGESTS[dim]


@pytest.mark.parametrize("dim", sorted(TRIAL_INPUT_DIGESTS))
def test_trial_input_digests(dim):
    cfg = GenConfig(seed=11, dimension=dim)
    digest = hashlib.sha256()
    for ident in IDENTITIES.values():
        for trial in range(16):
            chart, env = _trial(ident, cfg, trial)
            digest.update(render_session(chart, env).encode("utf-8"))
    assert digest.hexdigest() == TRIAL_INPUT_DIGESTS[dim]


@pytest.mark.parametrize("dim", sorted(TRIAL_SIDE_DIGESTS))
def test_trial_side_digests(dim):
    cfg = GenConfig(seed=11, dimension=dim)
    digest = hashlib.sha256()
    for ident in IDENTITIES.values():
        for trial in range(16):
            chart, env = _trial(ident, cfg, trial)
            for lhs, rhs in ident.check(chart, **env):
                digest.update(f"{lhs}\n{rhs}\n".encode("utf-8"))
    assert digest.hexdigest() == TRIAL_SIDE_DIGESTS[dim]


@pytest.mark.parametrize("owner,attr,mutant,identity,golden", [
    (GeneralizedForm, "d", _corrupted_d, "P4", "check_p4_corrupted_d.txt"),
    (GeneralizedVector, "contract", _corrupted_contract, "P10", "check_p10_corrupted_contract.txt"),
])
def test_counterexample_text(monkeypatch, capsys, owner, attr, mutant, identity, golden):
    monkeypatch.setattr(owner, attr, mutant)
    status = main(["check", identity, "--dim", "2", "--trials", "8", "--seed", "3"])
    assert status == 1
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")
