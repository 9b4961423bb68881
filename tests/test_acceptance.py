"""Acceptance suite: one test per criterion, every check exact, zero tolerance.

Each criterion prints a single PASS line when it holds (visible with -s);
a failed assertion carries the first counterexample session in its message.
"""

from fractions import Fraction

import pytest

from genform import (
    Chart,
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    cartan_residual,
    gen_form,
    gen_gform,
    gen_gvector,
    gen_scalar,
    gen_vector,
    parse_session,
    render_session,
    run_identity,
)
from genform.cli import main
from genform.harness import residual_witness, scheduled_degrees

from test_harness import _corrupted_contract, _corrupted_d

DIMS = (1, 2, 3, 4)


def _run_split(name, per_dim, seed, k=None):
    reports = []
    for dim in DIMS:
        cfg = GenConfig(seed=seed, dimension=dim, k=k)
        reports.append(run_identity(name, cfg, per_dim))
    return reports


def _assert_all_ok(reports, label):
    for report in reports:
        assert report.ok, (
            f"{label}: {len(report.failures)} failures; first counterexample:\n"
            f"{report.failures[0].session}lhs: {report.failures[0].lhs}\n"
            f"rhs: {report.failures[0].rhs}"
        )
    total = sum(r.trials for r in reports)
    return total


def test_criterion_01_nilpotency():
    total = 0
    for k in (None, Fraction(0)):
        total += _assert_all_ok(_run_split("P4", 25, seed=101, k=k),
                                "P4 d^2=0")
    assert total == 200
    for dim in DIMS:  # every legal degree is scheduled within each dimension's run
        degrees = {scheduled_degrees(dim, t, 1)[0] for t in range(25)}
        assert degrees == set(range(-1, dim + 1))
    print("ACCEPTANCE 01 nilpotency (P4, 200 trials, k in {0, random}): PASS")


def test_criterion_02_interior_product_laws():
    total = _assert_all_ok(_run_split("P7", 50, seed=102), "P7 antiderivation")
    assert total == 200
    total = _assert_all_ok(_run_split("P8", 50, seed=103), "P8 scalar linearity")
    assert total == 200
    # forced degenerate schedule: zero vector trials and boundary degrees occur
    for dim in DIMS:
        pairs = {scheduled_degrees(dim, t, 2)[:2] for t in range(50)}
        flat = {p for pq in pairs for p in pq}
        assert {0, dim, -1} <= flat
    print("ACCEPTANCE 02 interior product laws (P7, P8, 200 trials each): PASS")


def test_criterion_03_scalar_module_law():
    total = _assert_all_ok(_run_split("P6", 50, seed=104), "P6 scaling composition")
    assert total == 200
    print("ACCEPTANCE 03 scalar module law (P6, 200 trials): PASS")


def test_criterion_04_cartan_consistency():
    total = _assert_all_ok(_run_split("P9", 50, seed=105), "P9 composition = closed form")
    assert total == 200
    print("ACCEPTANCE 04 homotopy-formula consistency (P9, 200 trials): PASS")


def test_criterion_05_failure_law_with_witness():
    total = _assert_all_ok(_run_split("P10", 50, seed=106), "P10 residual law")
    assert total == 200
    chart = Chart(("x", "y"), Fraction(1))
    witness = residual_witness(chart)
    residual = cartan_residual(witness["V"], witness["W"], witness["a"])
    assert not residual.is_zero, "residual witness must be nonzero"
    print("ACCEPTANCE 05 contraction-defect law (P10, 200 trials + nonzero witness): PASS")


def test_criterion_06_corrected_derivative_laws():
    for name, seed in (("P11", 107), ("P12", 108), ("P13", 109)):
        total = _assert_all_ok(_run_split(name, 50, seed=seed), name)
        assert total == 200
    print("ACCEPTANCE 06 corrected derivative laws (P11, P12, P13, 200 trials each): PASS")


def test_criterion_07_algebra_structure():
    for name, seed, per_dim in (("P14", 110, 50), ("P16", 111, 50), ("P15", 112, 25)):
        total = _assert_all_ok(_run_split(name, per_dim, seed=seed), name)
        assert total == (200 if per_dim == 50 else 100)
    print("ACCEPTANCE 07 algebra structure (P14, P16 x200; P15 x100): PASS")


def test_criterion_08_embedding():
    total = _assert_all_ok(_run_split("P17", 25, seed=113), "P17 embedding")
    assert total == 100
    print("ACCEPTANCE 08 ordinary-calculus embedding (P17, 100 trials): PASS")


def test_criterion_09_mutation_sensitivity(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(GeneralizedForm, "d", _corrupted_d)
        report = run_identity("P4", GenConfig(seed=114, dimension=2), 50)
        assert report.failures, "corrupted derivative must break nilpotency within 50 trials"

    with monkeypatch.context() as patch:
        patch.setattr(GeneralizedVector, "contract", _corrupted_contract)
        report = run_identity("P10", GenConfig(seed=115, dimension=2), 50)
        assert report.failures, "corrupted contraction must break the residual law within 50 trials"

    assert run_identity("P4", GenConfig(seed=114, dimension=2), 10).ok
    print("ACCEPTANCE 09 mutation sensitivity (P4, P10 fail within 50 trials): PASS")


GOLDEN_SESSION = """chart x, y k=1
a = [x ; y*dx]
b = d(a)
f = x*y
V = {y*@x + x^2*@y ; x}
c = comm(V, V)
"""

GOLDEN_CASES = [
    # the three eval examples
    (GOLDEN_SESSION, "b", None, "[(1 - y)*dx ; -1*dx^dy]\n"),
    (GOLDEN_SESSION, "f", "x=2,y=3", "x*y\n6\n"),
    (GOLDEN_SESSION, "c", None, "{0 ; 0}\n"),
    # worked derivative examples: ordinary embedding and the degree -1 pair
    ("chart x, y k=5\ne = d([y*dx ; 0])\n", "e", None, "[-1*dx^dy ; 0]\n"),
    ("chart x, y k=2/3\nn = d([0 ; x])\n", "n", None, "[2/3*x ; dx]\n"),
    # worked contraction examples: scalar term, zero vector, degree-0 factor
    ("chart x, y k=1\nr = I({y*@x ; x}, [x*dy ; dx^dy])\n", "r", None, "[0 ; (y + x^2)*dy]\n"),
    ("chart x, y k=1\nz = I({0 ; 0}, [x*dy ; dx^dy])\n", "z", None, "[0 ; 0]\n"),
    ("chart x, y k=1\ns = I({@x ; 1/2}, [x*y ; y^2*dx])\n", "s", None, "[0 ; y^2]\n"),
]


@pytest.mark.parametrize("text,name,at,expected", GOLDEN_CASES)
def test_criterion_10_cli_golden(tmp_path, capsys, text, name, at, expected):
    path = tmp_path / "golden.gf"
    path.write_text(text, encoding="utf-8")
    argv = ["eval", str(path), name] + (["--at", at] if at else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_criterion_10_round_trip_100_sessions():
    count = 0
    for seed in range(25):
        for dim in DIMS:
            cfg = GenConfig(seed=seed, dimension=dim)
            chart = Chart(("x", "y", "z", "w")[:dim], Fraction(seed - 12, seed % 5 + 1))
            defs = {
                "f": gen_scalar(cfg, 0, chart),
                "al": gen_form(cfg, seed % (dim + 1), 1, chart),
                "v": gen_vector(cfg, 2, chart),
                "A": gen_gform(cfg, seed % (dim + 2) - 1, 3, chart),
                "V": gen_gvector(cfg, 4, chart),
            }
            text = render_session(chart, defs)
            first = parse_session(text)
            rendered = first.render()
            second = parse_session(rendered)
            assert second.chart == first.chart
            assert list(second.definitions) == list(first.definitions)
            for key, value in first.definitions.items():
                assert second.definitions[key] == value
            assert second.render() == rendered
            count += 1
    assert count == 100
    print("ACCEPTANCE 10a round-trip law on 100 generated sessions: PASS")


def test_criterion_10_check_all(capsys):
    status = main(["check", "all", "--dim", "2", "--trials", "100",
                   "--seed", "7", "--k", "random"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert out.count(": pass (100 trials)") == 17
    print("ACCEPTANCE 10b `check all --dim 2 --trials 100 --seed 7 --k random` exits 0: PASS")
