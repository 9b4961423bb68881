"""CLI behavior: subcommands, exit codes, diagnostics, deterministic output."""

import runpy
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genform.cli import main
from session_texts import mutated_sessions, short_texts
from test_harness import _corrupted_contract, _corrupted_d
from genform.session import MAX_LITERAL_DIGITS, MAX_NESTING


@pytest.fixture
def session_file(tmp_path):
    def write(text, name="session.gf"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_eval_prints_canonical_value(session_file, capsys):
    path = session_file("chart x, y k=1\na = [x ; y*dx]\nb = d(a)\n")
    status, out, err = run(capsys, ["eval", path, "b"])
    assert status == 0
    assert out == "[(1 - y)*dx ; -1*dx^dy]\n"
    assert err == ""


def test_eval_at_point(session_file, capsys):
    path = session_file("chart x, y k=1\nf = x*y\n")
    status, out, _ = run(capsys, ["eval", path, "f", "--at", "x=2,y=3"])
    assert status == 0
    assert out == "x*y\n6\n"


def test_eval_pair_at_point(session_file, capsys):
    path = session_file("chart x, y\na = [x ; y*dx]\n")
    status, out, _ = run(capsys, ["eval", path, "a", "--at", "x=2,y=-1/2"])
    assert status == 0
    assert out == "[x ; y*dx]\n[2 ; -1/2*dx]\n"


def test_eval_undefined_name(session_file, capsys):
    path = session_file("chart x\nf = x\n")
    status, out, err = run(capsys, ["eval", path, "nope"])
    assert status == 2
    assert out == ""
    assert "E_NAME" in err


def test_eval_bad_point(session_file, capsys):
    path = session_file("chart x, y\nf = x\ng = x^1000\n")
    for bad in ("x=1", "x=1,y=2,z=3", "x=1,x=2", "x=1,y=oops", "x=1.5,y=1", "x=1e7,y=1",
                "x=1_0,y=1", "x=+1,y=1", "x=1/0,y=1", f"x={'9' * (MAX_LITERAL_DIGITS + 1)},y=1"):
        status, _, err = run(capsys, ["eval", path, "f", "--at", bad])
        assert status == 2
        assert "E_POINT" in err
    status, out, err = run(capsys, ["eval", path, "f", "--at", "x"])
    assert (status, out) == (2, "x\n")
    assert err == "genform: E_POINT: bad binding 'x': expected name=value\n"
    # values at the point that would not print: refused after the work, or before it
    for bad in ("x=100000,y=1", "x=1e200000,y=1", f"x={'9' * MAX_LITERAL_DIGITS},y=1"):
        status, out, err = run(capsys, ["eval", path, "g", "--at", bad])
        assert (status, out) == (2, "x^1000\n")
        assert err.startswith("genform: E_POINT: ") and err.count("\n") == 1
    status, out, _ = run(capsys, ["eval", path, "g", "--at", f"x=-{'0' * 5000}2/0004,y=1"])
    assert (status, out) == (0, f"x^1000\n1/{2 ** 1000}\n")


def test_parse_error_diagnostic_format(session_file, capsys):
    path = session_file("chart x, y\nf = x +\n")
    status, out, err = run(capsys, ["eval", path, "f"])
    assert status == 2
    assert err.startswith("3:1: E_PARSE:")


def test_missing_file(capsys):
    status, _, err = run(capsys, ["show", "/no/such/file.gf"])
    assert status == 2
    assert "error" in err


def test_show_is_idempotent(session_file, capsys, tmp_path):
    path = session_file("chart x, y   k=2\n# comment\na = x*dy^dx\nv = {0 ; x}\n")
    status, out, _ = run(capsys, ["show", path])
    assert status == 0
    assert out == "chart x, y k=2\na = -1*x*dx^dy\nv = {0 ; x}\n"
    second = session_file(out, name="canon.gf")
    status, out2, _ = run(capsys, ["show", second])
    assert status == 0
    assert out2 == out


def test_check_pass_and_exit_codes(capsys):
    status, out, _ = run(capsys, ["check", "P4", "--dim", "1", "--trials", "10",
                                  "--seed", "1", "--k", "0"])
    assert status == 0
    assert out == "P4: pass (10 trials)\n"


# the module is imported already, which runpy warns of before it runs it again
@pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
def test_running_the_module_exits_with_main_status(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["genform", "check", "P1", "--trials", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("genform.cli", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "P1: pass (1 trials)\n"


def test_check_unknown_identity(capsys):
    status, out, err = run(capsys, ["check", "nosuch"])
    assert status == 2
    assert "unknown identity" in err


def test_check_bad_k_spec(capsys):
    status, _, err = run(capsys, ["check", "P4", "--k", "pi"])
    assert status == 2
    assert "E_USAGE" in err


def test_check_k_spec_is_read_as_a_point_value_is(capsys):
    for bad in ("1.5", "1e7", "1_0", " 2/3", "1e5000", "9" * (MAX_LITERAL_DIGITS + 1)):
        status, out, err = run(capsys, ["check", "P4", "--trials", "2", "--k", bad])
        assert (status, out) == (2, "")
        assert err.startswith(f"genform: E_USAGE: bad k spec {bad!r}") and err.count("\n") == 1
    for spec in (["--k", "zero"], ["--k", "0"], ["--k", "0004/6"], ["--k=-2/3"]):
        status, out, err = run(capsys, ["check", "P4", "--trials", "2", *spec])
        assert (status, out, err) == (0, "P4: pass (2 trials)\n", "")


def test_check_fixed_k_prints_in_counterexamples(capsys, monkeypatch):
    from genform import GeneralizedForm, GeneralizedVector

    monkeypatch.setattr(GeneralizedForm, "d", _corrupted_d)
    status, out, _ = run(capsys, ["check", "P4", "--trials", "8", "--k=-2/3"])
    assert status == 1
    assert "k=-2/3):\nchart x, y k=-2/3\n" in out
    monkeypatch.setattr(GeneralizedVector, "contract", _corrupted_contract)
    zero = run(capsys, ["check", "P10", "--trials", "8", "--k", "zero"])
    assert zero == run(capsys, ["check", "P10", "--trials", "8", "--k", "0"])
    assert zero[0] == 1 and "k=0):\nchart x, y k=0\n" in zero[1]


def test_check_output_is_deterministic(capsys):
    argv = ["check", "P6", "--dim", "2", "--trials", "12", "--seed", "9", "--k", "random"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_check_reports_failures_with_counterexample(capsys, monkeypatch):
    from genform import GeneralizedForm

    monkeypatch.setattr(GeneralizedForm, "d", _corrupted_d)
    status, out, _ = run(capsys, ["check", "P4", "--dim", "2", "--trials", "20",
                                  "--seed", "3", "--k", "random"])
    assert status == 1
    assert "P4: FAIL" in out
    assert "chart x, y k=" in out
    assert "lhs:" in out and "rhs:" in out


def test_usage_error_exit_code(capsys):
    assert main(["check"]) == 2  # missing identity argument
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_show_deeply_nested_session_is_a_diagnostic(session_file, capsys):
    depth = MAX_NESTING + 1
    path = session_file("chart x\na = " + "(" * depth + "x" + ")" * depth + "\n")
    status, out, err = run(capsys, ["show", path])
    assert status == 2
    assert out == ""
    assert err.startswith(f"2:{5 + MAX_NESTING}: E_PARSE: ")


def test_show_overlong_literal_is_a_diagnostic(session_file, capsys):
    path = session_file("chart x\na = 2*x + " + "9" * (MAX_LITERAL_DIGITS + 1) + "\n")
    status, out, err = run(capsys, ["show", path])
    assert status == 2
    assert out == ""
    assert err.startswith("2:11: E_PARSE: ")


def test_show_unprintable_result_is_a_diagnostic(session_file, capsys):
    path = session_file("chart x\na = " + "9" * 3000 + "\nb = a*a\n")
    status, out, err = run(capsys, ["show", path])
    assert status == 2
    assert out == ""
    assert err.startswith("3:1: E_PARSE: ")


def test_show_oversized_power_is_a_diagnostic(session_file, capsys):
    path = session_file("chart x, y, z\na = (1+x+y+z)^60\n")
    status, out, err = run(capsys, ["show", path])
    assert status == 2
    assert out == ""
    assert err.startswith("2:14: E_PARSE: ")


# one file, rewritten by every example
@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(mutated_sessions(), short_texts))
def test_show_exits_0_or_2_on_any_text(tmp_path, capsys, text):
    path = tmp_path / "fuzz.gf"
    path.write_text(text, encoding="utf-8")
    status, out, err = run(capsys, ["show", str(path)])
    assert (status, bool(out), bool(err)) in ((0, True, False), (2, False, True))


def test_check_dim_is_bounded(capsys):
    for dim in ("9", "100"):
        status, out, err = run(capsys, ["check", "P4", "--dim", dim, "--trials", "1"])
        assert (status, out) == (2, "")
        assert err == "genform: E_USAGE: dimension must be at most 8\n"
    status, out, err = run(capsys, ["check", "all", "--dim", "8", "--trials", "1"])
    assert status == 0 and err == ""
    assert out.count("pass (1 trials)") == 17


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_trials_below_one_is_a_usage_error(capsys, monkeypatch, trials):
    def refuse(*args):
        raise AssertionError("an identity ran")

    monkeypatch.setattr("genform.cli.run_identity", refuse)
    for identity in ("P1", "all"):
        status, out, err = run(capsys, ["check", identity, "--trials", trials])
        assert (status, out, err) == (2, "", "genform: E_USAGE: trials must be positive\n")
