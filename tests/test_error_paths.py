"""Error paths of the public constructors, operators and CLI, each by the
type and text of what it raises or prints."""

from fractions import Fraction

import pytest

from genform import (
    Chart,
    ChartMismatchError,
    DegreeError,
    Form,
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    UnknownIdentityError,
    VectorField,
    one_forms,
    replay_env,
)
from genform.cli import main

CHART = Chart(("x", "y"), Fraction(1, 2))
OTHER = Chart(("u", "v"))
X, Y = CHART.coordinates()
DX, DY = one_forms(CHART)
V = VectorField(CHART, (Y, X))
PAIR = GeneralizedForm(Form.from_scalar(X), DY)
PAIR_VECTOR = GeneralizedVector(V, X)


def _unsupported(op, left, right):
    return f"unsupported operand type(s) for {op}: '{left}' and '{right}'"


CASES = [
    ("empty chart", lambda: Chart(()), ValueError, "a chart needs at least one coordinate"),
    ("repeated coordinate", lambda: Chart(("x", "x")), ValueError,
     "coordinate names must be distinct"),
    ("coordinate out of range", lambda: CHART.coordinate(2), IndexError,
     "coordinate index 2 out of range for dimension 2"),
    ("scalar part of a 1-form", DX.scalar_part, DegreeError,
     "degree-1 form has no scalar part"),
    ("vector with too few components", lambda: VectorField(CHART, (X,)), ChartMismatchError,
     "vector field needs 2 components, got 1"),
    ("vector component on another chart", lambda: VectorField(CHART, (X, OTHER.coordinate(1))),
     ChartMismatchError, "vector component lives on a different chart"),
    ("pair form over two charts",
     lambda: GeneralizedForm(Form.from_scalar(X), one_forms(OTHER)[0]),
     ChartMismatchError, "pair components live on different charts"),
    ("pair vector over two charts", lambda: GeneralizedVector(V, OTHER.coordinate(0)),
     ChartMismatchError, "pair components live on different charts"),
    ("Lie derivative of an int", lambda: PAIR_VECTOR.lie(3), TypeError,
     "cannot take a Lie derivative of int"),
    ("dimension 0", lambda: GenConfig(dimension=0), ValueError, "dimension must be at least 1"),
    ("no terms", lambda: GenConfig(max_terms=0), ValueError, "generator bounds out of range"),
    ("negative degree", lambda: GenConfig(max_poly_degree=-1), ValueError,
     "generator bounds out of range"),
    ("no coefficients", lambda: GenConfig(coefficient_bound=0), ValueError,
     "generator bounds out of range"),
    ("replay of an unknown identity", lambda: replay_env("P99", "chart x\n"),
     UnknownIdentityError, "unknown identity 'P99'"),
    ("scalar + str", lambda: X + "x", TypeError, _unsupported("+", "ScalarField", "str")),
    ("scalar - str", lambda: X - "x", TypeError, _unsupported("-", "ScalarField", "str")),
    ("str - scalar", lambda: "x" - X, TypeError, _unsupported("-", "str", "ScalarField")),
    ("form + int", lambda: DX + 1, TypeError, _unsupported("+", "Form", "int")),
    ("vector + int", lambda: V + 1, TypeError, _unsupported("+", "VectorField", "int")),
    ("pair form + int", lambda: PAIR + 1, TypeError, _unsupported("+", "GeneralizedForm", "int")),
    ("pair vector + int", lambda: PAIR_VECTOR + 1, TypeError,
     _unsupported("+", "GeneralizedVector", "int")),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_raises(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_chart_mismatch_inside_an_operation_is_a_plain_error(tmp_path, capsys, monkeypatch):
    def mismatch(self):
        raise ChartMismatchError("operands live on different charts")

    path = tmp_path / "session.gf"
    path.write_text("chart x, y\na = x*dy\nb = d(a)\n", encoding="utf-8")
    monkeypatch.setattr(Form, "d", mismatch)
    assert main(["show", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "genform: error: operands live on different charts\n"
