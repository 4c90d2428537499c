import math
import os
import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from e2qes.dyson import dyson_params
from e2qes.model import CoefficientSet, PtClass
from e2qes.timefunc import GRAMMAR, ExpressionError, TimeFunction


def test_parse_and_eval():
    f = TimeFunction.parse("0.5*t + sin(2*t)")
    assert f(0.0) == pytest.approx(0.0)
    assert f(1.3) == pytest.approx(0.5 * 1.3 + math.sin(2.6), abs=1e-15)


def test_parse_power_caret():
    f = TimeFunction.parse("t^3 - 2")
    assert f(2.0) == pytest.approx(6.0)


def test_parse_number_and_constant():
    assert TimeFunction(2.5)(100.0) == pytest.approx(2.5)
    assert TimeFunction(0)(13.0) == 0.0
    assert TimeFunction.parse("3/4")(0.0) == pytest.approx(0.75)


@pytest.mark.parametrize("bad", ["x + 1", "log(t)", "t + y*t", "foo(t)"])
def test_parse_rejects_foreign_names(bad):
    with pytest.raises(ExpressionError):
        TimeFunction.parse(bad)


@pytest.mark.parametrize("text,name", [("log(t)", "log"),
                                       ("Function(t)", "Function")])
def test_parse_names_unknown_function(text, name):
    with pytest.raises(ExpressionError) as err:
        TimeFunction.parse(text)
    assert str(err.value) == (f"function {name} not in the grammar "
                              "(sin, cos, tan, exp, sinh, cosh, tanh, Abs, sign)")


@pytest.mark.parametrize("text", ["Function", "Symbol", "sin", "t > 1"])
def test_parse_rejects_non_expressions(text):
    with pytest.raises(ExpressionError):
        TimeFunction.parse(text)


def test_parse_accepts_what_serialize_emits():
    # solver output uses tan, sinh and tanh; all seven grammar functions parse
    f = TimeFunction.parse("tan(t) + sinh(t) - cosh(t)*tanh(t) + exp(t)*sin(t)/cos(t)")
    x = 0.4
    want = (math.tan(x) + math.sinh(x) - math.cosh(x) * math.tanh(x)
            + math.exp(x) * math.sin(x) / math.cos(x))
    assert f(x) == pytest.approx(want, abs=1e-14)
    assert TimeFunction.parse(f.serialize()) == f


def test_parse_admits_what_sympy_makes_of_grammar_text():
    # sympy turns (t^2)^0.5 into Abs(t); the grammar has to admit it
    f = TimeFunction.parse("0.4*((t^2)^0.5)")
    assert f(-0.5) == pytest.approx(0.2, abs=1e-15)
    assert TimeFunction.parse(f.serialize()) == f


def test_internal_expressions_are_held_to_the_grammar():
    # construction from sympy trees meets the same table as parsed text
    t = sp.Symbol("t", real=True)
    with pytest.raises(ExpressionError, match="function atan not in the grammar"):
        TimeFunction(sp.atan(t))


def _pt1_lambda(m_J):
    # PT1 integrates -Im muJ into lambda, the one antiderivative the package builds
    return dyson_params(PtClass.PT1, CoefficientSet({"JJ": 1.0, "J": (0, m_J)}))[0].lam


def test_antiderivative_outside_the_grammar_is_rejected_when_built():
    with pytest.raises(ExpressionError, match="function atan not in the grammar"):
        _pt1_lambda("0.1/(1+t^2)")


def test_integrate_rejects_nonelementary():
    with pytest.raises(ExpressionError, match="no elementary antiderivative"):
        _pt1_lambda("sin(sin(t))")
    with pytest.raises(ExpressionError, match="function erfi not in the grammar"):
        _pt1_lambda("exp(t^2)")


@pytest.mark.parametrize("text,want", [
    ("1e300*t", "1e+300*t"), ("0.4*t^(1/2)", "0.4*t^(1/2)"), ("1/(t^(1/2))", "t^(-1/2)"),
    ("0.1*exp(1)*sin(t)", "0.1*exp(1)*sin(t)"), ("0.017499999999999998", "0.017499999999999998")])
def test_serialize_prints_grammar_text_and_exact_doubles(text, want):
    # never sqrt or E, and each float in its shortest round-trip form
    assert TimeFunction.parse(text).serialize() == want


def test_sign_is_the_derivative_of_abs():
    f = TimeFunction.parse("0.3*Abs(t-1.2)").derivative()
    assert f.serialize() == "0.3*sign(t - 1.2)"
    assert [f(t) for t in (0.5, 1.2, 2.0)] == [-0.3, 0.0, 0.3]
    assert TimeFunction.parse(f.serialize()) == f


def test_readme_and_error_list_each_grammar_function():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = " ".join(fh.read().split())
    sentence = re.search(r"Text input uses .*?\. ", readme).group(0)
    with pytest.raises(ExpressionError) as err:
        TimeFunction.parse("log(t)")
    for name in GRAMMAR:
        assert f"`{name}`" in sentence
        assert re.search(rf"\b{name}\b", str(err.value))


def test_derivative():
    f = TimeFunction.parse("sin(2*t)")
    df = f.derivative()
    for t in (0.0, 0.7, 2.1):
        assert df(t) == pytest.approx(2.0 * math.cos(2.0 * t), abs=1e-14)


def test_derivative_cached():
    f = TimeFunction.parse("t^2")
    assert f.derivative() is f.derivative()


def test_wrapping_shares_evaluator_and_derivative():
    f = TimeFunction.parse("t^2")
    assert TimeFunction(f).derivative() is f.derivative()


def test_serialize_round_trip():
    f = TimeFunction.parse("0.3*t^2 + sin(2*t)")
    text = f.serialize()
    assert "^" in text and "**" not in text
    g = TimeFunction.parse(text)
    assert f == g
    assert hash(f) == hash(g)


def test_equality_by_expression():
    assert TimeFunction.parse("2*t") == TimeFunction.parse("t + t")
    assert TimeFunction.parse("2*t") != TimeFunction.parse("t")


def test_vectorized_eval():
    f = TimeFunction.parse("cos(t)")
    ts = np.linspace(0, 1, 5)
    vals = np.array([f(t) for t in ts])
    np.testing.assert_allclose(vals, np.cos(ts), atol=1e-15)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# grammar text: exponents stay small literals or t, so parsing never builds
# huge exact integers
EXPRESSIONS = st.recursive(
    st.sampled_from(["t", "0", "1", "2", "0.5", "3.7", "1e3", "t^2", "t^3"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda p: f"({p[0]}){p[1]}({p[2]})"),
        st.tuples(sub, st.sampled_from(["0.5", "(1/2)", "(1/3)", "-1", "1.5", "t"]))
        .map(lambda p: f"({p[0]})^{p[1]}"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "sinh", "cosh", "tanh"]), sub)
        .map(lambda p: f"{p[0]}({p[1]})"),
        sub.map(lambda x: f"-({x})"),
    ),
    max_leaves=8,
)


@settings(max_examples=300)
@given(text=EXPRESSIONS, t=FINITE)
def test_evaluation_is_real_or_arithmetic_error(text, t):
    try:
        f = TimeFunction.parse(text)
    except ExpressionError:
        # sympy evaluates constant subexpressions on parse and may refuse
        # one, e.g. exp(exp(1e3)) has too many digits
        reject()
    try:
        value = f(t)
    except ArithmeticError as exc:
        assert f"at t={t!r}" in str(exc)
    else:
        assert type(value) is float and math.isfinite(value)


@given(x=FINITE)
def test_constant_is_exact_and_reads_back(x):
    f = TimeFunction(x)
    assert f(0.0) == x
    assert TimeFunction.parse(f.serialize()) == f


@settings(max_examples=300)
@given(text=EXPRESSIONS)
def test_serialized_text_reads_back(text):
    try:
        f = TimeFunction.parse(text)
        f(0.5)
    except (ExpressionError, ArithmeticError):
        reject()
    g = TimeFunction.parse(f.serialize())
    assert TimeFunction.parse(g.serialize()).serialize() == g.serialize()
