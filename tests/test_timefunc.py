import math

import numpy as np
import pytest
import sympy as sp

from e2qes.timefunc import (ExpressionError, TimeFunction, adaptive_simpson)


def test_parse_and_eval():
    f = TimeFunction.parse("0.5*t + sin(2*t)")
    assert f(0.0) == pytest.approx(0.0)
    assert f(1.3) == pytest.approx(0.5 * 1.3 + math.sin(2.6), abs=1e-15)


def test_parse_power_caret():
    f = TimeFunction.parse("t^3 - 2")
    assert f(2.0) == pytest.approx(6.0)


def test_parse_number_and_constant():
    assert TimeFunction(2.5)(100.0) == pytest.approx(2.5)
    assert TimeFunction.parse("3/4")(0.0) == pytest.approx(0.75)


@pytest.mark.parametrize("bad", ["x + 1", "log(t)", "t + y*t", "foo(t)"])
def test_parse_rejects_foreign_names(bad):
    with pytest.raises(ExpressionError):
        TimeFunction.parse(bad)


def test_parse_accepts_what_serialize_emits():
    # solver output uses tan, sinh and tanh; all seven grammar functions parse
    f = TimeFunction.parse("tan(t) + sinh(t) - cosh(t)*tanh(t) + exp(t)*sin(t)/cos(t)")
    x = 0.4
    want = (math.tan(x) + math.sinh(x) - math.cosh(x) * math.tanh(x)
            + math.exp(x) * math.sin(x) / math.cos(x))
    assert f(x) == pytest.approx(want, abs=1e-14)
    assert TimeFunction.parse(f.serialize()) == f


def test_internal_expressions_may_use_wider_functions():
    # construction from sympy trees is not restricted to the parse grammar
    t = sp.Symbol("t", real=True)
    f = TimeFunction(sp.atan(t))
    assert f(0.3) == pytest.approx(math.atan(0.3))


def test_derivative():
    f = TimeFunction.parse("sin(2*t)")
    df = f.derivative()
    for t in (0.0, 0.7, 2.1):
        assert df(t) == pytest.approx(2.0 * math.cos(2.0 * t), abs=1e-14)


def test_derivative_cached():
    f = TimeFunction.parse("t^2")
    assert f.derivative() is f.derivative()


def test_integrate_from_zero():
    f = TimeFunction.parse("cos(t)")
    F = f.integrate_from_zero()
    assert F(0.0) == pytest.approx(0.0, abs=1e-15)
    assert F(1.1) == pytest.approx(math.sin(1.1), abs=1e-14)


def test_integrate_rejects_nonelementary():
    with pytest.raises(ExpressionError):
        TimeFunction.parse("exp(t^2)").integrate_from_zero()


def test_adaptive_simpson_matches_symbolic_integral():
    f = TimeFunction.parse("sin(3*t)*exp(t)")
    got = adaptive_simpson(f, 0.0, 2.0, tol=1e-12)
    t = sp.Symbol("t", real=True)
    want = float(sp.integrate(sp.sin(3 * t) * sp.exp(t), (t, 0, 2)))
    assert got == pytest.approx(want, abs=1e-10)


def test_adaptive_simpson_cross_checks_symbolic_route():
    # the two integration routes must agree on the solver's own use case
    f = TimeFunction.parse("0.1*cos(2*t) + 0.05")
    F = f.integrate_from_zero()
    for upper in (0.5, 1.7, 3.0):
        assert adaptive_simpson(f, 0.0, upper) == pytest.approx(F(upper), abs=1e-10)


def test_arithmetic():
    f = TimeFunction.parse("sin(t)")
    g = TimeFunction.parse("t")
    assert (f + g)(0.5) == pytest.approx(math.sin(0.5) + 0.5)
    assert (f * g)(0.5) == pytest.approx(math.sin(0.5) * 0.5)
    assert (-f)(0.5) == pytest.approx(-math.sin(0.5))
    assert (f - f).is_zero


def test_zero_and_is_zero():
    z = TimeFunction.zero()
    assert z.is_zero
    assert z(13.0) == 0.0
    assert not TimeFunction.parse("sin(t)^2 + cos(t)^2 - 0.5").is_zero
    assert TimeFunction.parse("sin(t)^2 + cos(t)^2 - 1").is_zero


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
