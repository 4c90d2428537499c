"""Symbolic real-valued functions of time.

Coefficient profiles, pump functions and map parameters are all scalar
functions of a single time variable built from the grammar
``t, numbers, + - * / ^, sin, cos, tan, exp, sinh, cosh, tanh``, which
covers what :meth:`TimeFunction.serialize` emits for solver output.
Wrapping sympy keeps the derivative exact (no step-size tuning in
residual tests) and makes the antiderivative available for the one place
it is needed.
"""

from __future__ import annotations

import sympy as sp
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

T = sp.Symbol("t", real=True)

_FUNCTIONS = {f.__name__: f for f in (sp.sin, sp.cos, sp.tan, sp.exp,
                                      sp.sinh, sp.cosh, sp.tanh)}
_TRANSFORMS = standard_transformations + (convert_xor,)


class ExpressionError(ValueError):
    """A time-function expression cannot be parsed or leaves the grammar."""


def _check_grammar(expr, parsed_text=False):
    extra = expr.free_symbols - {T}
    if extra:
        names = ", ".join(sorted(str(s) for s in extra))
        raise ExpressionError(f"unknown symbol(s) in expression: {names}")
    if parsed_text:
        # text input is held to the documented grammar; internally built
        # expressions may use any function lambdify can evaluate
        for f in expr.atoms(sp.Function):
            if f.func not in _FUNCTIONS.values():
                raise ExpressionError(
                    f"function {f.func!s} not in the grammar "
                    f"({', '.join(_FUNCTIONS)})")
    return expr


class TimeFunction:
    """A real function of t with exact derivative and evaluation.

    Accepts numbers, sympy expressions or other TimeFunctions.  Use
    :meth:`parse` for text input; plain ``str`` arguments go through the
    same strict parser.
    """

    __slots__ = ("expr", "_fn", "_deriv")

    def __init__(self, expr):
        if isinstance(expr, TimeFunction):
            expr = expr.expr
        elif isinstance(expr, str):
            expr = _parse_text(expr)
        else:
            try:
                expr = sp.sympify(expr)
            except (sp.SympifyError, TypeError) as exc:
                raise ExpressionError(f"not a valid expression: {expr!r}") from exc
        self.expr = _check_grammar(expr)
        self._fn = None
        self._deriv = None

    @classmethod
    def parse(cls, text):
        if not isinstance(text, str):
            raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
        return cls(_parse_text(text))

    @classmethod
    def zero(cls):
        return cls(0)

    def __call__(self, t):
        if self._fn is None:
            self._fn = sp.lambdify(T, self.expr, modules=["math"])
        return float(self._fn(t))

    def derivative(self):
        if self._deriv is None:
            self._deriv = TimeFunction(sp.diff(self.expr, T))
        return self._deriv

    def integrate_from_zero(self):
        """Definite integral from 0 to t as a new TimeFunction."""
        anti = sp.integrate(self.expr, T)
        if anti.has(sp.Integral):
            raise ExpressionError(f"no elementary antiderivative for {self.expr}")
        result = TimeFunction(sp.expand(anti - anti.subs(T, 0)))
        try:
            result(0.5)
        except Exception as exc:
            raise ExpressionError(
                f"antiderivative of {self.expr} is not numerically evaluable") from exc
        return result

    @property
    def is_zero(self):
        return sp.simplify(self.expr) == 0

    def __add__(self, other):
        return TimeFunction(self.expr + TimeFunction(other).expr)

    __radd__ = __add__

    def __sub__(self, other):
        return TimeFunction(self.expr - TimeFunction(other).expr)

    def __rsub__(self, other):
        return TimeFunction(TimeFunction(other).expr - self.expr)

    def __mul__(self, other):
        return TimeFunction(self.expr * TimeFunction(other).expr)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return TimeFunction(self.expr / TimeFunction(other).expr)

    def __neg__(self):
        return TimeFunction(-self.expr)

    def __eq__(self, other):
        if not isinstance(other, TimeFunction):
            return NotImplemented
        return self.expr == other.expr

    def __hash__(self):
        return hash(self.expr)

    def __repr__(self):
        return f"TimeFunction({self.expr})"

    def serialize(self):
        """Deterministic plain-text form, reparseable by :meth:`parse`."""
        return sp.sstr(self.expr).replace("**", "^")


def _parse_text(text):
    try:
        expr = parse_expr(
            text,
            local_dict={"t": T, **_FUNCTIONS},
            transformations=_TRANSFORMS,
            # just the literal constructors; unknown names become symbols
            # and are rejected by the grammar check
            global_dict={"Integer": sp.Integer, "Float": sp.Float,
                         "Rational": sp.Rational, "Symbol": sp.Symbol},
            evaluate=True,
        )
    except ExpressionError:
        raise
    except Exception as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    return _check_grammar(expr, parsed_text=True)


def adaptive_simpson(fn, a, b, tol=1e-10, max_depth=30):
    """Adaptive Simpson quadrature of a scalar callable over [a, b].

    Used as the independent cross-check for symbolic antiderivatives.
    """
    if a == b:
        return 0.0

    def _simpson(fa, fm, fb, h):
        return h * (fa + 4.0 * fm + fb) / 6.0

    def _recurse(x0, f0, x2, f2, x1, f1, whole, eps, depth):
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = fn(xl)
        fr = fn(xr)
        left = _simpson(f0, fl, f1, x1 - x0)
        right = _simpson(f1, fr, f2, x2 - x1)
        delta = left + right - whole
        if depth >= max_depth or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return (_recurse(x0, f0, x1, f1, xl, fl, left, 0.5 * eps, depth + 1)
                + _recurse(x1, f1, x2, f2, xr, fr, right, 0.5 * eps, depth + 1))

    fa, fb = fn(a), fn(b)
    mid = 0.5 * (a + b)
    fm = fn(mid)
    return _recurse(a, fa, b, fb, mid, fm, _simpson(fa, fm, fb, b - a), tol, 0)
