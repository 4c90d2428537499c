"""Symbolic real-valued functions of time.

Coefficient profiles, pump functions and map parameters are all scalar
functions of a single time variable ``t``, built from numbers,
``+ - * / ^`` and the functions in the one table :data:`GRAMMAR`.  The
parser, the grammar check every TimeFunction passes, the printer and the
evaluator all read that table, so serialized text parses back, and it is
the very text that is evaluated, with each constant an exact double.
Wrapping sympy keeps the derivative exact (no step-size tuning in
residual tests).
"""

from __future__ import annotations

import math

import sympy as sp
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations
from sympy.printing.str import StrPrinter

from .errors import ExpressionError

T = sp.Symbol("t", real=True)

# the grammar's functions: name -> (sympy function, float function); sign,
# the derivative of Abs, passes NaN through as sympy's does
GRAMMAR = {name: (getattr(sp, name), getattr(math, name))
           for name in ("sin", "cos", "tan", "exp", "sinh", "cosh", "tanh")}
GRAMMAR.update(Abs=(sp.Abs, abs), sign=(sp.sign, lambda x: x if x != x else (x > 0) - (x < 0)))
# the float column without builtins; the constants sympy folds text into
# (1/0, (-1)^0.5, 1e400) become values that __call__ reports
_NAMESPACE = {"__builtins__": {}, "I": 1j, "zoo": math.inf, "oo": math.inf,
              "inf": math.inf, "nan": math.nan,
              **{name: fns[1] for name, fns in GRAMMAR.items()}}
_TRANSFORMS = standard_transformations + (convert_xor,)


class _Printer(StrPrinter):
    """Grammar text with ``**``: also Python source over the namespace."""

    def _print_Float(self, expr):
        return repr(float(expr))  # shortest text that reads back the same double

    def _print_Pow(self, expr, rational=False):
        return super()._print_Pow(expr, rational=True)  # t**(1/2), never sqrt

    def _print_Exp1(self, expr):
        return "exp(1)"


_PRINTER = _Printer()


def _unknown_function(name):
    """Parser stand-in for sympy's Function: any call outside the grammar."""
    if not isinstance(name, str):
        name = "Function"
    raise ExpressionError(
        f"function {name} not in the grammar ({', '.join(GRAMMAR)})")


def _check_grammar(expr):
    extra = expr.free_symbols - {T}
    if extra:
        names = ", ".join(sorted(str(s) for s in extra))
        raise ExpressionError(f"unknown symbol(s) in expression: {names}")
    for f in expr.atoms(sp.Function):
        if GRAMMAR.get(str(f.func), (None,))[0] is not f.func:
            _unknown_function(str(f.func))
    return expr


class TimeFunction:
    """A real function of t with exact derivative and evaluation.

    Accepts numbers, sympy expressions or other TimeFunctions.  Use
    :meth:`parse` for text input; plain ``str`` arguments go through the
    same strict parser.  There is no arithmetic on TimeFunctions: build a
    formula as a sympy expression (``f.expr``) and wrap the result once.
    """

    __slots__ = ("expr", "_text", "_fn", "_deriv")

    def __new__(cls, expr):
        # a TimeFunction never changes, so wrapping one hands it back with
        # its compiled evaluator and derivative
        return expr if isinstance(expr, TimeFunction) else super().__new__(cls)

    def __init__(self, expr):
        if expr is self:
            return
        if isinstance(expr, str):
            expr = _parse_text(expr)
        else:
            try:
                expr = sp.sympify(expr)
            except (sp.SympifyError, TypeError) as exc:
                raise ExpressionError(f"not a valid expression: {expr!r}") from exc
        self.expr = _check_grammar(expr)
        self._text = None
        self._fn = None
        self._deriv = None

    @classmethod
    def parse(cls, text):
        if not isinstance(text, str):
            raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
        return cls(_parse_text(text))

    def __call__(self, t):
        if self._fn is None:
            self._fn = eval("lambda t: " + self._source(), _NAMESPACE)
        try:
            value = self._fn(t)
            if isinstance(value, complex):
                raise ArithmeticError(f"complex value {value}")
            value = float(value)
            if not math.isfinite(value):
                raise ArithmeticError(f"non-finite value {value}")
            return value
        except (ArithmeticError, TypeError, ValueError) as exc:
            # TypeError, ValueError: a math function met a complex or out-of-domain value
            kind = type(exc) if isinstance(exc, ArithmeticError) else ArithmeticError
            raise kind(f"evaluating {self.serialize()} at t={t!r}: {exc}") from exc

    def derivative(self):
        if self._deriv is None:
            try:
                self._deriv = TimeFunction(sp.diff(self.expr, T))
            except ExpressionError:  # sign differentiates to a delta function
                raise ExpressionError(
                    f"the derivative of {self.serialize()} leaves the grammar") from None
        return self._deriv

    def __eq__(self, other):
        if not isinstance(other, TimeFunction):
            return NotImplemented
        return self.expr == other.expr

    def __hash__(self):
        return hash(self.expr)

    def __repr__(self):
        return f"TimeFunction({self.serialize()!r})"

    def _source(self):
        """The printed text, Python source with ``**``; printed once."""
        if self._text is None:
            self._text = _PRINTER.doprint(self.expr)
        return self._text

    def serialize(self):
        """Deterministic grammar text that :meth:`parse` reads back."""
        return self._source().replace("**", "^")


def _parse_text(text):
    try:
        expr = parse_expr(
            text,
            local_dict={"t": T, **{name: fns[0] for name, fns in GRAMMAR.items()}},
            transformations=_TRANSFORMS,
            # just the literal constructors, each decimal read as the nearest
            # double; unknown names become symbols and are rejected by the
            # grammar check, unknown calls are rejected by the Function stand-in
            global_dict={"Integer": sp.Integer, "Float": lambda x: sp.Float(float(x)),
                         "Rational": sp.Rational, "Symbol": sp.Symbol,
                         "Function": _unknown_function},
            evaluate=True,
        )
    except ExpressionError:
        raise
    except Exception as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    if not isinstance(expr, sp.Expr):  # e.g. a bare constructor name
        raise ExpressionError(f"cannot parse expression {text!r}: not an expression")
    return expr
