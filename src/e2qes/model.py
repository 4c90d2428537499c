"""Hamiltonian families as coefficient sets over {J^2, J, u, v, uJ, vJ, u^2, v^2, uv}.

A CoefficientSet stores one complex-valued time function per basis word,
split into real and imaginary parts.  Antiunitary-symmetry classes are
detected from reality patterns of the coefficients, sampled at probe
times rather than decided symbolically.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .algebra import PAD, build_generators, interior_norm
from .timefunc import TimeFunction

COEFF_KEYS = ("JJ", "J", "u", "v", "uJ", "vJ", "uu", "vv", "uv")

# emitted JSON lists the words in this order
JSON_KEYS = {
    "muJ": "J", "muJJ": "JJ", "muU": "u", "muV": "v", "muUJ": "uJ",
    "muVJ": "vJ", "muUU": "uu", "muVV": "vv", "muUV": "uv",
}

DEFAULT_PROBE_TIMES = (0.0, 0.37, 1.0, 2.5)


class PreconditionError(ValueError):
    """Input violates a documented contract of an operation."""


class CoefficientSet:
    """Nine (re, im) pairs of time functions, one per basis word.

    Missing words default to zero.  Values may be given as a complex
    constant, a single TimeFunction/str/number/sympy expression (real
    part), or an explicit (re, im) pair of those; each part is wrapped
    in a TimeFunction here.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        zero = TimeFunction(0)
        data = {k: (zero, zero) for k in COEFF_KEYS}
        for key, value in dict(terms or {}).items():
            if key not in data:
                raise KeyError(f"unknown coefficient key {key!r}; valid keys: {COEFF_KEYS}")
            data[key] = self._coerce(value)
        self._terms = data

    @staticmethod
    def _coerce(value):
        if isinstance(value, tuple):
            if len(value) != 2:
                raise ValueError("coefficient pair must be (re, im)")
            return (TimeFunction(value[0]), TimeFunction(value[1]))
        if isinstance(value, complex):
            return (TimeFunction(value.real), TimeFunction(value.imag))
        return (TimeFunction(value), TimeFunction(0))

    @classmethod
    def from_json_dict(cls, data):
        """Strict reader: exactly the nine mu* keys, each {re, im}."""
        if not isinstance(data, dict):
            raise ValueError("coefficient set must be a JSON object")
        unknown = set(data) - set(JSON_KEYS)
        if unknown:
            raise ValueError(f"unknown coefficient keys: {sorted(unknown)}")
        missing = set(JSON_KEYS) - set(data)
        if missing:
            raise ValueError(f"missing coefficient keys: {sorted(missing)}")
        terms = {}
        for json_key, key in JSON_KEYS.items():
            entry = data[json_key]
            if not isinstance(entry, dict) or set(entry) != {"re", "im"}:
                raise ValueError(f"{json_key} must be an object with keys 're' and 'im'")
            for part, value in entry.items():
                if not (isinstance(value, str) or (
                        isinstance(value, (int, float)) and not isinstance(value, bool)
                        and abs(value) <= sys.float_info.max)):
                    raise ValueError(
                        f"{json_key}.{part} must be an expression string or a finite number")
            terms[key] = (entry["re"], entry["im"])
        return cls(terms)

    def to_json_dict(self):
        out = {}
        for json_key, key in JSON_KEYS.items():
            re, im = self._terms[key]
            out[json_key] = {"re": re.serialize(), "im": im.serialize()}
        return out

    def pair(self, key):
        return self._terms[key]

    def value(self, key, t):
        re, im = self._terms[key]
        return complex(re(t), im(t))

    def at(self, t):
        return {k: self.value(k, t) for k in COEFF_KEYS}

    def derivative(self):
        return CoefficientSet(
            {k: (re.derivative(), im.derivative()) for k, (re, im) in self._terms.items()})

    def items(self):
        return self._terms.items()

    def __repr__(self):
        nonzero = [k for k, (re, im) in self._terms.items()
                   if not (re.expr == 0 and im.expr == 0)]
        return f"CoefficientSet(nonzero={nonzero})"


class PtClass(enum.Enum):
    PT1 = "PT1"
    PT2 = "PT2"
    PT3 = "PT3"
    PT4 = "PT4"
    PT5 = "PT5"


def _pattern(*imaginary):
    return {k: "im" if k in imaginary else "re" for k in COEFF_KEYS}


# reality pattern per class: word -> "re" (purely real), "im" (purely
# imaginary) or the word it is the complex conjugate of; words a class
# leaves out are free
REALITY = {
    PtClass.PT1: _pattern("J", "u", "v"),
    PtClass.PT2: _pattern("J", "uJ", "vJ"),
    PtClass.PT3: {"JJ": "re", "J": "re", "uv": "re", "v": "u", "vJ": "uJ", "vv": "uu"},
    PtClass.PT4: _pattern("u", "uJ", "uv"),
    PtClass.PT5: _pattern("v", "vJ", "uv"),
}


def classify_pt(coeffs, sample_times=DEFAULT_PROBE_TIMES, tol=1e-12):
    """Set of antiunitary-symmetry classes compatible with the coefficients.

    Reality patterns are tested numerically at the sample times with a
    relative tolerance, so a set may land in several classes (overlaps
    are real: a common quartic family sits in two at once).
    """
    samples = {k: [coeffs.value(k, t) for t in sample_times] for k in COEFF_KEYS}

    def holds(word, rule):
        if rule == "re":
            return all(abs(z.imag) <= tol * (1.0 + abs(z)) for z in samples[word])
        if rule == "im":
            return all(abs(z.real) <= tol * (1.0 + abs(z)) for z in samples[word])
        return all(abs(za - zb.conjugate()) <= tol * (1.0 + abs(za) + abs(zb))
                   for za, zb in zip(samples[rule], samples[word]))

    return {cls for cls, pattern in REALITY.items()
            if all(holds(word, rule) for word, rule in pattern.items())}


@functools.lru_cache(maxsize=32)
def _word_matrices(order):
    J, u, v = build_generators(order)
    words = {"JJ": J @ J, "J": J, "u": u, "v": v, "uJ": u @ J, "vJ": v @ J,
             "uu": u @ u, "vv": v @ v, "uv": u @ v}
    for w in words.values():
        w.setflags(write=False)
    return words


def realize(coeffs, t, order):
    """Assemble the dense operator sum c_w(t) * word on a mode basis.

    coeffs is a CoefficientSet, read at time t, or a mapping from words
    to complex values (absent words are zero).  Products are literal
    matrix products in the written order (uJ means u @ J), so
    non-Hermitian-looking coefficient splits still land on the intended
    operator.
    """
    words = _word_matrices(order)
    values = coeffs.at(t) if isinstance(coeffs, CoefficientSet) else coeffs
    total = np.zeros_like(words["J"])
    for key in COEFF_KEYS:
        c = values.get(key, 0)
        if c != 0:
            total = total + c * words[key]
    return total


def is_hermitian(coeffs, t, order=64):
    """Interior Hermiticity of the realized operator at time t."""
    if order <= PAD:
        raise PreconditionError(f"order must be at least {PAD + 1}")
    H = realize(coeffs, t, order)
    scale = interior_norm(H, PAD)
    return interior_norm(H - H.conj().T, PAD) <= 1e-12 * (1.0 + scale)


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the quartic rotor family: strength zeta, asymmetry
    beta, level parameter N (stored as `level`)."""

    zeta: float
    beta: float
    level: float

    def __post_init__(self):
        for name in ("zeta", "beta", "level"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise PreconditionError(f"{name} must be finite, got {v!r}")

    @property
    def gamma(self):
        return (1.0 + self.beta) * self.zeta

    @classmethod
    def quantized(cls, n_hat, zeta, beta):
        if not isinstance(n_hat, (int, np.integer)) or n_hat < 1:
            raise PreconditionError(f"n_hat must be a positive integer, got {n_hat!r}")
        return cls(zeta=float(zeta), beta=float(beta),
                   level=float(n_hat + (n_hat - 1) * beta))

    def is_quantized(self, n_hat):
        return abs(self.level - (n_hat + (n_hat - 1) * self.beta)) <= 1e-12 * (1.0 + abs(self.level))


def model_hamiltonian(p):
    """Coefficient set 4J^2 + 2i(1-beta) zeta uJ - beta zeta^2 v^2 + 2 zeta N v."""
    return CoefficientSet({
        "JJ": complex(4.0),
        "uJ": 2j * (1.0 - p.beta) * p.zeta,
        "vv": complex(-p.beta * p.zeta ** 2),
        "v": complex(2.0 * p.zeta * p.level),
    })


def closed_form_counterpart(p, lam):
    """Hermitian partner of the quartic rotor family for pump profile lam.

    This is the hand-derived closed form; the generic conjugation route
    must reproduce it coefficient by coefficient, which the test suite
    checks.  All entries are real.
    """
    lam = TimeFunction(lam)
    m_jj = 4.0
    m_uj = 2.0 * (1.0 - p.beta) * p.zeta
    m_v = 2.0 * p.zeta * p.level
    m_vv = -p.beta * p.zeta ** 2
    sin, cos = sp.sin(lam.expr), sp.cos(lam.expr)
    q = m_uj ** 2 / (4.0 * m_jj)
    return CoefficientSet({
        "JJ": m_jj,
        "J": -lam.derivative().expr,
        "u": sin * (0.5 * m_uj - m_v),
        "v": cos * (m_v - 0.5 * m_uj),
        "uu": q * cos * cos + m_vv * sin * sin,
        "vv": q * sin * sin + m_vv * cos * cos,
        "uv": (2.0 * sin * cos) * (q - m_vv),
    })
