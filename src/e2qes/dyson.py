"""Non-unitary frame maps that turn symmetry-classed generators Hermitian.

The frame map factors as exp(tau_e v) exp(lam_e J) exp(rho_e u) where the
three slot functions are real or imaginary depending on the symmetry
class.  Conjugating a coefficient set through the map is done in closed
form at the coefficient level.  A solve's gates read the coefficients
alone, at ``model.BOUND`` relative to 1 + max_w |c_w(t)|: the constraint
rows and muJJ on the input, the nine ``model.HERMITIAN`` conditions on
the image, so no verdict depends on the truncation.  The matrix route
(:func:`eta_matrix` and :func:`eta_inverse`) is the independent oracle:
:func:`tdde_residual` checks every solve's frame equation with it, and
the two-path residual of ``invariants.invariant_residuals`` and the battery's
``adjoint_closed_forms`` check read it too.  The truncated
v is tridiagonal Toeplitz, so the DST-I diagonalizes it and u = conj(D) v D
with D = diag(i^k); each exponential factor is two FFT-based transforms.
The tests hold this route to ``scipy.linalg.expm``.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .algebra import PAD, build_generators, interior_norm
from .errors import ExpressionError, PreconditionError, ResidualCheckError
from .model import (BOUND, COEFF_KEYS, DEFAULT_PROBE_TIMES, REALITY, CoefficientSet, PtClass,
                    classify_pt, hermiticity_defect, realize)
from .timefunc import T, TimeFunction


@dataclass(frozen=True)
class DysonParams:
    """Profile functions of the frame map for one symmetry class.

    tau, lam, rho are real-valued; the class decides which slots enter
    multiplied by i.
    """

    pt_class: PtClass
    tau: TimeFunction
    lam: TimeFunction
    rho: TimeFunction

    @property
    def phase_convention(self):
        return _CLASSES[self.pt_class].convention

    def effective(self, t):
        """Complex slot values (tau_e, lam_e, rho_e) at time t."""
        return tuple(complex(k * f(t)) for k, f in
                     zip(_CLASSES[self.pt_class].phases, (self.tau, self.lam, self.rho)))


# ---------------------------------------------------------------------------
# The conjugation table follows from one set of adjoint images, read over
# two scalar types: complex for the numeric self-checks, sympy for the
# symbolic image that gets serialized.


def _coefficient_set(terms):
    """CoefficientSet from word -> complex sympy expression, expanded once."""
    pairs = {}
    for k, x in terms.items():
        re, im = sp.expand(x).as_independent(sp.I, as_Add=True)
        pairs[k] = (re, sp.Add(*(term / sp.I for term in sp.Add.make_args(im))))
    return CoefficientSet(pairs)


_Frame = namedtuple("_Frame", "images gauge")


def _frame_terms(pt_class, slots, d_slots, lib, i):
    """:class:`_Frame` in one scalar type.

    slots are the profile values (tau, lam, rho) and d_slots their time
    derivatives, as real numbers or expressions; lib supplies cosh and
    sinh (cmath or sympy) and i is its imaginary unit.  images[g] holds
    the {J, u, v} coefficients of eta g eta^-1, gauge those of
    i (d eta/dt) eta^-1.  With an imaginary J-slot, cosh and sinh
    evaluate to cos and i sin.
    """
    phases = [i if k == 1j else 1 for k in _CLASSES[pt_class].phases]
    tau, lam, rho = (k * s for k, s in zip(phases, slots))
    d_tau, d_lam, d_rho = (k * s for k, s in zip(phases, d_slots))
    ch, sh = lib.cosh(lam), lib.sinh(lam)
    images = {"J": {"J": 1, "u": -(i * tau + rho * sh), "v": i * (rho * ch)},
              "u": {"u": ch, "v": -i * sh},
              "v": {"u": i * sh, "v": ch}}
    gauge = {"J": i * d_lam,
             "u": i * (d_rho * ch) + tau * d_lam,
             "v": d_rho * sh + i * d_tau}
    return _Frame(images, gauge)


def _frame(params):
    """:func:`_frame_terms` over sympy."""
    fns = (params.tau, params.lam, params.rho)
    return _frame_terms(params.pt_class, [f.expr for f in fns],
                        [f.derivative().expr for f in fns], sp, sp.I)


def _frame_at(params, t):
    """:func:`_frame_terms` over complex numbers at time t."""
    fns = (params.tau, params.lam, params.rho)
    return _frame_terms(params.pt_class, [f(t) for f in fns],
                        [f.derivative()(t) for f in fns], cmath, 1j)


def _conjugate_table(mu, frame, i):
    """The nine words of eta (sum_w mu_w w) eta^-1 + i (d eta/dt) eta^-1.

    A word maps to the product of its letters' images, put back in
    normal order (J on the right) by Ju = uJ - i v, Jv = vJ + i u and
    vu = uv.  Output words are literal products (uJ = u then J), so the
    result can carry imaginary u and v parts that pair with the uJ/vJ
    words of a Hermitian operator.
    """
    images, gauge = frame
    rules = {"Ju": {"uJ": 1, "v": -i}, "Jv": {"vJ": 1, "u": i}, "vu": {"uv": 1}}
    table = dict.fromkeys(mu, 0)
    for word, m in mu.items():
        image = {"": m}
        for letter in word:
            image = {w + g: c * cg for w, c in image.items()
                     for g, cg in images[letter].items()}
        for w, c in image.items():
            for key, r in rules.get(w, {w: 1}).items():
                table[key] += c * r
    for key, g in gauge.items():
        table[key] += g
    return table


def conjugate_coefficients(coeffs, params):
    """Push a coefficient set through the frame map, gauge term included."""
    mu = {k: re.expr + sp.I * im.expr for k, (re, im) in coeffs.items()}
    return _coefficient_set(_conjugate_table(mu, _frame(params), sp.I))


def _conjugate_at(coeffs, params, t):
    """Word -> complex value of :func:`conjugate_coefficients` at time t."""
    return _conjugate_table(coeffs.at(t), _frame_at(params, t), 1j)


def adjoint_closed_form(generator, params, t):
    """Coefficients of eta g eta^{-1} over {J, u, v} for g in {J, u, v}."""
    images = _frame_at(params, t).images
    if generator not in images:
        raise ValueError(f"generator must be 'J', 'u' or 'v', got {generator!r}")
    return {k: complex(images[generator].get(k, 0)) for k in "Juv"}


def _dst(x):
    """Orthonormal DST-I along the rows, its own inverse, by an FFT of the odd extension."""
    n = len(x)
    z = np.zeros((2 * n + 2, x.shape[1]), dtype=complex)
    z[1:n + 1], z[n + 2:] = x, -x[::-1]
    return 0.5j * math.sqrt(2.0 / (n + 1)) * np.fft.fft(z, axis=0)[1:n + 1]


def _frame_product(slots, t, order):
    """Product of exp(a g) over (g, a) in slots, the first applied first.

    v = S diag(w) S with S the DST-I and w_k = cos(k pi / (n + 1)), and
    u = conj(D) v D with D = diag(i^k); a zero slot is the exact identity.
    """
    J = build_generators(order)[0].diagonal()[:, None]
    w = np.cos(np.arange(1, len(J) + 1) * math.pi / (len(J) + 1))[:, None]
    phase = {"v": 1.0, "u": np.array([1, 1j, -1, -1j])[np.arange(len(J)) % 4, None]}
    m = np.eye(len(J), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for g, a in slots:
            if g == "J":
                m = np.exp(a * J) * m
            elif a != 0:
                m = np.conj(phase[g]) * _dst(np.exp(a * w) * _dst(phase[g] * m))
    if not np.isfinite(m).all():
        raise PreconditionError(f"the frame map is not finite at t={t} with truncation {order}")
    return m


def eta_matrix(params, t, order):
    """Dense frame map at time t: exp(tau_e v) exp(lam_e J) exp(rho_e u)."""
    tau_e, lam_e, rho_e = params.effective(t)
    return _frame_product(zip("uJv", (rho_e, lam_e, tau_e)), t, order)


def eta_inverse(params, t, order):
    """Inverse of the frame map: the negated slots in reverse order."""
    tau_e, lam_e, rho_e = params.effective(t)
    return _frame_product(zip("vJu", (-tau_e, -lam_e, -rho_e)), t, order)


def _band_residual(left, x, right):
    """left @ x - x @ right, for left and right zero beyond their second diagonals."""
    n = len(x)
    out = np.zeros_like(x)
    for s in range(-2, 3):
        lo, hi = slice(max(-s, 0), n - max(s, 0)), slice(max(s, 0), n + min(s, 0))
        out[lo] += np.diagonal(left, s)[:, None] * x[hi]
        out[:, hi] -= x[:, lo] * np.diagonal(right, s)
    return out


def tdde_residual(coeffs, h_coeffs, params, t, order):
    """Relative interior residual of h eta - eta H - (gauge) eta at time t.

    h_coeffs may be a CoefficientSet or a word -> value mapping at t.
    H, h and the gauge are 5-banded, so the products are taken by band.
    """
    if order <= PAD:
        raise PreconditionError(f"order must be at least {PAD + 1}")
    eta = eta_matrix(params, t, order)
    with np.errstate(over="ignore", invalid="ignore"):  # tested below
        Hm = realize(coeffs, t, order)
        hm = realize(h_coeffs, t, order)
        G = realize(_frame_at(params, t).gauge, t, order)
        R = _band_residual(hm - G, eta, Hm)
    finite = all(np.isfinite(m).all() for m in (Hm, hm, G, R))
    scale = 1.0 + interior_norm(Hm, PAD) + interior_norm(hm, PAD) if finite else math.inf
    if not math.isfinite(scale):
        raise PreconditionError(
            f"the frame equation is not finite at t={t} with truncation {order}")
    return interior_norm(R, PAD) / scale


# ---------------------------------------------------------------------------
# per-class solver

@dataclass(eq=False, slots=True)
class DysonSolution:
    """Frame map, Hermitian image and bookkeeping from one solve."""

    params: DysonParams
    h_coeffs: CoefficientSet
    constraints: dict
    free_parameters: tuple
    tdde: dict


# A builder reads mu, the map (word, part) -> sympy expression of the
# coefficient parts, and the free profiles lam and tau (sympy
# expressions, None where the class's row does not name them).  It
# returns the profiles (tau, lam, rho) and its constraint rows (name,
# word, part, formula): that part of that word's coefficient equals
# formula, or is constant in time when formula is None.  No formula reads
# a part that a formula sets, so the compliant sampler solves the rows in
# one pass.

def _build_pt1(mu, lam, tau):
    mJJ, m_J = mu["JJ", "re"], mu["J", "im"]
    muUJ, muVJ = mu["uJ", "re"], mu["vJ", "re"]
    anti = sp.integrate(-m_J, T)
    if anti.has(sp.Integral):
        raise ExpressionError(
            f"no elementary antiderivative for {TimeFunction(-m_J).serialize()}")
    L = sp.expand(anti - anti.subs(T, 0))
    th = sp.tanh(L)
    return (muVJ * sp.sinh(L) / (2 * mJJ), L, muUJ * th / (2 * mJJ)), [
        ("uv_cross_term", "uv", "re", muUJ * muVJ / (2 * mJJ)),
        ("uu_vv_split", "vv", "re", mu["uu", "re"] + (muVJ ** 2 - muUJ ** 2) / (4 * mJJ)),
        ("u_shift_balance", "u", "im",
         muVJ / 2 + (m_J * muUJ - sp.diff(muUJ, T) * th) / (2 * mJJ)),
        ("v_shift_balance", "v", "im",
         -muUJ / 2 + (m_J * muVJ - sp.diff(muVJ, T) * th) / (2 * mJJ)),
    ]


def _sec_tan(mu, lam):
    """PT2-PT4 profiles: the imaginary J-slot puts sec and tan of lam in them."""
    mJJ = mu["JJ", "re"]
    m_uJ, m_vJ = mu["uJ", "im"], mu["vJ", "im"]
    return (m_uJ / (2 * mJJ * sp.cos(lam)), lam,
            -(m_vJ + m_uJ * sp.tan(lam)) / (2 * mJJ))


def _build_pt2(mu, lam, tau):
    return _sec_tan(mu, lam), [
        ("J_coefficient_absent", "J", "im", 0),
        ("uJ_static", "uJ", "im", None),
        ("vJ_static", "vJ", "im", None),
    ]


def _build_pt3(mu, lam, tau):
    mJJ = mu["JJ", "re"]
    r, s = mu["uJ", "re"], mu["uJ", "im"]
    return _sec_tan(mu, lam), [
        ("u_imag_balance", "u", "im", r / 2 + s * mu["J", "re"] / (2 * mJJ)),
        ("uu_imag_balance", "uu", "im", r * s / (2 * mJJ)),
        ("uJ_static", "uJ", "re", None),
        ("uJ_static", "uJ", "im", None),
    ]


def _build_pt4(mu, lam, tau):
    mJJ = mu["JJ", "re"]
    m_uJ, muVJ = mu["uJ", "im"], mu["vJ", "re"]
    return _sec_tan(mu, lam), [
        ("u_imag_balance", "u", "im", muVJ / 2 + mu["J", "re"] * m_uJ / (2 * mJJ)),
        ("uv_imag_balance", "uv", "im", m_uJ * muVJ / (2 * mJJ)),
        ("uJ_static", "uJ", "im", None),
    ]


def _build_pt5(mu, lam, tau):
    mJJ = mu["JJ", "re"]
    m_vJ, muUJ = mu["vJ", "im"], mu["uJ", "re"]
    return (tau, lam, -m_vJ / (2 * mJJ)), [
        ("v_imag_balance", "v", "im", -muUJ / 2 + mu["J", "re"] * m_vJ / (2 * mJJ)),
        ("uv_imag_balance", "uv", "im", m_vJ * muUJ / (2 * mJJ)),
        ("vJ_static", "vJ", "im", None),
    ]


# per class: the slots (tau, lam, rho) that enter the map times i, the
# phaseConvention text, free parameters (the profiles "lambda" and "tau"
# the caller may give, then the coefficients the map reads), builder, and
# sec/tan(lam) profiles
_Class = namedtuple("_Class", "phases convention free_parameters build sec_tan")
_SEC_TAN = "lambda imaginary, tau and rho real"
_CLASSES = {
    PtClass.PT1: _Class((1, 1, 1), "tau, lambda, rho all real",
                        ("muJJ", "muJ", "muUJ", "muVJ", "muUU"), _build_pt1, False),
    PtClass.PT2: _Class((1, 1j, 1), _SEC_TAN,
                        ("lambda", "muJJ", "muU", "muV", "muUU", "muVV", "muUV"),
                        _build_pt2, True),
    PtClass.PT3: _Class((1, 1j, 1), _SEC_TAN,
                        ("lambda", "muJJ", "muJ", "muU.re", "muUJ.re", "muUU.re", "muUV"),
                        _build_pt3, True),
    PtClass.PT4: _Class((1, 1j, 1), _SEC_TAN,
                        ("lambda", "muJJ", "muJ", "muV", "muVJ", "muUU", "muVV"),
                        _build_pt4, True),
    PtClass.PT5: _Class((1j, 1j, 1), "tau and lambda imaginary, rho real",
                        ("lambda", "tau", "muJJ", "muJ", "muU", "muUJ", "muUU", "muVV"),
                        _build_pt5, False),
}


def _parts(coeffs):
    """(word, part) -> sympy expression of one coefficient part."""
    return {(word, part): f.expr for word, pair in coeffs.items()
            for part, f in zip(("re", "im"), pair)}


def dyson_params(pt_class, coeffs, lam=None, tau=None):
    """Frame profiles and constraint rows of one class for a coefficient set.

    lam and tau are the free profiles the class's row names: a named
    lambda is required, a named tau defaults to 0 and an unnamed profile
    is refused.  The given profiles are differentiated first, so a
    derivative outside the grammar is reported on the text the caller
    wrote.  Returns (DysonParams, rows) with each row (name, word, part,
    formula) as :func:`solve_dyson` checks it; the rows are not checked here.
    """
    named = _CLASSES[pt_class].free_parameters
    free = []
    for name, f in (("lambda", lam), ("tau", tau)):
        if f is not None and name not in named:
            raise PreconditionError(f"{pt_class.value} does not accept a {name} profile")
        if f is None and name in named and name == "lambda":
            raise PreconditionError(f"{pt_class.value} requires a lambda profile function")
        free.append(TimeFunction(0 if f is None else f) if name in named else None)
    for f in filter(None, free):
        f.derivative()
    profiles, rows = _CLASSES[pt_class].build(_parts(coeffs), *(f and f.expr for f in free))
    return DysonParams(pt_class, *map(TimeFunction, profiles)), rows


def solve_dyson(pt_class, coeffs, lam=None, tau=None,
                probe_times=DEFAULT_PROBE_TIMES, order=32):
    """Construct the frame map for one symmetry class and apply it.

    The caller supplies the free profile functions the class's row
    names (see :func:`dyson_params`); everything else is read off the
    coefficient set.  Input constraints are checked numerically at the
    probe times, and the returned Hermitian image is re-verified against
    the defining operator relation before it is handed back.
    """
    pt_class = PtClass(pt_class)
    found = classify_pt(coeffs, probe_times)
    if pt_class not in found:
        names = sorted(c.value for c in found) or ["none"]
        raise PreconditionError(
            f"coefficients do not satisfy the {pt_class.value} reality pattern "
            f"(detected: {', '.join(names)})")

    # each gate on the coefficients reads BOUND relative to 1 + max_w |mu_w(t)|
    bounds = {t: BOUND * (1.0 + max(map(abs, coeffs.at(t).values()))) for t in probe_times}
    jj_re = coeffs.pair("JJ")[0]
    if any(abs(jj_re.derivative()(t)) > b for t, b in bounds.items()):
        raise PreconditionError("muJJ must be constant in time")
    if any(abs(jj_re(t)) <= b for t, b in bounds.items()):
        raise PreconditionError("muJJ must be nonzero")

    row = _CLASSES[pt_class]
    params, rows = dyson_params(pt_class, coeffs, lam, tau)

    if row.sec_tan:
        for t in probe_times:
            if abs(math.cos(params.lam(t))) < 1e-6:
                raise PreconditionError(
                    f"lambda({t}) puts the frame map at a sec/tan singularity")

    constraints, violated = {}, set()
    mu = _parts(coeffs)
    for name, word, part, formula in rows:
        value = mu[word, part]
        fn = TimeFunction(sp.diff(value, T) if formula is None else value - formula)
        defects = {t: abs(fn(t)) for t in bounds}
        constraints[name] = max(constraints.get(name, 0.0), *defects.values())
        if any(defects[t] > b for t, b in bounds.items()):
            violated.add(name)
    if violated:
        detail = ", ".join(f"{n}={constraints[n]:.3e}" for n in sorted(violated))
        raise PreconditionError(f"coefficient constraints violated: {detail}")

    # the self-checks read the numeric conjugation table: Hermiticity by the
    # HERMITIAN table, the frame equation against the dense eta (the oracle)
    tdde = {}
    for t in probe_times:
        h_t = _conjugate_at(coeffs, params, t)
        if not hermiticity_defect(h_t, t) <= BOUND:
            raise ResidualCheckError(
                f"mapped coefficients fail the Hermiticity self-check at t={t}")
        r = tdde_residual(coeffs, h_t, params, t, order)
        tdde[float(t)] = r
        if r > 1e-8:
            raise ResidualCheckError(
                f"operator-relation self-check failed at t={t}: "
                f"residual {r:.3e} > 1.0e-08")

    h = conjugate_coefficients(coeffs, params)
    return DysonSolution(params, h, constraints, row.free_parameters, tdde)


# ---------------------------------------------------------------------------
# compliant input generator (used by tests and demos)

def _random_profile(rng, amp=0.5):
    """a + b cos(w t) with |a|, |b| <= amp."""
    a, b = amp * rng.uniform(-1.0, 1.0, size=2)
    w = rng.uniform(0.6, 1.7)
    return sp.Float(a) + sp.Float(b) * sp.cos(sp.Float(w) * T)


def sample_compliant_inputs(pt_class, rng):
    """Random coefficient set satisfying one class's constraints exactly.

    Returns (coeffs, kwargs) where kwargs carries the free profile
    functions expected by :func:`solve_dyson`.  The parts the reality
    pattern leaves free are drawn, the parts of static rows become
    constants, every other row sets its part to its formula, and
    conjugate partners are filled last.  Amplitudes are kept moderate so
    dense cross-checks sit far above roundoff at order 32; the J
    amplitude is smallest because the first class's map grows like
    exp(|lam| order).
    """
    pt_class = PtClass(pt_class)
    row = _CLASSES[pt_class]
    lam, tau = (_random_profile(rng) if name in row.free_parameters else None
                for name in ("lambda", "tau"))
    pattern = REALITY[pt_class]
    mu = {(word, part): sp.S.Zero for word in COEFF_KEYS for part in ("re", "im")}
    for word, part in mu:
        if word == "JJ" and part == "re":
            mu[word, part] = sp.Float(rng.uniform(1.5, 4.0))
        elif pattern.get(word, part) == part:  # a free word draws both parts
            mu[word, part] = _random_profile(rng, 0.08 if word == "J" else 0.5)
    rows = row.build(mu, lam, tau)[1]
    static = [(word, part) for _, word, part, formula in rows if formula is None]
    for word, part in static:
        mu[word, part] = sp.Float(rng.uniform(-0.6, 0.6))
    if static:  # the formulas read the constants just drawn
        rows = row.build(mu, lam, tau)[1]
    for _, word, part, formula in rows:
        if formula is not None:
            mu[word, part] = formula
    for word, rule in pattern.items():
        if rule not in ("re", "im"):
            mu[word, "re"] = mu[rule, "re"]
            mu[word, "im"] = -mu[rule, "im"]
    coeffs = CoefficientSet({w: (mu[w, "re"], mu[w, "im"]) for w in COEFF_KEYS})
    return coeffs, {k: TimeFunction(f) for k, f in (("lam", lam), ("tau", tau))
                    if f is not None}
