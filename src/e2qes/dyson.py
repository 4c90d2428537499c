"""Non-unitary frame maps that turn symmetry-classed generators Hermitian.

The frame map factors as exp(tau_e v) exp(lam_e J) exp(rho_e u) where the
three slot functions are real or imaginary depending on the symmetry
class.  Conjugating a coefficient set through the map is done in closed
form at the coefficient level; the matrix route (dense exponentials) is
kept only as a cross-check through :func:`tdde_residual`.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy.linalg import expm

from .algebra import PAD, build_generators, interior_norm
from .model import (COEFF_KEYS, DEFAULT_PROBE_TIMES, REALITY, CoefficientSet,
                    PreconditionError, PtClass, classify_pt, is_hermitian, realize)
from .timefunc import T, TimeFunction


class ResidualCheckError(RuntimeError):
    """A mandatory numerical self-check exceeded its tolerance."""


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
        im = sp.Add(*(term / sp.I for term in sp.Add.make_args(im)))
        pairs[k] = (TimeFunction(re), TimeFunction(im))
    return CoefficientSet(pairs)


_Frame = namedtuple("_Frame", "images gauge")


def _frame_terms(params, value, lib, i):
    """:class:`_Frame` in one scalar type.

    value reads a profile as a real number or expression, lib supplies
    cosh and sinh (cmath or sympy) and i is its imaginary unit.
    images[g] holds the {J, u, v} coefficients of eta g eta^-1, gauge
    those of i (d eta/dt) eta^-1.  With an imaginary J-slot, cosh and
    sinh evaluate to cos and i sin.
    """
    phases = [i if k == 1j else 1 for k in _CLASSES[params.pt_class].phases]
    fns = (params.tau, params.lam, params.rho)
    tau, lam, rho = (k * value(f) for k, f in zip(phases, fns))
    d_tau, d_lam, d_rho = (k * value(f.derivative()) for k, f in zip(phases, fns))
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
    return _frame_terms(params, lambda fn: fn.expr, sp, sp.I)


def _frame_at(params, t):
    """:func:`_frame_terms` over complex numbers at time t."""
    return _frame_terms(params, lambda f: f(t), cmath, 1j)


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


def eta_matrix(params, t, order):
    """Dense frame map at time t: exp(tau_e v) exp(lam_e J) exp(rho_e u)."""
    J, u, v = build_generators(order)
    tau_e, lam_e, rho_e = params.effective(t)
    diag = np.exp(lam_e * J.diagonal())
    return expm(tau_e * v) @ (diag[:, None] * expm(rho_e * u))


def eta_inverse(params, t, order):
    """Inverse of the frame map built from negated exponentials."""
    J, u, v = build_generators(order)
    tau_e, lam_e, rho_e = params.effective(t)
    diag = np.exp(-lam_e * J.diagonal())
    return expm(-rho_e * u) @ (diag[:, None] * expm(-tau_e * v))


def tdde_residual(coeffs, h_coeffs, params, t, order=32):
    """Relative interior residual of h eta - eta H - (gauge) eta at time t.

    h_coeffs may be a CoefficientSet or a word -> value mapping at t.
    """
    eta = eta_matrix(params, t, order)
    Hm = realize(coeffs, t, order)
    hm = realize(h_coeffs, t, order)
    G = realize(_frame_at(params, t).gauge, t, order)
    R = hm @ eta - eta @ Hm - G @ eta
    scale = 1.0 + interior_norm(Hm, PAD) + interior_norm(hm, PAD)
    return interior_norm(R, PAD) / scale


# ---------------------------------------------------------------------------
# per-class solver

@dataclass(eq=False, repr=False, slots=True)
class DysonSolution:
    """Frame map, Hermitian image and bookkeeping from one solve."""

    params: DysonParams
    h_coeffs: CoefficientSet
    constraints: dict
    free_parameters: tuple
    tdde: dict

    def __repr__(self):
        worst = max(self.tdde.values()) if self.tdde else float("nan")
        return (f"DysonSolution({self.params.pt_class.value}, "
                f"max tdde residual {worst:.2e})")


def _expr(coeffs, key, part):
    return coeffs.pair(key)[("re", "im").index(part)].expr


# A builder returns the frame profiles and its constraint rows
# (name, word, part, formula): that part of that word's coefficient
# equals formula, or is constant in time when formula is None.  No
# formula reads a part that a formula sets, so the compliant sampler
# solves the rows in one pass.

def _build_pt1(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", "re")
    m_J = _expr(coeffs, "J", "im")
    muUJ, muVJ = _expr(coeffs, "uJ", "re"), _expr(coeffs, "vJ", "re")
    lam_tf = TimeFunction(-m_J).integrate_from_zero()
    L = lam_tf.expr
    th = sp.tanh(L)
    tau_tf = TimeFunction(muVJ * sp.sinh(L) / (2 * mJJ))
    rho_tf = TimeFunction(muUJ * th / (2 * mJJ))
    params = DysonParams(PtClass.PT1, tau_tf, lam_tf, rho_tf)
    return params, [
        ("uv_cross_term", "uv", "re", muUJ * muVJ / (2 * mJJ)),
        ("uu_vv_split", "vv", "re",
         _expr(coeffs, "uu", "re") + (muVJ ** 2 - muUJ ** 2) / (4 * mJJ)),
        ("u_shift_balance", "u", "im",
         muVJ / 2 + (m_J * muUJ - sp.diff(muUJ, T) * th) / (2 * mJJ)),
        ("v_shift_balance", "v", "im",
         -muUJ / 2 + (m_J * muVJ - sp.diff(muVJ, T) * th) / (2 * mJJ)),
    ]


def _sec_tan_params(pt_class, coeffs, lam):
    """PT2-PT4 profiles: the imaginary J-slot puts sec and tan of lam in them."""
    mJJ = _expr(coeffs, "JJ", "re")
    m_uJ, m_vJ = _expr(coeffs, "uJ", "im"), _expr(coeffs, "vJ", "im")
    L = lam.expr
    tau = TimeFunction(m_uJ / (2 * mJJ * sp.cos(L)))
    rho = TimeFunction(-(m_vJ + m_uJ * sp.tan(L)) / (2 * mJJ))
    return DysonParams(pt_class, tau, lam, rho)


def _build_pt2(coeffs, lam, tau):
    return _sec_tan_params(PtClass.PT2, coeffs, lam), [
        ("J_coefficient_absent", "J", "im", 0),
        ("uJ_static", "uJ", "im", None),
        ("vJ_static", "vJ", "im", None),
    ]


def _build_pt3(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", "re")
    r, s = _expr(coeffs, "uJ", "re"), _expr(coeffs, "uJ", "im")
    return _sec_tan_params(PtClass.PT3, coeffs, lam), [
        ("u_imag_balance", "u", "im", r / 2 + s * _expr(coeffs, "J", "re") / (2 * mJJ)),
        ("uu_imag_balance", "uu", "im", r * s / (2 * mJJ)),
        ("uJ_static", "uJ", "re", None),
        ("uJ_static", "uJ", "im", None),
    ]


def _build_pt4(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", "re")
    m_uJ, muVJ = _expr(coeffs, "uJ", "im"), _expr(coeffs, "vJ", "re")
    return _sec_tan_params(PtClass.PT4, coeffs, lam), [
        ("u_imag_balance", "u", "im",
         muVJ / 2 + _expr(coeffs, "J", "re") * m_uJ / (2 * mJJ)),
        ("uv_imag_balance", "uv", "im", m_uJ * muVJ / (2 * mJJ)),
        ("uJ_static", "uJ", "im", None),
    ]


def _build_pt5(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", "re")
    m_vJ, muUJ = _expr(coeffs, "vJ", "im"), _expr(coeffs, "uJ", "re")
    rho_tf = TimeFunction(-m_vJ / (2 * mJJ))
    return DysonParams(PtClass.PT5, tau, lam, rho_tf), [
        ("v_imag_balance", "v", "im",
         -muUJ / 2 + _expr(coeffs, "J", "re") * m_vJ / (2 * mJJ)),
        ("uv_imag_balance", "uv", "im", m_vJ * muUJ / (2 * mJJ)),
        ("vJ_static", "vJ", "im", None),
    ]


# per class: the slots (tau, lam, rho) that enter the map times i, the
# phaseConvention text, free parameters, builder, and sec/tan(lam) profiles
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


def solve_dyson(pt_class, coeffs, lam=None, tau=None,
                probe_times=DEFAULT_PROBE_TIMES, order=32, tolerance=1e-8):
    """Construct the frame map for one symmetry class and apply it.

    The caller supplies the free profile functions the class leaves
    open (lam for all but the first class, tau additionally for the
    fifth); everything else is read off the coefficient set.  Input
    constraints are checked numerically at the probe times, and the
    returned Hermitian image is re-verified against the defining
    operator relation before it is handed back.
    """
    if not isinstance(pt_class, PtClass):
        pt_class = PtClass(str(pt_class))
    found = classify_pt(coeffs, probe_times)
    if pt_class not in found:
        names = sorted(c.value for c in found) or ["none"]
        raise PreconditionError(
            f"coefficients do not satisfy the {pt_class.value} reality pattern "
            f"(detected: {', '.join(names)})")

    if pt_class is PtClass.PT1:
        if lam is not None or tau is not None:
            raise PreconditionError(
                "the first class fixes its profile functions internally; "
                "lam and tau must not be supplied")
    else:
        if lam is None:
            raise PreconditionError(f"{pt_class.value} requires a lam profile function")
        lam = TimeFunction(lam)
        if pt_class is PtClass.PT5:
            tau = TimeFunction(tau) if tau is not None else TimeFunction.zero()
        elif tau is not None:
            raise PreconditionError(f"{pt_class.value} does not accept a tau profile")
        # differentiate the given profiles first, so a derivative outside
        # the grammar is reported on the text the caller wrote
        lam.derivative()
        if tau is not None:
            tau.derivative()

    jj_re = coeffs.pair("JJ")[0]
    if max(abs(jj_re.derivative()(t)) for t in probe_times) > 1e-8:
        raise PreconditionError("muJJ must be constant in time")
    for t in probe_times:
        if abs(jj_re(t)) <= 1e-12:
            raise PreconditionError("muJJ must be nonzero")

    row = _CLASSES[pt_class]
    params, rows = row.build(coeffs, lam, tau)

    if row.sec_tan:
        for t in probe_times:
            if abs(math.cos(params.lam(t))) < 1e-6:
                raise PreconditionError(
                    f"lam({t}) puts the frame map at a sec/tan singularity")

    constraints = {}
    for name, word, part, formula in rows:
        value = _expr(coeffs, word, part)
        fn = TimeFunction(sp.diff(value, T) if formula is None else value - formula)
        worst = max(abs(fn(t)) for t in probe_times)
        constraints[name] = max(constraints.get(name, 0.0), worst)
    violated = {n: v for n, v in constraints.items() if v > 1e-8}
    if violated:
        detail = ", ".join(f"{n}={v:.3e}" for n, v in sorted(violated.items()))
        raise PreconditionError(f"coefficient constraints violated: {detail}")

    # the self-checks read the conjugation table numerically; the dense
    # eta inside tdde_residual stays the independent oracle
    tdde = {}
    for t in probe_times:
        h_t = _conjugate_at(coeffs, params, t)
        if not is_hermitian(h_t, t, order):
            raise ResidualCheckError(
                f"mapped coefficients fail the Hermiticity self-check at t={t}")
        r = tdde_residual(coeffs, h_t, params, t, order)
        tdde[float(t)] = r
        if r > tolerance:
            raise ResidualCheckError(
                f"operator-relation self-check failed at t={t}: "
                f"residual {r:.3e} > {tolerance:.1e}")

    h = conjugate_coefficients(coeffs, params)
    return DysonSolution(params, h, constraints, row.free_parameters, tdde)


def model_dyson_params(p, lam):
    """Frame profiles that make the quartic rotor family Hermitian.

    Closed form of what :func:`solve_dyson` derives for this family:
    tau = c sec(lam), rho = -c tan(lam) with c the ratio of the shifted
    mode-coupling to twice the J^2 weight.
    """
    lam = TimeFunction(lam)
    c = (1.0 - p.beta) * p.zeta / 4.0
    L = lam.expr
    tau = TimeFunction(c / sp.cos(L))
    rho = TimeFunction(-c * sp.tan(L))
    return DysonParams(PtClass.PT2, tau, lam, rho)


# ---------------------------------------------------------------------------
# compliant input generator (used by tests and demos)

def _random_profile(rng, amp=0.5):
    """a + b cos(w t) with |a|, |b| <= amp."""
    a, b = amp * rng.uniform(-1.0, 1.0, size=2)
    w = rng.uniform(0.6, 1.7)
    return TimeFunction(sp.Float(a) + sp.Float(b) * sp.cos(sp.Float(w) * T))


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
    kwargs = {} if pt_class is PtClass.PT1 else {"lam": _random_profile(rng)}
    if pt_class is PtClass.PT5:
        kwargs["tau"] = _random_profile(rng)
    pattern = REALITY[pt_class]
    parts = {}
    for word in COEFF_KEYS:
        for part in ("re", "im"):
            if word == "JJ" and part == "re":
                parts[word, part] = TimeFunction(sp.Float(rng.uniform(1.5, 4.0)))
            elif pattern.get(word, part) == part:  # a free word draws both parts
                parts[word, part] = _random_profile(rng, 0.08 if word == "J" else 0.5)

    def coefficient_set():
        return CoefficientSet({w: (parts.get((w, "re"), 0), parts.get((w, "im"), 0))
                               for w in COEFF_KEYS})

    build = _CLASSES[pt_class].build
    lam, tau = kwargs.get("lam"), kwargs.get("tau")
    for _, word, part, formula in build(coefficient_set(), lam, tau)[1]:
        if formula is None:
            parts[word, part] = TimeFunction(sp.Float(rng.uniform(-0.6, 0.6)))
    for _, word, part, formula in build(coefficient_set(), lam, tau)[1]:
        if formula is not None:
            parts[word, part] = TimeFunction(formula)
    for word, rule in pattern.items():
        if rule not in ("re", "im"):
            parts[word, "re"] = parts[rule, "re"]
            parts[word, "im"] = -parts[rule, "im"]
    return coefficient_set(), kwargs
