"""Non-unitary frame maps that turn symmetry-classed generators Hermitian.

The frame map factors as exp(tau_e v) exp(lam_e J) exp(rho_e u) where the
three slot functions are real or imaginary depending on the symmetry
class.  Conjugating a coefficient set through the map is done in closed
form at the coefficient level; the matrix route (dense exponentials) is
kept only as a cross-check through :func:`tdde_residual`.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy.linalg import expm

from .algebra import OperatorMatrix, build_generators, interior_norm
from .model import (DEFAULT_PROBE_TIMES, CoefficientSet, PreconditionError,
                    PtClass, classify_pt, is_hermitian, realize)
from .timefunc import T, TimeFunction


class ResidualCheckError(RuntimeError):
    """A mandatory numerical self-check exceeded its tolerance."""


# which profiles (tau, lam, rho) enter the map multiplied by i, per class
_PHASES = {c: (1, 1j, 1) for c in PtClass} | {
    PtClass.PT1: (1, 1, 1), PtClass.PT5: (1j, 1j, 1)}


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
        if self.pt_class is PtClass.PT1:
            return "tau, lambda, rho all real"
        if self.pt_class is PtClass.PT5:
            return "tau and lambda imaginary, rho real"
        return "lambda imaginary, tau and rho real"

    def effective(self, t):
        """Complex slot values (tau_e, lam_e, rho_e) at time t."""
        return tuple(complex(k * f(t)) for k, f in
                     zip(_PHASES[self.pt_class], (self.tau, self.lam, self.rho)))


# ---------------------------------------------------------------------------
# The conjugation table is written once in +, -, * and 1j notation and read
# over two scalar types: complex for the numeric self-checks, _Sym for the
# symbolic image that gets serialized.


class _Sym:
    """Complex sympy value as (re, im) parts, scaled by 1j or integers.

    Products are expanded as they are formed; a sum keeps its terms and
    becomes one sp.Add per part when read.
    """

    __slots__ = ("terms",)

    def __init__(self, *terms):
        self.terms = terms

    def parts(self):
        if len(self.terms) == 1:
            return self.terms[0]
        return tuple(sp.Add(*part) for part in zip(*self.terms))

    def __add__(self, other):
        return _Sym(*self.terms, *other.terms)

    def __neg__(self):
        re, im = self.parts()
        return _Sym((-re, -im))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        (p0, p1), (q0, q1) = self.parts(), other.parts()
        return _Sym((sp.expand(p0 * q0 - p1 * q1), sp.expand(p0 * q1 + p1 * q0)))

    def __rmul__(self, k):
        re, im = self.parts()
        if k == 1j:
            return _Sym((-im, re))
        if isinstance(k, int):
            return _Sym((k * re, k * im))
        return NotImplemented


def _coefficient_set(terms):
    return CoefficientSet({k: tuple(TimeFunction(sp.expand(x)) for x in v.parts())
                           for k, v in terms.items()})


_Frame = namedtuple("_Frame", "a b ch sh gauge energy")


def _frame_terms(params, value, lift, lib):
    """The pieces of :class:`_Frame` in one scalar type.

    value reads a profile as a real number or expression, lift turns that
    into the scalar type, lib supplies cos, sin, cosh, sinh.  a and b mix
    J into u and v; ch, sh are cosh/sinh of the J-slot (cos, i sin when it
    is imaginary); gauge and energy hold the {J, u, v} coefficients of
    i (d eta/dt) eta^-1 and of i eta^-1 (d eta/dt).
    """
    phases, fns = _PHASES[params.pt_class], (params.tau, params.lam, params.rho)
    L = value(params.lam)
    if params.pt_class is PtClass.PT1:
        ch, sh = lift(lib.cosh(L)), lift(lib.sinh(L))
    else:
        ch, sh = lift(lib.cos(L)), 1j * lift(lib.sin(L))
    tau, _, rho = (k * lift(value(f)) for k, f in zip(phases, fns))
    d_tau, d_lam, d_rho = (k * lift(value(f.derivative())) for k, f in zip(phases, fns))
    a = -(1j * tau + rho * sh)
    b = 1j * (rho * ch)
    gauge = {"J": 1j * d_lam,
             "u": 1j * (d_rho * ch) + tau * d_lam,
             "v": d_rho * sh + 1j * d_tau}
    energy = {"J": 1j * d_lam,
              "u": 1j * d_rho + d_tau * sh,
              "v": rho * d_lam + 1j * (d_tau * ch)}
    return _Frame(a, b, ch, sh, gauge, energy)


@functools.lru_cache(maxsize=128)
def _frame(params):
    """:func:`_frame_terms` over sympy, the gauge sums added up."""
    sym = _frame_terms(params, lambda fn: fn.expr, lambda x: _Sym((x, sp.S.Zero)), sp)
    gauge, energy = ({k: _Sym(v.parts()) for k, v in g.items()}
                     for g in (sym.gauge, sym.energy))
    return sym._replace(gauge=gauge, energy=energy)


def _frame_at(params, t):
    """:func:`_frame_terms` over complex numbers at time t."""
    return _frame_terms(params, lambda f: f(t), float, math)


def _conjugate_table(mu, frame):
    """The nine words of eta (sum_w mu_w w) eta^-1 + i (d eta/dt) eta^-1.

    Output words are literal products (uJ = u then J), so the result can
    carry imaginary u and v parts that pair with the uJ/vJ words of a
    Hermitian operator.
    """
    a, b, ch, sh, g, _ = frame
    return {
        "JJ": mu["JJ"],
        "J": mu["J"] + g["J"],
        "u": (a * mu["J"] + ch * mu["u"] + 1j * (sh * mu["v"])
              + 1j * (b * mu["JJ"]) + g["u"]),
        "v": (b * mu["J"] - 1j * (sh * mu["u"]) + ch * mu["v"]
              - 1j * (a * mu["JJ"]) + g["v"]),
        "uJ": 2 * (a * mu["JJ"]) + ch * mu["uJ"] + 1j * (sh * mu["vJ"]),
        "vJ": 2 * (b * mu["JJ"]) - 1j * (sh * mu["uJ"]) + ch * mu["vJ"],
        "uu": (a * (a * mu["JJ"]) + a * (ch * mu["uJ"])
               + 1j * (a * (sh * mu["vJ"])) + ch * (ch * mu["uu"])
               - sh * (sh * mu["vv"]) + 1j * (ch * (sh * mu["uv"]))),
        "vv": (b * (b * mu["JJ"]) - 1j * (b * (sh * mu["uJ"]))
               + b * (ch * mu["vJ"]) - sh * (sh * mu["uu"])
               + ch * (ch * mu["vv"]) - 1j * (ch * (sh * mu["uv"]))),
        "uv": (2 * (a * (b * mu["JJ"]))
               + (b * ch - 1j * (a * sh)) * mu["uJ"]
               + (a * ch + 1j * (b * sh)) * mu["vJ"]
               - 2 * (1j * (ch * (sh * mu["uu"])))
               + 2 * (1j * (ch * (sh * mu["vv"])))
               + (ch * ch + sh * sh) * mu["uv"]),
    }


def conjugate_coefficients(coeffs, params):
    """Push a coefficient set through the frame map, gauge term included."""
    mu = {k: _Sym((re.expr, im.expr)) for k, (re, im) in coeffs.items()}
    return _coefficient_set(_conjugate_table(mu, _frame(params)))


def _conjugate_at(coeffs, params, t):
    """Word -> complex value of :func:`conjugate_coefficients` at time t."""
    return _conjugate_table(coeffs.at(t), _frame_at(params, t))


def adjoint_closed_form(generator, params, t):
    """Coefficients of eta g eta^{-1} over {J, u, v} for g in {J, u, v}."""
    a, b, ch, sh, _, _ = _frame_at(params, t)
    closed = {"J": (1, a, b), "u": (0, ch, -1j * sh), "v": (0, 1j * sh, ch)}
    if generator not in closed:
        raise ValueError(f"generator must be 'J', 'u' or 'v', got {generator!r}")
    return {k: complex(c) for k, c in zip("Juv", closed[generator])}


def gauge_coefficients(params):
    """Coefficient set of i (d eta/dt) eta^{-1}: a {J, u, v} combination."""
    return _coefficient_set(_frame(params).gauge)


def energy_gauge_coefficients(params):
    """Coefficient set of i eta^{-1} (d eta/dt): the frame-energy shift."""
    return _coefficient_set(_frame(params).energy)


def eta_matrix(params, t, order):
    """Dense frame map at time t: exp(tau_e v) exp(lam_e J) exp(rho_e u)."""
    J, u, v = build_generators(order)
    tau_e, lam_e, rho_e = params.effective(t)
    diag = np.exp(lam_e * J.basis.modes().astype(complex))
    left = expm(tau_e * v.entries)
    right = expm(rho_e * u.entries)
    return OperatorMatrix(J.basis, left @ (diag[:, None] * right))


def eta_inverse(params, t, order):
    """Inverse of the frame map built from negated exponentials."""
    J, u, v = build_generators(order)
    tau_e, lam_e, rho_e = params.effective(t)
    diag = np.exp(-lam_e * J.basis.modes().astype(complex))
    left = expm(-rho_e * u.entries)
    right = expm(-tau_e * v.entries)
    return OperatorMatrix(J.basis, left @ (diag[:, None] * right))


def energy_operator(coeffs, params, t, order):
    """Generator of phase evolution in the mapped frame, pulled back:
    realize(coeffs) + i eta^{-1} (d eta/dt)."""
    return realize(coeffs, t, order) + realize(_frame_at(params, t).energy, t, order)


def tdde_residual(coeffs, h_coeffs, params, t, order=32, pad=4):
    """Relative interior residual of h eta - eta H - (gauge) eta at time t.

    h_coeffs may be a CoefficientSet or a word -> value mapping at t.
    """
    eta = eta_matrix(params, t, order)
    Hm = realize(coeffs, t, order)
    hm = realize(h_coeffs, t, order)
    G = realize(_frame_at(params, t).gauge, t, order)
    R = hm @ eta - eta @ Hm - G @ eta
    scale = 1.0 + interior_norm(Hm, pad) + interior_norm(hm, pad)
    return interior_norm(R, pad) / scale


# ---------------------------------------------------------------------------
# per-class solver

FREE_PARAMETERS = {
    PtClass.PT1: ("muJJ", "muJ", "muUJ", "muVJ", "muUU"),
    PtClass.PT2: ("lambda", "muJJ", "muU", "muV", "muUU", "muVV", "muUV"),
    PtClass.PT3: ("lambda", "muJJ", "muJ", "muU.re", "muUJ.re", "muUU.re", "muUV"),
    PtClass.PT4: ("lambda", "muJJ", "muJ", "muV", "muVJ", "muUU", "muVV"),
    PtClass.PT5: ("lambda", "tau", "muJJ", "muJ", "muU", "muUJ", "muUU", "muVV"),
}

_SINGULAR_CLASSES = (PtClass.PT2, PtClass.PT3, PtClass.PT4)


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


def _static_residual(fn, times):
    d = fn.derivative()
    return max(abs(d(t)) for t in times)


def _expr(coeffs, key, part):
    re, im = coeffs.pair(key)
    return (re if part == 0 else im).expr


def _build_pt1(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", 0)
    m_J = _expr(coeffs, "J", 1)
    muUJ, muVJ = _expr(coeffs, "uJ", 0), _expr(coeffs, "vJ", 0)
    lam_tf = TimeFunction(-m_J).integrate_from_zero()
    L = lam_tf.expr
    th = sp.tanh(L)
    tau_tf = TimeFunction(muVJ * sp.sinh(L) / (2 * mJJ))
    rho_tf = TimeFunction(muUJ * th / (2 * mJJ))
    params = DysonParams(PtClass.PT1, tau_tf, lam_tf, rho_tf)

    muUU, muVV, muUV = (_expr(coeffs, k, 0) for k in ("uu", "vv", "uv"))
    m_u, m_v = _expr(coeffs, "u", 1), _expr(coeffs, "v", 1)
    residuals = {
        "uv_cross_term": muUV - muUJ * muVJ / (2 * mJJ),
        "uu_vv_split": muVV - muUU - (muVJ ** 2 - muUJ ** 2) / (4 * mJJ),
        "u_shift_balance":
            m_u - muVJ / 2 - (m_J * muUJ - sp.diff(muUJ, T) * th) / (2 * mJJ),
        "v_shift_balance":
            m_v + muUJ / 2 - (m_J * muVJ - sp.diff(muVJ, T) * th) / (2 * mJJ),
    }
    return params, {k: TimeFunction(v) for k, v in residuals.items()}


def _build_pt2(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", 0)
    m_uJ, m_vJ = _expr(coeffs, "uJ", 1), _expr(coeffs, "vJ", 1)
    L = lam.expr
    tau_tf = TimeFunction(m_uJ / (2 * mJJ * sp.cos(L)))
    rho_tf = TimeFunction(-(m_vJ + m_uJ * sp.tan(L)) / (2 * mJJ))
    params = DysonParams(PtClass.PT2, tau_tf, lam, rho_tf)
    residuals = {
        "J_coefficient_absent":
            TimeFunction(_expr(coeffs, "J", 0) ** 2 + _expr(coeffs, "J", 1) ** 2),
        "uJ_static": TimeFunction(sp.diff(m_uJ, T)),
        "vJ_static": TimeFunction(sp.diff(m_vJ, T)),
    }
    return params, residuals


def _build_pt3(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", 0)
    r, s = _expr(coeffs, "uJ", 0), _expr(coeffs, "uJ", 1)
    L = lam.expr
    tau_tf = TimeFunction(s / (2 * mJJ * sp.cos(L)))
    rho_tf = TimeFunction(s * (1 - sp.tan(L)) / (2 * mJJ))
    params = DysonParams(PtClass.PT3, tau_tf, lam, rho_tf)
    residuals = {
        "u_imag_balance": TimeFunction(
            _expr(coeffs, "u", 1) - r / 2 - s * _expr(coeffs, "J", 0) / (2 * mJJ)),
        "uu_imag_balance": TimeFunction(
            _expr(coeffs, "uu", 1) - r * s / (2 * mJJ)),
        "uJ_static": TimeFunction(sp.diff(r, T) ** 2 + sp.diff(s, T) ** 2),
    }
    return params, residuals


def _build_pt4(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", 0)
    m_uJ = _expr(coeffs, "uJ", 1)
    L = lam.expr
    tau_tf = TimeFunction(m_uJ / (2 * mJJ * sp.cos(L)))
    rho_tf = TimeFunction(-m_uJ * sp.tan(L) / (2 * mJJ))
    params = DysonParams(PtClass.PT4, tau_tf, lam, rho_tf)
    residuals = {
        "u_imag_balance": TimeFunction(
            _expr(coeffs, "u", 1) - _expr(coeffs, "vJ", 0) / 2
            - _expr(coeffs, "J", 0) * m_uJ / (2 * mJJ)),
        "uv_imag_balance": TimeFunction(
            _expr(coeffs, "uv", 1) - m_uJ * _expr(coeffs, "vJ", 0) / (2 * mJJ)),
        "uJ_static": TimeFunction(sp.diff(m_uJ, T)),
    }
    return params, residuals


def _build_pt5(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", 0)
    m_vJ = _expr(coeffs, "vJ", 1)
    rho_tf = TimeFunction(-m_vJ / (2 * mJJ))
    params = DysonParams(PtClass.PT5, tau, lam, rho_tf)
    residuals = {
        "v_imag_balance": TimeFunction(
            _expr(coeffs, "v", 1) + _expr(coeffs, "uJ", 0) / 2
            - _expr(coeffs, "J", 0) * m_vJ / (2 * mJJ)),
        "uv_imag_balance": TimeFunction(
            _expr(coeffs, "uv", 1) - m_vJ * _expr(coeffs, "uJ", 0) / (2 * mJJ)),
        "vJ_static": TimeFunction(sp.diff(m_vJ, T)),
    }
    return params, residuals


_BUILDERS = {
    PtClass.PT1: _build_pt1,
    PtClass.PT2: _build_pt2,
    PtClass.PT3: _build_pt3,
    PtClass.PT4: _build_pt4,
    PtClass.PT5: _build_pt5,
}


def solve_dyson(pt_class, coeffs, lam=None, tau=None,
                probe_times=DEFAULT_PROBE_TIMES, order=32,
                tolerance=1e-8, class_tol=1e-12, constraint_tol=1e-8):
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
    found = classify_pt(coeffs, probe_times, class_tol)
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

    jj_re, jj_im = coeffs.pair("JJ")
    if _static_residual(jj_re, probe_times) > constraint_tol:
        raise PreconditionError("muJJ must be constant in time")
    for t in probe_times:
        if abs(jj_re(t)) <= 1e-12:
            raise PreconditionError("muJJ must be nonzero")

    params, residual_fns = _BUILDERS[pt_class](coeffs, lam, tau)

    if pt_class in _SINGULAR_CLASSES:
        for t in probe_times:
            if abs(math.cos(params.lam(t))) < 1e-6:
                raise PreconditionError(
                    f"lam({t}) puts the frame map at a sec/tan singularity")

    constraints = {}
    for name, fn in residual_fns.items():
        constraints[name] = max(abs(fn(t)) for t in probe_times)
    violated = {n: v for n, v in constraints.items() if v > constraint_tol}
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
    return DysonSolution(params, h, constraints, FREE_PARAMETERS[pt_class], tdde)


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

def _random_profile(rng, amp=1.0, offset=0.0):
    a = offset + amp * rng.uniform(-1.0, 1.0)
    b = amp * rng.uniform(-1.0, 1.0)
    w = rng.uniform(0.6, 1.7)
    return TimeFunction(sp.Float(a) + sp.Float(b) * sp.cos(sp.Float(w) * T))


def sample_compliant_inputs(pt_class, rng):
    """Random coefficient set satisfying one class's constraints exactly.

    Returns (coeffs, kwargs) where kwargs carries the free profile
    functions expected by :func:`solve_dyson`.  Amplitudes are kept
    moderate so dense cross-checks sit far above roundoff at order 32.
    """
    if not isinstance(pt_class, PtClass):
        pt_class = PtClass(str(pt_class))
    mJJ = sp.Float(rng.uniform(1.5, 4.0))

    if pt_class is PtClass.PT1:
        # keep the J-slot integral small: the map grows like exp(|lam| order)
        m_J = (sp.Float(0.08 * rng.uniform(-1, 1)) * sp.cos(sp.Float(rng.uniform(0.9, 1.5)) * T)
               + sp.Float(0.04 * rng.uniform(-1, 1)))
        L = sp.expand(-sp.integrate(m_J, T))
        L = sp.expand(L - L.subs(T, 0))
        th = sp.tanh(L)
        muUJ = _random_profile(rng, 0.5).expr
        muVJ = _random_profile(rng, 0.5).expr
        muUU = _random_profile(rng, 0.5).expr
        muUV = sp.expand(muUJ * muVJ / (2 * mJJ))
        muVV = sp.expand(muUU + (muVJ ** 2 - muUJ ** 2) / (4 * mJJ))
        m_u = sp.expand(muVJ / 2 + (m_J * muUJ - sp.diff(muUJ, T) * th) / (2 * mJJ))
        m_v = sp.expand(-muUJ / 2 + (m_J * muVJ - sp.diff(muVJ, T) * th) / (2 * mJJ))
        coeffs = CoefficientSet({
            "JJ": (TimeFunction(mJJ), 0), "J": (0, TimeFunction(m_J)),
            "u": (0, TimeFunction(m_u)), "v": (0, TimeFunction(m_v)),
            "uJ": TimeFunction(muUJ), "vJ": TimeFunction(muVJ),
            "uu": TimeFunction(muUU), "vv": TimeFunction(muVV),
            "uv": TimeFunction(muUV),
        })
        return coeffs, {}

    lam = TimeFunction(sp.Float(rng.uniform(0.2, 0.6))
                       * sp.sin(sp.Float(rng.uniform(0.7, 1.4)) * T)
                       + sp.Float(rng.uniform(-0.2, 0.2)))

    if pt_class is PtClass.PT2:
        m_uJ, m_vJ = sp.Float(rng.uniform(-0.6, 0.6)), sp.Float(rng.uniform(-0.6, 0.6))
        coeffs = CoefficientSet({
            "JJ": (TimeFunction(mJJ), 0),
            "uJ": (0, TimeFunction(m_uJ)), "vJ": (0, TimeFunction(m_vJ)),
            "u": _random_profile(rng), "v": _random_profile(rng),
            "uu": _random_profile(rng), "vv": _random_profile(rng),
            "uv": _random_profile(rng),
        })
        return coeffs, {"lam": lam}

    if pt_class is PtClass.PT3:
        r = sp.Float(rng.uniform(-0.6, 0.6))
        s = sp.Float(rng.uniform(-0.6, 0.6))
        muJ = _random_profile(rng, 0.5).expr
        q = sp.expand(r / 2 + s * muJ / (2 * mJJ))
        p = _random_profile(rng).expr
        w = _random_profile(rng).expr
        x = sp.expand(r * s / (2 * mJJ))
        coeffs = CoefficientSet({
            "JJ": (TimeFunction(mJJ), 0), "J": TimeFunction(muJ),
            "u": (TimeFunction(p), TimeFunction(q)),
            "v": (TimeFunction(p), TimeFunction(-q)),
            "uJ": (TimeFunction(r), TimeFunction(s)),
            "vJ": (TimeFunction(r), TimeFunction(-s)),
            "uu": (TimeFunction(w), TimeFunction(x)),
            "vv": (TimeFunction(w), TimeFunction(-x)),
            "uv": _random_profile(rng),
        })
        return coeffs, {"lam": lam}

    if pt_class is PtClass.PT4:
        m_uJ = sp.Float(rng.uniform(-0.6, 0.6))
        muJ = _random_profile(rng, 0.5).expr
        muVJ = _random_profile(rng, 0.5).expr
        m_u = sp.expand(muVJ / 2 + muJ * m_uJ / (2 * mJJ))
        m_uv = sp.expand(m_uJ * muVJ / (2 * mJJ))
        coeffs = CoefficientSet({
            "JJ": (TimeFunction(mJJ), 0), "J": TimeFunction(muJ),
            "u": (0, TimeFunction(m_u)), "uJ": (0, TimeFunction(m_uJ)),
            "uv": (0, TimeFunction(m_uv)),
            "v": _random_profile(rng), "vJ": TimeFunction(muVJ),
            "uu": _random_profile(rng), "vv": _random_profile(rng),
        })
        return coeffs, {"lam": lam}

    if pt_class is PtClass.PT5:
        m_vJ = sp.Float(rng.uniform(-0.6, 0.6))
        muJ = _random_profile(rng, 0.5).expr
        muUJ = _random_profile(rng, 0.5).expr
        m_v = sp.expand(-muUJ / 2 + muJ * m_vJ / (2 * mJJ))
        m_uv = sp.expand(m_vJ * muUJ / (2 * mJJ))
        tau = TimeFunction(sp.Float(rng.uniform(-0.5, 0.5))
                           + sp.Float(rng.uniform(-0.3, 0.3)) * sp.sin(sp.Float(rng.uniform(0.7, 1.3)) * T))
        coeffs = CoefficientSet({
            "JJ": (TimeFunction(mJJ), 0), "J": TimeFunction(muJ),
            "v": (0, TimeFunction(m_v)), "vJ": (0, TimeFunction(m_vJ)),
            "uv": (0, TimeFunction(m_uv)),
            "u": _random_profile(rng), "uJ": TimeFunction(muUJ),
            "uu": _random_profile(rng), "vv": _random_profile(rng),
        })
        return coeffs, {"lam": lam, "tau": tau}

    raise ValueError(f"unknown class {pt_class!r}")
