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
from .model import (DEFAULT_PROBE_TIMES, CoefficientSet, PreconditionError,
                    PtClass, classify_pt, is_hermitian, realize)
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


def _sec_tan_params(pt_class, coeffs, lam):
    """PT2-PT4 profiles: the imaginary J-slot puts sec and tan of lam in them."""
    mJJ = _expr(coeffs, "JJ", 0)
    m_uJ, m_vJ = _expr(coeffs, "uJ", 1), _expr(coeffs, "vJ", 1)
    L = lam.expr
    tau = TimeFunction(m_uJ / (2 * mJJ * sp.cos(L)))
    rho = TimeFunction(-(m_vJ + m_uJ * sp.tan(L)) / (2 * mJJ))
    return DysonParams(pt_class, tau, lam, rho)


def _build_pt2(coeffs, lam, tau):
    return _sec_tan_params(PtClass.PT2, coeffs, lam), {
        "J_coefficient_absent":
            TimeFunction(_expr(coeffs, "J", 0) ** 2 + _expr(coeffs, "J", 1) ** 2),
        "uJ_static": TimeFunction(sp.diff(_expr(coeffs, "uJ", 1), T)),
        "vJ_static": TimeFunction(sp.diff(_expr(coeffs, "vJ", 1), T)),
    }


def _build_pt3(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", 0)
    r, s = _expr(coeffs, "uJ", 0), _expr(coeffs, "uJ", 1)
    return _sec_tan_params(PtClass.PT3, coeffs, lam), {
        "u_imag_balance": TimeFunction(
            _expr(coeffs, "u", 1) - r / 2 - s * _expr(coeffs, "J", 0) / (2 * mJJ)),
        "uu_imag_balance": TimeFunction(
            _expr(coeffs, "uu", 1) - r * s / (2 * mJJ)),
        "uJ_static": TimeFunction(sp.diff(r, T) ** 2 + sp.diff(s, T) ** 2),
    }


def _build_pt4(coeffs, lam, tau):
    mJJ = _expr(coeffs, "JJ", 0)
    m_uJ = _expr(coeffs, "uJ", 1)
    return _sec_tan_params(PtClass.PT4, coeffs, lam), {
        "u_imag_balance": TimeFunction(
            _expr(coeffs, "u", 1) - _expr(coeffs, "vJ", 0) / 2
            - _expr(coeffs, "J", 0) * m_uJ / (2 * mJJ)),
        "uv_imag_balance": TimeFunction(
            _expr(coeffs, "uv", 1) - m_uJ * _expr(coeffs, "vJ", 0) / (2 * mJJ)),
        "uJ_static": TimeFunction(sp.diff(m_uJ, T)),
    }


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

    jj_re, jj_im = coeffs.pair("JJ")
    if _static_residual(jj_re, probe_times) > 1e-8:
        raise PreconditionError("muJJ must be constant in time")
    for t in probe_times:
        if abs(jj_re(t)) <= 1e-12:
            raise PreconditionError("muJJ must be nonzero")

    row = _CLASSES[pt_class]
    params, residual_fns = row.build(coeffs, lam, tau)

    if row.sec_tan:
        for t in probe_times:
            if abs(math.cos(params.lam(t))) < 1e-6:
                raise PreconditionError(
                    f"lam({t}) puts the frame map at a sec/tan singularity")

    constraints = {}
    for name, fn in residual_fns.items():
        constraints[name] = max(abs(fn(t)) for t in probe_times)
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
