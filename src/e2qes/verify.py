"""Self-contained verification battery for the whole package.

Each check is deterministic (fixed seeds, no timestamps) and returns a
CheckResult, most through _bounded; its name is written only in
_ALL_CHECKS, and run_all executes the battery in that order.  Checks
that need the symbolic layers (dyson, invariants, timefunc) import them
themselves, so reading the names loads neither sympy nor scipy; run_all
loads every layer the battery reaches before its first check, so that
what a run holds in memory does not depend on which checks it names.
The checks mirror the package's acceptance surface: algebra identities,
frame-map closed forms, the five-class solver, the spectral engine, the
invariant residuals, the three-level family and the double-scaling limit.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

import numpy as np

from .algebra import PAD, build_generators, commutator, interior_norm
from .model import (ModelParams, PtClass, closed_form_counterpart,
                    model_hamiltonian, realize)
from .observables import (QuadratureGrid, ThreeLevelSystem, double_scaling_compare,
                          expectation, tdse_residual)
from .qes import (closed_form_eigenvalues, factorization_residual,
                  quantization_eigenvalues, recurrence_polynomials)

SMALL_ORDER = 32
# every module a check imports when it runs
_BATTERY_MODULES = ("e2qes.dyson", "e2qes.invariants", "e2qes.timefunc",
                    "scipy.linalg", "scipy.special")


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    measure: float
    threshold: float
    detail: str = ""

    def to_json_dict(self):
        return {
            "passed": bool(self.passed),
            "measure": float(self.measure),
            "threshold": float(self.threshold),
            "detail": self.detail,
        }


def _bounded(measure, threshold, detail, also=True):
    """A check that passes when measure <= threshold and `also` holds."""
    return CheckResult(measure <= threshold and also, measure, threshold, detail)


def check_commutator_identities():
    """Bracket relations and the Casimir defect, corners included."""
    J, u, v = build_generators(SMALL_ORDER)
    dim = J.shape[0]
    corner_uv = np.zeros((dim, dim), dtype=complex)
    corner_uv[-1, -1] = -0.5j
    corner_uv[0, 0] = 0.5j
    corner_c = np.zeros((dim, dim), dtype=complex)
    corner_c[0, 0] = corner_c[-1, -1] = -0.5
    defects = [
        commutator(u, J) - 1j * v,
        commutator(v, J) + 1j * u,
        commutator(u, v) - corner_uv,
        u @ u + v @ v - np.eye(dim) - corner_c,
    ]
    worst = max(float(np.linalg.norm(d, ord=2)) for d in defects)
    return _bounded(worst, 1e-14, "bracket relations and Casimir defect with exact corner terms")


def check_adjoint_closed_forms():
    """Closed-form frame adjoints against dense triple products, 50 draws."""
    from .dyson import DysonParams, adjoint_closed_form, eta_inverse, eta_matrix
    from .timefunc import TimeFunction

    rng = np.random.default_rng(123)
    classes = list(PtClass)
    J, u, v = build_generators(SMALL_ORDER)
    gens = {"J": J, "u": u, "v": v}
    worst = 0.0
    for i in range(50):
        cls = classes[i % len(classes)]
        lam_range = 0.15 if cls is PtClass.PT1 else 1.5
        lam = float(rng.uniform(-lam_range, lam_range))
        tau = float(rng.uniform(-0.2, 0.2))
        rho = float(rng.uniform(-0.2, 0.2))
        params = DysonParams(cls, TimeFunction(tau), TimeFunction(lam),
                             TimeFunction(rho))
        eta = eta_matrix(params, 0.0, SMALL_ORDER)
        eta_inv = eta_inverse(params, 0.0, SMALL_ORDER)
        for name, g in gens.items():
            closed = realize(adjoint_closed_form(name, params, 0.0), 0.0,
                             SMALL_ORDER)
            triple = eta @ g @ eta_inv
            defect = (interior_norm(closed - triple, PAD)
                      / (1.0 + interior_norm(closed, PAD)))
            worst = max(worst, defect)
    return _bounded(worst, 1e-10, "50 seeded draws over all five classes, generators J/u/v")


_PROBE_TIMES = (0.0, 0.3, 1.7)
_LAMBDA_PROFILES = ("0.5*t", "sin(t)")


def check_model_frame_equation():
    """Quartic rotor family satisfies the frame equation; sign flip breaks it."""
    from .dyson import DysonParams, dyson_params, tdde_residual
    from .timefunc import TimeFunction

    p = ModelParams(zeta=1.5, beta=0.3, level=2.3)
    H = model_hamiltonian(p)
    positive = 0.0
    flipped = 0.0
    for lam_text in _LAMBDA_PROFILES:
        lam = TimeFunction(lam_text)
        hh = closed_form_counterpart(p, lam)
        params = dyson_params(PtClass.PT2, H, lam)[0]
        bad = DysonParams(params.pt_class, params.tau, params.lam,
                          TimeFunction(-params.rho.expr))
        for t in _PROBE_TIMES:
            positive = max(positive, tdde_residual(H, hh, params, t, order=SMALL_ORDER))
            flipped = max(flipped, tdde_residual(H, hh, bad, t, order=SMALL_ORDER))
    return _bounded(positive, 1e-8, f"negative control (flipped rho) max residual "
                    f"{flipped:.3e}, required >= 1e-2 across the probe grid", flipped >= 1e-2)


def check_class_solutions():
    """Five draws per class through the solver; Hermitian image, small residual."""
    from .dyson import sample_compliant_inputs, solve_dyson

    rng = np.random.default_rng(7)
    worst = 0.0
    reading = ""
    for cls in PtClass:
        for k in range(5):
            coeffs, kwargs = sample_compliant_inputs(cls, rng)
            sol = solve_dyson(cls, coeffs, order=SMALL_ORDER, **kwargs)
            worst = max(worst, max(sol.tdde.values()))
            if cls is PtClass.PT5 and k == 0:
                t = 0.9
                mu = coeffs.at(t)
                h = sol.h_coeffs.at(t)
                lam_t = sol.params.lam(t)
                tau_t = sol.params.tau(t)
                sl, cl = np.sin(lam_t), np.cos(lam_t)
                core = (mu["uu"].real - mu["vv"].real
                        - mu["vJ"].imag ** 2 / (4.0 * mu["JJ"].real))
                single = sl * (2.0 * cl * core + tau_t * mu["uJ"].real)
                squared = sl * (2.0 * cl * core + tau_t ** 2 * mu["uJ"].real)
                d_single = abs(h["uv"].real - single)
                d_squared = abs(h["uv"].real - squared)
                reading = (f"class-5 uv term follows the single-tau reading "
                           f"(defect {d_single:.3e}); squared-tau reading "
                           f"defect {d_squared:.3e}")
                if d_single > 1e-10:
                    worst = max(worst, d_single)
    return _bounded(worst, 1e-8, reading)


def _printed_tables(p):
    """Hand-transcribed low-order polynomial tables, ascending coefficients."""
    z2 = p.zeta ** 2
    b, n = p.beta, p.level
    return {
        ("cos", 1): (0.0, 1.0),
        ("cos", 2): (-2.0 * z2 * (n - 1.0) * (n + b), -4.0, 1.0),
        ("cos", 3): (32.0 * z2 * (n - 1.0) * (b + n),
                     z2 * (2.0 * b ** 2 + 7.0 * b - 3.0 * n ** 2
                           - 3.0 * (b - 1.0) * n + 2.0) + 64.0,
                     -20.0, 1.0),
        ("sin", 2): (-4.0, 1.0),
        ("sin", 3): (z2 * (b - n + 2.0) * (2.0 * b + n + 1.0) + 64.0,
                     -20.0, 1.0),
        ("sin", 4): (8.0 * z2 * (5.0 * n ** 2 + 5.0 * (b - 1.0) * n - 12.0
                                 - b * (12.0 * b + 29.0)) - 2304.0,
                     2.0 * z2 * (4.0 * b ** 2 + 9.0 * b - n ** 2 - b * n
                                 + n + 4.0) + 784.0,
                     -56.0, 1.0),
    }


def check_recurrence_tables():
    """Recurrence output against the printed low-order tables, 10 draws."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        p = ModelParams(zeta=float(rng.uniform(0.2, 2.0)),
                        beta=float(rng.uniform(0.0, 1.0)),
                        level=float(rng.uniform(0.5, 3.0)))
        tables = _printed_tables(p)
        cos_polys = recurrence_polynomials("cos", 3, p)
        sin_polys = recurrence_polynomials("sin", 4, p)
        mine = {("cos", k): cos_polys[k] for k in (1, 2, 3)}
        mine.update({("sin", k): sin_polys[k - 1] for k in (2, 3, 4)})
        for key, printed in tables.items():
            got = mine[key]
            want = np.asarray(printed, dtype=float)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return _bounded(worst, 1e-12,
                    "subscripts 1-3 (cos) and 2-4 (sin) at 10 seeded parameter draws")


def check_spectra_closed_forms():
    """Recurrence roots against closed-form spectra and the free-rotor limit."""
    rng = np.random.default_rng(11)
    worst = 0.0
    cases = [("cos", 1), ("cos", 2), ("cos", 3), ("sin", 2), ("sin", 3),
             ("sin", 4)]
    for _ in range(20):
        gamma = float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(0.0, 1.0))
        zeta = gamma / (1.0 + beta)
        for sector, n_hat in cases:
            closed = np.sort(closed_form_eigenvalues(sector, n_hat, gamma))
            got = np.sort(quantization_eigenvalues(sector, n_hat, zeta,
                                                   beta).lambdas)
            scale = 1.0 + float(np.max(np.abs(closed)))
            worst = max(worst, float(np.max(np.abs(got - closed))) / scale)
    rotor_cos = quantization_eigenvalues("cos", 3, 0.0, 0.3).lambdas
    rotor_sin = quantization_eigenvalues("sin", 4, 0.0, 0.3).lambdas
    rotor = max(float(np.max(np.abs(rotor_cos - np.array([0.0, 4.0, 16.0])))),
                float(np.max(np.abs(rotor_sin - np.array([4.0, 16.0, 36.0])))))
    return _bounded(worst, 1e-10, f"free-rotor limit defect {rotor:.3e} (threshold 1e-12)",
                    rotor <= 1e-12)


def check_factorization():
    """Resolvent factorization identity across sectors, levels and shifts."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(5):
        zeta = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.0, 1.0))
        for sector in ("cos", "sin"):
            for n_hat in (1, 2, 3, 4):
                p = ModelParams.quantized(n_hat, zeta, beta)
                for ell in (1, 2):
                    worst = max(worst, factorization_residual(sector, n_hat,
                                                              ell, p))
    return _bounded(worst, 1e-12, "both sectors, levels 1-4, shifts 1-2, five parameter draws")


def check_invariants():
    """Static commutation, rotating defining relation and the two-path map."""
    from .invariants import invariant_residuals

    p = ModelParams.quantized(2, 0.5, 0.3)
    comm = defining = similar = 0.0
    for lam_text in _LAMBDA_PROFILES:
        for nu_vv in (0.0, 0.7):
            c, d, s = invariant_residuals(p, lam_text, nu_vv, _PROBE_TIMES)
            comm, defining, similar = max(comm, c), max(defining, d), max(similar, s)
    return _bounded(max(defining, similar), 1e-8,
                    f"static commutation {comm:.3e} (threshold 1e-10), "
                    f"defining {defining:.3e}, two-path {similar:.3e}", also=comm <= 1e-10)


def check_three_level():
    """Closed three-level family: Gram, moments and the evolution equation."""
    grid = QuadratureGrid()
    beta = 0.3
    t = 0.73
    gram_worst = 0.0
    expect_worst = 0.0
    j_worst = 0.0
    tdse_worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        sys = ThreeLevelSystem.from_couplings(gamma / (1.0 + beta), beta,
                                              "0.4*sin(t)")
        # every state below is sampled at t and t +- dt only, once per time
        at = functools.lru_cache(lambda tt: sys.states(tt, grid))
        states = at(t)
        names = list(states)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                val = grid.integrate(np.conj(states[a]) * states[b])
                gram_worst = max(gram_worst, abs(val - (1.0 if i == j else 0.0)))
        closed = sys.closed_form_expectations(t)
        for s in names:
            for op in ("u", "v"):
                q = expectation(op, states[s], grid)
                expect_worst = max(expect_worst, abs(q - closed[s][op]))
            j_worst = max(j_worst, abs(expectation("J", states[s], grid)))
        hh = closed_form_counterpart(sys.params, sys.lam)
        fns = [lambda tt, ss=s: at(tt)[ss] for s in names]
        fns.append(lambda tt: 0.6 * at(tt)["plus"] + 0.8j * at(tt)["zero"])
        tdse_worst = max(tdse_worst, *(tdse_residual(f, hh, t, grid) for f in fns))
    return _bounded(max(gram_worst, expect_worst, j_worst), 1e-10,
                    f"Gram {gram_worst:.3e}, moments {expect_worst:.3e}, "
                    f"<J> {j_worst:.3e}, evolution residual {tdse_worst:.3e} "
                    "(threshold 1e-6)", also=tdse_worst <= 1e-6)


def check_energy_identities():
    """Pipeline energies: exact shift construction plus closed-form agreement."""
    beta = 0.3
    worst = 0.0
    bitwise_ok = True
    for gamma in (0.5, 1.0, 2.0):
        zeta = gamma / (1.0 + beta)
        spec_cos = quantization_eigenvalues("cos", 2, zeta, beta)
        spec_sin = quantization_eigenvalues("sin", 2, zeta, beta)
        for spec in (spec_cos, spec_sin):
            for lam, energy in zip(spec.lambdas, spec.energies):
                if energy != lam - beta * zeta ** 2:
                    bitwise_ok = False
        closed_cos = np.sort(closed_form_eigenvalues("cos", 2, gamma))
        closed_sin = np.sort(closed_form_eigenvalues("sin", 2, gamma))
        worst = max(worst, float(np.max(np.abs(np.sort(spec_cos.lambdas)
                                               - closed_cos))))
        worst = max(worst, float(np.max(np.abs(np.sort(spec_sin.lambdas)
                                               - closed_sin))))
        sys = ThreeLevelSystem.from_couplings(zeta, beta, "0")
        e = sys.energies()
        bz = beta * zeta ** 2
        s = np.sqrt(1.0 + gamma ** 2)
        if not (e["plus"] == 2.0 - bz + 2.0 * s
                and e["minus"] == 2.0 - bz - 2.0 * s
                and e["zero"] == 4.0 - bz):
            bitwise_ok = False
    return _bounded(worst, 1e-12, (
        "level-2 energies match the direct formulas bit-for-bit in construction; "
        "eigenvalue agreement with closed forms shown as measure" if bitwise_ok
        else "bitwise energy construction check FAILED"), bitwise_ok)


def check_double_scaling():
    """Level-locked spectra approach the limit operator, decade by decade."""
    rows = double_scaling_compare(1.0, [0.1, 0.01, 0.001], 0.3)
    devs = [float(r["deviation"].max()) for r in rows]
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]
    ratios_ok = all(3.0 <= r <= 30.0 for r in ratios)
    passed = monotone and ratios_ok
    return CheckResult(
        passed=passed,
        measure=min(ratios),
        threshold=3.0,
        detail=(f"deviations {['%.3e' % d for d in devs]}, "
                f"decade ratios {['%.2f' % r for r in ratios]} "
                "(required within [3, 30])"),
    )


_ALL_CHECKS = (
    ("commutator_identities", check_commutator_identities),
    ("adjoint_closed_forms", check_adjoint_closed_forms),
    ("model_frame_equation", check_model_frame_equation),
    ("class_solutions", check_class_solutions),
    ("recurrence_tables", check_recurrence_tables),
    ("spectra_closed_forms", check_spectra_closed_forms),
    ("factorization_identity", check_factorization),
    ("invariant_relations", check_invariants),
    ("three_level_family", check_three_level),
    ("energy_identities", check_energy_identities),
    ("double_scaling_limit", check_double_scaling),
)


def all_check_names():
    return [name for name, _ in _ALL_CHECKS]


def run_all(names=None):
    """(name, CheckResult) for the battery (or a named subset) in fixed order."""
    if names is not None:
        known = set(all_check_names())
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError(f"unknown check names: {missing}")
        wanted = set(names)
    for module in _BATTERY_MODULES:
        importlib.import_module(module)
    return [(name, fn()) for name, fn in _ALL_CHECKS
            if names is None or name in wanted]
