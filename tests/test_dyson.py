import numpy as np
import pytest

from e2qes import dyson
from e2qes.algebra import build_generators, interior_norm
from e2qes.dyson import (DysonParams, FREE_PARAMETERS, ResidualCheckError,
                         adjoint_closed_form, conjugate_coefficients,
                         energy_operator, eta_inverse, eta_matrix,
                         gauge_coefficients, energy_gauge_coefficients,
                         model_dyson_params, sample_compliant_inputs,
                         solve_dyson, tdde_residual)
from e2qes.model import (COEFF_KEYS, DEFAULT_PROBE_TIMES, CoefficientSet,
                         ModelParams, PreconditionError, PtClass,
                         closed_form_counterpart, is_hermitian,
                         model_hamiltonian, realize)
from e2qes.timefunc import TimeFunction

ORDER = 24
PAD = 4


def _const_params(cls, tau, lam, rho):
    return DysonParams(cls, TimeFunction(tau), TimeFunction(lam),
                       TimeFunction(rho))


def test_effective_slots():
    p1 = _const_params(PtClass.PT1, 0.1, 0.2, 0.3)
    assert p1.effective(0.0) == (0.1 + 0j, 0.2 + 0j, 0.3 + 0j)
    p2 = _const_params(PtClass.PT2, 0.1, 0.2, 0.3)
    assert p2.effective(0.0) == (0.1 + 0j, 0.2j, 0.3 + 0j)
    p5 = _const_params(PtClass.PT5, 0.1, 0.2, 0.3)
    assert p5.effective(0.0) == (0.1j, 0.2j, 0.3 + 0j)


def test_eta_inverse_is_inverse():
    params = _const_params(PtClass.PT2, 0.15, 0.8, -0.1)
    eta = eta_matrix(params, 0.3, ORDER)
    inv = eta_inverse(params, 0.3, ORDER)
    np.testing.assert_allclose((eta @ inv).entries,
                               np.eye(2 * ORDER + 1), atol=1e-12)


@pytest.mark.parametrize("cls", list(PtClass))
def test_adjoint_closed_forms_match_triple_products(cls, rng):
    J, u, v = build_generators(ORDER)
    gens = {"J": J, "u": u, "v": v}
    lam_scale = 0.12 if cls is PtClass.PT1 else 1.0
    for _ in range(3):
        params = _const_params(cls,
                               float(rng.uniform(-0.2, 0.2)),
                               float(rng.uniform(-lam_scale, lam_scale)),
                               float(rng.uniform(-0.2, 0.2)))
        eta = eta_matrix(params, 0.0, ORDER)
        inv = eta_inverse(params, 0.0, ORDER)
        for name, g in gens.items():
            c = adjoint_closed_form(name, params, 0.0)
            closed = c["J"] * J + c["u"] * u + c["v"] * v
            triple = eta @ g @ inv
            assert interior_norm(closed - triple, PAD) <= 1e-11 * (
                1.0 + interior_norm(closed, PAD))


def test_gauge_matches_finite_difference():
    # i (d eta / dt) eta^{-1} from closed-form coefficients vs numerics;
    # the closed forms are interior identities, so compare away from the
    # truncation edge and keep shift amplitudes small
    from e2qes.algebra import FourierBasis, OperatorMatrix
    params = DysonParams(PtClass.PT2, TimeFunction.parse("0.05*cos(t)"),
                         TimeFunction.parse("0.4*sin(t)"),
                         TimeFunction.parse("0.03*t"))
    t, eps = 0.7, 1e-6
    analytic = realize(gauge_coefficients(params), t, ORDER)
    d_eta = (eta_matrix(params, t + eps, ORDER).entries
             - eta_matrix(params, t - eps, ORDER).entries) / (2.0 * eps)
    numeric = 1j * d_eta @ eta_inverse(params, t, ORDER).entries
    diff = OperatorMatrix(FourierBasis(ORDER), analytic.entries - numeric)
    assert interior_norm(diff, 6) <= 1e-8 * (1.0 + interior_norm(analytic, 6))


def test_energy_gauge_matches_finite_difference():
    from e2qes.algebra import FourierBasis, OperatorMatrix
    params = DysonParams(PtClass.PT5, TimeFunction.parse("0.1*sin(t)"),
                         TimeFunction.parse("0.3*t"),
                         TimeFunction.parse("0.05*cos(t)"))
    t, eps = 0.4, 1e-6
    analytic = realize(energy_gauge_coefficients(params), t, ORDER)
    d_eta = (eta_matrix(params, t + eps, ORDER).entries
             - eta_matrix(params, t - eps, ORDER).entries) / (2.0 * eps)
    numeric = 1j * eta_inverse(params, t, ORDER).entries @ d_eta
    diff = OperatorMatrix(FourierBasis(ORDER), analytic.entries - numeric)
    assert interior_norm(diff, 6) <= 1e-8 * (1.0 + interior_norm(analytic, 6))


def test_conjugate_coefficients_matrix_oracle(rng):
    # coefficient-level map vs dense h = eta H eta^{-1} + i eta-dot eta^{-1}
    coeffs, kwargs = sample_compliant_inputs(PtClass.PT2, rng)
    sol = solve_dyson(PtClass.PT2, coeffs, order=ORDER, **kwargs)
    for t in (0.0, 0.6):
        h_direct = realize(sol.h_coeffs, t, ORDER)
        eta = eta_matrix(sol.params, t, ORDER)
        inv = eta_inverse(sol.params, t, ORDER)
        gauge = realize(gauge_coefficients(sol.params), t, ORDER)
        h_matrix = eta @ realize(coeffs, t, ORDER) @ inv + gauge
        assert interior_norm(h_direct - h_matrix, PAD) <= 1e-9 * (
            1.0 + interior_norm(h_direct, PAD))


@pytest.mark.parametrize("cls", list(PtClass))
def test_solver_round_trip_all_classes(cls, rng):
    for _ in range(2):
        coeffs, kwargs = sample_compliant_inputs(cls, rng)
        sol = solve_dyson(cls, coeffs, order=ORDER, **kwargs)
        assert max(sol.tdde.values()) <= 1e-8
        assert sol.free_parameters == FREE_PARAMETERS[cls]
        for t in (0.0, 1.0):
            assert is_hermitian(sol.h_coeffs, t, order=ORDER)


def test_pt1_parameter_formulas(rng):
    coeffs, kwargs = sample_compliant_inputs(PtClass.PT1, rng)
    sol = solve_dyson(PtClass.PT1, coeffs, order=ORDER, **kwargs)
    t = 0.8
    lam = sol.params.lam(t)
    mjj = coeffs.value("JJ", t).real
    muj = coeffs.value("vJ", t).real
    muuj = coeffs.value("uJ", t).real
    assert sol.params.tau(t) == pytest.approx(
        muj * np.sinh(lam) / (2.0 * mjj), abs=1e-12)
    assert sol.params.rho(t) == pytest.approx(
        muuj * np.tanh(lam) / (2.0 * mjj), abs=1e-12)
    # lam itself integrates the J drift
    dlam = sol.params.lam.derivative()
    assert dlam(t) == pytest.approx(-coeffs.value("J", t).imag, abs=1e-12)


def test_pt1_rejects_profile_arguments(rng):
    coeffs, _ = sample_compliant_inputs(PtClass.PT1, rng)
    with pytest.raises(PreconditionError):
        solve_dyson(PtClass.PT1, coeffs, lam=TimeFunction(0.1))


def test_pt5_requires_lambda(rng):
    coeffs, kwargs = sample_compliant_inputs(PtClass.PT5, rng)
    kwargs.pop("lam")
    with pytest.raises(PreconditionError):
        solve_dyson(PtClass.PT5, coeffs, **kwargs)


def test_pt2_rejects_tau(rng):
    coeffs, kwargs = sample_compliant_inputs(PtClass.PT2, rng)
    with pytest.raises(PreconditionError):
        solve_dyson(PtClass.PT2, coeffs, tau=TimeFunction(0.2), **kwargs)


def test_constraint_violation_reported():
    # PT2 requires the J coefficient to vanish
    c = CoefficientSet.from_constants(JJ=4.0, J=0.3j, uJ=0.7j, v=2.3)
    with pytest.raises(PreconditionError, match="J_coefficient_absent"):
        solve_dyson(PtClass.PT2, c, lam=TimeFunction.parse("0.4*sin(t)"))


def test_drifting_quadratic_weight_rejected():
    c = CoefficientSet.from_expressions(JJ=("2 + t", 0), uJ=(0, 0.5))
    with pytest.raises(PreconditionError):
        solve_dyson(PtClass.PT2, c, lam=TimeFunction(0.3))


def test_singularity_guard():
    c = CoefficientSet.from_constants(JJ=4.0, uJ=0.7j, v=2.3)
    # lam sweeps through pi/2 between the default probes
    with pytest.raises(PreconditionError):
        solve_dyson(PtClass.PT2, c, lam=TimeFunction.parse("t"),
                    probe_times=(0.0, float(np.pi / 2), 3.0))


def test_wrong_class_rejected(rng):
    coeffs, _ = sample_compliant_inputs(PtClass.PT1, rng)
    with pytest.raises(PreconditionError):
        solve_dyson(PtClass.PT2, coeffs, lam=TimeFunction(0.2))


def test_model_params_match_generic_solver():
    p = ModelParams(zeta=0.5, beta=0.3, level=2.3)
    lam = TimeFunction.parse("0.4*sin(t)")
    direct = model_dyson_params(p, lam)
    sol = solve_dyson(PtClass.PT2, model_hamiltonian(p), lam=lam, order=ORDER)
    for t in (0.0, 0.9, 2.0):
        assert direct.tau(t) == pytest.approx(sol.params.tau(t), abs=1e-13)
        assert direct.rho(t) == pytest.approx(sol.params.rho(t), abs=1e-13)
    # and the mapped coefficients match the hand-derived counterpart
    hh = closed_form_counterpart(p, lam)
    for t in (0.0, 0.9):
        for key in ("JJ", "J", "u", "v", "uu", "vv", "uv"):
            assert sol.h_coeffs.value(key, t) == pytest.approx(
                hh.value(key, t), abs=1e-12)


def test_energy_operator_model_closed_form():
    # for the quartic rotor family the energy shift is
    # -lam-dot J - i (m_uJ / (2 m_JJ)) lam-dot u, exactly
    p = ModelParams(zeta=0.5, beta=0.3, level=2.3)
    lam = TimeFunction.parse("0.4*sin(t)")
    params = model_dyson_params(p, lam)
    t = 1.1
    H = realize(model_hamiltonian(p), t, ORDER)
    J, u, _ = build_generators(ORDER)
    lam_dot = lam.derivative()(t)
    c = 2.0 * (1.0 - p.beta) * p.zeta / (2.0 * 4.0)
    expected = H + (-lam_dot) * J + (-1j * c * lam_dot) * u
    got = energy_operator(model_hamiltonian(p), params, t, ORDER)
    assert interior_norm(got - expected, PAD) <= 1e-12 * (
        1.0 + interior_norm(expected, PAD))


def test_pt3_static_imaginary_part_suffices():
    # the derivation needs only Im(mu_uJ) static; the solver is stricter
    # (contract), but the conjugation map itself stays consistent when
    # the real part drifts along its constraint track.
    t_sym = TimeFunction.parse("t")
    r = 0.2 + 0.1 * TimeFunction.parse("cos(t)")
    s = TimeFunction(0.3)
    mjj = TimeFunction(2.0)
    mj = TimeFunction(0.1)
    lam = TimeFunction.parse("0.3*sin(t)")
    sec = TimeFunction(1.0) / TimeFunction.parse("cos(0.3*sin(t))")
    tan = TimeFunction.parse("sin(0.3*sin(t))") / TimeFunction.parse(
        "cos(0.3*sin(t))")
    tau = s * sec / (2.0 * mjj)
    rho = s * (1.0 - tan) / (2.0 * mjj)
    params = DysonParams(PtClass.PT3, tau, lam, rho)
    zero = TimeFunction.zero()
    coeffs = CoefficientSet({
        "JJ": (mjj, zero),
        "J": (mj, zero),
        "uJ": (r, s),
        "vJ": (r, -s),
        "u": (TimeFunction(0.15), 0.5 * r + s * mj / (2.0 * mjj)),
        "v": (TimeFunction(0.15), -(0.5 * r + s * mj / (2.0 * mjj))),
        "uu": (TimeFunction(0.2), r * s / (2.0 * mjj)),
        "vv": (TimeFunction(0.2), -(r * s / (2.0 * mjj))),
        "uv": (TimeFunction(0.25), zero),
    })
    h = conjugate_coefficients(coeffs, params)
    for t in (0.0, 0.7, 1.9):
        assert is_hermitian(h, t, order=ORDER)
        assert tdde_residual(coeffs, h, params, t, order=ORDER) <= 1e-8
    # while the solver, per contract, rejects the drifting real part
    with pytest.raises(PreconditionError, match="uJ_static"):
        solve_dyson(PtClass.PT3, coeffs, lam=lam)
    del t_sym


def test_residual_self_check_catches_forced_breakage(rng):
    # sign-flipped rho is the canonical negative control
    p = ModelParams(zeta=1.5, beta=0.3, level=2.3)
    lam = TimeFunction.parse("sin(t)")
    params = model_dyson_params(p, lam)
    bad = DysonParams(params.pt_class, params.tau, params.lam, -params.rho)
    hh = closed_form_counterpart(p, lam)
    H = model_hamiltonian(p)
    good = max(tdde_residual(H, hh, params, t, order=32) for t in (0.3, 1.7))
    broken = max(tdde_residual(H, hh, bad, t, order=32) for t in (0.3, 1.7))
    assert good <= 1e-8
    assert broken >= 1e-2


@pytest.mark.parametrize("cls", list(PtClass))
def test_numeric_table_matches_symbolic_image(cls, rng):
    # the self-checks evaluate the conjugation table over complex numbers;
    # the serialized image is the same table over sympy
    coeffs, kwargs = sample_compliant_inputs(cls, rng)
    sol = solve_dyson(cls, coeffs, order=ORDER, **kwargs)
    for t in DEFAULT_PROBE_TIMES:
        numeric = dyson._conjugate_at(coeffs, sol.params, t)
        symbolic = sol.h_coeffs.at(t)
        scale = max(abs(z) for z in symbolic.values())
        for key in COEFF_KEYS:
            assert abs(numeric[key] - symbolic[key]) <= 1e-12 * scale, (key, t)


def test_self_check_catches_flipped_word(rng, monkeypatch):
    coeffs, kwargs = sample_compliant_inputs(PtClass.PT2, rng)
    solve_dyson(PtClass.PT2, coeffs, order=ORDER, **kwargs)
    table = dyson._conjugate_at

    def flipped(*args):
        h = table(*args)
        return dict(h, JJ=-h["JJ"])

    monkeypatch.setattr(dyson, "_conjugate_at", flipped)
    with pytest.raises(ResidualCheckError, match="operator-relation"):
        solve_dyson(PtClass.PT2, coeffs, order=ORDER, **kwargs)


def test_self_check_catches_flipped_rho(rng, monkeypatch):
    coeffs, kwargs = sample_compliant_inputs(PtClass.PT2, rng)
    build = dyson._BUILDERS[PtClass.PT2]

    def flipped(*args):
        params, residuals = build(*args)
        return DysonParams(params.pt_class, params.tau, params.lam,
                           -params.rho), residuals

    monkeypatch.setitem(dyson._BUILDERS, PtClass.PT2, flipped)
    with pytest.raises(ResidualCheckError, match="Hermiticity"):
        solve_dyson(PtClass.PT2, coeffs, order=ORDER, **kwargs)


@pytest.mark.parametrize("cls", list(PtClass))
def test_solver_output_reads_back(cls, rng):
    # every emitted string is inside the parse grammar; values survive
    # to the 15 significant digits serialize prints
    coeffs, kwargs = sample_compliant_inputs(cls, rng)
    sol = solve_dyson(cls, coeffs, order=ORDER, **kwargs)
    back = CoefficientSet.from_json_dict(sol.h_coeffs.to_json_dict())
    pairs = [(f, TimeFunction.parse(f.serialize()))
             for f in (sol.params.tau, sol.params.lam, sol.params.rho)]
    pairs += [(f, g) for key in COEFF_KEYS
              for f, g in zip(sol.h_coeffs.pair(key), back.pair(key))]
    for f, g in pairs:
        for t in DEFAULT_PROBE_TIMES:
            assert g(t) == pytest.approx(f(t), rel=1e-13, abs=1e-13)
