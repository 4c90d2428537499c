import ast
import os
import pathlib
import re

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad
from scipy.linalg import expm

from e2qes import dyson
from e2qes.algebra import build_generators, interior_norm
from e2qes.dyson import (DysonParams, ResidualCheckError, adjoint_closed_form,
                         conjugate_coefficients, dyson_params, eta_inverse,
                         eta_matrix, sample_compliant_inputs, solve_dyson,
                         tdde_residual)
from e2qes.model import (COEFF_KEYS, DEFAULT_PROBE_TIMES, REALITY,
                         CoefficientSet, ModelParams, PreconditionError, PtClass,
                         closed_form_counterpart, model_hamiltonian, realize)
from e2qes.timefunc import T, TimeFunction
from test_model import is_hermitian

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
    np.testing.assert_allclose(eta @ inv,
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


@pytest.mark.parametrize("order", [16, 32, 64])
@pytest.mark.parametrize("cls", list(PtClass))
def test_eta_matches_expm_oracle(cls, order, rng):
    # the DST-I route against dense matrix exponentials, slots drawn as in
    # test_adjoint_closed_forms_match_triple_products
    J, u, v = build_generators(order)
    lam_scale = 0.12 if cls is PtClass.PT1 else 1.0
    params = _const_params(cls, float(rng.uniform(-0.2, 0.2)),
                           float(rng.uniform(-lam_scale, lam_scale)),
                           float(rng.uniform(-0.2, 0.2)))
    tau_e, lam_e, rho_e = params.effective(0.0)
    diag = np.exp(lam_e * J.diagonal())[:, None]
    oracle = expm(tau_e * v) @ (diag * expm(rho_e * u))
    oracle_inv = expm(-rho_e * u) @ (expm(-tau_e * v) / diag)
    for got, want in ((eta_matrix(params, 0.0, order), oracle),
                      (eta_inverse(params, 0.0, order), oracle_inv)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_eta_with_zero_shift_slots_is_exact():
    # a zero slot is skipped, not transformed, so PT1's huge and tiny
    # exp(lam J) entries stay exact
    params = _const_params(PtClass.PT1, 0, 5.0, 0)
    J = build_generators(ORDER)[0].diagonal()
    assert np.array_equal(eta_matrix(params, 0.0, ORDER), np.diag(np.exp(5.0 * J)))
    assert np.array_equal(eta_inverse(params, 0.0, ORDER), np.diag(np.exp(-5.0 * J)))


@pytest.mark.parametrize("order", [16, 32])
def test_pt1_large_lambda_passes_self_check(order):
    # lam = 0.2 t, so exp(lam J) spans e^{+-16} at order 32 and t = 2.5;
    # the frame-equation residual must stay at roundoff of the map
    coeffs = CoefficientSet({"JJ": 1.0, "J": (0, -0.2), "u": (0, -0.05),
                             "v": (0, -0.25), "uJ": 0.5, "vv": -0.0625})
    sol = solve_dyson(PtClass.PT1, coeffs, order=order)
    assert max(sol.tdde.values()) <= 1e-9


def test_gauge_matches_finite_difference():
    # i (d eta / dt) eta^{-1} from closed-form coefficients vs numerics;
    # the closed forms are interior identities, so compare away from the
    # truncation edge and keep shift amplitudes small
    params = DysonParams(PtClass.PT2, TimeFunction.parse("0.05*cos(t)"),
                         TimeFunction.parse("0.4*sin(t)"),
                         TimeFunction.parse("0.03*t"))
    t, eps = 0.7, 1e-6
    analytic = realize(conjugate_coefficients(CoefficientSet(), params), t, ORDER)
    d_eta = (eta_matrix(params, t + eps, ORDER)
             - eta_matrix(params, t - eps, ORDER)) / (2.0 * eps)
    numeric = 1j * d_eta @ eta_inverse(params, t, ORDER)
    diff = analytic - numeric
    assert interior_norm(diff, 6) <= 1e-8 * (1.0 + interior_norm(analytic, 6))


@pytest.mark.parametrize("cls", list(PtClass))
def test_solve_refuses_empty_probe_times(cls, rng):
    coeffs, kwargs = sample_compliant_inputs(cls, rng)
    with pytest.raises(PreconditionError, match="no sample times"):
        solve_dyson(cls, coeffs, probe_times=(), order=ORDER, **kwargs)


@pytest.mark.parametrize("cls", list(PtClass))
def test_conjugate_coefficients_matrix_oracle(cls, rng):
    # coefficient-level map vs dense h = eta H eta^{-1} + i eta-dot eta^{-1}
    coeffs, kwargs = sample_compliant_inputs(cls, rng)
    sol = solve_dyson(cls, coeffs, order=ORDER, **kwargs)
    for t in (0.0, 0.6):
        h_direct = realize(sol.h_coeffs, t, ORDER)
        eta = eta_matrix(sol.params, t, ORDER)
        inv = eta_inverse(sol.params, t, ORDER)
        gauge = realize(conjugate_coefficients(CoefficientSet(), sol.params), t, ORDER)
        h_matrix = eta @ realize(coeffs, t, ORDER) @ inv + gauge
        assert interior_norm(h_direct - h_matrix, PAD) <= 1e-9 * (
            1.0 + interior_norm(h_direct, PAD))


@pytest.mark.parametrize("cls", list(PtClass))
def test_solver_round_trip_all_classes(cls, rng):
    for _ in range(2):
        coeffs, kwargs = sample_compliant_inputs(cls, rng)
        sol = solve_dyson(cls, coeffs, order=ORDER, **kwargs)
        assert max(sol.tdde.values()) <= 1e-8
        assert sol.free_parameters == dyson._CLASSES[cls].free_parameters
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


@pytest.mark.parametrize("m_J", ["-cos(t)", "sin(3*t)*exp(t)", "0.1*cos(2*t) + 0.05"])
def test_pt1_lambda_integrates_minus_im_muJ(m_J):
    # the PT1 builder integrates in sympy; quadrature is the oracle
    params = dyson_params(PtClass.PT1, CoefficientSet({"JJ": 1.0, "J": (0, m_J)}))[0]
    f = TimeFunction(m_J)
    assert params.lam(0.0) == pytest.approx(0.0, abs=1e-15)
    for upper in (0.5, 1.7, 3.0):
        want = -quad(f, 0.0, upper, epsabs=1e-12)[0]
        assert params.lam(upper) == pytest.approx(want, abs=1e-10)


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


# the profiles each class leaves to the caller: the first class fixes its
# whole map, the fifth leaves lambda and tau open, the others lambda
FREE_PROFILES = {PtClass.PT1: (), PtClass.PT2: ("lambda",), PtClass.PT3: ("lambda",),
                 PtClass.PT4: ("lambda",), PtClass.PT5: ("lambda", "tau")}
PROFILE_ARGS = {"lambda": "lam", "tau": "tau"}


@pytest.mark.parametrize("cls", list(PtClass))
def test_class_takes_exactly_the_profiles_its_row_names(cls, rng):
    named = FREE_PROFILES[cls]
    row = dyson._CLASSES[cls].free_parameters
    assert tuple(n for n in row if n in PROFILE_ARGS) == named
    coeffs, kwargs = sample_compliant_inputs(cls, rng)
    assert sorted(kwargs) == sorted(PROFILE_ARGS[n] for n in named)
    solve_dyson(cls, coeffs, order=ORDER, **kwargs)
    for name in PROFILE_ARGS.keys() - set(named):
        extra = dict(kwargs, **{PROFILE_ARGS[name]: TimeFunction(0.1)})
        message = f"^{cls.value} does not accept a {name} profile$"
        with pytest.raises(PreconditionError, match=message):
            solve_dyson(cls, coeffs, order=ORDER, **extra)
        with pytest.raises(PreconditionError, match=message):
            dyson_params(cls, coeffs, **extra)
    if "lambda" in named:
        without = {k: f for k, f in kwargs.items() if k != "lam"}
        with pytest.raises(PreconditionError, match=f"^{cls.value} requires a lambda profile"):
            solve_dyson(cls, coeffs, order=ORDER, **without)
    if "tau" in named:  # tau defaults to 0
        sol = solve_dyson(cls, coeffs, order=ORDER, lam=kwargs["lam"])
        assert sol.params.tau == TimeFunction(0)


def test_class_members_are_named_only_in_the_class_table():
    # what a class takes and does is read from its _CLASSES row, so no
    # code outside the table branches on a PtClass member
    tree = ast.parse(pathlib.Path(dyson.__file__).read_text(encoding="utf-8"))
    table = next(stmt for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and [getattr(t, "id", None) for t in stmt.targets] == ["_CLASSES"])

    def members(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "PtClass"]

    inside = members(table)
    assert sorted(n.attr for n in inside) == [c.name for c in PtClass]
    assert [n.lineno for n in members(tree) if n not in inside] == []


def test_constraint_violation_reported():
    # PT2 requires the J coefficient to vanish
    c = CoefficientSet({"JJ": 4.0, "J": 0.3j, "uJ": 0.7j, "v": 2.3})
    with pytest.raises(PreconditionError, match="J_coefficient_absent"):
        solve_dyson(PtClass.PT2, c, lam=TimeFunction.parse("0.4*sin(t)"))


def test_drifting_quadratic_weight_rejected():
    c = CoefficientSet({"JJ": ("2 + t", 0), "uJ": (0, 0.5)})
    with pytest.raises(PreconditionError):
        solve_dyson(PtClass.PT2, c, lam=TimeFunction(0.3))


def test_singularity_guard():
    c = CoefficientSet({"JJ": 4.0, "uJ": 0.7j, "v": 2.3})
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
    sol = solve_dyson(PtClass.PT2, model_hamiltonian(p), lam=lam, order=ORDER)
    # the mapped coefficients match the hand-derived counterpart
    hh = closed_form_counterpart(p, lam)
    for t in (0.0, 0.9):
        for key in ("JJ", "J", "u", "v", "uu", "vv", "uv"):
            assert sol.h_coeffs.value(key, t) == pytest.approx(
                hh.value(key, t), abs=1e-12)


def test_pt3_static_imaginary_part_suffices():
    # the derivation needs only Im(mu_uJ) static; the solver is stricter
    # (contract), but the conjugation map itself stays consistent when
    # the real part drifts along its constraint track.
    r = 0.2 + 0.1 * sp.cos(T)
    s, mjj, mj = 0.3, 2.0, 0.1
    lam = 0.3 * sp.sin(T)
    tau = s / sp.cos(lam) / (2.0 * mjj)
    rho = s * (1.0 - sp.sin(lam) / sp.cos(lam)) / (2.0 * mjj)
    params = DysonParams(PtClass.PT3, *map(TimeFunction, (tau, lam, rho)))
    coeffs = CoefficientSet({
        "JJ": mjj,
        "J": mj,
        "uJ": (r, s),
        "vJ": (r, -s),
        "u": (0.15, 0.5 * r + s * mj / (2.0 * mjj)),
        "v": (0.15, -(0.5 * r + s * mj / (2.0 * mjj))),
        "uu": (0.2, r * s / (2.0 * mjj)),
        "vv": (0.2, -(r * s / (2.0 * mjj))),
        "uv": 0.25,
    })
    h = conjugate_coefficients(coeffs, params)
    for t in (0.0, 0.7, 1.9):
        assert is_hermitian(h, t, order=ORDER)
        assert tdde_residual(coeffs, h, params, t, order=ORDER) <= 1e-8
    # while the solver, per contract, rejects the drifting real part
    with pytest.raises(PreconditionError, match="uJ_static"):
        solve_dyson(PtClass.PT3, coeffs, lam=lam)


def _shift(coeffs, cls, word, part, step):
    """coeffs with step added to one part, conjugate partner moved to match."""
    terms = {w: [f.expr for f in coeffs.pair(w)] for w in COEFF_KEYS}
    k = ("re", "im").index(part)
    terms[word][k] = terms[word][k] + step
    for w, rule in REALITY[cls].items():
        if rule == word:
            terms[w][k] = terms[w][k] + (step if part == "re" else -step)
    return CoefficientSet({w: tuple(p) for w, p in terms.items()})


@pytest.mark.parametrize("cls", list(PtClass))
def test_every_constraint_row_is_live(cls, rng):
    coeffs, kwargs = sample_compliant_inputs(cls, rng)
    rows = dyson_params(cls, coeffs, **kwargs)[1]
    formulas = [formula for *_, formula in rows]
    for name, word, part, formula in rows:
        step = 1e-6 if formula is not None else 1e-6 * (1 + T)
        moved = _shift(coeffs, cls, word, part, step)
        with pytest.raises(PreconditionError, match=rf"\b{name}=1\.0"):
            solve_dyson(cls, moved, order=ORDER, **kwargs)
        if formula is not None:
            # no formula reads a part that a formula sets, so the sampler
            # solves the rows in one pass
            assert [f for *_, f in dyson_params(cls, moved, **kwargs)[1]] == formulas


def test_residual_self_check_catches_forced_breakage(rng):
    # sign-flipped rho is the canonical negative control
    p = ModelParams(zeta=1.5, beta=0.3, level=2.3)
    lam = TimeFunction.parse("sin(t)")
    params = dyson_params(PtClass.PT2, model_hamiltonian(p), lam)[0]
    bad = DysonParams(params.pt_class, params.tau, params.lam,
                      TimeFunction(-params.rho.expr))
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
    row = dyson._CLASSES[PtClass.PT2]

    def flipped(*args):
        slots, rows = row.build(*args)
        return (slots[0], slots[1], -slots[2]), rows

    monkeypatch.setitem(dyson._CLASSES, PtClass.PT2, row._replace(build=flipped))
    with pytest.raises(ResidualCheckError, match="Hermiticity"):
        solve_dyson(PtClass.PT2, coeffs, order=ORDER, **kwargs)


@pytest.mark.parametrize("cls", list(PtClass))
def test_solver_output_reads_back(cls, rng):
    # every emitted string is inside the parse grammar and carries exact
    # doubles; parsing may re-associate a product over a sum, so values
    # agree to roundoff rather than bit for bit
    coeffs, kwargs = sample_compliant_inputs(cls, rng)
    sol = solve_dyson(cls, coeffs, order=ORDER, **kwargs)
    back = CoefficientSet.from_json_dict(sol.h_coeffs.to_json_dict())
    pairs = [(f, TimeFunction.parse(f.serialize()))
             for f in (sol.params.tau, sol.params.lam, sol.params.rho)]
    pairs += [(f, g) for key in COEFF_KEYS
              for f, g in zip(sol.h_coeffs.pair(key), back.pair(key))]
    for f, g in pairs:
        for t in DEFAULT_PROBE_TIMES:
            assert abs(g(t) - f(t)) <= 1e-15 * (1.0 + abs(f(t)))


def test_readme_library_example_runs(capsys):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        block = re.search(r"## Library example\n+```python\n(.*?)```", fh.read(), re.S)[1]
    exec(block, {})
    classes, residual = capsys.readouterr().out.splitlines()
    comments = re.findall(r"^print\(.*# (.*)$", block, re.M)
    assert classes == comments[0]
    assert float(residual) <= 1e-14  # the comment says ~1e-16
