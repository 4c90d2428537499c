import json
import os
import re
import warnings

import numpy as np
import pytest

from e2qes.cli import COMMANDS, REQUIRED, main

MODEL_COEFFS = {
    "muJ": {"re": 0, "im": 0},
    "muJJ": {"re": 4, "im": 0},
    "muU": {"re": 0, "im": 0},
    "muV": {"re": 2.3, "im": 0},
    "muUJ": {"re": 0, "im": 0.7},
    "muVJ": {"re": 0, "im": 0},
    "muUU": {"re": 0, "im": 0},
    "muVV": {"re": -0.075, "im": 0},
    "muUV": {"re": 0, "im": 0},
}


PT2_RUN = {"class": "PT2", "lambda": "0.4*sin(t)", "coefficients": MODEL_COEFFS}
OVERFLOWING_MUV = dict(MODEL_COEFFS, muV={"re": "exp(1000*t)", "im": 0})
THREE_LEVEL_RUN = {"zeta": 0.5, "beta": 0.3, "lambda": "0.4*sin(t)"}


def _cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_classify(tmp_path, capsys):
    cfg = _cfg(tmp_path, "c.json", {"coefficients": MODEL_COEFFS})
    assert main(["classify", "--input", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == ["PT2", "PT4"]


def test_classify_unknown_key(tmp_path, capsys):
    cfg = _cfg(tmp_path, "c.json", {"coefficients": MODEL_COEFFS, "bogus": 1})
    assert main(["classify", "--input", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_classify_missing_input(capsys):
    assert main(["classify"]) == 2


def test_spectrum_output_file(tmp_path):
    cfg = _cfg(tmp_path, "s.json",
               {"sector": "cos", "nHat": 2, "zeta": 0.5, "beta": 0.3})
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--input", cfg, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["sector"] == "cos"
    np.testing.assert_allclose(data["lambdas"],
                               [-0.38537208837531267, 4.385372088375313],
                               atol=1e-12)
    np.testing.assert_allclose(
        data["energies"], [l - 0.075 for l in data["lambdas"]], atol=1e-15)


def test_spectrum_overwrites_atomically(tmp_path):
    cfg = _cfg(tmp_path, "s.json",
               {"sector": "sin", "nHat": 2, "zeta": 0.5, "beta": 0.3})
    out = tmp_path / "spec.json"
    out.write_text("stale")
    assert main(["spectrum", "--input", cfg, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["nHat"] == 2
    # no temp droppings left behind
    assert [p for p in os.listdir(tmp_path) if p.startswith(".e2qes")] == []


def test_solve_dyson(tmp_path):
    cfg = _cfg(tmp_path, "d.json", {
        "class": "PT2",
        "lambda": "0.4*sin(t)",
        "coefficients": MODEL_COEFFS,
    })
    out = tmp_path / "sol.json"
    assert main(["solve-dyson", "--input", cfg, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["class"] == "PT2"
    assert data["params"]["lambda"] == "0.4*sin(t)"
    assert "J_coefficient_absent" in data["constraints"]
    assert all(r <= 1e-8 for r in data["residuals"].values())
    assert set(data["hCoefficients"]) == set(MODEL_COEFFS)


def test_solve_dyson_unknown_class(tmp_path, capsys):
    cfg = _cfg(tmp_path, "d.json",
               {"class": "PT9", "coefficients": MODEL_COEFFS})
    assert main(["solve-dyson", "--input", cfg]) == 2


def test_solve_dyson_constraint_violation(tmp_path):
    bad = dict(MODEL_COEFFS, muJ={"re": 0, "im": 0.4})
    cfg = _cfg(tmp_path, "d.json", {
        "class": "PT2", "lambda": "0.2*sin(t)", "coefficients": bad})
    assert main(["solve-dyson", "--input", cfg]) == 3


def test_wavefunctions_csv(tmp_path):
    cfg = _cfg(tmp_path, "w.json", {
        "sector": "cos", "nHat": 2, "zeta": 0.5, "beta": 0.3,
        "rootIndex": 1, "frame": "h", "shift": 0.4})
    out = tmp_path / "wf.csv"
    assert main(["wavefunctions", "--input", cfg, "--output", str(out),
                 "--quadrature", "32"]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "theta,re,im"
    assert len(lines) == 33
    theta, re, im = (float(x) for x in lines[1].split(","))
    assert theta == 0.0
    assert abs(im) < 1e-12  # stationary eigenfunction is real


def test_wavefunctions_root_index_range(tmp_path):
    cfg = _cfg(tmp_path, "w.json", {
        "sector": "cos", "nHat": 2, "zeta": 0.5, "beta": 0.3, "rootIndex": 5})
    assert main(["wavefunctions", "--input", cfg]) == 2


def test_observables(tmp_path):
    cfg = _cfg(tmp_path, "o.json", {
        "zeta": 0.5, "beta": 0.3, "lambda": "0.4*sin(t)",
        "times": [0.0, 0.8]})
    out = tmp_path / "obs.json"
    assert main(["observables", "--input", cfg, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["maxClosedFormDeviation"] <= 1e-10
    assert len(data["rows"]) == 6
    assert {"plus", "minus", "zero"} == {r["state"] for r in data["rows"]}
    assert data["energies"]["zero"] == pytest.approx(4.0 - 0.075)


def test_observables_strong_coupling(tmp_path, capsys):
    # Bessel arguments gamma/2 = 130 lie past any small-argument routine
    cfg = _cfg(tmp_path, "o.json",
               {"zeta": 200, "beta": 0.3, "lambda": "0.4*sin(t)"})
    assert main(["observables", "--input", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["maxClosedFormDeviation"] <= 1e-8


def test_observables_overflowing_closed_forms_are_precondition_error(tmp_path, capsys):
    # I_n(gamma/2) overflows past gamma ~ 1426; no NaN rows may pass
    cfg = _cfg(tmp_path, "o.json",
               {"zeta": 3000, "beta": 0.3, "lambda": "0.4*sin(t)"})
    assert main(["observables", "--input", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: three-level closed forms overflow at gamma=3900.0\n"


def test_spectrum_overflowing_zeta_is_precondition_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "s.json",
               {"sector": "cos", "nHat": 3, "zeta": 1e308, "beta": 0.3})
    assert main(["spectrum", "--input", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: zeta=1e+308 ")
    assert captured.err.count("\n") == 1


def test_observables_precondition(tmp_path):
    cfg = _cfg(tmp_path, "o.json",
               {"zeta": 0.0, "beta": 0.3, "lambda": "0"})
    assert main(["observables", "--input", cfg]) == 3


def test_double_scaling(tmp_path):
    cfg = _cfg(tmp_path, "ds.json",
               {"g": 1.0, "beta": 0.3, "zetas": [0.1, 0.02], "kLow": 3})
    out = tmp_path / "ds_out.json"
    assert main(["double-scaling", "--input", cfg, "--output", str(out),
                 "--truncation", "48"]) == 0
    data = json.loads(out.read_text())
    assert data["monotone"] is True
    assert len(data["rows"]) == 2
    assert len(data["rows"][0]["eigenvalues"]) == 3


def test_double_scaling_shallow_level(tmp_path):
    cfg = _cfg(tmp_path, "ds.json",
               {"g": 1.0, "beta": 0.3, "zetas": [0.5]})
    assert main(["double-scaling", "--input", cfg]) == 3


def test_verify_subset(tmp_path):
    cfg = _cfg(tmp_path, "v.json", {"checks": ["commutator_identities"]})
    out = tmp_path / "v_out.json"
    assert main(["verify", "--input", cfg, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["allPassed"] is True
    assert [c["name"] for c in data["checks"]] == ["commutator_identities"]
    assert data["checks"][0]["measure"] <= data["checks"][0]["threshold"]


def test_verify_unknown_check(tmp_path):
    cfg = _cfg(tmp_path, "v.json", {"checks": ["nonsense"]})
    assert main(["verify", "--input", cfg]) == 2


def test_bad_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["classify", "--input", str(path)]) == 2


def test_truncation_below_two_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "ds.json", {"g": 1.0, "beta": 0.3, "zetas": [0.1]})
    assert main(["double-scaling", "--input", cfg, "--truncation", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --truncation must be >= 2\n"


def test_quadrature_below_eight_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "w.json", {
        "sector": "cos", "nHat": 2, "zeta": 0.5, "beta": 0.3, "rootIndex": 0})
    assert main(["wavefunctions", "--input", cfg, "--quadrature", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --quadrature must be >= 8\n"


@pytest.mark.parametrize("sub,payload,err", [
    ("solve-dyson", dict(PT2_RUN, **{"lambda": "1/t"}),
     "1/t at t=0.0: float division by zero"),
    ("solve-dyson", dict(PT2_RUN, **{"lambda": "exp(1000*t)"}),
     "exp(1000*t) at t=1.0: math range error"),
    ("solve-dyson", dict(PT2_RUN, coefficients=OVERFLOWING_MUV),
     "exp(1000*t) at t=1.0: math range error"),
    ("classify", {"coefficients": OVERFLOWING_MUV},
     "exp(1000*t) at t=1.0: math range error"),
    ("solve-dyson", dict(PT2_RUN, probeTimes=[-1.0, 0.5], **{"lambda": "t^0.5"}),
     "t^0.5 at t=-1.0: complex value (6.123233995736766e-17+1j)"),
    ("observables", dict(THREE_LEVEL_RUN, times=[-1.0], **{"lambda": "t^0.5"}),
     "t^0.5 at t=-1.0: complex value (6.123233995736766e-17+1j)"),
    # a huge frame angle must not wash out the sampled state before the
    # expression itself overflows
    ("observables", dict(THREE_LEVEL_RUN, **{"lambda": "exp(1000*t)"}),
     "exp(1000*t) at t=1.0: math range error"),
    # sympy folds these on parse; the folded constants still fail on evaluation
    ("observables", dict(THREE_LEVEL_RUN, **{"lambda": "1/0"}),
     "zoo at t=0.0: non-finite value inf"),
    ("observables", dict(THREE_LEVEL_RUN, **{"lambda": "(-1)^0.5"}),
     "1.0*I at t=0.0: complex value 1j"),
    ("observables", dict(THREE_LEVEL_RUN, **{"lambda": "exp(1e3)"}),
     "inf at t=0.0: non-finite value inf"),
], ids=["lambda-zero-division", "lambda-overflow", "muV-overflow",
        "classify-muV-overflow", "lambda-complex", "observables-lambda-complex",
        "observables-lambda-overflow", "observables-lambda-folded-zero-division",
        "observables-lambda-folded-complex", "observables-lambda-folded-overflow"])
def test_arithmetic_error_in_expression_is_precondition_error(
        tmp_path, capsys, sub, payload, err):
    cfg = _cfg(tmp_path, "a.json", payload)
    assert main([sub, "--input", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: evaluating {err}\n"


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
NAN = float("nan")


def _shipped(name, **changes):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        return dict(json.load(fh), **changes)


@pytest.mark.parametrize("sub,payload,key", [
    ("classify", _shipped("hh_model.json", tolerance=NAN), "tolerance"),
    ("solve-dyson", _shipped("solve_dyson_pt2.json", tolerance=NAN), "tolerance"),
    ("solve-dyson", _shipped("solve_dyson_pt2.json", probeTimes=[NAN]), "probeTimes[0]"),
    ("double-scaling", _shipped("double_scaling.json", g=NAN), "g"),
    ("spectrum", _shipped("spectrum_cos2.json", zeta=NAN), "zeta"),
], ids=["classify-tolerance", "solve-dyson-tolerance", "solve-dyson-probeTimes",
        "double-scaling-g", "spectrum-zeta"])
def test_non_finite_number_is_config_error(tmp_path, capsys, sub, payload, key):
    # json.dumps writes NaN, which json.load reads back as a float
    cfg = _cfg(tmp_path, "n.json", payload)
    assert main([sub, "--input", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be a finite number\n"


@pytest.mark.parametrize("n_hat", [10_001, 10**20])
def test_nhat_above_cap_is_config_error(tmp_path, capsys, n_hat):
    cfg = _cfg(tmp_path, "s.json", _shipped("spectrum_cos2.json", nHat=n_hat))
    assert main(["spectrum", "--input", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nHat must be <= 10000\n"


@pytest.mark.parametrize("flag,value,err", [
    ("--truncation", "513", "--truncation must be <= 512"),
    ("--truncation", str(10**20), "--truncation must be <= 512"),
    ("--quadrature", "16385", "--quadrature must be <= 16384"),
    ("--quadrature", str(10**20), "--quadrature must be <= 16384"),
])
def test_size_flag_above_cap_is_config_error(tmp_path, capsys, flag, value, err):
    # rejected before any config is read or any array is built
    cfg = _cfg(tmp_path, "w.json", _shipped("wavefunction_cos2.json"))
    assert main(["wavefunctions", "--input", cfg, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("lam", ["0.1*exp(1)*sin(t)", "0.4*t^(1/2)", "0.3*Abs(t-1.2)"])
def test_solve_dyson_output_feeds_classify(tmp_path, capsys, lam):
    # E, a half power and the sign that Abs differentiates to all print as
    # grammar text, so the emitted h is a valid classify config
    times = [0.5, 1.0, 2.0]
    cfg = _cfg(tmp_path, "d.json", _shipped("solve_dyson_pt2.json", probeTimes=times,
                                            **{"lambda": lam}))
    assert main(["solve-dyson", "--input", cfg]) == 0
    h = json.loads(capsys.readouterr().out)["hCoefficients"]
    cfg = _cfg(tmp_path, "c.json", {"coefficients": h, "sampleTimes": times})
    assert main(["classify", "--input", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and isinstance(json.loads(captured.out), list)


def test_solve_dyson_antiderivative_outside_grammar_is_config_error(tmp_path, capsys):
    # PT1 integrates -muJ.im into lambda: 0.1/(1+t^2) integrates to atan,
    # 0.1*exp(t^2) to erfi, and sympy finds no antiderivative of sin(sin(t))
    zero = {"re": 0, "im": 0}
    grammar = "not in the grammar (sin, cos, tan, exp, sinh, cosh, tanh, Abs, sign)"
    for m_J, err in (("0.1/(1+t^2)", f"function atan {grammar}"),
                     ("0.1*exp(t^2)", f"function erfi {grammar}"),
                     ("0.1*sin(sin(t))", "no elementary antiderivative for -0.1*sin(sin(t))")):
        coeffs = dict({k: zero for k in MODEL_COEFFS}, muJJ={"re": 1, "im": 0},
                      muJ={"re": 0, "im": m_J})
        cfg = _cfg(tmp_path, "d.json", {"class": "PT1", "coefficients": coeffs})
        assert main(["solve-dyson", "--input", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("truncation", ["2", "3", "4"])
def test_solve_dyson_truncation_inside_pad_is_precondition_error(tmp_path, capsys, truncation):
    # the Hermiticity self-check trims 4 modes from each edge
    cfg = _cfg(tmp_path, "d.json", _shipped("solve_dyson_pt2.json"))
    assert main(["solve-dyson", "--input", cfg, "--truncation", truncation]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order must be at least 5\n"


@pytest.mark.parametrize("sub,payload,err", [
    ("observables", dict(THREE_LEVEL_RUN, zeta=-0.5),
     re.escape("three-level closed forms need gamma = (1 + beta) zeta > 0, got -0.65")),
    ("observables", dict(THREE_LEVEL_RUN, beta=-1.5),
     re.escape("three-level closed forms need gamma = (1 + beta) zeta > 0, got -0.25")),
    ("wavefunctions", {"sector": "cos", "nHat": 5, "zeta": 1, "beta": 1e300,
                       "rootIndex": 1},
     re.escape("the tridiagonal eigensolver failed at zeta=1.0, beta=1e+300: ") + ".+"),
    ("double-scaling", {"g": 3, "beta": 1e300, "zetas": [0.3], "kLow": 10},
     re.escape("Hermitian partner is not finite at zeta=0.3, beta=1e+300")),
    ("double-scaling", _shipped("double_scaling.json", kLow=1000),
     re.escape("kLow must lie in 1..129, the basis size, got 1000")),
    # lambda(t) overflows to -inf without raising
    ("observables", dict(THREE_LEVEL_RUN, times=[-1e300], **{"lambda": "1e300*t"}),
     r"evaluating \S+ at t=-1e\+300: non-finite value -inf"),
    # found by tests/test_cli_fuzz.py
    ("wavefunctions", {"sector": "cos", "nHat": 1, "zeta": 2147483648.0, "beta": 0.0,
                       "rootIndex": 0},
     re.escape("Bessel envelope is not finite at zeta=2147483648.0, beta=0.0")),
    ("double-scaling", {"g": 8.98846567431158e+307, "beta": 0.0, "zetas": [0.0]},
     re.escape("limit operator is not finite at g=8.98846567431158e+307")),
    ("observables", dict(THREE_LEVEL_RUN, zeta=1e-9, beta=0.0),
     re.escape("three-level minus normalization vanishes at gamma=1e-09")),
    ("observables", dict(THREE_LEVEL_RUN, zeta=1.93873481932514e-197, beta=0.0),
     re.escape("three-level zero normalization vanishes at gamma=1.93873481932514e-197")),
    ("observables", {"zeta": -482, "beta": -3.875, "lambda": "t"},
     re.escape("three-level closed forms overflow at gamma=1385.75")),
    ("observables", {"zeta": 2.0, "beta": 1.0, "lambda": 0.0, "times": [1.7544954820696083e+307]},
     re.escape("the minus state's energy phase overflows at t=1.7544954820696083e+307")),
    # lambda = 5t, so exp(lambda J) overflows at the last probe time
    ("solve-dyson", {"class": "PT1", "coefficients": dict(
        {k: {"re": 0, "im": 0} for k in MODEL_COEFFS}, muJJ={"re": 1, "im": 0},
        muJ={"re": 0, "im": -5})},
     re.escape("the frame map is not finite at t=2.5 with truncation 64")),
    # tau = c sec(lambda) is about 900, and expm(tau v) overflows
    ("solve-dyson", _shipped("solve_dyson_pt2.json", **{"lambda": "1.5707"}),
     re.escape("the frame map is not finite at t=0.0 with truncation 64")),
    # the Jacobi entries are finite, its extreme eigenvalues are not
    ("spectrum", {"sector": "cos", "nHat": 3, "zeta": 0.5, "beta": 1e308},
     re.escape("zeta=0.5 overflows the cos sector recurrence at beta=1e+308")),
    # n * shift overflows, and exp(i inf) is NaN
    ("wavefunctions", _shipped("wavefunction_cos2.json", shift=1e308),
     re.escape("shift=1e+308 overflows the mode phases n*shift")),
], ids=["observables-negative-zeta", "observables-beta-below-minus-one",
        "wavefunctions-eigensolver", "double-scaling-overflow", "double-scaling-kLow",
        "observables-lambda-non-finite", "wavefunctions-bessel-nan",
        "double-scaling-limit-overflow",
        "observables-small-gamma", "observables-tiny-gamma", "observables-closed-form-overflow",
        "observables-phase-overflow", "solve-dyson-pt1-frame-overflow",
        "solve-dyson-pt2-frame-overflow", "spectrum-eigenvalue-overflow",
        "wavefunctions-shift-overflow"])
def test_precondition_error_on_finite_input(tmp_path, capsys, sub, payload, err):
    cfg = _cfg(tmp_path, "p.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        assert main([sub, "--input", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {err}\n", captured.err)


def test_double_scaling_huge_level_is_finite(tmp_path, capsys):
    # found by tests/test_cli_fuzz.py: every entry of the partner at this
    # level is finite, and so is its spectrum
    cfg = _cfg(tmp_path, "d.json",
               {"g": 1.3353866399245677e+307, "beta": 0.0, "zetas": [11.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["double-scaling", "--input", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    values = out["limit"] + out["rows"][0]["eigenvalues"] + out["rows"][0]["deviations"]
    assert len(values) == 12 and np.all(np.isfinite(values))


def test_sign_derivative_is_expression_error(tmp_path, capsys):
    # sympy differentiates sign to a delta function, which the grammar lacks
    cfg = _cfg(tmp_path, "d.json",
               _shipped("solve_dyson_pt2.json", **{"lambda": "0.3*sign(t-1.2)"}))
    assert main(["solve-dyson", "--input", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the derivative of 0.3*sign(t - 1.2) leaves the grammar\n")


def test_small_j_coefficient_is_constraint_error(tmp_path, capsys):
    # the row is linear in the coefficient, so |muJ| = 5e-5 clears the
    # 1e-8 gate by far and stops before the Hermiticity self-check
    payload = _shipped("solve_dyson_pt2.json")
    payload["coefficients"]["muJ"] = {"re": 0, "im": 5e-5}
    cfg = _cfg(tmp_path, "d.json", payload)
    assert main(["solve-dyson", "--input", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: coefficient constraints violated: J_coefficient_absent=5.000e-05\n")


@pytest.mark.parametrize("raw", [b"\xff{}", b"[" * 100000], ids=["not-utf8", "too-deep"])
def test_unreadable_json_is_config_error(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["classify", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON in {path}: ") and err.count("\n") == 1


def test_verify_empty_checks_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "v.json", {"checks": []})
    assert main(["verify", "--input", cfg]) == 2
    assert capsys.readouterr().err == "error: checks must be a non-empty list\n"


def test_readme_lists_each_schema_key():
    with open(os.path.join(CONFIGS, os.pardir, "README.md"), encoding="utf-8") as fh:
        rows = [line.split("|") for line in fh if line.startswith("| `")]
    listed = {}
    for row in rows:
        required, _, optional = row[2].partition("optional")
        listed[row[1].strip(" `")] = (re.findall(r"`(\w+)`", required),
                                      re.findall(r"`(\w+)`", optional),
                                      tuple(re.findall(r"`--(\w+)`", row[3])))
    expected = {sub: ([k for k, (_, d) in schema.items() if d is REQUIRED],
                      [k for k, (_, d) in schema.items() if d is not REQUIRED], sizes)
                for sub, (_, schema, sizes) in COMMANDS.items()}
    assert listed == expected


@pytest.mark.parametrize("sub,flag", [
    (sub, flag) for sub, (_, _, sizes) in COMMANDS.items()
    for flag in ("--truncation", "--quadrature") if flag[2:] not in sizes])
def test_size_flag_a_subcommand_does_not_read_is_rejected(capsys, sub, flag):
    # a flag the subcommand would ignore is an error, not a silent no-op
    assert main([sub, flag, "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {flag} 64\n"


@pytest.mark.parametrize("argv,err", [
    (["classify", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["wavefunctions", "--truncation", "abc"],
     "argument --truncation: invalid int value: 'abc'"),
    (["spectrum", "--input"], "argument --input: expected one argument"),
    ([], "the following arguments are required: command"),
    (["nonsense"], "argument command: invalid choice: 'nonsense' .*"),
], ids=["unknown-flag", "non-integer-size", "missing-value", "no-command", "unknown-command"])
def test_parser_error_is_one_line(capsys, argv, err):
    # main returns the code instead of raising SystemExit with a usage block
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {err}\n", captured.err)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wavefunctions", "--help"])
    assert exc.value.code == 0
    assert "--quadrature" in capsys.readouterr().out


def test_shift_in_frame_H_is_precondition_error(tmp_path, capsys):
    # frame H has no shift to apply; ignoring it would print an unshifted state
    cfg = _cfg(tmp_path, "w.json", _shipped("wavefunction_cos2.json", frame="H"))
    assert main(["wavefunctions", "--input", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: shift applies to frame 'h' only, got 0.4 with frame 'H'\n"
