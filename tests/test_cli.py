import json
import os

import numpy as np
import pytest

from e2qes.cli import main

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
], ids=["lambda-zero-division", "lambda-overflow", "muV-overflow",
        "classify-muV-overflow", "lambda-complex", "observables-lambda-complex",
        "observables-lambda-overflow"])
def test_arithmetic_error_in_expression_is_precondition_error(
        tmp_path, capsys, sub, payload, err):
    cfg = _cfg(tmp_path, "a.json", payload)
    assert main([sub, "--input", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: evaluating {err}\n"
