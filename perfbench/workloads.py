"""Operations and verdicts for the three workloads.

Each workload exposes ``run(item)``, one timed operation on an input
from ``inputs.make``, and ``judge(item, output)``, which returns
``(cause, measures)``: ``cause`` is ``None`` for a correct output or a
short failure cause such as ``"qes.wrong:eigenvalues"``.  Exceptions
raised by ``run`` are caught by the caller and become the cause
``"<layer>.error:<ExceptionType>"``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np

import inputs as I
import oracles as O

# Failures the package is known to produce, each with a reproducer in
# README.md.  They count in ok_frac and the per-layer failure shares; a
# failure that matches none of them makes the run incorrect.
DEFECT_REGISTER = (
    # (cause, fragment of the exception message, or None)
    ("qes.error:PreconditionError", "complex roots"),
    ("qes.wrong:eigenvalues", None),
    ("qes.wrong:eigenfunction", None),
)


class DysonSolve:
    """Parse one five-class coefficient set, classify, solve, serialize."""

    name = "dyson_solve"
    in_process = True

    def __init__(self, e2qes):
        self.e = e2qes

    def deck_size(self):
        return len(I.CLASSES)

    def run(self, item):
        e = self.e
        data = json.loads(item["text"])
        coeffs = e.CoefficientSet.from_json_dict(data["coefficients"])
        kwargs = {k: e.TimeFunction.parse(data[key])
                  for key, k in (("lambda", "lam"), ("tau", "tau")) if key in data}
        found = sorted(c.value for c in e.classify_pt(coeffs))
        sol = e.solve_dyson(e.PtClass(data["class"]), coeffs, order=32, **kwargs)
        return json.dumps({
            "classes": found,
            "params": {"tau": sol.params.tau.serialize(),
                       "lambda": sol.params.lam.serialize(),
                       "rho": sol.params.rho.serialize()},
            "hCoefficients": sol.h_coeffs.to_json_dict(),
        })

    def judge(self, item, output):
        out = json.loads(output)
        data = json.loads(item["text"])
        if item["class"] not in out["classes"]:
            return "model.wrong:classes", {}
        ok, measure = O.check_dyson(item["class"], data["coefficients"], out,
                                       item["times"])
        return (None if ok else "dyson.wrong:frame_equation"), {"dyson.frame_residual": measure}


# ---------------------------------------------------------------------------
# qes_sweep: spectrum, one eigenfunction, grid samples and moments

class QesSweep:
    """One (sector, nHat, zeta, beta, root) per operation, nHat 1..40."""

    name = "qes_sweep"
    in_process = True

    def __init__(self, e2qes):
        self.e = e2qes
        self._reference = {}
        self._verdicts = {}

    def deck_size(self):
        return None  # the whole pool is one deck

    def run(self, item):
        e = self.e
        spec = e.quantization_eigenvalues(item["sector"], item["nHat"],
                                          item["zeta"], item["beta"])
        k = min(int(item["root"] * len(spec.lambdas)), len(spec.lambdas) - 1)
        p = e.ModelParams.quantized(item["nHat"], item["zeta"], item["beta"])
        modes = e.eigenfunction_series(item["sector"], item["nHat"],
                                       float(spec.lambdas[k]), p)
        grid = e.QuadratureGrid(n_nodes=O.ORACLE_GRID)
        samples = e.modes_to_grid(modes, grid) / math.sqrt(2.0 * math.pi)
        moments = {op: float(e.expectation(op, samples, grid)) for op in ("u", "v", "J")}
        return spec.lambdas, k, modes, samples, moments

    def reference(self, item):
        key = (item["sector"], item["nHat"], item["zeta"], item["beta"])
        if key not in self._reference:
            self._reference[key] = O.reference_lambdas(*key)
        return self._reference[key]

    def judge(self, item, output):
        key = (tuple(sorted(item.items())), _digest(output))
        if key not in self._verdicts:  # outputs repeat exactly; judge each once
            self._verdicts[key] = self._judge(item, output)
        return self._verdicts[key]

    def _judge(self, item, output):
        lambdas, k, modes, samples, moments = output
        want = self.reference(item)
        ok, err = O.check_eigenvalues(lambdas, want)
        measures = {"qes.eigenvalue_rel_err": err}
        lvl = O.level(item["nHat"], item["beta"])
        energy = float(lambdas[k]) - item["beta"] * item["zeta"] ** 2
        ok_f, res = O.check_eigenfunction(modes, energy, item["zeta"], item["beta"], lvl)
        measures["qes.eigenfunction_residual"] = res
        ok_s, _ = O.check_sampling(modes, samples * math.sqrt(2.0 * math.pi), moments)
        if not ok:
            return "qes.wrong:eigenvalues", measures
        if not ok_f:
            return "qes.wrong:eigenfunction", measures
        if not ok_s:
            return "observables.wrong:sampling", measures
        return None, measures


def _digest(output):
    lambdas, k, modes, samples, moments = output
    h = hashlib.sha256(repr((k, sorted(moments.items()))).encode())
    for arr in (lambdas, modes, samples):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _judge_battery(output, names):
    report = json.loads(output)
    got = [c["name"] for c in report["checks"]]
    if sorted(got) != sorted(names):
        return "verify.wrong:checks"
    if not report["allPassed"] or not all(
            c["passed"] and math.isfinite(c["measure"]) for c in report["checks"]):
        return "verify.wrong:failed_check"
    return None


# ---------------------------------------------------------------------------
# cli_configs: python -m e2qes <sub> on seeded variants of the shipped configs

class CliConfigs:
    """One `python -m e2qes <sub>` subprocess per operation."""

    name = "cli_configs"
    in_process = False

    def __init__(self, env, workdir):
        self.env = env
        self.workdir = workdir
        self.runner = None  # argv prefix replacing `-m e2qes` when tracing
        self.rss_mb = []

    def deck_size(self):
        return len(I.CLI_COMMANDS)

    def run(self, item):
        out_path = os.path.join(self.workdir, "cli-out.txt")
        err_path = os.path.join(self.workdir, "cli-err.txt")
        prefix = self.runner or [sys.executable, "-m", "e2qes"]
        argv = prefix + [item["command"], "--input", item["path"]]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        with open(out_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if proc.returncode != 0:
            with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
                raise CliExit(proc.returncode, fh.read().strip()[-200:])
        return text

    def judge(self, item, output):
        return judge_cli(item["command"], item["config"], output), {}


class CliExit(RuntimeError):
    """A CLI subprocess exited non-zero."""

    def __init__(self, code, stderr):
        super().__init__(f"exit code {code}: {stderr}")
        self.code = code


def judge_cli(command, cfg, output):
    """Verdict on one subcommand's stdout; None when it is right."""
    try:
        if command == "wavefunctions":
            rows = list(csv.reader(output.splitlines()))
            if rows[0] != ["theta", "re", "im"]:
                return "cli.wrong:unparseable"
            data = np.array(rows[1:], dtype=float)
        else:
            data = json.loads(output)
    except (ValueError, IndexError):
        return "cli.wrong:unparseable"
    if command == "classify":
        vals = {w: [] for w in I.WORDS}
        for key, word in I.JSON_WORD.items():
            entry = cfg["coefficients"][key]
            vals[word] = [complex(entry["re"], entry["im"])]
        return None if data == O.reality_classes(vals) else "cli.wrong:classes"
    if command == "solve-dyson":
        coeffs = {k: {"re": str(v["re"]), "im": str(v["im"])}
                  for k, v in cfg["coefficients"].items()}
        ok, _ = O.check_dyson(cfg["class"], coeffs, data, (0.2, 1.3, 2.1))
        return None if ok else "cli.wrong:frame_equation"
    if command == "spectrum":
        want = O.reference_lambdas(cfg["sector"], cfg["nHat"], cfg["zeta"], cfg["beta"])
        ok, _ = O.check_eigenvalues(data["lambdas"], want)
        shift = cfg["beta"] * cfg["zeta"] ** 2
        ok = ok and np.allclose(np.asarray(data["energies"]),
                                np.asarray(data["lambdas"]) - shift, rtol=0, atol=1e-12)
        return None if ok else "cli.wrong:spectrum"
    if command == "wavefunctions":
        return _judge_wavefunction(cfg, data)
    if command == "observables":
        return _judge_observables(cfg, data)
    if command == "verify":
        return _judge_battery(output, cfg["checks"])
    return _judge_double_scaling(cfg, data)


def _judge_wavefunction(cfg, data):
    """Undo the frame shift and check H psi = E psi on the samples."""
    zeta, beta = cfg["zeta"], cfg["beta"]
    gamma, s = (1.0 + beta) * zeta, cfg["shift"]
    theta, psi = data[:, 0], data[:, 1] + 1j * data[:, 2]
    if len(psi) != O.ORACLE_GRID or not np.allclose(theta, O.grid_nodes()):
        return "cli.wrong:grid"
    x = theta + s
    bare = psi * np.exp((0.25 * gamma - 0.5 * zeta) * np.cos(x))
    lams = O.reference_lambdas(cfg["sector"], cfg["nHat"], zeta, beta)
    energy = lams[cfg["rootIndex"]] - beta * zeta ** 2
    res = O.eigen_residual(bare, energy, zeta, beta, O.level(cfg["nHat"], beta), x)
    norm = np.sum(np.abs(psi) ** 2) * 2.0 * math.pi / len(psi)
    ok = res <= O.EIGENFUNCTION_RESIDUAL_TOL and abs(norm - 2.0 * math.pi) <= 1e-9
    return None if ok else "cli.wrong:eigenfunction"


def _judge_observables(cfg, data):
    zeta, beta = cfg["zeta"], cfg["beta"]
    gamma = (1.0 + beta) * zeta
    lam = O.expression(cfg["lambda"])
    theta = O.grid_nodes()
    want_e = O.three_level_energies(zeta, beta)
    worst = max(abs(data["energies"][k] - want_e[k]) for k in want_e)
    rows = iter(data["rows"])
    for t in cfg["times"]:
        states = O.three_level_states(gamma, lam(t).real, theta)
        for name in ("plus", "minus", "zero"):
            row = next(rows)
            want = O.moments(states[name].astype(complex), theta)
            if row["state"] != name or row["time"] != t:
                return "cli.wrong:rows"
            worst = max(worst, *(abs(row[k] - want[k]) for k in want))
    return None if worst <= O.CLOSED_FORM_TOL else "cli.wrong:observables"


def _judge_double_scaling(cfg, data):
    want = O.limit_spectrum(cfg["g"], cfg["kLow"])
    worst = float(np.max(np.abs(np.asarray(data["limit"]) - want)))
    for row in data["rows"]:
        dev = np.abs(np.asarray(row["eigenvalues"]) - want)
        worst = max(worst, float(np.max(np.abs(dev - np.asarray(row["deviations"])))))
    ok = worst <= O.CLOSED_FORM_TOL and data["monotone"] is True
    return None if ok else "cli.wrong:double_scaling"


def registered(cause, message):
    """True when a failure matches an entry of the defect register."""
    return any(cause == c and (frag is None or frag in message)
               for c, frag in DEFECT_REGISTER)


# ---------------------------------------------------------------------------
# negative controls on real outputs

def _scale_floats(value, factor):
    """Each float scaled, and shifted by as much, so that zeros move too."""
    if isinstance(value, float):
        return value * factor + (factor - 1.0)
    if isinstance(value, list):
        return [_scale_floats(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: _scale_floats(v, factor) for k, v in value.items()}
    return value


def _flip_rho(text):
    out = json.loads(text)
    out["params"]["rho"] = f"-({out['params']['rho']})"
    return json.dumps(out)


def corrupt(workload, item, output):
    """Deliberately wrong versions of a correct output; each must be rejected."""
    if workload == "dyson_solve":
        return [_flip_rho(output)]
    if workload == "qes_sweep":
        lambdas, k, modes, samples, moments = output
        # an absolute shift, so that a spectrum of zeros moves too
        shifted = lambdas + 1e-6 * np.maximum(1.0, np.abs(lambdas))
        bad = [(shifted, k, modes, samples, moments)]
        if len(lambdas) > 1:  # another root's energy for this eigenfunction
            bad.append((lambdas, (k + 1) % len(lambdas), modes, samples, moments))
        return bad
    command = item["command"]
    if command == "verify":
        report = json.loads(output)
        report["checks"][0]["passed"] = False
        report["allPassed"] = False
        return [json.dumps(report)]
    if command == "classify":
        return [json.dumps(["PT1"])]
    if command == "solve-dyson":
        return [_flip_rho(output)]
    if command == "wavefunctions":
        rows = output.splitlines()
        data = np.array([r.split(",") for r in rows[1:]], dtype=float)
        data[:, 1] += 1e-6 * max(1.0, np.max(np.abs(data[:, 1:]))) * np.cos(2.0 * data[:, 0])
        body = "\n".join(f"{a!r},{b!r},{c!r}" for a, b, c in data)
        return [rows[0] + "\n" + body + "\n"]
    return [json.dumps(_scale_floats(json.loads(output), 1.0 + 1e-6))]
