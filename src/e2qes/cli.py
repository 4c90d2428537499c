"""Command-line front end.

Subcommands: classify, solve-dyson, spectrum, wavefunctions, observables,
verify, double-scaling.  Configuration comes from a JSON file (--input);
results go to --output or stdout.  Writes are atomic (temp file plus
rename), JSON uses two-space indentation, CSV uses comma-separated
columns with a header row and LF line endings.

Exit codes: 0 success, 1 residual or verification failure, 2 config or
parse error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .dyson import ResidualCheckError, solve_dyson
from .model import (CoefficientSet, ModelParams, PreconditionError, PtClass,
                    classify_pt)
from .observables import (QuadratureGrid, ThreeLevelSystem,
                          double_scaling_compare, expectation, modes_to_grid)
from .qes import SECTORS, eigenfunction_series, quantization_eigenvalues
from .timefunc import ExpressionError, TimeFunction
from .verify import all_check_names, run_all

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3


class ConfigError(ValueError):
    """Malformed configuration file."""


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".e2qes-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text):
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2) + "\n")


def _load_config(args, required, optional):
    if not args.input:
        raise ConfigError("--input is required for this command")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {args.input}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level configuration must be a JSON object")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"missing configuration keys: {sorted(missing)}")
    return data


def _as_number(data, key, lo=None, hi=None):
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} must be a number")
    val = float(val)
    if lo is not None and val < lo:
        raise ConfigError(f"{key} must be >= {lo}")
    if hi is not None and val > hi:
        raise ConfigError(f"{key} must be <= {hi}")
    return val


def _as_int(data, key, lo=None):
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key} must be an integer")
    if lo is not None and val < lo:
        raise ConfigError(f"{key} must be >= {lo}")
    return val


def _as_sector(data):
    sector = data["sector"]
    if sector not in SECTORS:
        raise ConfigError(f"sector must be one of {SECTORS}")
    return sector


def _coefficients(data):
    try:
        return CoefficientSet.from_json_dict(data["coefficients"])
    except (ValueError, ExpressionError) as exc:
        raise ConfigError(f"bad coefficients: {exc}") from exc


def _number_list(data, key, default=None):
    if key not in data:
        return default
    values = data[key]
    if (not isinstance(values, list) or not values
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in values)):
        raise ConfigError(f"{key} must be a non-empty list of numbers")
    return tuple(float(x) for x in values)


def _expression(data, key):
    val = data[key]
    if not isinstance(val, (str, int, float)) or isinstance(val, bool):
        raise ConfigError(f"{key} must be an expression string or number")
    try:
        return TimeFunction.parse(str(val))
    except ExpressionError as exc:
        raise ConfigError(f"bad {key} expression: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args):
    data = _load_config(args, required=("coefficients",),
                        optional=("sampleTimes", "tolerance"))
    coeffs = _coefficients(data)
    times = _number_list(data, "sampleTimes", (0.0, 0.37, 1.0, 2.5))
    tol = _as_number(data, "tolerance", lo=0.0) if "tolerance" in data else 1e-12
    classes = classify_pt(coeffs, sample_times=times, tol=tol)
    _emit_json(args, sorted(c.value for c in classes))
    return EXIT_OK


def cmd_solve_dyson(args):
    data = _load_config(
        args,
        required=("class", "coefficients"),
        optional=("lambda", "tau", "probeTimes", "tolerance"))
    try:
        pt_class = PtClass(data["class"])
    except ValueError as exc:
        raise ConfigError(f"unknown class {data['class']!r}") from exc
    coeffs = _coefficients(data)
    kwargs = {name: _expression(data, key)
              for key, name in (("lambda", "lam"), ("tau", "tau")) if key in data}
    probe_times = _number_list(data, "probeTimes", (0.0, 0.37, 1.0, 2.5))
    tol = _as_number(data, "tolerance", lo=0.0) if "tolerance" in data else 1e-8
    sol = solve_dyson(pt_class, coeffs, probe_times=probe_times,
                      order=args.truncation, tolerance=tol, **kwargs)
    payload = {
        "class": pt_class.value,
        "phaseConvention": sol.params.phase_convention,
        "params": {
            "tau": sol.params.tau.serialize(),
            "lambda": sol.params.lam.serialize(),
            "rho": sol.params.rho.serialize(),
        },
        "hCoefficients": sol.h_coeffs.to_json_dict(),
        "constraints": list(sol.constraints),
        "freeParameters": list(sol.free_parameters),
        "residuals": {repr(t): float(r) for t, r in sol.tdde.items()},
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_spectrum(args):
    data = _load_config(args, required=("sector", "nHat", "zeta", "beta"),
                        optional=())
    sector = _as_sector(data)
    n_hat = _as_int(data, "nHat", lo=1)
    zeta = _as_number(data, "zeta", lo=0.0)
    beta = _as_number(data, "beta")
    spec = quantization_eigenvalues(sector, n_hat, zeta, beta)
    _emit_json(args, spec.to_json_dict())
    return EXIT_OK


def cmd_wavefunctions(args):
    data = _load_config(
        args,
        required=("sector", "nHat", "zeta", "beta", "rootIndex"),
        optional=("frame", "shift"))
    sector = _as_sector(data)
    n_hat = _as_int(data, "nHat", lo=1)
    zeta = _as_number(data, "zeta", lo=0.0)
    beta = _as_number(data, "beta")
    root_index = _as_int(data, "rootIndex", lo=0)
    frame = data.get("frame", "H")
    if frame not in ("H", "h"):
        raise ConfigError("frame must be 'H' or 'h'")
    shift = _as_number(data, "shift") if "shift" in data else 0.0
    spec = quantization_eigenvalues(sector, n_hat, zeta, beta)
    if root_index >= len(spec.lambdas):
        raise ConfigError(
            f"rootIndex {root_index} out of range; spectrum has "
            f"{len(spec.lambdas)} roots")
    p = ModelParams.quantized(n_hat, zeta, beta)
    modes = eigenfunction_series(sector, n_hat, float(spec.lambdas[root_index]),
                                 p, frame=frame, shift=shift,
                                 order=args.truncation)
    grid = QuadratureGrid(n_nodes=args.quadrature)
    samples = modes_to_grid(modes, grid)
    lines = ["theta,re,im"]
    for theta, val in zip(grid.nodes, samples):
        lines.append(f"{float(theta)!r},{float(val.real)!r},{float(val.imag)!r}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_observables(args):
    data = _load_config(
        args,
        required=("zeta", "beta", "lambda"),
        optional=("times", "tolerance"))
    zeta = _as_number(data, "zeta")
    beta = _as_number(data, "beta")
    lam = _expression(data, "lambda")
    times = _number_list(data, "times", (0.0, 0.5, 1.0))
    tol = _as_number(data, "tolerance", lo=0.0) if "tolerance" in data else 1e-8
    system = ThreeLevelSystem(ModelParams.quantized(2, zeta, beta), lam)
    grid = QuadratureGrid(n_nodes=args.quadrature)
    states = ("plus", "minus", "zero")
    rows = []
    worst = 0.0
    for t in times:
        closed = system.closed_form_expectations(t)
        for state in states:
            samples = system.wavefunction(state, t, grid)
            measured = {op: float(expectation(op, samples, grid))
                        for op in ("u", "v", "J")}
            dev = float(max(abs(measured[op] - closed[state][op])
                            for op in ("u", "v", "J")))
            worst = max(worst, dev)
            rows.append({
                "time": t,
                "state": state,
                "u": measured["u"],
                "v": measured["v"],
                "J": measured["J"],
                "closedFormDeviation": dev,
            })
    payload = {
        "zeta": zeta,
        "beta": beta,
        "gamma": float(system.gamma),
        "energies": {k: float(v) for k, v in system.energies().items()},
        "rows": rows,
        "maxClosedFormDeviation": float(worst),
    }
    _emit_json(args, payload)
    return EXIT_OK if worst <= tol else EXIT_FAILED


def cmd_verify(args):
    optional = ("checks",)
    data = {}
    if args.input:
        data = _load_config(args, required=(), optional=optional)
    names = None
    if "checks" in data:
        names = data["checks"]
        if (not isinstance(names, list)
                or not all(isinstance(n, str) for n in names)):
            raise ConfigError("checks must be a list of check names")
        unknown = set(names) - set(all_check_names())
        if unknown:
            raise ConfigError(f"unknown check names: {sorted(unknown)}")
    results = run_all(names)
    payload = {
        "checks": [r.to_json_dict() for r in results],
        "allPassed": all(r.passed for r in results),
    }
    _emit_json(args, payload)
    return EXIT_OK if payload["allPassed"] else EXIT_FAILED


def cmd_double_scaling(args):
    data = _load_config(args, required=("g", "beta", "zetas"),
                        optional=("kLow",))
    g = _as_number(data, "g", lo=0.0)
    beta = _as_number(data, "beta")
    zetas = _number_list(data, "zetas")
    k_low = _as_int(data, "kLow", lo=1) if "kLow" in data else 4
    rows = double_scaling_compare(g, zetas, beta,
                                  order=args.truncation, k_low=k_low)
    devs = [float(r["deviation"].max()) for r in rows]
    payload = {
        "g": g,
        "beta": beta,
        "kLow": k_low,
        "limit": [float(x) for x in rows[0]["limit"]],
        "rows": [{
            "zeta": r["zeta"],
            "eigenvalues": [float(x) for x in r["eigs"]],
            "deviations": [float(x) for x in r["deviation"]],
        } for r in rows],
        "monotone": all(devs[i] > devs[i + 1] for i in range(len(devs) - 1)),
    }
    _emit_json(args, payload)
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "solve-dyson": cmd_solve_dyson,
    "spectrum": cmd_spectrum,
    "wavefunctions": cmd_wavefunctions,
    "observables": cmd_observables,
    "verify": cmd_verify,
    "double-scaling": cmd_double_scaling,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="e2qes",
        description="Frame maps, quasi-exact spectra and observables "
                    "for periodic mode-coupling models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSON configuration file")
        p.add_argument("--output", help="destination path (default: stdout)")
        p.add_argument("--truncation", type=int, default=64,
                       help="mode cutoff for dense operators (default 64)")
        p.add_argument("--quadrature", type=int, default=2048,
                       help="grid nodes for sampled states (default 2048)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.truncation < 2:
            raise ConfigError("--truncation must be >= 2")
        if args.quadrature < 8:
            raise ConfigError("--quadrature must be >= 8")
        return _COMMANDS[args.command](args)
    except (ConfigError, ExpressionError) as exc:
        error, code = exc, EXIT_CONFIG
    except PreconditionError as exc:
        error, code = exc, EXIT_PRECONDITION
    except ResidualCheckError as exc:
        error, code = exc, EXIT_FAILED
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
