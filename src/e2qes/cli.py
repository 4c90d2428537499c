"""Command-line front end.

Subcommands: classify, solve-dyson, spectrum, wavefunctions, observables,
verify, double-scaling.  Configuration comes from a JSON file (--input);
results go to --output or stdout.  Writes are atomic (temp file plus
rename), JSON uses two-space indentation, CSV uses comma-separated
columns with a header row and LF line endings.  A subcommand takes only
the size flags (--truncation, --quadrature) it reads; see COMMANDS.

Exit codes: 0 success, 1 residual or verification failure, 2 config or
parse error, 3 precondition violation (including arithmetic errors while
evaluating an expression: overflow, a complex or a non-finite value).

Each subcommand imports the layers it runs, so a call loads sympy only
where it builds a time function, and scipy only where it runs an
eigensolve or a Bessel function; the modules imported here need numpy
alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import partial

from .errors import ExpressionError, PreconditionError, ResidualCheckError
from .model import DEFAULT_PROBE_TIMES, CoefficientSet, PtClass
from .qes import SECTORS
from .verify import all_check_names

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


def _number(key, val, lo=None):
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not -sys.float_info.max <= val <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number")
    if lo is not None and val < lo:
        raise ConfigError(f"{key} must be >= {lo}")
    return float(val)


def _integer(key, val, lo, hi=None):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key} must be an integer")
    if val < lo:
        raise ConfigError(f"{key} must be >= {lo}")
    if hi is not None and val > hi:
        raise ConfigError(f"{key} must be <= {hi}")
    return val


def _choice(key, val, options):
    if val not in options:
        raise ConfigError(f"{key} must be one of {options}")
    return val


def _list(key, val, item):
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{key} must be a non-empty list")
    return tuple(item(f"{key}[{i}]", x) for i, x in enumerate(val))


def _expression(key, val):
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise ConfigError(f"{key} must be an expression string or number")
    from .timefunc import TimeFunction

    try:
        return TimeFunction.parse(str(val))
    except ExpressionError as exc:
        raise ConfigError(f"bad {key} expression: {exc}") from exc


def _coefficients(key, val):
    try:
        return CoefficientSet.from_json_dict(val)
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


# A config schema maps JSON key -> (reader, default).  A reader takes
# (key, value) and returns the parsed value or raises ConfigError naming
# the key; REQUIRED keys have no default.
REQUIRED = object()
_NONNEGATIVE = partial(_number, lo=0.0)
_NUMBERS = partial(_list, item=_number)
# the eigensolve grows as nHat^2 (nHat = 10,000 takes about 1 s on a
# 2-vCPU x86-64 VM), and nHat near 1e9 would ask numpy for gigabytes
_SPECTRUM = {"sector": (partial(_choice, options=SECTORS), REQUIRED),
             "nHat": (partial(_integer, lo=1, hi=10_000), REQUIRED),
             "zeta": (_NONNEGATIVE, REQUIRED), "beta": (_number, REQUIRED)}


def _config(args, schema):
    """Read --input against the subcommand's schema and fill in defaults."""
    data = {}
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.input}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON in {args.input}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("top-level configuration must be a JSON object")
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    missing = sorted(k for k, (_, default) in schema.items()
                     if default is REQUIRED and k not in data)
    if missing:
        raise ConfigError(f"missing configuration keys: {missing}" if args.input
                          else "--input is required for this command")
    defaults = {key: default for key, (_, default) in schema.items()}
    return dict(defaults, **{key: schema[key][0](key, val) for key, val in data.items()})


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args, cfg):
    from .model import classify_pt

    classes = classify_pt(cfg["coefficients"], sample_times=cfg["sampleTimes"])
    _emit_json(args, sorted(c.value for c in classes))
    return EXIT_OK


def cmd_solve_dyson(args, cfg):
    from .dyson import solve_dyson

    sol = solve_dyson(PtClass(cfg["class"]), cfg["coefficients"],
                      lam=cfg["lambda"], tau=cfg["tau"],
                      probe_times=cfg["probeTimes"], order=args.truncation)
    payload = {
        "class": cfg["class"],
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


def cmd_spectrum(args, cfg):
    from .qes import quantization_eigenvalues

    spec = quantization_eigenvalues(cfg["sector"], cfg["nHat"], cfg["zeta"],
                                    cfg["beta"])
    _emit_json(args, spec.to_json_dict())
    return EXIT_OK


def cmd_wavefunctions(args, cfg):
    from .model import ModelParams
    from .observables import QuadratureGrid, modes_to_grid
    from .qes import eigenfunction_series, quantization_eigenvalues

    n_hat, zeta, beta, root_index = cfg["nHat"], cfg["zeta"], cfg["beta"], cfg["rootIndex"]
    spec = quantization_eigenvalues(cfg["sector"], n_hat, zeta, beta)
    if root_index >= len(spec.lambdas):
        raise ConfigError(
            f"rootIndex {root_index} out of range; spectrum has "
            f"{len(spec.lambdas)} roots")
    p = ModelParams.quantized(n_hat, zeta, beta)
    modes = eigenfunction_series(cfg["sector"], n_hat, float(spec.lambdas[root_index]), p,
                                 frame=cfg["frame"], shift=cfg["shift"])
    grid = QuadratureGrid(n_nodes=args.quadrature)
    samples = modes_to_grid(modes, grid)
    lines = ["theta,re,im"]
    for theta, val in zip(grid.nodes, samples):
        lines.append(f"{float(theta)!r},{float(val.real)!r},{float(val.imag)!r}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_observables(args, cfg):
    from .observables import OP_NAMES, QuadratureGrid, ThreeLevelSystem, expectation

    system = ThreeLevelSystem.from_couplings(cfg["zeta"], cfg["beta"], cfg["lambda"])
    grid = QuadratureGrid(n_nodes=args.quadrature)
    rows = []
    worst = 0.0
    for t in cfg["times"]:
        closed = system.closed_form_expectations(t)
        for state, samples in system.states(t, grid).items():
            measured = {op: float(expectation(op, samples, grid)) for op in OP_NAMES}
            dev = float(max(abs(measured[op] - closed[state][op]) for op in OP_NAMES))
            worst = max(worst, dev)
            rows.append({"time": t, "state": state, **measured,
                         "closedFormDeviation": dev})
    payload = {
        "zeta": cfg["zeta"],
        "beta": cfg["beta"],
        "gamma": float(system.gamma),
        "energies": {k: float(v) for k, v in system.energies().items()},
        "rows": rows,
        "maxClosedFormDeviation": float(worst),
    }
    _emit_json(args, payload)
    return EXIT_OK if worst <= 1e-8 else EXIT_FAILED


def cmd_verify(args, cfg):
    from .verify import run_all

    results = run_all(cfg["checks"])
    payload = {
        "checks": [{"name": name, **r.to_json_dict()} for name, r in results],
        "allPassed": all(r.passed for _, r in results),
    }
    _emit_json(args, payload)
    return EXIT_OK if payload["allPassed"] else EXIT_FAILED


def cmd_double_scaling(args, cfg):
    from .observables import double_scaling_compare

    rows = double_scaling_compare(cfg["g"], cfg["zetas"], cfg["beta"], k_low=cfg["kLow"])
    devs = [float(r["deviation"].max()) for r in rows]
    payload = {
        "g": cfg["g"],
        "beta": cfg["beta"],
        "kLow": cfg["kLow"],
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


# Size flags: name -> (default, lo, hi, help).  Dense operators are
# (2n+1)^2 and their cost grows as n^3: at truncation 512, solve-dyson
# takes about 27 s and 0.4 GB on a 2-vCPU x86-64 VM.  wavefunctions derives
# its cutoff (at most 512) and peaks at 0.6 GB there with 16,384 nodes.
_SIZES = {
    "truncation": (64, 2, 512, "mode cutoff for dense operators (default 64)"),
    "quadrature": (2048, 8, 16_384, "grid nodes for sampled states (default 2048)"),
}

# One row per subcommand: (runner, config schema, size flags it reads).
COMMANDS = {
    "classify": (cmd_classify, {"coefficients": (_coefficients, REQUIRED),
                                "sampleTimes": (_NUMBERS, DEFAULT_PROBE_TIMES)}, ()),
    "solve-dyson": (cmd_solve_dyson, {
        "class": (partial(_choice, options=tuple(c.value for c in PtClass)), REQUIRED),
        "coefficients": (_coefficients, REQUIRED),
        "lambda": (_expression, None), "tau": (_expression, None),
        "probeTimes": (_NUMBERS, DEFAULT_PROBE_TIMES)}, ("truncation",)),
    "spectrum": (cmd_spectrum, _SPECTRUM, ()),
    "wavefunctions": (cmd_wavefunctions, dict(
        _SPECTRUM, rootIndex=(partial(_integer, lo=0), REQUIRED),
        frame=(partial(_choice, options=("H", "h")), "H"),
        shift=(_number, 0.0)), ("quadrature",)),
    "observables": (cmd_observables, {
        "zeta": (_number, REQUIRED), "beta": (_number, REQUIRED),
        "lambda": (_expression, REQUIRED),
        "times": (_NUMBERS, (0.0, 0.5, 1.0))}, ("quadrature",)),
    "verify": (cmd_verify, {"checks": (partial(_list, item=partial(
        _choice, options=tuple(all_check_names()))), None)}, ()),
    "double-scaling": (cmd_double_scaling, {
        "g": (_NONNEGATIVE, REQUIRED), "beta": (_number, REQUIRED),
        "zetas": (_NUMBERS, REQUIRED),
        "kLow": (partial(_integer, lo=1), 4)}, ()),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, not a usage block."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="e2qes",
        description="Frame maps, quasi-exact spectra and observables "
                    "for periodic mode-coupling models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, sizes) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSON configuration file")
        p.add_argument("--output", help="destination path (default: stdout)")
        for flag in sizes:
            default, _, _, text = _SIZES[flag]
            p.add_argument(f"--{flag}", type=int, default=default, help=text)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        runner, schema, sizes = COMMANDS[args.command]
        for flag in sizes:
            _, lo, hi, _ = _SIZES[flag]
            _integer(f"--{flag}", getattr(args, flag), lo, hi)
        return runner(args, _config(args, schema))
    except (ConfigError, ExpressionError) as exc:
        error, code = exc, EXIT_CONFIG
    except (PreconditionError, ArithmeticError) as exc:
        error, code = exc, EXIT_PRECONDITION
    except ResidualCheckError as exc:
        error, code = exc, EXIT_FAILED
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
