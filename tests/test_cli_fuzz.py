"""Fuzz gate over every subcommand, with configs drawn from ``cli.COMMANDS``.

Each example writes one config and runs ``cli.main`` in process.  Whatever
the config, the run ends with a documented exit code and either a clean
result or one ``error:`` line, never a traceback.  A config with exactly
one planted fault (a bad value, a missing key, an unknown key) must be a
config error that names the key.  One more leg runs the solver on valid
sets of every class and feeds its output back to ``classify``.
"""

import io
import json
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e2qes import cli
from e2qes.dyson import sample_compliant_inputs
from e2qes.model import JSON_KEYS, PtClass
from test_timefunc import EXPRESSIONS

# integer draws (nHat, rootIndex, kLow) stay within the nHat range checked
# against the Sturm oracle; larger nHat measures allocation size, not validation
INT_MAX = 60
# verify runs only checks that take well under a second
LIGHT_CHECKS = ("commutator_identities", "recurrence_tables", "spectra_closed_forms",
                "factorization_identity", "energy_identities", "double_scaling_limit")
# truncations on both sides of the 4 edge modes the self-checks trim
TRUNCATIONS = st.sampled_from(["2", "3", "4", "5", "6", "7", "8", "16"])
# JSON values of the wrong type for every reader kind
JUNK = st.sampled_from([None, True, False, "junk", [], {}, [None], {"re": 0}])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(allow_nan=False, allow_infinity=False)

with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "hh_model.json"), encoding="utf-8") as _fh:
    MODEL_COEFFS = json.load(_fh)["coefficients"]


def _kind(reader):
    if isinstance(reader, partial):
        return reader.func, reader.keywords
    return reader, {}


def _numbers(lo=None):
    # moderate values reach the numerics; the full float range reaches overflow
    return st.one_of(st.floats(min_value=-4.0 if lo is None else lo, max_value=4.0),
                     st.floats(min_value=lo, allow_nan=False, allow_infinity=False),
                     st.integers(-10**6, 10**6).filter(lambda x: lo is None or x >= lo))


def _expressions():
    return st.one_of(EXPRESSIONS, _numbers())


def valid(reader):
    fn, kw = _kind(reader)
    if fn is cli._number:
        return _numbers(kw.get("lo"))
    if fn is cli._integer:
        return st.integers(kw["lo"], INT_MAX)
    if fn is cli._choice:
        return st.sampled_from(kw["options"])
    if fn is cli._list:
        return st.lists(valid(kw["item"]), min_size=1, max_size=4)
    if fn is cli._expression:
        return _expressions()
    assert fn is cli._coefficients, fn
    entry = st.fixed_dictionaries({"re": _expressions(), "im": _expressions()})
    return st.one_of(st.just(MODEL_COEFFS),
                     st.fixed_dictionaries({k: entry for k in JSON_KEYS}))


def invalid(reader):
    fn, kw = _kind(reader)
    if fn is cli._number:
        wrong = [NON_FINITE, st.text(max_size=3)]
        if kw.get("lo") is not None:
            wrong.append(st.floats(max_value=kw["lo"], exclude_max=True,
                                   allow_nan=False, allow_infinity=False))
    elif fn is cli._integer:
        wrong = [st.integers(max_value=kw["lo"] - 1), FINITE, NON_FINITE]
        if kw.get("hi") is not None:
            wrong.append(st.integers(min_value=kw["hi"] + 1))
    elif fn is cli._choice:
        wrong = [st.text(max_size=4).filter(lambda s: s not in kw["options"]), FINITE]
    elif fn is cli._list:
        item = kw["item"]
        wrong = [valid(item), st.lists(invalid(item), min_size=1, max_size=3),
                 st.tuples(valid(item), invalid(item)).map(list)]
    elif fn is cli._expression:
        wrong = [NON_FINITE, st.sampled_from(["log(t)", "x", "", "t +", "sqrt(t)", "1 < t"])]
    else:  # coefficients: a word missing, an unknown word, one bad part
        words = st.sampled_from(list(JSON_KEYS))
        bad_part = st.tuples(words, st.sampled_from(["re", "im"]),
                             st.one_of(JUNK, NON_FINITE, st.just("log(t)")))
        wrong = [FINITE,
                 words.map(lambda w: {k: v for k, v in MODEL_COEFFS.items() if k != w}),
                 st.just(dict(MODEL_COEFFS, muXX={"re": 0, "im": 0})),
                 bad_part.map(lambda p: dict(MODEL_COEFFS,
                                             **{p[0]: dict(MODEL_COEFFS[p[0]], **{p[1]: p[2]})}))]
    return st.one_of(JUNK, *wrong)


@st.composite
def configs(draw, sub):
    """(config, key of the planted fault or None)."""
    _, schema, _ = cli.COMMANDS[sub]
    cfg = {}
    for key, (reader, default) in schema.items():
        # an omitted checks list would run the whole battery
        if default is cli.REQUIRED or key == "checks" or draw(st.booleans()):
            cfg[key] = draw(valid(reader) if key != "checks"
                            else st.lists(st.sampled_from(LIGHT_CHECKS), min_size=1, max_size=3))
    fault = draw(st.sampled_from(["none", "value", "missing", "unknown"]))
    if fault == "value":
        key = draw(st.sampled_from(sorted(schema)))
        cfg[key] = draw(invalid(schema[key][0]))
    elif fault == "missing" and any(d is cli.REQUIRED for _, d in schema.values()):
        key = draw(st.sampled_from(sorted(k for k, (_, d) in schema.items()
                                          if d is cli.REQUIRED)))
        del cfg[key]
    elif fault == "unknown":
        key = draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
                   .filter(lambda k: k not in schema))
        cfg[key] = draw(st.one_of(JUNK, FINITE))
    else:
        key = None
    return cfg, key


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_output(sub, out):
    if sub == "wavefunctions":
        header, *rows = out.splitlines()
        assert header == "theta,re,im" and rows
        assert all(len(r.split(",")) == 3 and all(math.isfinite(float(x)) for x in r.split(","))
                   for r in rows)
    else:
        json.loads(out, parse_constant=_no_constants)


def _run_quietly(args):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(args)
    # a warning reaches stderr in a real run
    return code, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


@pytest.mark.parametrize("sub,examples", [
    ("classify", 40), ("solve-dyson", 40), ("spectrum", 100), ("wavefunctions", 60),
    ("observables", 50), ("verify", 20), ("double-scaling", 50)])
def test_cli_never_escapes(tmp_path, sub, examples):
    @settings(max_examples=examples)
    @given(drawn=configs(sub), truncation=TRUNCATIONS)
    def run(drawn, truncation):
        cfg, fault = drawn
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        sizes = {"truncation": truncation, "quadrature": "64"}
        code, out, lines = _run_quietly(
            [sub, "--input", str(path)]
            + [arg for flag in cli.COMMANDS[sub][2] for arg in (f"--{flag}", sizes[flag])])
        assert code in (0, 1, 2, 3)
        if lines or code in (2, 3):
            # a failed run prints one error line and no result
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert code != 0 and out == ""
        else:
            _check_output(sub, out)
        if fault is not None:
            assert code == 2 and fault in lines[0]

    run()


def test_solver_output_feeds_classify(tmp_path):
    # the leg above rarely gets past config and class checks; this one
    # reaches the frame map and the dense self-checks on every example
    @settings(max_examples=10)
    @given(cls=st.sampled_from(list(PtClass)), seed=st.integers(0, 2**32 - 1))
    def run(cls, seed):
        coeffs, kwargs = sample_compliant_inputs(cls, np.random.default_rng(seed))
        cfg = {"class": cls.value, "coefficients": coeffs.to_json_dict(),
               **{key: kwargs[k].serialize() for key, k in (("lambda", "lam"), ("tau", "tau"))
                  if k in kwargs}}
        path = tmp_path / "solve.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, lines = _run_quietly(["solve-dyson", "--input", str(path),
                                         "--truncation", "16"])
        assert (code, lines) == (0, [])
        h = json.loads(out, parse_constant=_no_constants)["hCoefficients"]
        path.write_text(json.dumps({"coefficients": h}), encoding="utf-8")
        code, out, lines = _run_quietly(["classify", "--input", str(path)])
        assert (code, lines) == (0, [])
        assert isinstance(json.loads(out), list)

    run()
