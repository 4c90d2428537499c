"""e2qes benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload qes_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced decks of operations and
prints the per-layer metrics and the tracing overhead instead.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary goes to stderr and the
full run record to ``.bench_build/perfbench/records/``.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("cli_configs", "dyson_solve", "qes_sweep")
MIN_OPS = 26          # samples per run, so the tail sample lies above the median
MIN_OPS_TRACED = 11   # traced and untraced samples each, in a traced run
SETUP_REPEATS = 5     # fresh set-up processes timed per run
HARD_LIMIT_S = 120.0  # measuring stops here whatever the counts

CHECK_NAMES = ("commutator_identities", "adjoint_closed_forms",
               "model_frame_equation", "class_solutions", "recurrence_tables",
               "spectra_closed_forms", "factorization_identity",
               "invariant_relations", "three_level_family", "energy_identities",
               "double_scaling_limit")
# per-layer metric -> span names whose self time (or calls) it sums
LAYER_TIMES = {
    "cli.command_s": "cli.cmd_",
    "timefunc.parse_s": "timefunc.parse_text",
    "timefunc.compile_s": "timefunc.compile",
    "timefunc.serialize_s": "timefunc.serialize",
    "model.classify_s": "model.classify_pt",
    "model.realize_s": "model.realize",
    "model.is_hermitian_s": "model.is_hermitian",
    "dyson.solve_s": "dyson.solve_dyson",
    "dyson.conjugate_s": ("dyson.conjugate_coefficients", "dyson.frame"),
    "dyson.expand_s": "dyson.expand",
    "dyson.tdde_residual_s": "dyson.tdde_residual",
    "dyson.eta_s": ("dyson.eta_matrix", "dyson.eta_inverse"),
    "algebra.interior_norm_s": "algebra.interior_norm",
    "qes.eigenvalues_s": "qes.quantization_eigenvalues",
    "qes.eigenfunction_s": "qes.eigenfunction_series",
    "qes.recurrence_s": ("qes.recurrence_polynomials", "qes.recurrence_polynomial"),
    "special.bessel_s": ("special.bessel_i", "special.bessel_i_array"),
    "observables.modes_to_grid_s": "observables.modes_to_grid",
    "observables.expectation_s": "observables.expectation",
    "observables.double_scaling_s": "observables.double_scaling_compare",
    "observables.tdse_residual_s": "observables.tdse_residual",
    "invariants.commutation_residual_s": "invariants.commutation_residual",
    "invariants.defining_residual_s": "invariants.defining_residual",
    "invariants.similarity_residual_s": "invariants.similarity_residual",
}
# a check's own code is glue around other layers, so verify.<check>_s is
# the check's whole span rather than its self time
CHECK_TIMES = {f"verify.{c}_s": f"verify.{c}" for c in CHECK_NAMES}
LAYER_CALLS = {
    "timefunc.compile_calls": "timefunc.compile",
    "timefunc.eval_calls": "timefunc.call",
    "model.realize_calls": "model.realize",
    "algebra.interior_norm_calls": "algebra.interior_norm",
    "special.bessel_calls": ("special.bessel_i", "special.bessel_i_array"),
}
# per-layer failure shares: metric -> cause prefix
LAYER_CAUSES = {"cli.nonzero_exits": "cli.exit", "dyson.errors": "dyson.error",
                "qes.errors": "qes.error", "qes.wrong": "qes.wrong"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: do only the set-up, for timing it")
    return ap.parse_args(argv)


def package_env():
    if not os.path.isfile(os.path.join(SRC, "e2qes", "__init__.py")):
        sys.exit("perfbench: package source src/e2qes not found under "
                 f"{ROOT}; run from a checkout of the repository")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def import_package():
    sys.path.insert(0, SRC)
    import e2qes
    if not os.path.abspath(e2qes.__file__).startswith(SRC):
        sys.exit(f"perfbench: imported e2qes from {e2qes.__file__}, not {SRC}")
    return e2qes


def make_workload(name, env, workdir):
    import workloads as W

    if name == "cli_configs":
        return W.CliConfigs(env, workdir)
    e2qes = import_package()
    cls = {"dyson_solve": W.DysonSolve, "qes_sweep": W.QesSweep}[name]
    return cls(e2qes)


def setup_probe(args, env):
    """What a run does before its first timed operation."""
    import inputs

    workdir = os.path.join(WORK, "probe", args.workload)
    os.makedirs(workdir, exist_ok=True)
    if args.workload != "cli_configs":
        import_package()
    inputs.make(args.workload, args.seed, workdir)


def time_setup(args, env):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def inputs_digest(items):
    blob = json.dumps(items, sort_keys=True, default=str)
    blob = blob.replace(ROOT, "<root>")
    return hashlib.sha256(blob.encode()).hexdigest()


def failure_layer(exc):
    """Layer of the innermost package frame an exception passed through."""
    import workloads as W

    if isinstance(exc, W.CliExit):
        return f"cli.exit:{exc.code}"
    layer = "bench"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = os.path.abspath(frame.filename)
        if path.startswith(os.path.join(SRC, "e2qes")):
            layer = os.path.splitext(os.path.basename(path))[0]
    return f"{layer}.error:{type(exc).__name__}"


class Run:
    """Timed operations of a run and their verdicts."""

    def __init__(self):
        self.durations = []
        self.labels = []      # per op: plain, warmup, traced or untraced
        self.causes = []      # per op: None or a failure cause
        self.messages = []
        self.measures = {}    # oracle measure name -> max over the run
        self.first_ok = {}    # kind -> (item, output), for the controls

    def times(self, label):
        return [d for d, l in zip(self.durations, self.labels) if l == label]


def deck_label(k, switch, warmup):
    """Untraced and traced decks alternate U T T U U T T U ... after warm-up."""
    if switch is None:
        return "plain"
    if k < warmup:
        return "warmup"
    return "traced" if (k - warmup) % 4 in (1, 2) else "untraced"


def measure(wl, items, seed, seconds, min_ops, switch=None):
    """Closed loop, one operation in flight, whole decks until time is up.

    Each deck is the next slice of the input pool in a seeded order.  In
    a traced run ``switch(on)`` turns tracing on or off before each deck;
    in-process workloads first run one warm-up deck, so that traced and
    untraced decks see equally warm caches.
    """
    rng = np.random.default_rng([seed, 7])
    size = wl.deck_size() or len(items)
    warmup = 1 if switch is not None and wl.in_process else 0
    run = Run()
    start = time.perf_counter()
    deck = 0
    while True:
        label = deck_label(deck, switch, warmup)
        if switch is not None:
            switch(label == "traced")
        lo = (deck * size) % len(items)
        for idx in rng.permutation(size):
            item = items[lo + idx]
            run.labels.append(label)
            t0 = time.perf_counter()
            try:
                output = wl.run(item)
            except Exception as exc:  # an operation failure, counted below
                run.durations.append(time.perf_counter() - t0)
                run.causes.append(failure_layer(exc))
                run.messages.append(str(exc)[:200])
                continue
            run.durations.append(time.perf_counter() - t0)
            try:
                cause, values = wl.judge(item, output)
            except Exception as exc:  # the oracle could not read the output
                cause, values = f"oracle.error:{type(exc).__name__}", {}
            run.causes.append(cause)
            run.messages.append("")
            for k, v in values.items():
                run.measures[k] = max(run.measures.get(k, 0.0), v)
            kind = item.get("command") or item.get("class") or "qes"
            if cause is None and kind not in run.first_ok:
                run.first_ok[kind] = (item, output)
        deck += 1
        elapsed = time.perf_counter() - start
        counts = ([len(run.durations)] if switch is None else
                  [len(run.times("traced")), len(run.times("untraced"))])
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and min(counts) >= min_ops):
            if switch is not None:
                switch(False)
            return run


def run_controls(wl, run):
    """Each oracle must reject a corrupted result (README: negative controls)."""
    import oracles as O
    import workloads as W

    out = {f"synthetic.{k}": v for k, v in O.negative_controls().items()}
    for kind, (item, output) in sorted(run.first_ok.items()):
        for i, bad in enumerate(W.corrupt(wl.name, item, output)):
            cause, _ = wl.judge(item, bad)
            out[f"{wl.name}.{kind}.{i}"] = cause is not None
    return out


def tail(durations):
    """Sample with exactly ten beyond it, and its percentile."""
    s = sorted(durations)
    n = len(s)
    if n < 11:
        return None, None
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(run, setup_times, rss_mb):
    value, _ = tail(run.durations)
    n = len(run.durations)
    bad = sum(1 for c in run.causes if c is not None)
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(run.durations),
        "op_tail_s": value,
        "ops_per_s": n / sum(run.durations),
        "ok_frac": (n - bad) / n,
        "peak_rss_mb": rss_mb,
    }


def _sum(table, names):
    if isinstance(names, str):
        names = (names,)
    return sum(v for k, v in table.items()
               if any(k == n or (n.endswith("_") and k.startswith(n)) for n in names))


def per_layer(summary, n_ops, imports, cache, run, overhead):
    m = {}
    for key in ("e2qes", "sympy", "scipy"):
        m[f"import.{key}_s"] = statistics.median(i[key] for i in imports)
    for metric, names in LAYER_TIMES.items():
        m[metric] = _sum(summary["self_s"], names) / n_ops
    for metric, names in CHECK_TIMES.items():
        m[metric] = _sum(summary["total_s"], names) / n_ops
    for metric, names in LAYER_CALLS.items():
        m[metric] = _sum(summary["calls"], names) / n_ops
    evals = m["timefunc.eval_calls"]
    m["timefunc.compiles_per_eval"] = m["timefunc.compile_calls"] / evals if evals else 0.0
    hits, misses = cache
    m["algebra.generators_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for metric, prefix in LAYER_CAUSES.items():
        m[metric] = sum(1 for c in run.causes if c and c.startswith(prefix)) / len(run.causes)
    m["qes.eigenvalue_rel_err_max"] = run.measures.get("qes.eigenvalue_rel_err", 0.0)
    m["qes.eigenfunction_residual_max"] = run.measures.get("qes.eigenfunction_residual", 0.0)
    m["trace.overhead_frac"] = overhead
    return m


def import_probes(env):
    out = []
    path = os.path.join(WORK, "imports.json")
    for _ in range(SETUP_REPEATS):
        subprocess.run([sys.executable, os.path.join(HERE, "runner.py"), path],
                       env=env, check=True)
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh)["imports"])
    return out


class InProcessTracing:
    """Wrappers installed for traced decks and removed for untraced ones."""

    def __init__(self, env):
        import spans as S

        self.env = env
        self.tracer = S.Tracer()
        self.inst = S.Instrumentation(self.tracer)
        self.cache = [0, 0]
        self.before = None

    def __call__(self, on):
        if on and self.before is None:
            self.inst.install()
            self.before = self.inst.generators.cache_info()
        elif not on and self.before is not None:
            after = self.inst.generators.cache_info()
            self.cache[0] += after.hits - self.before.hits
            self.cache[1] += after.misses - self.before.misses
            self.inst.restore()
            self.before = None

    def results(self):
        import spans as S

        return S.summarize(self.tracer.spans), import_probes(self.env), self.cache


class CliTracing:
    """Traced decks run each CLI call through runner.py, which records spans."""

    def __init__(self, wl, workdir):
        self.wl = wl
        self.path = os.path.join(workdir, "spans.json")
        self.runner = [sys.executable, os.path.join(HERE, "runner.py"), self.path]
        self.summary = {"self_s": {}, "total_s": {}, "calls": {}, "errors": {}}
        self.imports = []
        self.cache = [0, 0]
        self.plain_run = wl.run
        wl.run = self.run

    def __call__(self, on):
        self.wl.runner = self.runner if on else None

    def run(self, item):
        import spans as S

        if os.path.exists(self.path):
            os.remove(self.path)
        try:
            return self.plain_run(item)
        finally:
            if self.wl.runner and os.path.exists(self.path):
                with open(self.path, encoding="utf-8") as fh:
                    rec = json.load(fh)
                S.merge(self.summary, S.summarize(rec["spans"]))
                self.imports.append(rec["imports"])
                self.cache[0] += rec["cache"][0]
                self.cache[1] += rec["cache"][1]

    def results(self):
        return self.summary, self.imports, self.cache


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(args, digest, n_items):
    import mpmath
    import scipy
    import sympy

    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": digest, "inputs": n_items,
        "src_lines": lines, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    env = package_env()
    sys.path.insert(0, HERE)
    import inputs

    if args.setup_probe:
        setup_probe(args, env)
        return 0
    import workloads as W

    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)
    setup_times = time_setup(args, env)
    wl = make_workload(args.workload, env, workdir)
    items = inputs.make(args.workload, args.seed, workdir)
    digest = inputs_digest(items)

    if args.trace == 0:
        run = measure(wl, items, args.seed, args.seconds, MIN_OPS)
        rss = (max(wl.rss_mb) if not wl.in_process
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = end_to_end(run, setup_times, rss)
    else:
        tracing = InProcessTracing(env) if wl.in_process else CliTracing(wl, workdir)
        run = measure(wl, items, args.seed, args.seconds, MIN_OPS_TRACED, tracing)
        summary, imports, cache = tracing.results()
        overhead = (statistics.median(run.times("traced"))
                    / statistics.median(run.times("untraced")) - 1.0)
        metrics = per_layer(summary, len(run.times("traced")), imports, cache,
                            run, overhead)
    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    controls = run_controls(wl, run)

    causes = {}
    unexpected = 0
    for cause, message in zip(run.causes, run.messages):
        if cause is None:
            continue
        known = W.registered(cause, message)
        label = cause + ("" if known else " (unregistered)")
        causes[label] = causes.get(label, 0) + 1
        unexpected += 0 if known else 1
    attempted = len(run.durations)
    correct = unexpected == 0 and all(controls.values())
    _, pct = tail(run.durations)
    record = {
        "meta": metadata(args, digest, len(items)),
        "setup_times_s": setup_times,
        "ops": {l: run.labels.count(l) for l in sorted(set(run.labels))},
        "tail_percentile": pct,
        "failure_causes": causes,
        "negative_controls": controls,
        "metrics": metrics,
        "op_time_quartiles_s": statistics.quantiles(run.durations, n=4),
    }
    if args.trace:
        record["span_summary"] = summary
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    path = os.path.join(WORK, "records",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    tail_note = f" tail=p{pct:.1f}" if pct and not args.trace else ""
    print(f"perfbench {args.workload} seed={args.seed} ops={record['ops']}{tail_note}",
          file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(f"  failures by cause: {causes or 'none'}", file=sys.stderr)
    print(f"  negative controls rejected: {controls}", file=sys.stderr)
    print(f"  record: {path}", file=sys.stderr)

    out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": unexpected, "metrics": out_metrics}))
    return 0


def metric_units(trace):
    """Metric names and units, in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
