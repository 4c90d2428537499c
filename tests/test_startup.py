"""What a fresh process loads: each subcommand imports only the layers it
runs, and the package pins one OpenBLAS thread unless told otherwise."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import e2qes

REPO = pathlib.Path(__file__).resolve().parents[1]
HEAVY = ("sympy", "scipy.linalg", "scipy.special")

# the heavy modules loaded after `import e2qes`, or after cli.main when
# given a command line
PROBE = f"""
import json, sys
import e2qes
code = 0
if sys.argv[1:]:
    from e2qes import cli
    code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def _python(code, *args, env=None):
    env = dict(os.environ if env is None else env)
    src = str(pathlib.Path(e2qes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


# (subcommand or None for the bare import, its shipped config, heavy modules)
CASES = [
    (None, None, []),
    ("classify", "hh_model", ["sympy"]),
    ("solve-dyson", "solve_dyson_pt2", ["sympy"]),
    ("spectrum", "spectrum_cos2", ["scipy.linalg"]),
    ("wavefunctions", "wavefunction_cos2", ["scipy.linalg", "scipy.special"]),
    ("observables", "observables_three_level", ["sympy", "scipy.special"]),
]


@pytest.mark.parametrize("command, config, loaded", CASES,
                         ids=[command or "import" for command, _, _ in CASES])
def test_subcommand_loads_only_what_it_runs(command, config, loaded, tmp_path):
    args = [] if command is None else [
        command, "--input", str(REPO / "configs" / f"{config}.json"),
        "--output", str(tmp_path / "out")]
    code, heavy = json.loads(_python(PROBE, *args))
    assert code == 0
    assert heavy == loaded


def test_any_verify_subset_loads_every_heavy_module():
    code = ("import json, sys\nfrom e2qes import verify\n"
            "verify.run_all(['commutator_identities'])\n"
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    assert json.loads(_python(code)) == list(HEAVY)


def test_import_pins_one_blas_thread():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = "import os, e2qes; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, env=env).strip() == "1"


def test_preset_blas_threads_survive_import():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    code = "import os, e2qes; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, env=env).strip() == "2"
