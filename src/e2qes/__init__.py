"""Frame maps, quasi-exact spectra and observables for periodic
mode-coupling models on the circle.

The package factors pseudo-Hermitian operators built from the circle
generators (mode number J and the two quadratures u, v) into Hermitian
form with exponential frame maps, solves the five admissible symmetry
classes, carries a terminating-series engine for quasi-exact spectra,
and provides grid-based observables plus a deterministic verification
battery.

Each public name loads its module on first use (PEP 562), so
``import e2qes`` loads neither sympy nor scipy.
"""

import importlib
import os

# OpenBLAS reads this once, when numpy first loads.  The dense operators
# here are small (129 x 129 at the default truncation), where more threads
# cost more than they save; a value already set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {name: module for module, names in {
    "algebra": "build_generators commutator interior_norm",
    "dyson": "DysonParams adjoint_closed_form dyson_params eta_inverse eta_matrix "
             "sample_compliant_inputs solve_dyson tdde_residual",
    "errors": "ExpressionError PreconditionError ResidualCheckError",
    "invariants": "invariant_residuals",
    "model": "CoefficientSet ModelParams PtClass classify_pt closed_form_counterpart "
             "hermiticity_defect model_hamiltonian realize",
    "observables": "QuadratureGrid ThreeLevelSystem double_scaling_compare expectation "
                   "modes_to_grid tdse_residual",
    "qes": "closed_form_eigenvalues eigenfunction_series factorization_residual "
           "quantization_eigenvalues recurrence_polynomials",
    "timefunc": "TimeFunction",
    "verify": "all_check_names run_all",
}.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
