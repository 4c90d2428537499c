"""Frame maps, quasi-exact spectra and observables for periodic
mode-coupling models on the circle.

The package factors pseudo-Hermitian operators built from the circle
generators (mode number J and the two quadratures u, v) into Hermitian
form with exponential frame maps, solves the five admissible symmetry
classes, carries a terminating-series engine for quasi-exact spectra,
and provides grid-based observables plus a deterministic verification
battery.
"""

from .algebra import build_generators, commutator, interior_norm
from .dyson import (DysonParams, DysonSolution, ResidualCheckError,
                    adjoint_closed_form, conjugate_coefficients, dyson_params,
                    eta_inverse, eta_matrix, sample_compliant_inputs,
                    solve_dyson, tdde_residual)
from .invariants import (InvariantSpec, commutation_residual,
                         defining_residual, invariant_rotating,
                         invariant_static, similarity_residual)
from .model import (CoefficientSet, ModelParams, PreconditionError, PtClass,
                    classify_pt, closed_form_counterpart, is_hermitian,
                    model_hamiltonian, realize)
from .observables import (QuadratureGrid, ThreeLevelSystem,
                          apply_coefficients, double_scaling_compare,
                          expectation, modes_to_grid, tdse_residual)
from .qes import (QesSpectrum, closed_form_eigenvalues, eigenfunction_series,
                  factorization_residual, quantization_eigenvalues,
                  recurrence_polynomials)
from .timefunc import ExpressionError, TimeFunction
from .verify import CheckResult, all_check_names, run_all

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CoefficientSet",
    "DysonParams",
    "DysonSolution",
    "ExpressionError",
    "InvariantSpec",
    "ModelParams",
    "PreconditionError",
    "PtClass",
    "QesSpectrum",
    "QuadratureGrid",
    "ResidualCheckError",
    "ThreeLevelSystem",
    "TimeFunction",
    "adjoint_closed_form",
    "all_check_names",
    "apply_coefficients",
    "build_generators",
    "classify_pt",
    "closed_form_counterpart",
    "closed_form_eigenvalues",
    "commutation_residual",
    "commutator",
    "conjugate_coefficients",
    "defining_residual",
    "double_scaling_compare",
    "dyson_params",
    "eigenfunction_series",
    "eta_inverse",
    "eta_matrix",
    "expectation",
    "factorization_residual",
    "interior_norm",
    "invariant_rotating",
    "invariant_static",
    "is_hermitian",
    "model_hamiltonian",
    "modes_to_grid",
    "quantization_eigenvalues",
    "realize",
    "recurrence_polynomials",
    "run_all",
    "sample_compliant_inputs",
    "similarity_residual",
    "solve_dyson",
    "tdde_residual",
    "tdse_residual",
]
