import numpy as np
import pytest

from e2qes.algebra import build_generators, interior_norm
from e2qes.invariants import (InvariantSpec, commutation_residual, defining_residual,
                              invariant_rotating, invariant_static, similarity_residual)
from e2qes.model import ModelParams, model_hamiltonian, realize


@pytest.fixture
def spec():
    return InvariantSpec(ModelParams.quantized(2, 0.5, 0.3),
                         "0.3*t + 0.2*sin(2*t)", nu_vv=0.0)


def test_static_invariant_commutes(spec):
    assert commutation_residual(spec) <= 1e-12


def test_defining_relation(spec):
    assert defining_residual(spec, (0.0, 0.5, 1.4)) <= 1e-10


def test_similarity_two_paths(spec):
    assert similarity_residual(spec, (0.0, 0.5, 1.4)) <= 1e-10


def test_nonzero_casimir_weight_still_invariant():
    spec = InvariantSpec(ModelParams.quantized(2, 0.5, 0.3), "sin(t)",
                         nu_vv=1.3)
    assert commutation_residual(spec) <= 1e-12
    assert defining_residual(spec, (0.9,)) <= 1e-10
    assert similarity_residual(spec, (0.9,)) <= 1e-10


def test_analytic_derivative_against_finite_difference(spec):
    t, eps = 0.8, 1e-5
    I = invariant_rotating(spec)
    analytic = realize(I.derivative(), t, 32)
    numeric = (1.0 / (2.0 * eps)) * (realize(I, t + eps, 32) - realize(I, t - eps, 32))
    assert interior_norm(analytic - numeric, 4) <= 1e-6 * (
        1.0 + interior_norm(analytic, 4))


def test_invariant_shift_is_casimir_multiple(spec):
    I = realize(invariant_static(spec), 0.0, 16)
    H = realize(model_hamiltonian(spec.params), 0.0, 16)
    weight = spec.params.beta * spec.params.zeta ** 2
    diff = I - H
    _, u, v = build_generators(16)
    np.testing.assert_allclose(diff, weight * (u @ u + v @ v), atol=1e-15)
