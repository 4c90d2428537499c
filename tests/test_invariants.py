import numpy as np
import pytest

from e2qes import invariants
from e2qes.algebra import build_generators, interior_norm
from e2qes.invariants import _invariants, invariant_residuals
from e2qes.model import CoefficientSet, ModelParams, model_hamiltonian, realize

P = ModelParams.quantized(2, 0.5, 0.3)
LAM = "0.3*t + 0.2*sin(2*t)"


def test_static_invariant_commutes():
    assert invariant_residuals(P, LAM, 0.0, ())[0] <= 1e-12


def test_defining_relation():
    assert invariant_residuals(P, LAM, 0.0, (0.0, 0.5, 1.4))[1] <= 1e-10


def test_similarity_two_paths():
    assert invariant_residuals(P, LAM, 0.0, (0.0, 0.5, 1.4))[2] <= 1e-10


def test_nonzero_casimir_weight_still_invariant():
    commutation, defining, two_path = invariant_residuals(P, "sin(t)", 1.3, (0.9,))
    assert commutation <= 1e-12
    assert defining <= 1e-10
    assert two_path <= 1e-10


def test_analytic_derivative_against_finite_difference():
    t, eps = 0.8, 1e-5
    I = _invariants(P, LAM, 0.0)[2]
    analytic = realize(I.derivative(), t, 32)
    numeric = (1.0 / (2.0 * eps)) * (realize(I, t + eps, 32) - realize(I, t - eps, 32))
    assert interior_norm(analytic - numeric, 4) <= 1e-6 * (
        1.0 + interior_norm(analytic, 4))


def test_invariant_shift_is_casimir_multiple():
    I = realize(_invariants(P, LAM, 0.0)[1], 0.0, 16)
    H = realize(model_hamiltonian(P), 0.0, 16)
    weight = P.beta * P.zeta ** 2
    diff = I - H
    _, u, v = build_generators(16)
    np.testing.assert_allclose(diff, weight * (u @ u + v @ v), atol=1e-15)


def _negating(word, partner):
    """closed_form_counterpart with one word of its partner negated."""
    def counterpart(p, lam):
        terms = dict(partner(p, lam).items())
        re, im = terms[word]
        terms[word] = (-re.expr, -im.expr)
        return CoefficientSet(terms)
    return counterpart


@pytest.mark.parametrize("word, two_path_breaks", [("u", True), ("J", False)])
def test_a_wrong_partner_fails_the_defining_relation(monkeypatch, word, two_path_breaks):
    # negative control: the rotating invariant drops J, so a wrong J term
    # shows only in the defining relation, a wrong u term in both
    times = (0.0, 0.3, 1.7)
    commutation, defining, two_path = invariant_residuals(P, "sin(t)", 0.0, times)
    assert max(commutation, defining, two_path) <= 1e-14
    monkeypatch.setattr(invariants, "closed_form_counterpart",
                        _negating(word, invariants.closed_form_counterpart))
    commutation_bad, defining_bad, two_path_bad = invariant_residuals(P, "sin(t)", 0.0, times)
    assert commutation_bad == commutation
    assert defining_bad > 1e-6
    assert (two_path_bad > 1e-6) == two_path_breaks
