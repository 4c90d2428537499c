import mpmath
import numpy as np
import pytest

from e2qes.model import ModelParams, PreconditionError, model_hamiltonian, realize
from e2qes.qes import (closed_form_eigenvalues, eigenfunction_series,
                       factorization_residual, quantization_eigenvalues,
                       recurrence_polynomials)


def test_cosine_seed_polynomials():
    p = ModelParams(zeta=0.6, beta=0.2, level=2.1)
    polys = recurrence_polynomials("cos", 2, p)
    np.testing.assert_allclose(polys[0], [1.0])
    np.testing.assert_allclose(polys[1], [0.0, 1.0])
    # quadratic seed carries the minus sign in the constant term
    const = -2.0 * p.zeta ** 2 * (p.level - 1.0) * (p.level + p.beta)
    np.testing.assert_allclose(polys[2], [const, -4.0, 1.0], atol=1e-14)


def test_sine_seed_polynomials():
    p = ModelParams(zeta=0.6, beta=0.2, level=2.1)
    polys = recurrence_polynomials("sin", 2, p)
    np.testing.assert_allclose(polys[0], [1.0])
    np.testing.assert_allclose(polys[1], [-4.0, 1.0])


def test_three_level_reference_digits():
    spec = quantization_eigenvalues("cos", 2, 0.5, 0.3)
    np.testing.assert_allclose(
        spec.lambdas, [-0.38537208837531267, 4.385372088375313], atol=1e-12)
    np.testing.assert_allclose(
        spec.energies, [l - 0.3 * 0.25 for l in spec.lambdas], atol=0)
    # series weights (c_0 P_0, c_1 P_1) of each root, checked through the
    # bare-frame modes exp(-(zeta/2) cos theta) (w0 + w1 cos theta) by FFT
    p = ModelParams.quantized(2, 0.5, 0.3)
    theta = 2.0 * np.pi * np.arange(256) / 256
    for lam, (w0, w1) in zip(spec.lambdas, [(1.0, -0.29644006798100964),
                                            (1.0, 3.3733631449040873)]):
        samples = np.exp(-0.25 * np.cos(theta)) * (w0 + w1 * np.cos(theta))
        want = np.fft.fftshift(np.fft.fft(samples))[128 - 64:128 + 65]
        want /= np.linalg.norm(want)
        got = eigenfunction_series("cos", 2, float(lam), p, frame="H")
        np.testing.assert_allclose(got, want, atol=1e-12)


def _sturm_changes(sector, n_hat, zeta, beta, x):
    """Sign changes along the 50-digit recurrence (P_0..P_n_hat)(x).

    The kernel is taken in its unfactored form at N = n_hat + (n_hat - 1)
    beta; the count equals the number of roots of the last polynomial
    above x.
    """
    z, b = mpmath.mpf(zeta), mpmath.mpf(beta)
    N = n_hat + (n_hat - 1) * b
    lo = 0 if sector == "cos" else 1
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    changes = 0
    for n in range(lo, n_hat):
        k = z ** 2 * (N + n * b + n - 1) * (N - (n - 1) * b - n)
        if sector == "cos" and n == 1:
            k *= 2
        prev, cur = cur, (x - 4 * n ** 2) * cur - k * prev
        changes += (cur < 0) != (prev < 0)
    return changes


@pytest.mark.parametrize("sector", ["cos", "sin"])
@pytest.mark.parametrize("n_hat", [20, 31, 40, 60])
def test_eigenvalues_match_high_precision_recurrence_roots(sector, n_hat):
    # each eigenvalue must bracket, to 1e-12 relative, exactly one root of
    # the recurrence polynomial evaluated with 50 digits, and the
    # brackets must be disjoint and account for every root
    with mpmath.workdps(50):
        for zeta in (0.5, 2.0):
            for beta in (0.3, -1.5):
                lams = quantization_eigenvalues(sector, n_hat, zeta, beta).lambdas
                assert len(lams) == n_hat - (0 if sector == "cos" else 1)
                width = 1e-12 * np.maximum(1.0, np.abs(lams))
                lo, hi = lams - width, lams + width
                assert np.all(hi[:-1] < lo[1:])
                for a, b in zip(lo, hi):
                    inside = (_sturm_changes(sector, n_hat, zeta, beta, mpmath.mpf(a))
                              - _sturm_changes(sector, n_hat, zeta, beta, mpmath.mpf(b)))
                    assert inside == 1, (zeta, beta, a, b)


@pytest.mark.parametrize("sector", ["cos", "sin"])
@pytest.mark.parametrize("zeta,beta", [(0.5, 0.3), (2.0, -1.5)])
def test_eigenfunction_at_high_level(sector, zeta, beta):
    # lowest and highest root at n_hat = 40 against the dense operator
    p = ModelParams.quantized(40, zeta, beta)
    spec = quantization_eigenvalues(sector, 40, zeta, beta)
    for k in (0, len(spec.lambdas) - 1):
        modes = eigenfunction_series(sector, 40, float(spec.lambdas[k]), p)
        H = realize(model_hamiltonian(p), 0.0, len(modes) // 2)
        defect = H @ modes - spec.energies[k] * modes
        assert np.linalg.norm(defect[8:-8]) <= 1e-12 * max(1.0, abs(spec.energies[k]))


@pytest.mark.parametrize("sector,n_hat", [("cos", 1), ("cos", 2), ("cos", 3),
                                          ("sin", 2), ("sin", 3), ("sin", 4)])
def test_roots_match_closed_forms(sector, n_hat, rng):
    for _ in range(4):
        gamma = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(0.0, 1.0))
        zeta = gamma / (1.0 + beta)
        got = np.sort(quantization_eigenvalues(sector, n_hat, zeta,
                                               beta).lambdas)
        want = np.sort(closed_form_eigenvalues(sector, n_hat, gamma))
        np.testing.assert_allclose(got, want, atol=1e-10 * (1 + abs(want).max()))


def test_free_rotor_limits():
    np.testing.assert_allclose(
        quantization_eigenvalues("cos", 3, 0.0, 0.3).lambdas,
        [0.0, 4.0, 16.0], atol=1e-12)
    np.testing.assert_allclose(
        quantization_eigenvalues("sin", 4, 0.0, 0.3).lambdas,
        [4.0, 16.0, 36.0], atol=1e-12)


def test_sector_validation():
    with pytest.raises(PreconditionError):
        quantization_eigenvalues("tan", 2, 0.5, 0.3)
    with pytest.raises(PreconditionError):
        quantization_eigenvalues("sin", 1, 0.5, 0.3)


def test_factorization_residual_small(rng):
    for _ in range(3):
        zeta = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.0, 1.0))
        for sector in ("cos", "sin"):
            for n_hat in (1, 2, 3):
                p = ModelParams.quantized(n_hat, zeta, beta)
                for ell in (1, 2):
                    assert factorization_residual(sector, n_hat, ell,
                                                  p) <= 1e-12


def test_factorization_requires_quantized_level():
    p = ModelParams(zeta=0.5, beta=0.3, level=2.0)  # level != 2.3
    with pytest.raises(PreconditionError):
        factorization_residual("cos", 2, 1, p)


def test_eigenfunction_is_matrix_eigenvector():
    # the terminating series, assembled into modes, must be an actual
    # eigenvector of the dense operator away from the truncation edge
    p = ModelParams.quantized(3, 0.4, 0.25)
    spec = quantization_eigenvalues("cos", 3, 0.4, 0.25)
    for lam, energy in zip(spec.lambdas, spec.energies):
        modes = eigenfunction_series("cos", 3, float(lam), p)
        H = realize(model_hamiltonian(p), 0.0, len(modes) // 2)
        defect = H @ modes - energy * modes
        assert np.linalg.norm(defect[8:-8]) <= 1e-9


def test_eigenfunction_sine_sector_eigenvector():
    p = ModelParams.quantized(2, 0.5, 0.3)
    spec = quantization_eigenvalues("sin", 2, 0.5, 0.3)
    modes = eigenfunction_series("sin", 2, float(spec.lambdas[0]), p)
    H = realize(model_hamiltonian(p), 0.0, len(modes) // 2)
    defect = H @ modes - spec.energies[0] * modes
    assert np.linalg.norm(defect[8:-8]) <= 1e-9


def test_eigenfunction_normalized():
    p = ModelParams.quantized(2, 0.5, 0.3)
    spec = quantization_eigenvalues("cos", 2, 0.5, 0.3)
    modes = eigenfunction_series("cos", 2, float(spec.lambdas[0]), p)
    # mode-space l2 norm equals the L2 norm over the circle up to 2 pi
    assert np.linalg.norm(modes) == pytest.approx(1.0, abs=1e-12)


def test_eigenfunction_rejects_non_root():
    p = ModelParams.quantized(2, 0.5, 0.3)
    with pytest.raises(PreconditionError):
        eigenfunction_series("cos", 2, 1.2345, p)


def test_eigenfunction_tail_guard():
    # coupling too strong for the largest cutoff cannot satisfy the tail criterion
    p = ModelParams.quantized(2, 1e5, 0.3)
    spec = quantization_eigenvalues("cos", 2, 1e5, 0.3)
    with pytest.raises(PreconditionError, match=r"relative tail mass \S+ outside \|n\| <= 512"):
        eigenfunction_series("cos", 2, float(spec.lambdas[0]), p)
    # a series longer than the largest window
    p = ModelParams.quantized(600, 0.5, 0.3)
    spec = quantization_eigenvalues("cos", 600, 0.5, 0.3)
    with pytest.raises(PreconditionError, match=r"reaches \|n\| = 599 > 512"):
        eigenfunction_series("cos", 600, float(spec.lambdas[0]), p)


@pytest.mark.parametrize("zeta,cutoff", [(0.5, 64), (400.0, 128), (2000.0, 256),
                                         (1e4, 512)])
def test_eigenfunction_cutoff_is_the_first_that_holds_the_tail(zeta, cutoff):
    # the window doubles from 64 modes until the tail outside holds 1e-12
    p = ModelParams.quantized(3, zeta, 0.3)
    lam = float(quantization_eigenvalues("cos", 3, zeta, 0.3).lambdas[0])
    modes = eigenfunction_series("cos", 3, lam, p)
    assert len(modes) == 2 * cutoff + 1
    # the window half as wide would leave more than 1e-12 of the mass outside
    inner = modes[cutoff // 2:-(cutoff // 2)]
    assert cutoff == 64 or 1.0 - np.linalg.norm(inner) ** 2 > 1e-12
