import numpy as np
import pytest

from scipy.linalg import eigvalsh, expm
from scipy.special import mathieu_a, mathieu_b

from e2qes.algebra import build_generators
from e2qes.model import (ModelParams, PreconditionError,
                         closed_form_counterpart, model_hamiltonian, realize)
from e2qes.observables import (QuadratureGrid, ThreeLevelSystem,
                               apply_coefficients, apply_mode_number,
                               double_scaling_compare, expectation,
                               modes_to_grid, tdse_residual)
from e2qes.qes import quantization_eigenvalues


def test_grid_integrates_fourier_modes_exactly():
    grid = QuadratureGrid(n_nodes=64)
    for k in (0, 1, 5, -7):
        val = grid.integrate(np.exp(1j * k * grid.nodes))
        want = 2.0 * np.pi if k == 0 else 0.0
        assert abs(val - want) <= 1e-12


def test_grid_validation():
    with pytest.raises(PreconditionError):
        QuadratureGrid(n_nodes=4)


def test_modes_to_grid_matches_direct_sum():
    grid = QuadratureGrid(n_nodes=32)
    modes = np.array([0.2, -0.5j, 1.0, 0.1, 0.0])
    direct = sum(c * np.exp(1j * k * grid.nodes)
                 for k, c in zip(range(-2, 3), modes))
    np.testing.assert_allclose(modes_to_grid(modes, grid), direct, atol=1e-14)
    with pytest.raises(PreconditionError):
        modes_to_grid(np.ones(4), grid)


def test_apply_mode_number_offset_independent():
    # samples of the k = +2 mode taken on a grid shifted by theta0
    grid = QuadratureGrid(n_nodes=64)
    for theta0 in (0.0, 0.9):
        f = np.exp(2j * (grid.nodes + theta0))
        np.testing.assert_allclose(apply_mode_number(f), 2.0 * f,
                                   atol=1e-12)


def test_apply_coefficients_matches_matrix_route(rng):
    # FFT/pointwise application vs the dense operator on mode vectors
    order = 16
    grid = QuadratureGrid(n_nodes=128)
    p = ModelParams(zeta=0.5, beta=0.3, level=2.3)
    coeffs = model_hamiltonian(p)
    modes = np.zeros(2 * order + 1, dtype=complex)
    modes[order - 4:order + 5] = rng.normal(size=9) + 1j * rng.normal(size=9)
    H = realize(coeffs, 0.0, order)
    want = modes_to_grid(H @ modes, grid)
    got = apply_coefficients(coeffs, 0.0, modes_to_grid(modes, grid), grid)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_expectation_hand_value():
    # psi ~ 1 + cos(theta): <cos> = 2/3
    grid = QuadratureGrid()
    psi = (1.0 + np.cos(grid.nodes)) / np.sqrt(3.0 * np.pi)
    assert expectation("v", psi, grid) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert expectation("u", psi, grid) == pytest.approx(0.0, abs=1e-12)
    assert expectation("J", psi, grid) == pytest.approx(0.0, abs=1e-12)


def test_mode_vector_enters_through_modes_to_grid():
    grid = QuadratureGrid()
    modes = np.zeros(9, dtype=complex)
    modes[5] = 1.0 / np.sqrt(2.0 * np.pi)  # e^{i theta}, normalized
    samples = modes_to_grid(modes, grid)
    assert expectation("J", samples, grid) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda state, grid: expectation("J", state, grid),
    lambda state, grid: apply_coefficients(model_hamiltonian(
        ModelParams(zeta=0.5, beta=0.3, level=2.3)), 0.0, state, grid),
    lambda state, grid: tdse_residual(lambda t: state, model_hamiltonian(
        ModelParams(zeta=0.5, beta=0.3, level=2.3)), 0.0, grid),
], ids=["expectation", "apply_coefficients", "tdse_residual"])
@pytest.mark.parametrize("length", [9, 128, 130])
def test_state_of_another_length_is_refused(call, length):
    # a state is one sample per node; modes are not guessed from the length
    grid = QuadratureGrid(n_nodes=129)
    state = np.ones(length, dtype=complex) / np.sqrt(2.0 * np.pi)
    with pytest.raises(PreconditionError, match="of 129 grid samples"):
        call(state, grid)


def test_node_count_values_are_samples():
    # 129 values on 129 nodes are samples, though 129 is also a mode count
    grid = QuadratureGrid(n_nodes=129)
    samples = np.exp(1j * grid.nodes) / np.sqrt(2.0 * np.pi)
    assert expectation("J", samples, grid) == pytest.approx(1.0, abs=1e-12)
    assert expectation("v", samples, grid) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(apply_coefficients(
        model_hamiltonian(ModelParams(zeta=0.0, beta=0.0, level=0.0)), 0.0, samples, grid),
        4.0 * samples, atol=1e-12)


def test_expectation_norm_guard():
    grid = QuadratureGrid()
    with pytest.raises(PreconditionError):
        expectation("v", np.ones(grid.n_nodes), grid)
    with pytest.raises(PreconditionError):
        expectation("w", np.ones(grid.n_nodes) / np.sqrt(2 * np.pi), grid)


def test_tdse_detects_wrong_hamiltonian():
    grid = QuadratureGrid()
    sys = ThreeLevelSystem.from_couplings(0.5, 0.3, "0.4*sin(t)")
    good = closed_form_counterpart(sys.params, sys.lam)
    wrong = closed_form_counterpart(
        ModelParams.quantized(2, 0.5, 0.8), sys.lam)
    fn = lambda t: sys.states(t, grid)["plus"]
    assert tdse_residual(fn, good, 0.6, grid) <= 1e-6
    assert tdse_residual(fn, wrong, 0.6, grid) >= 1e-2


def test_three_level_requires_quantized_level():
    with pytest.raises(PreconditionError):
        ThreeLevelSystem(ModelParams(zeta=0.5, beta=0.3, level=2.0), "0")
    with pytest.raises(PreconditionError):
        ThreeLevelSystem.from_couplings(0.0, 0.3, "0")


def test_three_level_energies_match_spectrum_route():
    sys = ThreeLevelSystem.from_couplings(0.5, 0.3, "0")
    e = sys.energies()
    cos_spec = quantization_eigenvalues("cos", 2, 0.5, 0.3)
    np.testing.assert_allclose(sorted([e["minus"], e["plus"]]),
                               cos_spec.energies, atol=1e-12)
    sin_spec = quantization_eigenvalues("sin", 2, 0.5, 0.3)
    assert e["zero"] == pytest.approx(sin_spec.energies[0], abs=1e-12)


def test_three_level_states_orthonormal():
    grid = QuadratureGrid()
    sys = ThreeLevelSystem.from_couplings(0.9, 0.2, "0.3*t")
    t = 1.2
    states = list(sys.states(t, grid).values())
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            val = grid.integrate(np.conj(a) * b)
            assert abs(val - (1.0 if i == j else 0.0)) <= 1e-12


def test_three_level_moments_match_quadrature():
    grid = QuadratureGrid()
    sys = ThreeLevelSystem.from_couplings(1.0, 0.3, "0.7")
    t = 0.0
    closed = sys.closed_form_expectations(t)
    for state, psi in sys.states(t, grid).items():
        for op in ("u", "v", "J"):
            assert expectation(op, psi, grid) == pytest.approx(
                closed[state][op], abs=1e-12)


def test_three_level_moments_survive_large_frame_angle():
    # nodes + lam would lose the nodes' digits; the angle is added exactly
    grid = QuadratureGrid()
    sys = ThreeLevelSystem.from_couplings(0.5, 0.3, "1e10 + 0.4*sin(t)")
    for t in (0.0, 0.5, 1.0):
        closed = sys.closed_form_expectations(t)
        for state, psi in sys.states(t, grid).items():
            for op in ("u", "v", "J"):
                assert abs(expectation(op, psi, grid) - closed[state][op]) <= 1e-12


def test_superposition_linearity_and_norm():
    grid = QuadratureGrid()
    sys = ThreeLevelSystem.from_couplings(0.5, 0.3, "0.1*t")
    t = 0.4
    states = sys.states(t, grid)
    psi = 0.6 * states["plus"] + 0.8j * states["zero"]
    norm = grid.integrate(np.abs(psi) ** 2).real
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_double_scaling_requires_deep_level():
    with pytest.raises(PreconditionError):
        double_scaling_compare(1.0, [0.2], 0.3)  # N = 5 < 10


def test_double_scaling_structure():
    rows = double_scaling_compare(1.0, [0.1, 0.02], 0.3, k_low=3)
    assert len(rows) == 2
    assert rows[0]["deviation"].max() > rows[1]["deviation"].max()
    # limit eigenvalues independent of zeta
    np.testing.assert_allclose(rows[0]["limit"], rows[1]["limit"])


def _assert_spectra_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("g", [1.0, 10.0, 100.0])
def test_double_scaling_limit_is_mathieu_spectrum(g):
    # 4 J^2 + 2 g v is Mathieu's operator in z = theta / 2 (DLMF 28.2): its
    # 2 pi-periodic levels are a_{2k}(g), k >= 0, and b_{2k}(g), k >= 1
    k_low = 12
    limit = double_scaling_compare(g, [g / 10.0], 0.3, k_low=k_low)[0]["limit"]
    k = np.arange(k_low)
    mathieu = np.sort(np.concatenate([mathieu_a(2 * k, g), mathieu_b(2 * k[1:], g)]))
    _assert_spectra_close(limit, mathieu[:k_low])


def test_double_scaling_limit_at_strong_coupling_is_the_large_q_expansion():
    # the modes the ground state needs grow like g^(1/4): at g = 1e6, 64 modes
    # miss the limit by 2.6 to 884; the derived cutoff meets DLMF 28.8.1,
    # a = -2q + 2s sqrt(q) - (s^2 + 1)/8 - (s^3 + 3s)/(2^7 sqrt(q)), s = 2k + 1
    q = 1e6
    rows = double_scaling_compare(q, [1e3, 1e2], 0.3)
    s = 2.0 * np.arange(4) + 1.0
    large_q = (-2.0 * q + 2.0 * s * np.sqrt(q) - (s ** 2 + 1.0) / 8.0
               - (s ** 3 + 3.0 * s) / (2 ** 7 * np.sqrt(q)))
    assert np.all(np.abs(rows[0]["limit"] - large_q) <= 1e-5)


def test_double_scaling_checks_its_input_before_any_eigensolve(monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve before the input checks")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", refuse)
    for zetas, k_low, message in (([0.1, -1.0], 4, "zeta values must be positive"),
                                  ([0.1, 0.2], 4, "needs g/zeta >= 10"),
                                  ([0.1], 1026, "kLow must lie in 1..1025")):
        with pytest.raises(PreconditionError, match=message):
            double_scaling_compare(1.0, zetas, 0.3, k_low=k_low)


@pytest.mark.parametrize("zeta,beta", [(0.5, 0.3), (1.2, 0.7), (0.8, -0.4), (2.0, 0.3)])
def test_qes_energies_lie_in_the_partner_spectrum(zeta, beta):
    # the static Hermitian partner is a Whittaker-Hill operator; its
    # quasi-exactly solvable levels are part of its full spectrum
    for n_hat in range(1, 11):
        p = ModelParams.quantized(n_hat, zeta, beta)
        full = eigvalsh(realize(closed_form_counterpart(p, 0.0), 0.0, 64))
        for sector in ("cos", "sin") if n_hat > 1 else ("cos",):
            energies = quantization_eigenvalues(sector, n_hat, zeta, beta).energies
            nearest = full[np.argmin(np.abs(energies[:, None] - full), axis=1)]
            _assert_spectra_close(nearest, energies)


def test_double_scaling_matches_dense_frame_shift():
    # reference route: conjugate H with exp(+-tau v), tau = (1 - beta) zeta / 4,
    # and symmetrize before diagonalizing
    g, beta, zetas, k_low = 1.0, 0.3, [0.1, 0.01, 0.001], 4
    _, _, v = build_generators(64)
    rows = double_scaling_compare(g, zetas, beta, k_low=k_low)  # at the first cutoff, 64
    for zeta, row in zip(zetas, rows):
        H = realize(model_hamiltonian(ModelParams(zeta, beta, g / zeta)), 0.0, 64)
        tau = (1.0 - beta) * zeta / 4.0
        h = expm(tau * v) @ H @ expm(-tau * v)
        _assert_spectra_close(row["eigs"], eigvalsh(0.5 * (h + h.conj().T))[:k_low])
