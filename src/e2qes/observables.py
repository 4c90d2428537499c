"""Grid-based states, expectation values and the closed three-level system.

States are samples on a uniform angular grid (a mode vector comes in
through :func:`modes_to_grid`); the mode-number operator acts through the
FFT, multiplication operators act pointwise.  The three-level family
(quantized level 2) is implemented from its closed forms and doubles as
the reference solution for time-dependent checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import CUTOFFS, PAD
from .errors import PreconditionError
from .model import COEFF_KEYS, ModelParams, closed_form_counterpart, realize


def _bessel_i(orders, x):
    """I_n(x) for the three-level closed forms, which scale it by up to 16 x^3."""
    from scipy.special import iv  # imported here to keep it out of `import e2qes`

    vals = iv(orders, x)
    if not (np.all(np.isfinite(vals)) and 16.0 * x * x * x * float(np.max(vals)) < math.inf):
        raise PreconditionError(f"three-level closed forms overflow at gamma={2.0 * x}")
    return vals


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid 2 pi k / K with trapezoidal (= exact) weight."""

    n_nodes: int = 2048

    def __post_init__(self):
        if self.n_nodes < 8:
            raise PreconditionError("grid needs at least 8 nodes")

    @property
    def nodes(self):
        return 2.0 * np.pi * np.arange(self.n_nodes) / self.n_nodes

    def integrate(self, values):
        return 2.0 * np.pi / self.n_nodes * complex(np.sum(values))


def modes_to_grid(modes, grid):
    """Sample sum_k c_k exp(i k theta) on the grid nodes."""
    modes = np.asarray(modes, dtype=complex)
    if len(modes) % 2 != 1:
        raise PreconditionError("mode vector must have odd length (symmetric window)")
    half = len(modes) // 2
    ks = np.arange(-half, half + 1)
    return np.exp(1j * np.outer(grid.nodes, ks)) @ modes


def _samples(state, grid):
    """The state as complex samples, one per grid node."""
    f = np.asarray(state, dtype=complex)
    if f.shape != (grid.n_nodes,):
        raise PreconditionError(
            f"state must be a 1-d array of {grid.n_nodes} grid samples, got shape "
            f"{f.shape}; mode vectors go through modes_to_grid")
    return f


def apply_mode_number(values):
    """(J f) on the grid via the FFT."""
    freqs = np.fft.fftfreq(len(values), d=1.0 / len(values))
    return np.fft.ifft(np.fft.fft(values) * freqs)


# each letter's action on grid samples; a word acts letter by letter, its
# last letter first (uJ is u after J)
_LETTERS = {
    "u": lambda f, grid: np.sin(grid.nodes) * f,
    "v": lambda f, grid: np.cos(grid.nodes) * f,
    "J": lambda f, grid: apply_mode_number(f),
}
OP_NAMES = tuple(_LETTERS)


def apply_coefficients(coeffs, t, state, grid):
    """Apply a coefficient-set operator to a sampled state."""
    images = {"": _samples(state, grid)}
    for word in sorted(COEFF_KEYS, key=len):  # so each word's tail is applied already
        images[word] = _LETTERS[word[0]](images[word[1:]], grid)
    c = coeffs.at(t)
    return sum(c[word] * images[word] for word in COEFF_KEYS)


def expectation(op_name, state, grid):
    """<state|op|state> for op in {u, v, J} on a normalized sampled state."""
    if op_name not in OP_NAMES:
        raise PreconditionError(f"op must be one of {OP_NAMES}, got {op_name!r}")
    f = _samples(state, grid)
    norm = grid.integrate(np.abs(f) ** 2).real
    if abs(norm - 1.0) > 1e-8:
        raise PreconditionError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return grid.integrate(np.conj(f) * _LETTERS[op_name](f, grid)).real


def tdse_residual(state_fn, h_coeffs, t, grid):
    """Relative L2 residual of i d/dt psi = h psi by central difference."""
    dt = 1e-5
    psi, plus, minus = (_samples(state_fn(s), grid) for s in (t, t + dt, t - dt))
    dpsi = (plus - minus) / (2.0 * dt)
    rhs = apply_coefficients(h_coeffs, t, psi, grid)
    num = np.sqrt(grid.integrate(np.abs(1j * dpsi - rhs) ** 2).real)
    den = 1.0 + np.sqrt(grid.integrate(np.abs(rhs) ** 2).real)
    return num / den


# ---------------------------------------------------------------------------
# the closed three-level family (quantized level 2)

@dataclass(frozen=True)
class ThreeLevelSystem:
    """Quantized-level-2 eigensystem in the Hermitian frame.

    Both parity sectors contribute: two even states (plus/minus) and one
    odd state (zero).  All closed forms depend on the single combination
    gamma = (1 + beta) zeta and the frame angle lam(t).
    """

    params: ModelParams
    lam: TimeFunction

    def __post_init__(self):
        if not self.params.is_quantized(2):
            raise PreconditionError(
                f"three-level system requires level = 2 + beta, got {self.params.level}")
        if not self.params.gamma > 0.0:
            raise PreconditionError(
                f"three-level closed forms need gamma = (1 + beta) zeta > 0, got {self.gamma}")

    @classmethod
    def from_couplings(cls, zeta, beta, lam):
        from .timefunc import TimeFunction

        return cls(ModelParams.quantized(2, zeta, beta), TimeFunction(lam))

    @property
    def gamma(self):
        return self.params.gamma

    def energies(self):
        bz = self.params.beta * self.params.zeta ** 2
        s = np.sqrt(1.0 + self.gamma ** 2)
        return {
            "plus": 2.0 - bz + 2.0 * s,
            "minus": 2.0 - bz - 2.0 * s,
            "zero": 4.0 - bz,
        }

    @cached_property
    def _constants(self):
        """Per state: (first moment / normalization, amplitude), from one Bessel call.

        The ratio r gives <u> = -r sin(lam) and <v> = r cos(lam), so the
        odd state's moment is -I_2.
        """
        g = self.gamma
        i0, i1, i2 = _bessel_i((0, 1, 2), 0.5 * g)
        s = np.sqrt(1.0 + g * g)
        norms, moments = {"zero": i1}, {"zero": -i2}
        for state, sgn in (("plus", 1.0), ("minus", -1.0)):
            norms[state] = (g * (1.0 + g * g + sgn * s) * i0
                            - (2.0 + 2.0 * g * g + sgn * (2.0 + g * g) * s) * i1)
            moments[state] = (g * (1.0 - g * g + sgn * s) * i1
                              + (2.0 + 2.0 * g * g + sgn * (2.0 + g * g) * s) * i2)
        out = {}
        for state, norm in norms.items():
            if not norm > 0.0:  # underflow or cancellation at small gamma
                raise PreconditionError(
                    f"three-level {state} normalization vanishes at gamma={g}")
            out[state] = (moments[state] / norm, np.sqrt(g) / (2.0 * np.sqrt(np.pi * norm)))
        return out

    def states(self, t, grid):
        """The three closed-form states sampled at time t, energy phases included.

        Keyed "plus", "minus" and "zero", in :meth:`energies` order.
        """
        g = self.gamma
        # angle addition keeps the nodes when lam(t) is huge; math reduces it exactly
        lam_t = self.lam(t)
        sin_l, cos_l = math.sin(lam_t), math.cos(lam_t)
        sin_n, cos_n = np.sin(grid.nodes), np.cos(grid.nodes)
        sin_x = sin_n * cos_l + cos_n * sin_l
        cos_x = cos_n * cos_l - sin_n * sin_l
        envelope = np.exp(-0.25 * g * cos_x)
        s = np.sqrt(1.0 + g * g)
        shapes = {"plus": g + (1.0 + s) * cos_x, "minus": g + (1.0 - s) * cos_x,
                  "zero": sin_x}
        out = {}
        for state, energy in self.energies().items():
            if not math.isfinite(float(energy) * t):
                raise PreconditionError(f"the {state} state's energy phase overflows at t={t}")
            amp = self._constants[state][1]
            out[state] = amp * envelope * shapes[state] * np.exp(-1j * energy * t)
        return out

    def closed_form_expectations(self, t):
        """<u>, <v>, <J> per state from the first-moment closed forms."""
        lam_t = self.lam(t)
        sin_l, cos_l = np.sin(lam_t), np.cos(lam_t)
        return {state: {"u": -r * sin_l, "v": r * cos_l, "J": 0.0}
                for state, (r, _) in self._constants.items()}


def double_scaling_compare(g, zeta_list, beta, k_low=4):
    """Low-lying spectra of the level-locked family against its limit.

    For each zeta the level parameter is N = g / zeta, and the spectrum is
    that of the static Hermitian partner (the closed form at lambda = 0, a
    Whittaker-Hill operator).  Returns one row per zeta with the lowest
    k_low eigenvalues, the limit spectrum of 4 J^2 + 2 g v (the Mathieu
    characteristic values), and deviations.  All matrices share one mode
    cutoff: the first of CUTOFFS at which the k_low lowest eigenvectors of
    each keep at most 1e-12 of their weight in the 2 PAD edge modes, PAD at
    each end.  When none does, this raises.
    """
    from scipy.linalg import eigh, eigvalsh

    basis = 2 * CUTOFFS[-1] + 1
    if not 1 <= k_low <= basis:
        raise PreconditionError(
            f"kLow must lie in 1..{basis}, the basis size at {CUTOFFS[-1]} modes, got {k_low}")
    zetas = [float(zeta) for zeta in zeta_list]
    for zeta in zetas:
        if zeta <= 0.0:
            raise PreconditionError("zeta values must be positive")
        if float(g) / zeta < 10.0:
            raise PreconditionError(
                f"double-scaling comparison needs g/zeta >= 10, got {float(g) / zeta}")

    for order in (c for c in CUTOFFS if 2 * c + 1 >= k_low):
        spectra = []
        for name, m in _double_scaling_matrices(g, zetas, beta, order):
            vecs = eigh(m, subset_by_index=(0, k_low - 1))[1]
            edge = float(np.max(np.sum(np.abs(np.r_[vecs[:PAD], vecs[-PAD:]]) ** 2, axis=0)))
            if edge > 1e-12:
                break
            spectra.append(eigvalsh(m)[:k_low])
        else:
            limit, *rows = spectra
            return [{"zeta": z, "eigs": e, "limit": limit, "deviation": np.abs(e - limit)}
                    for z, e in zip(zetas, rows)]
    raise PreconditionError(
        f"the {k_low} lowest eigenvectors at {name} keep {edge:.2e} of their weight in "
        f"the {2 * PAD} edge modes at {order} modes, the largest mode cutoff (bound 1e-12)")


def _double_scaling_matrices(g, zetas, beta, order):
    """(name, matrix): the limit operator, then the partner at each zeta."""
    with np.errstate(over="ignore", invalid="ignore"):  # tested for overflow below
        limit = realize({"JJ": 4.0, "v": 2.0 * float(g)}, 0.0, order)
    if not np.all(np.isfinite(limit)):
        raise PreconditionError(f"limit operator is not finite at g={g}")
    yield f"g={g}", limit
    for zeta in zetas:
        p = ModelParams(zeta=zeta, beta=float(beta), level=float(g) / zeta)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # tested below
                h = realize(closed_form_counterpart(p, 0.0), 0.0, order)
            finite = np.all(np.isfinite(h))
        except ArithmeticError:  # a coupling or its square overflows
            finite = False
        if not finite:
            raise PreconditionError(
                f"Hermitian partner is not finite at zeta={zeta}, beta={beta}")
        yield f"zeta={zeta}", h
