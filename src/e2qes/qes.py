"""Terminating-series spectral engine for the quartic rotor family.

Eigenvalues in the cos and sin parity sectors are roots of a three-term
polynomial recurrence in the spectral variable.  At quantized level
parameter N = n_hat + (n_hat - 1) beta the recurrence kernel develops a
zero and every later polynomial factors through the n_hat-th one, which
is what terminates the eigenfunction series.  The terminating recurrence
is the characteristic recurrence of a symmetric Jacobi matrix, so its
roots and the series weights are that matrix's eigenvalues and
eigenvectors (Golub & Welsch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra import CUTOFFS
from .errors import PreconditionError

SECTORS = ("cos", "sin")


def _check_sector(sector):
    """The sector's first index: cos starts at P_0, sin at Q_1."""
    if sector not in SECTORS:
        raise PreconditionError(f"sector must be 'cos' or 'sin', got {sector!r}")
    return SECTORS.index(sector)


def _kernel(n, p):
    """Coupling weight between neighbours n and n-1 of the recurrence."""
    N, b, z = p.level, p.beta, p.zeta
    return z ** 2 * (N + n * b + (n - 1)) * (N - (n - 1) * b - n)


def recurrence_polynomials(sector, n_max, p):
    """All sector polynomials with subscripts up to n_max.

    cos returns [P_0, ..., P_n_max]; sin returns [Q_1, ..., Q_n_max].  Each
    is a monic polynomial in the spectral variable given as an array of
    ascending coefficients.
    """
    lo = _check_sector(sector)
    if n_max < lo:
        raise PreconditionError(f"n_max must be at least {lo} for the {sector} sector")
    polys = [np.zeros(1), np.array([1.0])]  # the start at lo - 1 is zero
    for n in range(lo, n_max):
        # the cos step n = 1 carries an extra factor 2 on the kernel term
        weight = _kernel(n, p) * (2.0 if sector == "cos" and n == 1 else 1.0)
        polys.append(npoly.polysub(npoly.polymul([-4.0 * n ** 2, 1.0], polys[-1]),
                                   weight * polys[-2]))
    return polys[1:]


def _eigh(diag, off, zeta, beta, **select):
    from scipy.linalg import LinAlgError, eigh_tridiagonal  # kept out of `import e2qes`

    try:
        return eigh_tridiagonal(diag, off, **select)
    except LinAlgError as exc:
        raise PreconditionError(
            f"the tridiagonal eigensolver failed at zeta={zeta}, beta={beta}: {exc}") from exc


def _jacobi(sector, n_hat, gamma):
    """Diagonal and off-diagonal of the sector's symmetric Jacobi matrix.

    At the quantized level the kernel is gamma^2 (n_hat + n - 1)(n_hat - n)
    >= 0 for every real beta; the first cos link carries the n = 1 factor 2.
    """
    ns = np.arange(_check_sector(sector), n_hat, dtype=float)
    links = ns[1:]
    with np.errstate(over="ignore"):  # callers test the entries for overflow
        off = abs(gamma) * np.sqrt((n_hat + links - 1.0) * (n_hat - links))
    if sector == "cos" and off.size:
        off[0] *= np.sqrt(2.0)
    return 4.0 * ns ** 2, off


@dataclass(eq=False)
class QesSpectrum:
    sector: str
    n_hat: int
    zeta: float
    beta: float
    lambdas: np.ndarray
    energies: np.ndarray

    def to_json_dict(self):
        return {
            "sector": self.sector,
            "nHat": self.n_hat,
            "zeta": self.zeta,
            "beta": self.beta,
            "lambdas": [float(x) for x in self.lambdas],
            "energies": [float(x) for x in self.energies],
        }


def quantization_eigenvalues(sector, n_hat, zeta, beta):
    """Sector spectrum at the quantized level parameter.

    The roots of the terminating polynomial are the eigenvalues of the
    sector's Jacobi matrix, sorted ascending; at zeta = 0 the matrix is
    diagonal and they are the free-rotor values 4 k^2.  Energies shift
    each root by -beta zeta^2.
    """
    min_n = _check_sector(sector) + 1
    if not isinstance(n_hat, (int, np.integer)) or n_hat < min_n:
        raise PreconditionError(
            f"n_hat must be an integer >= {min_n} for the {sector} sector")
    zeta, beta = float(zeta), float(beta)
    diag, off = _jacobi(sector, int(n_hat), (1.0 + beta) * zeta)
    shift = beta * (zeta * zeta)
    overflow = PreconditionError(
        f"zeta={zeta} and beta={beta} overflow the {sector} sector recurrence")
    if not (np.all(np.isfinite(off)) and np.isfinite(shift)):
        raise overflow
    lambdas = _eigh(diag, off, zeta, beta, eigvals_only=True)
    with np.errstate(over="ignore"):
        energies = lambdas - shift
    if not (np.all(np.isfinite(lambdas)) and np.all(np.isfinite(energies))):
        raise overflow
    return QesSpectrum(sector, int(n_hat), zeta, beta, lambdas, energies)


def closed_form_eigenvalues(sector, n_hat, gamma):
    """Hand closed forms for the low quantized levels, sorted ascending.

    Available for cos with n_hat <= 3 and sin with n_hat <= 4; the cubic
    cases use the trigonometric resolvent with branch angles 2 pi l / 3.
    """
    _check_sector(sector)
    gamma = float(gamma)
    g2 = gamma * gamma

    if sector == "cos":
        if n_hat == 1:
            return np.array([0.0])
        if n_hat == 2:
            s = np.sqrt(1.0 + g2)
            return np.sort(np.array([2.0 - 2.0 * s, 2.0 + 2.0 * s]))
        if n_hat == 3:
            return _cubic(g2, 13.0, 35.0, 4.0 / 3.0, 5.0, 2.0)
        raise PreconditionError(f"no closed form for cos sector at n_hat={n_hat}")
    if n_hat == 2:
        return np.array([4.0])
    if n_hat == 3:
        s = np.sqrt(9.0 + g2)
        return np.sort(np.array([10.0 - 2.0 * s, 10.0 + 2.0 * s]))
    if n_hat == 4:
        return _cubic(g2, 49.0, 143.0, 8.0 / 3.0, 7.0, 1.0)
    raise PreconditionError(f"no closed form for sin sector at n_hat={n_hat}")


def _resolvent_angles(arg):
    if abs(arg) > 1.0 + 1e-12:
        raise PreconditionError(f"resolvent angle argument {arg} out of range")
    return np.arccos(min(1.0, max(-1.0, arg))) / 3.0


def _cubic(g2, k0, a0, scale, shift, mult):
    """Sorted scale * (shift + mult * kappa * cos(2 pi l / 3 - theta)), l = 0, 1, 2.

    kappa = sqrt(k0 + 3 g2) and cos(3 theta) = (a0 - 18 g2) / kappa^3.
    """
    kappa = np.sqrt(k0 + 3.0 * g2)
    theta = _resolvent_angles((a0 - 18.0 * g2) / kappa ** 3)
    vals = [scale * (shift + mult * kappa * np.cos(2.0 * np.pi * ell / 3.0 - theta))
            for ell in (0, 1, 2)]
    return np.sort(np.array(vals))


def factorization_residual(sector, n_hat, ell, p):
    """Relative coefficient defect of P_{n_hat+ell} = R_ell P_n_hat.

    The one- and two-step cofactors R_1, R_2 are closed forms in the
    quantized level; ell in {1, 2}.
    """
    lo = _check_sector(sector)
    if ell not in (1, 2):
        raise PreconditionError(f"ell must be 1 or 2, got {ell!r}")
    if n_hat < 1:
        raise PreconditionError("n_hat must be >= 1")
    if not p.is_quantized(n_hat):
        raise PreconditionError(
            f"level {p.level} is not quantized at n_hat={n_hat} (expected "
            f"{n_hat + (n_hat - 1) * p.beta})")
    nh = int(n_hat)
    g2 = p.gamma ** 2
    if ell == 1:
        cof = np.array([-4.0 * nh ** 2, 1.0])
    else:
        cof = np.array([
            16.0 * nh ** 2 * (nh + 1) ** 2 + 2.0 * nh * g2,
            -4.0 - 8.0 * nh * (nh + 1),
            1.0,
        ])
    polys = recurrence_polynomials(sector, nh + ell, p)
    base = polys[nh - lo]
    target = polys[nh + ell - lo]
    product = npoly.polymul(cof, base)
    diff = npoly.polysub(target, product)
    scale = float(np.max(np.abs(target)))
    return float(np.max(np.abs(diff))) / max(scale, 1.0)


def eigenfunction_series(sector, n_hat, lam_value, p, frame="H", shift=0.0):
    """Fourier modes of one terminating eigenfunction, |n| <= a derived cutoff.

    lam_value must lie within 1e-8 max(1, |lam|) of an eigenvalue of the
    sector's Jacobi matrix.  Its eigenvector v gives the series weights
    c_n P_n(lam), whose neighbours differ by v_n off_n / (v_{n-1} gamma
    (n_hat + n - 1)); the sign is fixed by v's first component.

    frame 'H' multiplies the series by the bare-frame weight
    exp(-(zeta/2) cos theta) and takes no shift; frame 'h' uses
    exp(-(gamma/4) cos(theta + shift)) and rotates each mode by
    exp(i n shift).  The mode vector is L2-normalized.  The cutoff is the
    first of algebra.CUTOFFS whose window reaches the series and leaves at
    most 1e-12 of the mass outside; when none does, this raises.
    """
    from scipy.special import ive

    lo = _check_sector(sector)
    if not p.is_quantized(n_hat):
        raise PreconditionError(
            f"level {p.level} is not quantized at n_hat={n_hat}")
    if p.gamma == 0.0:
        raise PreconditionError("series eigenfunctions need zeta (1 + beta) != 0")
    if frame not in ("H", "h"):
        raise PreconditionError(f"frame must be 'H' or 'h', got {frame!r}")
    if frame == "H" and shift != 0.0:
        raise PreconditionError(f"shift applies to frame 'h' only, got {shift} with frame 'H'")
    nh = int(n_hat)
    if nh - 1 < lo:
        raise PreconditionError(f"{sector} sector needs n_hat >= {lo + 1}")
    if nh - 1 > CUTOFFS[-1]:
        raise PreconditionError(
            f"the series reaches |n| = {nh - 1} > {CUTOFFS[-1]}, the largest mode cutoff")
    diag, off = _jacobi(sector, nh, p.gamma)
    tol = 1e-8 * max(1.0, abs(lam_value))
    found, vecs = _eigh(diag, off, p.zeta, p.beta, select="v",
                        select_range=(lam_value - tol, lam_value + tol))
    if found.size == 0:
        raise PreconditionError(
            f"lam={lam_value} is not an eigenvalue of the {sector} sector")
    v = vecs[:, np.argmin(np.abs(found - lam_value))]
    ns = np.arange(lo, nh)
    first = 1.0 if sector == "cos" else np.sign(p.gamma)  # sign of c_lo P_lo
    ratios = off / (p.gamma * (nh + ns[1:] - 1.0))
    terms = np.cumprod(np.r_[first, ratios]) * v * np.copysign(1.0, v[0])
    half = 0.5 * terms if sector == "cos" else -0.5j * terms
    z = -0.5 * p.zeta if frame == "H" else -0.25 * p.gamma

    for order in (c for c in CUTOFFS if c >= nh - 1):
        ext = order + 16
        series = np.zeros(2 * ext + 1, dtype=complex)
        series[ext + ns] += half
        series[ext - ns] += half if sector == "cos" else -half
        # exponentially scaled I_|k|(z); the scale cancels in the normalization
        pref = ive(np.abs(np.arange(-ext, ext + 1)), z)
        if not np.all(np.isfinite(pref)):  # scipy gives NaN past |z| ~ 2^30
            raise PreconditionError(
                f"Bessel envelope is not finite at zeta={p.zeta}, beta={p.beta}")
        modes = np.convolve(pref, series)[ext:3 * ext + 1]  # central slice, len 2*ext+1
        if shift != 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                modes = modes * np.exp(1j * np.arange(-ext, ext + 1) * shift)
            if not np.all(np.isfinite(modes)):
                raise PreconditionError(f"shift={shift} overflows the mode phases n*shift")
        total = float(np.sum(np.abs(modes) ** 2))
        tail = total - float(np.sum(np.abs(modes[16:-16]) ** 2))
        if total == 0.0:
            raise PreconditionError("series collapsed to zero")
        if tail / total <= 1e-12:
            window = modes[16:-16]
            return window / np.sqrt(np.sum(np.abs(window) ** 2))
    raise PreconditionError(f"relative tail mass {tail / total:.2e} outside |n| <= {order}, "
                            f"the largest mode cutoff, at zeta={p.zeta}, beta={p.beta}")
