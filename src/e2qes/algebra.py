"""Truncated Fourier-mode matrix algebra on the circle.

Operators act on the span of exp(i*n*theta) for n = -M..M.  The three
generators are the mode-number operator J, and the multiplication
operators u = sin(theta), v = cos(theta), which shift modes by one unit
and therefore leak at the two edge modes.  Everything downstream that
needs exact operator identities measures them on an interior block via
:func:`interior_norm` so the edge leakage is excluded deliberately
rather than hidden.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FourierBasis:
    """Mode range n = -order..order, dimension 2*order + 1."""

    order: int

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order!r}")

    @property
    def dimension(self):
        return 2 * self.order + 1

    def index(self, mode):
        if not -self.order <= mode <= self.order:
            raise ValueError(f"mode {mode} outside [-{self.order}, {self.order}]")
        return mode + self.order

    def modes(self):
        return np.arange(-self.order, self.order + 1)


class OperatorMatrix:
    """Dense complex matrix tagged with its basis.

    Entries are read-only; arithmetic returns new instances.  Mixing
    bases of different order is an error, not a broadcast.
    """

    __slots__ = ("basis", "entries")

    def __init__(self, basis, entries):
        entries = np.array(entries, dtype=complex)
        if entries.shape != (basis.dimension, basis.dimension):
            raise ValueError(
                f"entries shape {entries.shape} does not match basis dimension {basis.dimension}")
        entries.setflags(write=False)
        self.basis = basis
        self.entries = entries

    def _check(self, other):
        if self.basis != other.basis:
            raise ValueError("operators live on different bases")

    def __add__(self, other):
        self._check(other)
        return OperatorMatrix(self.basis, self.entries + other.entries)

    def __sub__(self, other):
        self._check(other)
        return OperatorMatrix(self.basis, self.entries - other.entries)

    def __neg__(self):
        return OperatorMatrix(self.basis, -self.entries)

    def __mul__(self, scalar):
        return OperatorMatrix(self.basis, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        return OperatorMatrix(self.basis, self.entries @ other.entries)

    def dagger(self):
        return OperatorMatrix(self.basis, self.entries.conj().T)

    def __repr__(self):
        return f"OperatorMatrix(order={self.basis.order})"


@functools.lru_cache(maxsize=32)
def build_generators(order):
    """J, u, v on the 2*order+1 mode basis.

    J is diagonal with integer entries.  u and v couple n to n+-1:
    u has -i/2 on the up-shift and +i/2 on the down-shift, v has 1/2 on
    both, matching multiplication by sin/cos on mode amplitudes.
    """
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    basis = FourierBasis(order)
    dim = basis.dimension
    jm = np.zeros((dim, dim), dtype=complex)
    um = np.zeros((dim, dim), dtype=complex)
    vm = np.zeros((dim, dim), dtype=complex)
    for n in range(-order, order + 1):
        col = basis.index(n)
        jm[col, col] = n
        if n + 1 <= order:
            um[basis.index(n + 1), col] = -0.5j
            vm[basis.index(n + 1), col] = 0.5
        if n - 1 >= -order:
            um[basis.index(n - 1), col] = 0.5j
            vm[basis.index(n - 1), col] = 0.5
    return (OperatorMatrix(basis, jm),
            OperatorMatrix(basis, um),
            OperatorMatrix(basis, vm))


def commutator(a, b):
    return a @ b - b @ a


def interior_norm(op, pad):
    """Spectral norm of the block with modes |n| <= order - pad.

    pad counts how many modes are trimmed from each edge; pad = 0 is the
    full matrix.  Shift-generated defects sit within one or two modes of
    the edge, so small pads remove them entirely.
    """
    order = op.basis.order
    if not 0 <= pad < order:
        raise ValueError(f"pad must satisfy 0 <= pad < {order}, got {pad}")
    if pad == 0:
        block = op.entries
    else:
        block = op.entries[pad:-pad, pad:-pad]
    return float(np.linalg.norm(block, ord=2))
