"""Truncated Fourier-mode matrix algebra on the circle.

Operators are plain complex numpy arrays acting on the span of
exp(i*n*theta) for n = -M..M; row and column k hold mode k - M.  The three
generators are the mode-number operator J, and the multiplication
operators u = sin(theta), v = cos(theta), which shift modes by one unit
and therefore leak at the two edge modes.  Everything downstream that
needs exact operator identities measures them on an interior block via
:func:`interior_norm` so the edge leakage is excluded deliberately
rather than hidden.
"""

from __future__ import annotations

import functools

import numpy as np

# modes trimmed from each edge wherever an operator identity is checked
PAD = 4
CUTOFFS = (64, 128, 256, 512)  # tried in turn where a result checks its own truncation


@functools.lru_cache(maxsize=32)
def build_generators(order):
    """J, u, v on the 2*order+1 mode basis, read-only.

    J is diagonal with integer entries.  u and v couple n to n+-1: u has
    -i/2 on the up-shift and +i/2 on the down-shift, v has 1/2 on both,
    matching multiplication by sin/cos on mode amplitudes.
    """
    if not isinstance(order, (int, np.integer)) or order < 2:
        raise ValueError(f"order must be an integer >= 2, got {order!r}")
    dim = 2 * order + 1
    jm = np.diag(np.arange(-order, order + 1).astype(complex))
    um = np.zeros((dim, dim), dtype=complex)
    vm = np.zeros((dim, dim), dtype=complex)
    k = np.arange(dim - 1)  # index of mode n; k + 1 is mode n + 1
    um[k + 1, k] = -0.5j
    um[k, k + 1] = 0.5j
    vm[k + 1, k] = vm[k, k + 1] = 0.5
    for m in (jm, um, vm):
        m.setflags(write=False)
    return jm, um, vm


def commutator(a, b):
    return a @ b - b @ a


def interior_norm(op, pad):
    """Spectral norm of the block with modes |n| <= order - pad.

    pad counts how many modes are trimmed from each edge; pad = 0 is the
    full matrix.  Shift-generated defects sit within one or two modes of
    the edge, so small pads remove them entirely.
    """
    order = (op.shape[0] - 1) // 2
    if not 0 <= pad < order:
        raise ValueError(f"pad must satisfy 0 <= pad < {order}, got {pad}")
    block = op[pad:op.shape[0] - pad, pad:op.shape[1] - pad]
    return float(np.linalg.norm(block, ord=2))
