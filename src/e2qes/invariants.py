"""Dynamical invariants of the model family and the residuals of criterion 8.

The static invariant is the Hamiltonian H plus a multiple of the
Casimir-like element u^2 + v^2 and commutes with H; the rotating
invariant is the closed-form partner h with the frame term +lam' J and
the same multiple, and obeys dI/dt = i [I, h].  The PT2 frame map
carries the first to the second.  :func:`invariant_residuals` measures
the three relations in the truncation interior.
"""

from __future__ import annotations

from .algebra import PAD, commutator, interior_norm
from .dyson import dyson_params, eta_inverse, eta_matrix
from .model import (CoefficientSet, PtClass, closed_form_counterpart, model_hamiltonian,
                    realize)
from .timefunc import TimeFunction

ORDER = 64  # mode truncation of every residual


def _invariants(p, lam, nu_vv):
    """(H, static, rotating, partner) coefficient sets for pump profile lam.

    Both invariants add w (u^2 + v^2) with w = beta zeta^2 + nu_vv.  The
    rotating one drops the partner's J word: the frame term +lam' J
    cancels the partner's -lam'.
    """
    H = model_hamiltonian(p)
    partner = closed_form_counterpart(p, lam)
    w = float(p.beta * p.zeta ** 2 + nu_vv)

    def plus_casimir(terms):
        return CoefficientSet(dict(terms, **{k: (terms[k][0].expr + w, terms[k][1])
                                             for k in ("uu", "vv")}))

    return (H, plus_casimir(dict(H.items())),
            plus_casimir({k: v for k, v in partner.items() if k != "J"}), partner)


def invariant_residuals(p, lam, nu_vv, times):
    """(commutation, defining, two_path) residuals of the invariants.

    commutation is |[I_static, H]| relative to 1 + |I_static| |H|.  Over
    the times, defining is the largest |dI/dt - i [I, h]| and two_path the
    largest |I - eta I_static eta^-1| for the rotating invariant I, both
    relative to 1 + |I|.  Every norm is taken in the interior at ORDER modes.
    """
    lam = TimeFunction(lam)
    H, static, rotating, partner = _invariants(p, lam, nu_vv)
    d_rotating = rotating.derivative()
    params = dyson_params(PtClass.PT2, H, lam)[0]
    H0 = realize(H, 0.0, ORDER)
    I0 = realize(static, 0.0, ORDER)
    commutation = interior_norm(commutator(I0, H0), PAD) / (
        1.0 + interior_norm(I0, PAD) * interior_norm(H0, PAD))
    defining = two_path = 0.0
    for t in times:
        I = realize(rotating, t, ORDER)
        scale = 1.0 + interior_norm(I, PAD)
        # each defect stays unnamed, so it is freed before the next one is built
        defining = max(defining, interior_norm(
            realize(d_rotating, t, ORDER) + (-1j) * commutator(I, realize(partner, t, ORDER)),
            PAD) / scale)
        two_path = max(two_path, interior_norm(
            I - eta_matrix(params, t, ORDER) @ I0 @ eta_inverse(params, t, ORDER), PAD) / scale)
    return commutation, defining, two_path
