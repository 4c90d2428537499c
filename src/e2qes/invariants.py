"""Conserved operators for the model family and their defining checks.

The static-frame invariant is the Hamiltonian plus a multiple of the
Casimir-like element u^2 + v^2; the rotating-frame image picks up the
frame-rotation term.  Residuals are measured in the truncation interior.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import PAD, commutator, interior_norm
from .dyson import dyson_params, eta_inverse, eta_matrix
from .model import (CoefficientSet, ModelParams, PtClass, closed_form_counterpart,
                    model_hamiltonian, realize)
from .timefunc import TimeFunction


@dataclass(frozen=True)
class InvariantSpec:
    """Model instance plus the free Casimir weight of its invariant."""

    params: ModelParams
    lam: TimeFunction = 0
    nu_vv: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lam", TimeFunction(self.lam))

    @property
    def casimir_weight(self):
        return self.params.beta * self.params.zeta ** 2 + self.nu_vv


def _plus_casimir(terms, spec):
    """Coefficient set of the word terms plus the Casimir multiple."""
    w = float(spec.casimir_weight)
    return CoefficientSet(dict(terms, **{k: (terms[k][0].expr + w, terms[k][1])
                                         for k in ("uu", "vv")}))


def invariant_static(spec):
    """Static-frame invariant: model Hamiltonian plus the Casimir multiple."""
    return _plus_casimir(dict(model_hamiltonian(spec.params).items()), spec)


def invariant_rotating(spec):
    """Rotating-frame invariant: Hermitian image plus frame term and Casimir.

    The frame term +lam' J cancels the partner's J coefficient -lam'.
    """
    hh = closed_form_counterpart(spec.params, spec.lam)
    return _plus_casimir({k: v for k, v in hh.items() if k != "J"}, spec)


def commutation_residual(spec, order=64):
    """Interior norm of [I, H] in the static frame, relative to |I| |H|."""
    H = realize(model_hamiltonian(spec.params), 0.0, order)
    I = realize(invariant_static(spec), 0.0, order)
    num = interior_norm(commutator(I, H), PAD)
    den = 1.0 + interior_norm(I, PAD) * interior_norm(H, PAD)
    return num / den


def defining_residual(spec, times, order=64):
    """Largest interior norm of dI/dt - i [I, h] over the times, for the
    rotating-frame invariant."""
    hh = closed_form_counterpart(spec.params, spec.lam)
    inv = invariant_rotating(spec)
    d_inv = inv.derivative()
    worst = 0.0
    for t in times:
        h = realize(hh, t, order)
        I = realize(inv, t, order)
        defect = realize(d_inv, t, order) + (-1j) * commutator(I, h)
        worst = max(worst, interior_norm(defect, PAD) / (1.0 + interior_norm(I, PAD)))
    return worst


def similarity_residual(spec, times, order=64):
    """Two-path check over the times: rotating invariant vs conjugated
    static invariant; the largest relative interior difference."""
    params = dyson_params(PtClass.PT2, model_hamiltonian(spec.params), spec.lam)[0]
    I_static = realize(invariant_static(spec), 0.0, order)
    inv = invariant_rotating(spec)
    worst = 0.0
    for t in times:
        direct = realize(inv, t, order)
        conjugated = eta_matrix(params, t, order) @ I_static @ eta_inverse(params, t, order)
        worst = max(worst, interior_norm(direct - conjugated, PAD)
                    / (1.0 + interior_norm(direct, PAD)))
    return worst
