"""Conserved operators for the model family and their defining checks.

The static-frame invariant is the Hamiltonian plus a multiple of the
Casimir-like element u^2 + v^2; the rotating-frame image picks up the
frame-rotation term.  Residuals are measured in the truncation interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import PAD, commutator, interior_norm
from .dyson import dyson_params, eta_inverse, eta_matrix
from .model import (CoefficientSet, ModelParams, PtClass, closed_form_counterpart,
                    model_hamiltonian, realize)
from .timefunc import TimeFunction


@dataclass(frozen=True)
class InvariantSpec:
    """Model instance plus the free Casimir weight of its invariant."""

    params: ModelParams
    lam: TimeFunction = field(default_factory=TimeFunction.zero)
    nu_vv: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lam", TimeFunction(self.lam))

    @property
    def casimir_weight(self):
        return self.params.beta * self.params.zeta ** 2 + self.nu_vv


def _plus_casimir(terms, spec):
    """Coefficient set of the word terms plus the Casimir multiple."""
    w = float(spec.casimir_weight)
    return CoefficientSet(dict(terms, **{k: (terms[k][0] + w, terms[k][1])
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


def defining_residual(spec, t, order=64):
    """Interior norm of dI/dt - i [I, h] for the rotating-frame invariant."""
    h = realize(closed_form_counterpart(spec.params, spec.lam), t, order)
    inv = invariant_rotating(spec)
    I = realize(inv, t, order)
    defect = realize(inv.derivative(), t, order) + (-1j) * commutator(I, h)
    return interior_norm(defect, PAD) / (1.0 + interior_norm(I, PAD))


def similarity_residual(spec, t, order=64):
    """Two-path check: rotating invariant vs conjugated static invariant."""
    params = dyson_params(PtClass.PT2, model_hamiltonian(spec.params), spec.lam)[0]
    eta = eta_matrix(params, t, order)
    eta_inv = eta_inverse(params, t, order)
    I_static = realize(invariant_static(spec), 0.0, order)
    direct = realize(invariant_rotating(spec), t, order)
    conjugated = eta @ I_static @ eta_inv
    diff = direct - conjugated
    return interior_norm(diff, PAD) / (1.0 + interior_norm(direct, PAD))
