"""Symbolic proof that each class's constraint rows suffice for Hermiticity.

The free coefficient parts are generic real functions of t, the J^2
weight is a positive symbol, each static row's part is a real constant
and each formula row sets its part.  The package's own builders give the
frame profiles, and its own frame terms and conjugation table give the
image.  The tests prove the nine linear Hermiticity conditions of
``model.HERMITIAN`` (the numeric gate reads the same table) for every
input of each class, and show that moving any one row's part breaks one
of them.
"""

import numpy as np
import pytest
import sympy as sp

from e2qes import dyson
from e2qes.model import COEFF_KEYS, HERMITIAN, REALITY, PtClass
from e2qes.timefunc import T

ROW_COUNTS = {PtClass.PT1: 4, PtClass.PT2: 3, PtClass.PT3: 4, PtClass.PT4: 3,
              PtClass.PT5: 3}


def _inputs(cls, moved=None):
    """(mu, lam, tau, rows) with the rows solved over generic parts.

    moved is the index of a row whose part is then moved off it: by 1e-3
    for a formula row, by 1e-3 t for a static row.  Conjugate partners
    are filled last, so a PT3 partner moves along.
    """
    pattern = REALITY[cls]
    mu = {(word, part): sp.Function(f"{word}_{part}", real=True)(T)
          if pattern.get(word, part) == part else sp.S.Zero
          for word in COEFF_KEYS for part in ("re", "im")}
    mu["JJ", "re"] = sp.Symbol("m", positive=True)
    L = sp.Function("L", real=True)(T)
    lam = tau = None
    if cls is PtClass.PT1:
        mu["J", "im"] = -sp.diff(L, T)  # so lambda integrates to L(t) - L(0)
    else:
        lam = L
    if cls is PtClass.PT5:
        tau = sp.Function("K", real=True)(T)
    build = dyson._CLASSES[cls].build
    for _, word, part, formula in build(mu, lam, tau)[1]:
        if formula is None:
            mu[word, part] = sp.Symbol(f"{word}_{part}_0", real=True)
    rows = build(mu, lam, tau)[1]
    for _, word, part, formula in rows:
        if formula is not None:
            mu[word, part] = formula
    if moved is not None:
        _, word, part, formula = rows[moved]
        mu[word, part] += sp.Float(1e-3) * (1 if formula is not None else T)
    for word, rule in pattern.items():
        if rule not in ("re", "im"):
            mu[word, "re"] = mu[rule, "re"]
            mu[word, "im"] = -mu[rule, "im"]
    return mu, lam, tau, rows


def _conditions(cls, moved=None):
    """The nine HERMITIAN conditions of the mapped coefficients."""
    mu, lam, tau, _ = _inputs(cls, moved)
    slots = dyson._CLASSES[cls].build(mu, lam, tau)[0]
    frame = dyson._frame_terms(cls, slots, [sp.diff(s, T) for s in slots], sp, sp.I)
    h = dyson._conjugate_table({w: mu[w, "re"] + sp.I * mu[w, "im"] for w in COEFF_KEYS},
                               frame, sp.I)
    # sympy drops real=True on a derivative, so each becomes a real symbol
    derivatives = set().union(*(sp.sympify(c).atoms(sp.Derivative) for c in h.values()))
    real = {d: sp.Symbol(f"d{k}", real=True)
            for k, d in enumerate(sorted(derivatives, key=sp.default_sort_key))}
    re, im = {}, {}
    for w, c in h.items():
        re[w], im[w] = sp.expand(sp.sympify(c).xreplace(real)).as_real_imag()
    return [im[w] - sum(sp.Rational(k) * re[p] for p, k in row.items())
            for w, row in HERMITIAN.items()]


@pytest.mark.parametrize("cls", list(PtClass))
def test_rows_suffice_for_hermiticity(cls):
    for k, c in enumerate(_conditions(cls)):
        assert sp.cancel(sp.powsimp(sp.expand(c.rewrite(sp.exp)))) == 0, (cls, k)


@pytest.mark.parametrize("cls", list(PtClass))
def test_moving_any_row_breaks_hermiticity(cls):
    rows = _inputs(cls)[3]
    assert len(rows) == ROW_COUNTS[cls]
    rng = np.random.default_rng(3)
    for k, (name, word, part, _) in enumerate(rows):
        conditions = _conditions(cls, moved=k)
        atoms = set().union(*(c.atoms(sp.Symbol, sp.core.function.AppliedUndef)
                              for c in conditions))
        values = {a: sp.Float(rng.uniform(0.2, 0.9))
                  for a in sorted(atoms, key=sp.default_sort_key)}
        worst = max(abs(complex(c.xreplace(values).evalf())) for c in conditions)
        assert worst > 1e-9, (name, word, part)
