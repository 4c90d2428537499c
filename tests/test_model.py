import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from e2qes.algebra import PAD, build_generators, interior_norm
from e2qes.model import (BOUND, COEFF_KEYS, HERMITIAN, REALITY, CoefficientSet,
                         ModelParams, PreconditionError, PtClass, classify_pt,
                         closed_form_counterpart, hermiticity_defect,
                         model_hamiltonian, realize)
from e2qes.timefunc import TimeFunction


def is_hermitian(coeffs, t, order):
    """Dense oracle: interior Hermiticity of the realized operator at time t."""
    H = realize(coeffs, t, order)
    return interior_norm(H - H.conj().T, PAD) <= 1e-12 * (1.0 + interior_norm(H, PAD))


def test_coefficient_coercion():
    c = CoefficientSet({"JJ": 4.0, "uJ": 0.7j})
    assert c.value("JJ", 1.0) == 4.0 + 0.0j
    assert c.value("uJ", 0.3) == 0.7j
    assert c.value("uv", 5.0) == 0.0
    assert repr(c) == "CoefficientSet(nonzero=['JJ', 'uJ'])"


def test_coefficient_expressions():
    c = CoefficientSet({"J": ("sin(t)", 0), "u": (0, "t")})
    assert c.value("J", 0.5) == pytest.approx(np.sin(0.5))
    assert c.value("u", 0.5) == pytest.approx(0.5j)


def test_coefficient_derivative():
    c = CoefficientSet({"J": ("t^2", "3*t")})
    d = c.derivative()
    assert d.value("J", 2.0) == pytest.approx(4.0 + 3.0j)


def test_json_round_trip():
    c = CoefficientSet({"JJ": (4, 0), "uJ": (0, "0.7*cos(t)")})
    data = c.to_json_dict()
    assert set(data) == {"muJ", "muJJ", "muU", "muV", "muUJ", "muVJ",
                         "muUU", "muVV", "muUV"}
    back = CoefficientSet.from_json_dict(data)
    for t in (0.0, 1.1):
        assert back.value("uJ", t) == pytest.approx(c.value("uJ", t))


def test_json_strictness():
    good = CoefficientSet().to_json_dict()
    bad_extra = dict(good, muXX={"re": 0, "im": 0})
    with pytest.raises(ValueError):
        CoefficientSet.from_json_dict(bad_extra)
    bad_missing = {k: v for k, v in good.items() if k != "muV"}
    with pytest.raises(ValueError):
        CoefficientSet.from_json_dict(bad_missing)
    bad_shape = dict(good, muV={"re": 0})
    with pytest.raises(ValueError):
        CoefficientSet.from_json_dict(bad_shape)



@pytest.mark.parametrize("part", [None, [1], True, float("nan"), float("inf"), 10 ** 400],
                         ids=["null", "list", "bool", "nan", "inf", "huge-int"])
def test_json_parts_are_strings_or_finite_numbers(part):
    data = dict(CoefficientSet().to_json_dict(), muV={"re": part, "im": 0})
    with pytest.raises(ValueError, match=r"^muV\.re must be an expression string "):
        CoefficientSet.from_json_dict(data)

def test_classify_model_family():
    p = ModelParams(zeta=0.5, beta=0.3, level=2.3)
    classes = classify_pt(model_hamiltonian(p))
    assert classes == {PtClass.PT2, PtClass.PT4}


# one representative per class, built to its reality pattern
PURE = {
    PtClass.PT1: {"JJ": 2.0, "J": 0.3j, "u": 0.1j, "v": 0.2j,
                  "uJ": 0.4, "vJ": 0.5, "uu": 0.6, "vv": 0.7, "uv": 0.8},
    PtClass.PT2: {"JJ": 2.0, "uJ": 0.4j, "vJ": 0.5j,
                  "u": 0.1, "v": 0.2, "uu": 0.6, "vv": 0.7, "uv": 0.8},
    PtClass.PT3: {"JJ": 2.0, "J": 0.3, "uv": 0.8, "u": 0.1 + 0.2j, "v": 0.1 - 0.2j,
                  "uJ": 0.4 + 0.5j, "vJ": 0.4 - 0.5j, "uu": 0.6 + 0.7j, "vv": 0.6 - 0.7j},
    PtClass.PT4: {"JJ": 2.0, "J": 0.3, "u": 0.1j, "uJ": 0.4j, "uv": 0.8j,
                  "v": 0.2, "vJ": 0.5, "uu": 0.6, "vv": 0.7},
    PtClass.PT5: {"JJ": 2.0, "J": 0.3, "v": 0.2j, "vJ": 0.5j,
                  "uv": 0.8j, "u": 0.1, "uJ": 0.4, "uu": 0.6, "vv": 0.7},
}


def test_classify_pure_classes():
    for cls, terms in PURE.items():
        assert cls in classify_pt(CoefficientSet(terms)), cls


@pytest.mark.parametrize("cls", list(PtClass))
def test_breaking_one_reality_entry_leaves_the_class(cls):
    for word, rule in REALITY[cls].items():
        # move the part the rule pins: the imaginary part of a real or
        # conjugated word, the real part of an imaginary one
        kick = 1e-6 if rule == "im" else 1e-6j
        terms = dict(PURE[cls])
        terms[word] = complex(terms.get(word, 0)) + kick
        assert cls not in classify_pt(CoefficientSet(terms)), word


def test_classify_time_dependent_reality():
    # imaginary-at-one-instant is not enough; the pattern must hold on the grid
    c = CoefficientSet({"JJ": (2.0, 0), "J": (0, "t"), "u": (0, "1-t"),
                        "v": (0, "t^2")})
    assert PtClass.PT1 in classify_pt(c)
    c2 = CoefficientSet({"JJ": (2.0, 0), "J": ("t - 1", "t")})
    assert PtClass.PT1 not in classify_pt(c2)


def test_classify_refuses_empty_sample_times():
    # over no samples every reality pattern holds, so each class would match
    breaks_all = CoefficientSet({"JJ": (2.0, 0), "J": (1.0, 1.0), "uu": (1.0, 1.0)})
    assert classify_pt(breaks_all) == set()
    with pytest.raises(PreconditionError, match="no sample times"):
        classify_pt(breaks_all, ())


def test_realize_literal_order():
    J, u, v = build_generators(6)
    c = CoefficientSet({"uJ": 1.0})
    H = realize(c, 0.0, 6)
    np.testing.assert_allclose(H, u @ J)
    # literal order matters: u @ J != J @ u
    assert np.linalg.norm(u @ J - J @ u) > 0.1


def test_realize_time_dependence():
    c = CoefficientSet({"J": ("t", 0)})
    H1 = realize(c, 1.0, 4)
    H2 = realize(c, 2.0, 4)
    np.testing.assert_allclose(H2, 2.0 * H1)


def test_is_hermitian():
    assert is_hermitian(CoefficientSet({"JJ": 4.0, "v": 1.0}), 0.0, order=16)
    assert not is_hermitian(CoefficientSet({"J": 1.0j}), 0.0, order=16)


def test_hermiticity_defect():
    # (uJ)^+ = uJ - i v and (vJ)^+ = vJ + i u, so these two sums are Hermitian
    for c in ({"JJ": 4.0, "uJ": 1.0, "v": -0.5j}, {"vJ": 1.0, "u": 0.5j}):
        assert hermiticity_defect(CoefficientSet(c), 0.0) == 0.0
        assert is_hermitian(c, 0.0, order=16)
    # the defect is relative to 1 + max_w |c_w|, and no truncation enters
    assert hermiticity_defect({"J": 1.0j}, 0.0) == 0.5
    assert hermiticity_defect({"uJ": 1.0}, 0.0) == 0.25


@given(parts=st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=9),
       moved=st.sampled_from(list(HERMITIAN)),
       step=st.floats(1e-6, 1e-2), sign=st.sampled_from([1, -1]))
def test_hermiticity_table_agrees_with_dense_oracle(parts, moved, step, sign):
    # a map built from the table passes both checks; moving one condition
    # by at least 1e-6 relative fails both, at every truncation
    re = dict(zip(COEFF_KEYS, parts))
    c = {w: complex(re[w], sum(k * re[p] for p, k in HERMITIAN[w].items()))
         for w in COEFF_KEYS}
    off = dict(c, **{moved: c[moved] + 1j * sign * step * (1.0 + max(map(abs, c.values())))})
    assert hermiticity_defect(c, 0.0) <= BOUND
    assert hermiticity_defect(off, 0.0) > BOUND
    for order in (16, 32, 64):
        assert is_hermitian(c, 0.0, order)
        assert not is_hermitian(off, 0.0, order)


def test_model_params_validation():
    with pytest.raises(PreconditionError):
        ModelParams(zeta=np.nan, beta=0.0, level=1.0)
    with pytest.raises(PreconditionError):
        ModelParams.quantized(0, 0.5, 0.3)


def test_model_params_derived_quantities():
    p = ModelParams.quantized(2, 0.5, 0.3)
    assert p.level == pytest.approx(2.3)
    assert p.gamma == pytest.approx(0.65)
    assert p.is_quantized(2)
    assert not p.is_quantized(3)


def test_model_hamiltonian_values():
    p = ModelParams(zeta=0.5, beta=0.3, level=2.3)
    c = model_hamiltonian(p)
    assert c.value("JJ", 0.0) == 4.0
    assert c.value("uJ", 0.0) == pytest.approx(0.7j)
    assert c.value("vv", 0.0) == pytest.approx(-0.075)
    assert c.value("v", 0.0) == pytest.approx(2.3)
    assert c.value("uu", 0.0) == 0.0


def test_counterpart_is_hermitian_matrix():
    p = ModelParams(zeta=0.5, beta=0.3, level=2.3)
    hh = closed_form_counterpart(p, TimeFunction.parse("0.4*sin(t)"))
    for t in (0.0, 0.9, 2.2):
        assert is_hermitian(hh, t, order=32)


def test_counterpart_static_limit():
    # at lam = 0 the counterpart reduces to the Hermitian part structure:
    # J^2 and v words survive, u-type words vanish
    p = ModelParams(zeta=0.5, beta=0.3, level=2.3)
    hh = closed_form_counterpart(p, TimeFunction(0))
    assert hh.value("JJ", 0.0) == pytest.approx(4.0)
    assert hh.value("J", 0.0) == pytest.approx(0.0)
    assert hh.value("u", 0.0) == pytest.approx(0.0)
    assert hh.value("uv", 0.0) == pytest.approx(0.0)
    # v coefficient collapses to m_v - m_uJ/2 at lam = 0
    assert hh.value("v", 0.0) == pytest.approx(2.3 - 0.35)
    # uu picks up the full m_uJ^2/(4 m_JJ)
    assert hh.value("uu", 0.0) == pytest.approx(0.7 ** 2 / 16.0)
    assert hh.value("vv", 0.0) == pytest.approx(-0.075)


def test_counterpart_quadratic_identity():
    # trace-like identity: h_uu + h_vv is lam-independent
    p = ModelParams(zeta=0.8, beta=0.2, level=1.9)
    q = (2.0 * (1.0 - p.beta) * p.zeta) ** 2 / 16.0
    for lam_val in (0.0, 0.6, 1.2):
        hh = closed_form_counterpart(p, TimeFunction(lam_val))
        total = hh.value("uu", 0.0) + hh.value("vv", 0.0)
        assert total == pytest.approx(q - p.beta * p.zeta ** 2, abs=1e-14)
