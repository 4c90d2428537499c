import numpy as np
import pytest

from e2qes.algebra import build_generators, commutator, interior_norm


def test_generator_entries():
    J, u, v = build_generators(3)
    assert J.shape == u.shape == v.shape == (7, 7)
    # J multiplies by the mode number; row/column k holds mode k - 3
    np.testing.assert_allclose(np.diag(J), np.arange(-3, 4))
    # u: -i/2 raising, +i/2 lowering in the mode index
    for k in range(6):
        assert u[k + 1, k] == -0.5j
        assert u[k, k + 1] == 0.5j
        assert v[k + 1, k] == 0.5
        assert v[k, k + 1] == 0.5


def test_generators_cached_and_validated():
    assert build_generators(8) is build_generators(8)
    with pytest.raises(ValueError):
        build_generators(1)


def test_bracket_relations_exact():
    J, u, v = build_generators(16)
    d1 = commutator(u, J) - 1j * v
    d2 = commutator(v, J) + 1j * u
    assert np.linalg.norm(d1) == 0.0
    assert np.linalg.norm(d2) == 0.0


def test_uv_bracket_corner_defect():
    J, u, v = build_generators(12)
    c = commutator(u, v)
    # bulk vanishes, the two corner entries (modes +12, -12) carry the
    # truncation defect
    assert c[-1, -1] == pytest.approx(-0.5j)
    assert c[0, 0] == pytest.approx(0.5j)
    assert interior_norm(c, 0) == pytest.approx(0.5)
    assert interior_norm(c, 1) == 0.0


def test_casimir_corner_defect():
    J, u, v = build_generators(12)
    C = u @ u + v @ v
    d = C - np.eye(C.shape[0])
    assert d[0, 0] == pytest.approx(-0.5)
    assert d[-1, -1] == pytest.approx(-0.5)
    assert interior_norm(d, 1) == 0.0


def test_interior_norm_monotone_in_pad(rng):
    m = rng.normal(size=(21, 21)) + 1j * rng.normal(size=(21, 21))
    norms = [interior_norm(m, pad) for pad in range(10)]
    assert all(norms[i] >= norms[i + 1] for i in range(9))


def test_interior_norm_pad_validation():
    J, _, _ = build_generators(5)
    with pytest.raises(ValueError):
        interior_norm(J, 5)
    with pytest.raises(ValueError):
        interior_norm(J, -1)


def test_mixed_basis_rejected():
    A = build_generators(4)[0]
    B = build_generators(5)[0]
    with pytest.raises(ValueError):
        A @ B


def test_entries_read_only():
    for m in build_generators(4):
        with pytest.raises(ValueError):
            m[0, 0] = 99.0
