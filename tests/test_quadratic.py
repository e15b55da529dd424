"""Quadratic spaces: q, the bilinear form, radicals, and extensions."""

import pytest

from vahlen.fields import PrimeField, Q
from vahlen.quadratic import (QuadraticSpace, SpaceMismatch,
                              is_orthogonal_fixing_radical, reflection_matrix,
                              space_from_json, space_to_json,
                              vector_from_json, vector_to_json)

F3 = PrimeField(3)


def test_q_values():
    V = QuadraticSpace(Q, [1, 1])
    assert V.zero_vector().q() == Q.zero
    assert V.vector([1, 1]).q() == Q.element(2)
    hyp = QuadraticSpace(Q, []).extend_hyperbolic()
    # h(ae + bf) = ab
    assert hyp.vector([1, 1]).q() == Q.one
    assert hyp.vector([2, 3]).q() == Q.element(6)


def test_bilinear_form():
    hyp = QuadraticSpace(Q, []).extend_hyperbolic()
    e, f = hyp.basis_vector(0), hyp.basis_vector(1)
    assert e.pair(f) == Q.one
    V = QuadraticSpace(Q, [3])
    v = V.basis_vector(0)
    assert v.pair(v) == Q.element(6)  # (v, v) = 2 q(v)
    with pytest.raises(SpaceMismatch):
        e.pair(V.basis_vector(0))


def test_polarization_identity_on_basis():
    V = QuadraticSpace(Q, [1, -2, 0], pairs={(0, 1): 3, (1, 2): -1})
    for i in range(3):
        for j in range(3):
            u, v = V.basis_vector(i), V.basis_vector(j)
            assert u.pair(v) == (u + v).q() - u.q() - v.q()


def test_radical():
    assert QuadraticSpace(Q, [1, -1]).radical_basis() == ()
    line = QuadraticSpace(Q, [0])
    assert [v.coords for v in line.radical_basis()] == [(Q.one,)]
    V = QuadraticSpace(Q, [1, 0])
    rad = V.radical_basis()
    assert len(rad) == 1 and rad[0] == V.basis_vector(1)
    for r in rad:
        assert r.q().is_zero()  # q vanishes on the radical (char != 2)
        assert r.in_radical()


def test_radical_with_pairings():
    # e0 pairs with e1; e2 isolated isotropic -> radical is the e2 line
    V = QuadraticSpace(Q, [0, 0, 0], pairs={(0, 1): 1})
    rad = V.radical_basis()
    assert len(rad) == 1 and rad[0] == V.basis_vector(2)


def test_extensions():
    V = QuadraticSpace(Q, [1, -1])
    vc = V.extend_sigma(Q.element(5))
    assert vc.dim == 3
    assert vc.qdiag[2] == Q.element(-5)
    assert vc.labels["sigma"] == 2
    v1 = V.extend_sigma(Q.one)
    assert v1.labels["rho"] == 2  # V_F = V_F^1 with rho = sigma_1
    assert v1.qdiag[2] == -Q.one

    vu = V.extend_hyperbolic()
    e, f = vu.labels["e"], vu.labels["f"]
    assert vu.qdiag[e].is_zero() and vu.qdiag[f].is_zero()
    assert vu.pair_value(e, f) == Q.one
    assert vu.is_extension_of(V)

    vuf = V.extend_hyperbolic_rho()
    assert vuf.dim == 5 and vuf.qdiag[vuf.labels["rho"]] == -Q.one
    assert vuf.is_extension_of(V)
    assert not V.is_extension_of(vu)


def test_extension_radical_is_embedded_radical():
    V = QuadraticSpace(Q, [1, 0])
    for ext in (V.extend_sigma(Q.element(5)), V.extend_hyperbolic(),
                V.extend_hyperbolic_rho()):
        rad = ext.radical_basis()
        assert len(rad) == 1
        assert rad[0].coords[:2] == (Q.zero, Q.one)
        assert all(c.is_zero() for c in rad[0].coords[2:])
    # c = 0 is the exception: sigma_0 itself is isotropic and orthogonal
    # to everything, so it joins the radical
    rad0 = V.extend_sigma(Q.zero).radical_basis()
    assert len(rad0) == 2


def test_reflection_is_orthogonal_involution():
    V = QuadraticSpace(Q, [1, -1, 0], pairs={(0, 1): 1})
    v = V.vector([1, 1, 0])
    assert not v.q().is_zero()
    r = reflection_matrix(v)
    assert is_orthogonal_fixing_radical(r, V)
    # r_v is an involution
    from vahlen.linalg import mat_mul, identity_matrix
    assert mat_mul(r, r, Q) == identity_matrix(3, Q)
    with pytest.raises(ZeroDivisionError):
        reflection_matrix(V.vector([0, 0, 1]))


def test_orthogonal_predicate_rejects_radical_movers():
    V = QuadraticSpace(Q, [1, 0])
    mat = [[Q.one, Q.zero], [Q.zero, Q.element(2)]]  # doubles the radical
    assert not is_orthogonal_fixing_radical(mat, V)
    ident = [[Q.one, Q.zero], [Q.zero, Q.one]]
    assert is_orthogonal_fixing_radical(ident, V)
    singular = [[Q.one, Q.zero], [Q.zero, Q.zero]]
    assert not is_orthogonal_fixing_radical(singular, V)


def test_space_json_roundtrip():
    V = QuadraticSpace(F3, [1, 0], pairs={(0, 1): 2}, labels={"u": 1})
    data = space_to_json(V)
    W = space_from_json(data)
    assert W == V and W.labels == V.labels
    v = V.vector([1, 2])
    assert vector_from_json(V, vector_to_json(v)) == v
    with pytest.raises(ValueError):
        space_from_json({"field": "F3", "dim": 2, "qdiag": ["1"]})
    with pytest.raises(ValueError, match="reserved"):
        space_from_json(dict(data, labels={"sigma": 1}))
