"""Quadratic spaces: q, the bilinear form, radicals, and extensions."""

import itertools
import random
from fractions import Fraction

import pytest

from vahlen.fields import PrimeField, Q
from vahlen.halfspace import HalfSpace
from vahlen.quadratic import (QuadraticSpace, SpaceMismatch,
                              is_orthogonal_fixing_radical, reflection_matrix,
                              space_from_json, space_to_json,
                              vector_from_json, vector_to_json)

F3 = PrimeField(3)
F5 = PrimeField(5)


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


# -- the raw form against the Scalar loops it replaced ------------------------


def reference_q(space, coords):
    """q(v) = sum v_i^2 q(e_i) + sum_{i<j} v_i v_j (e_i, e_j), on Scalars."""
    acc = space.field.zero
    nonzero = [(i, c) for i, c in enumerate(coords) if not c.is_zero()]
    for i, c in nonzero:
        acc = acc + c * c * space.qdiag[i]
    for a in range(len(nonzero)):
        i, ci = nonzero[a]
        for b in range(a + 1, len(nonzero)):
            j, cj = nonzero[b]
            p = space.pairs.get((i, j))
            if p is not None:
                acc = acc + ci * cj * p
    return acc


def reference_bilinear(space, u, v):
    acc = space.field.zero
    for i, ui in enumerate(u):
        if ui.is_zero():
            continue
        for j, vj in enumerate(v):
            if not vj.is_zero():
                acc = acc + ui * vj * space.pair_value(i, j)
    return acc


def reference_in_radical(space, coords):
    for i in range(space.dim):
        acc = space.field.zero
        for j, c in enumerate(coords):
            acc = acc + space.pair_value(i, j) * c
        if not acc.is_zero():
            return False
    return True


def _assert_form_matches_reference(space, vectors, pairs):
    raw = space.raw
    for v in vectors:
        values = [c.value for c in v]
        ref = reference_q(space, v)
        assert space.q(v) == ref and raw.q(values) == ref.value
        assert type(space.q(v).value) is type(ref.value)
        ref_rad = reference_in_radical(space, v)
        assert space.in_radical(v) == ref_rad == raw.in_radical(values)
    for u, v in pairs:
        assert space.bilinear(u, v) == reference_bilinear(space, u, v)


def _gf_spaces():
    """Every GF(3) form of dim <= 2 and GF(5) form of dim <= 1, with the
    part spaces of both kinds."""
    for field, max_dim in ((F3, 2), (F5, 1)):
        values = range(field.modulus)
        for dim in range(max_dim + 1):
            keys = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
            for qdiag in itertools.product(values, repeat=dim):
                for pv in itertools.product(values, repeat=len(keys)):
                    space = QuadraticSpace(field, qdiag, dict(zip(keys, pv)))
                    for kind in ("vector", "paravector"):
                        yield HalfSpace(space, 1, kind).part_space


def test_raw_form_matches_scalar_reference_over_gf():
    count = 0
    for space in _gf_spaces():
        field = space.field
        vectors = list(itertools.product(list(field.elements()),
                                         repeat=space.dim))
        _assert_form_matches_reference(
            space, vectors, itertools.product(vectors, repeat=2))
        count += 1
    assert count == 2 * (1 + 3 + 27) + 2 * (1 + 5)


def test_raw_form_matches_scalar_reference_over_q():
    """200 seeded vectors on the dim-4 space of the verify-q benchmark,
    zero coordinates included, then 50 on each of its part spaces and on
    its extension by sigma_0, which has a radical."""
    space = QuadraticSpace(Q, [1, -1, 2, 0],
                           {(0, 1): 1, (2, 3): Fraction(1, 2)})
    rng = random.Random(5)
    pool = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3)]
    spaces = [(space, 200), (space.extend_sigma(0), 50)] + [
        (HalfSpace(space, 1, kind).part_space, 50)
        for kind in ("vector", "paravector")]
    radical_hits = 0
    for sp, count in spaces:
        vectors = [tuple(Q.element(rng.choice(pool)) for _ in range(sp.dim))
                   for _ in range(count)]
        vectors += [tuple(c * Q.element(Fraction(-2, 3)) for c in r.coords)
                    for r in sp.radical_basis()]
        radical_hits += sum(reference_in_radical(sp, v) for v in vectors
                            if any(v))
        _assert_form_matches_reference(
            sp, vectors, zip(vectors, vectors[1:] + vectors[:1]))
    assert radical_hits
