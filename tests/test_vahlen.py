"""Vahlen group membership conditions, pseudo-determinant, generators,
sampler, and small exhaustive verifications."""

import random

import pytest

from vahlen.clifford import CliffordElement, enumerate_elements
from vahlen.fields import InfiniteField, PrimeField, Q
from vahlen.groups import CMatrix2, in_group, matrix_to_CU, matrix_to_CUF
from vahlen.matrices import (NotVahlen, TooLarge, check_condition,
                             condition3_failure, diagnose, dilation,
                             generator, in_T, is_vahlen, matrix_from_json,
                             matrix_inverse, matrix_to_json, pseudo_det,
                             random_vahlen, translation, vector_scalar,
                             verify_equivalence_exhaustive, weyl)
from vahlen.quadratic import QuadraticSpace

F3 = PrimeField(3)


@pytest.fixture
def space():
    return QuadraticSpace(Q, [1, -1])


def test_in_T(space):
    one = CliffordElement.one(space)
    assert in_T(one, "vector") and in_T(one, "paravector")
    v = CliffordElement.from_vector(space.vector([1, 2]))
    assert in_T(v, "vector") and in_T(v, "paravector")
    xi = CliffordElement.paravector(space, Q.one, space.vector([1, 0]))
    assert in_T(xi, "paravector")
    assert not in_T(xi, "vector")  # 1 + v does not conjugate V into V


def test_translation_conditions(space):
    t = translation(space, "vector", space.vector([1, 2]))
    for which in (1, 2, 3, 4):
        assert check_condition(t, "vector", which)
    assert pseudo_det(t, "vector") == Q.one
    # scalar beta: in F+V but not in V
    ts = translation(space, "paravector",
                     CliffordElement.one(space))
    assert not is_vahlen(ts, "vector")
    assert is_vahlen(ts, "paravector")
    assert "conj(alpha)*beta not in V" == condition3_failure(ts, "vector")


def test_weyl_and_dilation(space):
    w = weyl(space)
    assert diagnose(w, "vector")["agree"] and is_vahlen(w, "vector")
    assert pseudo_det(w, "vector") == Q.one
    assert w * w == CMatrix2.identity(space).scale(Q.element(-1))
    d = dilation(space, Q.element(3))
    assert pseudo_det(d, "vector") == Q.element(3)
    assert dilation(space, 2) * dilation(space, 3) == dilation(space, 6)
    with pytest.raises(ValueError):
        dilation(space, 0)
    zero = CMatrix2.from_entries(space, 0, 0, 0, 0)
    assert not is_vahlen(zero, "vector")


def test_vector_scalar(space):
    v = space.vector([1, 2])  # q = 1 - 4 = -3
    vs = vector_scalar(space, v)
    assert is_vahlen(vs, "vector")
    assert pseudo_det(vs, "vector") == v.q()
    with pytest.raises(ValueError):
        vector_scalar(space, space.vector([1, 1]))  # isotropic


def test_weyl_translate_product_matrix(space):
    """alpha = 0, gamma = -beta = 1, delta a vector is Vahlen."""
    one = CliffordElement.one(space)
    d = CliffordElement.from_vector(space.vector([2, 1]))
    m = CMatrix2(CliffordElement.zero(space), -one, one, d)
    assert diagnose(m, "vector")["agree"]
    assert is_vahlen(m, "vector")
    assert pseudo_det(m, "vector") == Q.one


def test_generator_dispatch(space):
    m = generator(space, "vector", "translation", space.vector([1, 0]))
    assert is_vahlen(m, "vector")
    assert generator(space, "vector", "weyl") == weyl(space)
    with pytest.raises(ValueError):
        generator(space, "vector", "spin")
    with pytest.raises(ValueError):
        translation(space, "vector", CliffordElement.one(space))


def test_sampler(space):
    for kind in ("vector", "paravector"):
        for seed in range(8):
            m = random_vahlen(space, kind, seed, 1 + seed % 8)
            assert diagnose(m, kind)["agree"]
            assert is_vahlen(m, kind)
            ms = random_vahlen(space, kind, seed, 5, special=True)
            assert pseudo_det(ms, kind) == Q.one
    # deterministic with the seed
    assert random_vahlen(space, "vector", 123, 6) == \
        random_vahlen(space, "vector", 123, 6)
    with pytest.raises(ValueError):
        random_vahlen(space, "vector", 1, 0)


def test_closure_inverse_and_det(space):
    rng = random.Random(5)
    for kind in ("vector", "paravector"):
        for _ in range(15):
            m1 = random_vahlen(space, kind, rng, rng.randint(1, 8))
            m2 = random_vahlen(space, kind, rng, rng.randint(1, 8))
            assert is_vahlen(m1 * m2, kind)
            assert pseudo_det(m1 * m2, kind) == \
                pseudo_det(m1, kind) * pseudo_det(m2, kind)
            inv = matrix_inverse(m1, kind)
            assert is_vahlen(inv, kind)
            assert m1 * inv == CMatrix2.identity(space)
            assert inv * m1 == CMatrix2.identity(space)
            for x, y in zip(m1.entries(), inv.entries()):
                # Remark invV: conjugates keep the same norms
                assert x.conj().norm() == x.norm()


def test_condition4_group_images(space):
    vu = space.extend_hyperbolic()
    vuf = space.extend_hyperbolic_rho()
    rng = random.Random(6)
    for _ in range(10):
        m = random_vahlen(space, "vector", rng, 6)
        assert in_group(matrix_to_CU(m, vu), "gamma_fx")
        mp = random_vahlen(space, "paravector", rng, 6)
        img = matrix_to_CUF(mp, vuf)
        assert img.is_even() and in_group(img, "gamma_fx")


def test_pseudo_det_errors(space):
    bad = CMatrix2.from_entries(space, 1, 1, 0, 1)
    assert not is_vahlen(bad, "vector")
    with pytest.raises(NotVahlen):
        pseudo_det(bad, "vector")


# (condition count, T_count) of the exhaustive check per qdiag and kind;
# all four conditions must reach the same count
EXHAUSTIVE_GF3 = {
    (1,): {"vector": (96, 5), "paravector": (1152, 9)},
    (0,): {"vector": (216, 9), "paravector": (1296, 9)},
    (2,): {"vector": (96, 5), "paravector": (1440, 9)},
}


def test_exhaustive_gf3_dim1():
    for qdiag, per_kind in EXHAUSTIVE_GF3.items():
        V = QuadraticSpace(F3, list(qdiag))
        for kind, (count, t_count) in per_kind.items():
            report = verify_equivalence_exhaustive(V, kind)
            assert report["matrix_count"] == 6561
            assert report["T_star_invariant"] is True
            assert report["condition_sets_equal"] is True
            assert report["T_count"] == t_count
            assert report["counts"] == {f"condition{k}": count
                                        for k in (1, 2, 3, 4)}


def test_exhaustive_dim0_is_monomial_matrices():
    """Over V = 0 the Vahlen matrices are exactly the monomial ones."""
    V = QuadraticSpace(F3, [])
    report = verify_equivalence_exhaustive(V, "vector")
    assert report["condition_sets_equal"]
    # oracle count: (a 0; 0 d) with ad != 0, plus (0 b; c 0) with bc != 0
    p = 3
    expected = (p - 1) ** 2 * 2
    assert report["counts"]["condition3"] == expected
    # spot-check the shape claim against the predicate itself
    elems = enumerate_elements(V)
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    m = CMatrix2(a, b, c, d)
                    diag_form = (not a.is_zero() and not d.is_zero()
                                 and b.is_zero() and c.is_zero())
                    anti_form = (a.is_zero() and d.is_zero()
                                 and not b.is_zero() and not c.is_zero())
                    assert is_vahlen(m, "vector") == (diag_form or anti_form)


def test_exhaustive_guards():
    with pytest.raises(InfiniteField):
        verify_equivalence_exhaustive(QuadraticSpace(Q, [1]), "vector")
    with pytest.raises(TooLarge):
        verify_equivalence_exhaustive(QuadraticSpace(F3, [1, -1]), "vector")


def test_matrix_json(space):
    m = random_vahlen(space, "vector", 9, 5)
    data = matrix_to_json(m)
    assert matrix_from_json(space, data) == m
