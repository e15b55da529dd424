"""The Clifford algebra engine: products, involutions, norms, inversion,
embeddings, and the rho/upsilon/iota maps."""

import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vahlen import clifford, linalg
from vahlen.clifford import (CliffordElement, NotInvertible, NotScalar,
                             SolveTooLarge, all_monomials, element_from_json,
                             element_to_json, enumerate_elements, iota,
                             iota_inv, mask_indices, monomial_mask,
                             paravector_pairing, paravector_q, rho_map,
                             upsilon_element, upsilon_map)
from vahlen.fields import InfiniteField, PrimeField, Q, Scalar
from vahlen.groups import in_group
from vahlen.quadratic import NotASuperspace, QuadraticSpace, SpaceMismatch

F3 = PrimeField(3)


def normalize_word(space, word):
    """Reference for the product kernel: rewrite a generator word into
    canonical monomials by e_i e_i -> q(e_i) and, for i < j,
    e_j e_i -> (e_i, e_j) - e_i e_j, in Scalar arithmetic."""
    field = space.field
    out = {}
    stack = [(word, field.one)]
    while stack:
        w, coef = stack.pop()
        k = -1
        for t in range(len(w) - 1):
            if w[t] >= w[t + 1]:
                k = t
                break
        if k < 0:
            prev = out.get(w)
            out[w] = coef if prev is None else prev + coef
            continue
        a, b = w[k], w[k + 1]
        pre, post = w[:k], w[k + 2:]
        if a == b:
            q = space.qdiag[a]
            if not q.is_zero():
                stack.append((pre + post, coef * q))
        else:
            stack.append((pre + (b, a) + post, -coef))
            pair = space.pairs.get((b, a))
            if pair is not None:
                stack.append((pre + post, coef * pair))
    return {w: c for w, c in out.items() if not c.is_zero()}


def rand_element(space, rng, density=0.5):
    coeffs = {}
    for s in all_monomials(space):
        if rng.random() < density:
            c = space.field.element(rng.randint(-4, 4))
            if not c.is_zero():
                coeffs[s] = c
    return CliffordElement(space, coeffs)


@pytest.fixture
def mixed_space():
    """dim 3 with a degenerate direction and a non-orthogonal pairing."""
    return QuadraticSpace(Q, [1, -1, 0], pairs={(0, 1): 1})


def test_generator_relations(mixed_space):
    V = mixed_space
    for i in range(V.dim):
        ei = CliffordElement.monomial(V, (i,))
        assert ei * ei == CliffordElement.scalar(V, V.qdiag[i])
        for j in range(V.dim):
            ej = CliffordElement.monomial(V, (j,))
            assert ei * ej + ej * ei == \
                CliffordElement.scalar(V, V.pair_value(i, j))


def test_orthogonal_bivector_square():
    V = QuadraticSpace(Q, [2, 3])
    b = CliffordElement.monomial(V, (0, 1))
    assert b * b == CliffordElement.scalar(V, -6)  # -q(e0) q(e1)


def test_space_mismatch():
    V, W = QuadraticSpace(Q, [1]), QuadraticSpace(Q, [2])
    with pytest.raises(SpaceMismatch):
        CliffordElement.one(V) * CliffordElement.one(W)


def test_associativity_random(mixed_space):
    rng = random.Random(11)
    for _ in range(150):
        x, y, z = (rand_element(mixed_space, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_associativity_exhaustive_gf3():
    """Exhaustive associativity over GF(3) in dims 1 and 2."""
    for qdiag, pairs in (([1], {}), ([1, 0], {(0, 1): 1})):
        V = QuadraticSpace(F3, qdiag, pairs)
        elems = enumerate_elements(V)
        if V.dim == 2:
            # bilinearity reduces full associativity to basis triples;
            # still run every triple with scalar weights over the basis
            monos = [CliffordElement.monomial(V, s)
                     for s in all_monomials(V)]
            for x in monos:
                for y in monos:
                    for z in monos:
                        assert (x * y) * z == x * (y * z)
            sample = elems[::5]
        else:
            sample = elems
        for x in sample:
            for y in sample:
                for z in sample:
                    assert (x * y) * z == x * (y * z)


def test_involutions(mixed_space):
    V = mixed_space
    e0 = CliffordElement.monomial(V, (0,))
    assert e0.grade_involution() == -e0
    W = QuadraticSpace(Q, [2, 3])
    b = CliffordElement.monomial(W, (0, 1))
    assert b.transpose() == -b  # reversal of an orthogonal pair
    rng = random.Random(5)
    for _ in range(100):
        x, y = rand_element(V, rng), rand_element(V, rng)
        assert x.grade_involution().grade_involution() == x
        assert x.transpose().transpose() == x
        assert x.conj().conj() == x
        assert x.conj() == x.grade_involution().transpose()
        assert x.conj() == x.transpose().grade_involution()
        assert (x * y).transpose() == y.transpose() * x.transpose()
        assert (x * y).conj() == y.conj() * x.conj()
        assert (x * y).grade_involution() == \
            x.grade_involution() * y.grade_involution()


def test_transpose_with_nonorthogonal_basis(mixed_space):
    # reversal is a real computation here, not a sign flip
    V = mixed_space
    e0, e1 = (CliffordElement.monomial(V, (i,)) for i in range(2))
    b = CliffordElement.monomial(V, (0, 1))
    assert b.transpose() == e1 * e0
    assert e1 * e0 == CliffordElement.scalar(V, 1) - b  # (e0,e1) - e0 e1


def test_conj_negates_vectors(mixed_space):
    v = CliffordElement.from_vector(mixed_space.vector([1, 2, -3]))
    assert v.conj() == -v


def test_pairing_identities(mixed_space):
    """u v' + v u' = -(u, v) and the paravector analogue."""
    V = mixed_space
    rng = random.Random(3)
    for _ in range(60):
        u = V.vector([V.field.element(rng.randint(-3, 3))
                      for _ in range(V.dim)])
        v = V.vector([V.field.element(rng.randint(-3, 3))
                      for _ in range(V.dim)])
        ue, ve = CliffordElement.from_vector(u), CliffordElement.from_vector(v)
        lhs = ue * ve.grade_involution() + ve * ue.grade_involution()
        assert lhs == CliffordElement.scalar(V, -u.pair(v))
        xi = CliffordElement.paravector(V, V.field.element(rng.randint(-3, 3)), u)
        eta = CliffordElement.paravector(V, V.field.element(rng.randint(-3, 3)), v)
        lhs = xi * eta.grade_involution() + eta * xi.grade_involution()
        assert lhs == CliffordElement.scalar(V, -paravector_pairing(xi, eta))
        assert xi.norm() == CliffordElement.scalar(V, -paravector_q(xi))


def test_norm(mixed_space):
    V = mixed_space
    v = CliffordElement.from_vector(V.vector([1, 2, 1]))
    assert v.norm() == CliffordElement.scalar(V, -V.vector([1, 2, 1]).q())
    assert CliffordElement.one(V).norm() == CliffordElement.one(V)
    rng = random.Random(17)
    for _ in range(60):
        x = rand_element(V, rng)
        y = rand_element(V, rng)
        if y.norm().is_scalar():
            assert (x * y).norm() == x.norm() * y.norm()


def test_parts(mixed_space):
    V = mixed_space
    x = (CliffordElement.scalar(V, 3) + CliffordElement.monomial(V, (0,))
         + CliffordElement.monomial(V, (0, 1)))
    assert x.part("scalar") == CliffordElement.scalar(V, 3)
    assert x.scalar_part() == Q.element(3)
    assert x.part("even") + x.part("odd") == x
    pv = CliffordElement.scalar(V, 3) + CliffordElement.monomial(V, (0,))
    assert pv.is_paravector() and not pv.is_vector()
    assert not x.is_paravector()
    with pytest.raises(NotScalar):
        x.to_scalar()
    a, v = pv.paravector_parts()
    assert a == Q.element(3) and v == V.vector([1, 0, 0])


def test_inverse(mixed_space):
    V = mixed_space
    v = CliffordElement.from_vector(V.vector([1, 2, 0]))
    qv = V.vector([1, 2, 0]).q()
    assert not qv.is_zero()
    assert v.inverse() == v * qv.inverse()  # v / q(v)
    r = CliffordElement.monomial(V, (2,))  # radical, q = 0
    one = CliffordElement.one(V)
    assert (one + r).inverse() == one - r  # (1+r)(1-r) = 1 - r^2 = 1
    hyp = QuadraticSpace(Q, []).extend_hyperbolic()
    e = CliffordElement.monomial(hyp, (0,))
    with pytest.raises(NotInvertible):
        e.inverse()  # e^2 = 0
    rng = random.Random(23)
    hits = 0
    for _ in range(80):
        x = rand_element(V, rng)
        try:
            xi = x.inverse()
        except NotInvertible:
            continue
        hits += 1
        assert x * xi == CliffordElement.one(V)
        assert xi * x == CliffordElement.one(V)
    assert hits > 10


def test_inverse_solve_path_beyond_scalar_norm():
    """e2 + e0 e1 over GF(3) is invertible with a non-scalar norm, so the
    conj/N fast path cannot apply and the linear solver must run."""
    V = QuadraticSpace(F3, [1, 1, 1])
    x = (CliffordElement.monomial(V, (2,))
         + CliffordElement.monomial(V, (0, 1)))
    assert not x.norm().is_scalar()
    inv = x.inverse()
    assert x * inv == CliffordElement.one(V)
    assert inv * x == CliffordElement.one(V)


def test_embed(mixed_space):
    V = mixed_space
    vc = V.extend_sigma(Q.element(2))
    vu = V.extend_hyperbolic()
    rng = random.Random(31)
    for _ in range(50):
        x, y = rand_element(V, rng), rand_element(V, rng)
        for ext in (vc, vu):
            assert (x * y).embed(ext) == x.embed(ext) * y.embed(ext)
            assert (x + y).embed(ext) == x.embed(ext) + y.embed(ext)
            assert x.transpose().embed(ext) == x.embed(ext).transpose()
    assert CliffordElement.one(V).embed(vu) == CliffordElement.one(vu)
    sigma = CliffordElement.monomial(vc, (vc.labels["sigma"],))
    e0 = CliffordElement.monomial(V, (0,))
    assert e0.embed(vc) * sigma == CliffordElement.monomial(vc, (0, 3))
    with pytest.raises(NotASuperspace):
        e0.embed(QuadraticSpace(Q, [5, 5, 5, 5]))


def test_rho_map(mixed_space):
    V = mixed_space
    vf = V.extend_sigma(Q.one)  # V_F with rho = sigma_1
    rng = random.Random(37)
    rho = CliffordElement.monomial(vf, (vf.labels["rho"],))
    v = CliffordElement.from_vector(V.vector([1, 0, 2]))
    assert rho_map(v, vf) == v.embed(vf) * rho
    for _ in range(60):
        x, y = rand_element(V, rng), rand_element(V, rng)
        assert rho_map(x, vf).is_even()
        assert rho_map(x * y, vf) == rho_map(x, vf) * rho_map(y, vf)
        assert rho_map(x.conj(), vf) == rho_map(x, vf).conj()


def test_upsilon_relations(mixed_space):
    V = mixed_space
    vuf = V.extend_hyperbolic_rho()
    ups = upsilon_element(vuf)
    # frozen from the expansion oracle: (ef - fe) rho (ef - fe) rho = -1
    assert ups * ups == -CliffordElement.one(vuf)
    assert ups.transpose() == -ups
    e = CliffordElement.monomial(vuf, (vuf.labels["e"],))
    f = CliffordElement.monomial(vuf, (vuf.labels["f"],))
    rho = CliffordElement.monomial(vuf, (vuf.labels["rho"],))
    assert e * ups == ups * e == rho * e == -(e * rho)
    assert f * ups == ups * f == -(rho * f) == f * rho
    assert rho * ups == ups * rho == f * e - e * f
    rng = random.Random(41)
    for _ in range(50):
        x = rand_element(V, rng)
        xr, xu = rho_map(x, vuf), upsilon_map(x, vuf)
        xg = rho_map(x.grade_involution(), vuf)
        assert xu * e == xr * e
        assert xu * f == xg * f
        assert e * xu == xg * e
        assert f * xu == xr * f
        assert upsilon_map(x.transpose(), vuf) == xu.transpose()
        assert xr * e == e * xr and xr * f == f * xr
        assert rho * xr == xg * rho


def test_iota(mixed_space):
    V = mixed_space
    vf = V.extend_sigma(Q.one)
    one = CliffordElement.one(V)
    img = iota(one, vf)
    assert img.coords == (Q.zero,) * 3 + (-Q.one,)  # iota(1) = -rho
    rng = random.Random(43)
    rho = CliffordElement.monomial(vf, (vf.labels["rho"],))
    for _ in range(60):
        a = Q.element(rng.randint(-3, 3))
        v = V.vector([Q.element(rng.randint(-3, 3)) for _ in range(3)])
        xi = CliffordElement.paravector(V, a, v)
        w = iota(xi, vf)
        assert w.q() == paravector_q(xi)  # q(v) - a^2
        assert CliffordElement.from_vector(w) == -(rho_map(xi, vf) * rho)
        assert iota_inv(w, V) == xi


_HYP_SPACE = QuadraticSpace(Q, [1, 0], pairs={(0, 1): 1})
_HYP_MONOS = all_monomials(_HYP_SPACE)


@st.composite
def elements(draw):
    coeffs = {}
    for s in _HYP_MONOS:
        c = draw(st.integers(min_value=-4, max_value=4))
        if c:
            coeffs[s] = Q.element(c)
    return CliffordElement(_HYP_SPACE, coeffs)


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements())
def test_ring_and_involution_laws_hypothesis(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x * y).transpose() == y.transpose() * x.transpose()
    assert (x * y).conj() == y.conj() * x.conj()
    assert x.conj().conj() == x
    assert x.grade_involution().transpose() == x.conj()


def test_element_json(mixed_space):
    rng = random.Random(47)
    for _ in range(20):
        x = rand_element(mixed_space, rng)
        data = element_to_json(x)
        assert element_from_json(mixed_space, data) == x
    with pytest.raises(ValueError):
        element_from_json(mixed_space, [{"indices": [1, 0], "coeff": "1"}])
    with pytest.raises(ValueError):
        element_from_json(mixed_space, [{"indices": [9], "coeff": "1"}])


def test_negative_and_zero_coefficient_indices_refused(mixed_space):
    """A negative index is not read as counting from the last generator,
    and a bad term is refused even when its coefficient is zero."""
    for indices in ((-1,), (-1, 0), (-2, -1)):
        with pytest.raises(ValueError, match="out of range"):
            CliffordElement.monomial(mixed_space, indices)
        with pytest.raises(ValueError, match="bad monomial indices"):
            element_from_json(mixed_space,
                              [{"indices": list(indices), "coeff": "1"}])
    with pytest.raises(ValueError, match="bad monomial indices"):
        element_from_json(mixed_space, [{"indices": [9], "coeff": "0"}])
    assert CliffordElement.monomial(mixed_space, (0,)).coeffs == {(0,): 1}


@pytest.mark.parametrize("indices", [(0, 0), (1, 0), (2,), (5,), (-1,),
                                     (0, -1)],
                         ids=["repeated", "decreasing", "at_dim", "past_dim",
                              "negative", "negative_last"])
def test_constructor_refuses_bad_index_tuples(indices):
    """A repeated, decreasing, out-of-range or negative index tuple is not
    read as some other monomial (dim 2: (0, 0) was e1, (1, 0) was e0e1)."""
    V = QuadraticSpace(Q, [1, -1])
    with pytest.raises(ValueError, match="bad monomial indices"):
        CliffordElement(V, {indices: 1})
    x = CliffordElement(V, {(): 1, (0,): 2, (1,): 3, (0, 1): 4})
    with pytest.raises(KeyError):
        x.coeffs[indices]
    assert indices not in x.coeffs and x.coeffs.get(indices) is None


# -- the integer product kernel against the rewriting reference -----------------


def _assert_monomials_match_oracle(space):
    monos = all_monomials(space)
    elems = {s: CliffordElement.monomial(space, s) for s in monos}
    for s in monos:
        assert elems[s].transpose().coeffs == \
            normalize_word(space, s[::-1]), s
        for t in monos:
            assert (elems[s] * elems[t]).coeffs == \
                normalize_word(space, s + t), (s, t)
    return len(monos) ** 2


def test_kernel_matches_oracle_every_gf3_form():
    """Every monomial product and transpose over every GF(3) form of
    dimension at most 3: all diagonals times all pair values."""
    checked = 0
    for dim in range(4):
        slots = list(itertools.combinations(range(dim), 2))
        for qdiag in itertools.product(range(3), repeat=dim):
            for values in itertools.product(range(3), repeat=len(slots)):
                space = QuadraticSpace(F3, list(qdiag),
                                       dict(zip(slots, values)))
                checked += _assert_monomials_match_oracle(space)
    assert checked == 47101


def test_kernel_matches_oracle_over_q():
    """Q forms whose q and pair values have denominators 2, 3 and 5, up to
    dim 7: a degenerate dim-4 space and its V_U, V_UF and sigma extension."""
    V = QuadraticSpace(
        Q, [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), 0],
        {(0, 1): Fraction(1, 2), (1, 2): Fraction(2, 5),
         (2, 3): Fraction(-1, 3), (0, 3): 3})
    for space in (V, V.extend_sigma(Fraction(3, 5)), V.extend_hyperbolic(),
                  V.extend_hyperbolic_rho()):
        _assert_monomials_match_oracle(space)


def _reference_product(x, y):
    space = x.space
    acc = {}
    for s, a in x.coeffs.items():
        for t, b in y.coeffs.items():
            for u, c in normalize_word(space, s + t).items():
                acc[u] = acc.get(u, space.field.zero) + a * b * c
    return CliffordElement(space, acc)


def _reference_transpose(x):
    space = x.space
    acc = {}
    for s, a in x.coeffs.items():
        for u, c in normalize_word(space, s[::-1]).items():
            acc[u] = acc.get(u, space.field.zero) + a * c
    return CliffordElement(space, acc)


@pytest.mark.parametrize("field", [Q, F3, PrimeField(5), PrimeField(7)],
                         ids=repr)
def test_kernel_matches_scalar_reference(field):
    """Seeded random elements, fractional coefficients over Q, against the
    product and transpose computed term by term in Scalar arithmetic."""
    third, fifth = ((Fraction(2, 3), Fraction(-1, 5)) if field == Q
                    else (-2, 4))
    space = QuadraticSpace(field, [Fraction(1, 2), -1, 0, 3],
                           {(0, 1): third, (1, 3): 1, (2, 3): fifth})
    p = field.modulus
    rng = random.Random(59)
    values = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4))
    for _ in range(40):
        x, y = ({s: field.element(rng.choice(values))
                 for s in all_monomials(space) if rng.random() < 0.4}
                for _ in range(2))
        x, y = CliffordElement(space, x), CliffordElement(space, y)
        for got, want in ((x * y, _reference_product(x, y)),
                          (x.transpose(), _reference_transpose(x))):
            assert got == want and hash(got) == hash(want)
            assert got.coeffs == want.coeffs
            for c in got.coeffs.values():
                assert not c.is_zero()
                if p is not None:
                    assert isinstance(c.value, int) and 0 < c.value < p


@pytest.mark.parametrize("field", [Q, F3], ids=repr)
def test_kernel_drops_cancelled_terms(field):
    """A coefficient that cancels to zero is absent, not a zero Scalar."""
    V = QuadraticSpace(field, [2, 2])
    e0, e1 = (CliffordElement.monomial(V, (i,)) for i in range(2))
    z = (e0 + e1) * (e0 - e1)  # q(e0) - q(e1) - 2 e0 e1
    assert z.coeffs == {(0, 1): field.element(-2)}
    assert (e0 - e0).coeffs == {}
    assert (e0 * e1 + e1 * e0).is_zero()
    W = QuadraticSpace(field, [1, -1, 0], {(0, 1): 1})
    rng = random.Random(61)
    hits = 0
    for _ in range(30):
        x = rand_element(W, rng)
        try:
            xi = x.inverse()
        except NotInvertible:
            continue
        hits += 1
        assert (x * xi).coeffs == {(): field.one}
    assert hits > 5


def test_monomial_cache_is_lazy_and_shared():
    V = QuadraticSpace(Q, [1, -1, 2], {(0, 1): Fraction(1, 2)})
    assert V._mono_cache == {} and V._kernel is None
    e01 = CliffordElement.monomial(V, (0, 1))
    e01.transpose()
    rows = lambda: {s: set(row) for s, row in V._mono_cache.items()}
    assert rows() == {0b11: {None}}
    e01 * e01
    assert rows() == {0b11: {None, 0b11}}


# -- constants of an extension derived from its blocks ---------------------------

# the dim-4 space of the verify-q benchmark: degenerate, non-orthogonal
VERIFY_Q = ([1, -1, 2, 0], {(0, 1): 1, (2, 3): Fraction(1, 2)})


def _extensions(V, cs):
    return [V.extend_sigma(c) for c in cs] + [V.extend_hyperbolic(),
                                              V.extend_hyperbolic_rho()]


def _assert_derived_match_fold(ext):
    """Every constant of ext, derived from its base and its block, against
    the same space built plainly, whose constants all come from the fold."""
    plain = QuadraticSpace(ext.field, ext.qdiag, ext.pairs, ext.labels)
    assert ext._base is not None and plain._base is None
    monos = range(1 << ext.dim)
    for s in monos:
        assert dict(clifford._mono_terms(ext, s, None)) == \
            dict(clifford._mono_terms(plain, s, None)), s
        for t in monos:
            assert dict(clifford._mono_terms(ext, s, t)) == \
                dict(clifford._mono_terms(plain, s, t)), (s, t)


def test_derived_constants_match_fold_every_gf3_form():
    """V_F^c for every c, V_U and V_UF of every GF(3) form of dim <= 2."""
    for dim in range(3):
        slots = list(itertools.combinations(range(dim), 2))
        for qdiag in itertools.product(range(3), repeat=dim):
            for values in itertools.product(range(3), repeat=len(slots)):
                V = QuadraticSpace(F3, list(qdiag), dict(zip(slots, values)))
                for ext in _extensions(V, range(3)):
                    _assert_derived_match_fold(ext)


def test_derived_constants_match_fold_over_q():
    """The verify-q space; c = 1/3 gives V_F^c a scale L of 3 where V's is
    2, so the division by V's scale must stay exact."""
    V = QuadraticSpace(Q, *VERIFY_Q)
    for ext in _extensions(V, (1, 0, -1, Fraction(1, 3))):
        _assert_derived_match_fold(ext)
    assert clifford._kernel(V)[1] == 2
    assert clifford._kernel(V.extend_sigma(Fraction(1, 3)))[1] == 6


def test_extensions_share_the_base_cache(monkeypatch):
    """Products in C(V_U) and C(V_UF) take V's constants from V's cache,
    folded once for both; each extension folds only its block's."""
    V = QuadraticSpace(Q, *VERIFY_Q)
    n = V.dim
    steps = []
    step = clifford._step
    monkeypatch.setattr(clifford, "_step",
                        lambda kern, terms, t: steps.append((kern, t))
                        or step(kern, terms, t))
    v_steps = []
    low = (1 << n) - 1
    for ext in (V.extend_hyperbolic(), V.extend_hyperbolic_rho()):
        x = CliffordElement(ext, {s: Q.one for s in all_monomials(ext)})
        x * x
        x.transpose()
        block_keys = 0
        for s, t in ((s, t) for s, row in ext._mono_cache.items()
                     for t in row):
            if not (s | (t or 0)) & low:
                block_keys += 1
                continue
            assert (None if t is None else t & low) in V._mono_cache[s & low]
        assert block_keys == 4 ** (ext.dim - n) + 2 ** (ext.dim - n) <= 72
        ext_steps = [t for kern, t in steps if kern is ext._kernel]
        assert ext_steps and all(t >= n for t in ext_steps)
        v_steps.append(sum(kern is V._kernel for kern, _ in steps))
    assert v_steps[0] == v_steps[1] > 0


# -- the mask kernel against the tuple-keyed kernel it replaced --------------

# the dim-5 space of the act-cold benchmark: verify-q's with a fifth generator
ACT_COLD = ([1, -1, 2, 0, 3], VERIFY_Q[1])


def _ref_step(kern, terms, t):
    """The tuple-keyed closed-form step: (sum n_s e_s) e_t with monomials as
    increasing index tuples; every constant gains a factor L."""
    p, step, _, qs, above = kern
    partners, qt = above[t], qs[t]
    out = {}
    get = out.get
    for s, n in terms.items():
        k = bisect_left(s, t)
        hit = k < len(s) and s[k] == t
        if partners:
            last = len(s) - 1
            for j in range(k + hit, len(s)):
                pv = partners.get(s[j])
                if pv:
                    u = s[:j] + s[j + 1:]
                    out[u] = get(u, 0) + (-n * pv if (last - j) % 2
                                          else n * pv)
        if (len(s) - k - hit) % 2:
            n = -n
        if not hit:
            u = s[:k] + (t,) + s[k:]
            out[u] = get(u, 0) + n * step
        elif qt:
            u = s[:k] + s[k + 1:]
            out[u] = get(u, 0) + n * qt
    if p is not None:
        return {u: n % p for u, n in out.items() if n % p}
    return {u: n for u, n in out.items() if n}


def _ref_mono_terms(space, s, t):
    """The tuple-keyed constants of e_s e_t over the scale D, or of the
    transpose of e_s when t is None, computed afresh on every call."""
    base = space._base
    nv = 0 if base is None else len(base.qdiag)
    if (s and s[0] < nv) or (t and t[0] < nv):
        return _ref_block_terms(space, base, nv, s, t)
    kern = clifford._kernel(space)
    terms, word = ({(): 1}, s[::-1]) if t is None else ({s: 1}, t)
    for g in word:
        terms = _ref_step(kern, terms, g)
    pad = kern[1] ** (space.dim - len(word))  # L**(dim - k)
    return tuple((u, n * pad) for u, n in terms.items())


def _ref_block_terms(space, base, nv, s, t):
    """The tuple-keyed split of an extension constant into V's and the
    block's, with nv = dim V."""
    i = bisect_left(s, nv)
    if t is None:
        j, tv, tb = i, None, None
    else:
        j = bisect_left(t, nv)
        tv, tb = t[:j], t[j:]
    vs = _ref_mono_terms(base, s[:i], tv)
    bs = _ref_mono_terms(space, s[i:], tb)
    p = clifford._kernel(space)[0]
    dv = clifford._kernel(base)[2]
    if (len(s) - i) * j % 2:
        dv = -dv
    if dv != 1:
        bs = [(g, b // dv) for g, b in bs]
    if p is None:
        return tuple([(v + g, a * b) for v, a in vs for g, b in bs])
    return tuple([(v + g, a * b % p) for v, a in vs for g, b in bs])


def _assert_pair_matches_reference(space, s, t):
    """The mask kernel's constants of e_s e_t (of the transpose of e_s when
    t is None), keys mapped to index tuples, equal the reference's."""
    got = clifford._mono_terms(space, monomial_mask(s),
                               None if t is None else monomial_mask(t))
    assert sorted((mask_indices(u), n) for u, n in got) == \
        sorted(_ref_mono_terms(space, s, t)), (s, t)


def test_mask_kernel_matches_reference_every_gf3_form():
    """Every pair and every transpose on every GF(3) form of dim <= 2, on
    V_F^c for every c, and on V_U and V_UF."""
    for dim in range(3):
        slots = list(itertools.combinations(range(dim), 2))
        for qdiag in itertools.product(range(3), repeat=dim):
            for values in itertools.product(range(3), repeat=len(slots)):
                V = QuadraticSpace(F3, list(qdiag), dict(zip(slots, values)))
                for space in [V] + _extensions(V, range(3)):
                    monos = all_monomials(space)
                    for s in monos:
                        _assert_pair_matches_reference(space, s, None)
                        for t in monos:
                            _assert_pair_matches_reference(space, s, t)


def test_mask_kernel_matches_reference_over_q():
    """A seeded sample of 2,000 pairs and 50 dense products on the verify-q
    and act-cold spaces and their V_UF, against products summed from the
    reference's constants in Fraction arithmetic."""
    rng = random.Random(21)
    spaces = []
    for qdiag, pairs in (VERIFY_Q, ACT_COLD):
        V = QuadraticSpace(Q, qdiag, pairs)
        spaces += [V, V.extend_hyperbolic_rho()]
    for k, space in enumerate(spaces):
        monos = all_monomials(space)
        for _ in range(500):
            s, t = rng.choice(monos), rng.choice(monos)
            _assert_pair_matches_reference(space, s, None)
            _assert_pair_matches_reference(space, s, t)
        scale = clifford._kernel(space)[2]
        for _ in range(13 if k < 2 else 12):
            x, y = ({s: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for s in rng.sample(monos, 16)} for _ in range(2))
            want = {}
            for s, a in x.items():
                for t, b in y.items():
                    for u, f in _ref_mono_terms(space, s, t):
                        want[u] = want.get(u, 0) + a * b * Fraction(f, scale)
            got = CliffordElement(space, x) * CliffordElement(space, y)
            assert got == CliffordElement(space, want)


# -- the size guard of the solving inverse --------------------------------------


def _solve_path_element(dim):
    """e_{n-1} + e_0 e_1 over GF(3): invertible, but its norm is no scalar."""
    V = QuadraticSpace(F3, [1] * dim)
    x = (CliffordElement.monomial(V, (dim - 1,))
         + CliffordElement.monomial(V, (0, 1)))
    assert not x.norm().is_scalar()
    return x


class _SolveReached(Exception):
    pass


def test_solve_refused_past_bound(monkeypatch):
    """Past MAX_SOLVE_DIM the inverse refuses before building its system;
    the refusal is no NotInvertible, so group tests cannot read it as a
    silent False."""
    def solve(*_):
        raise _SolveReached
    monkeypatch.setattr(linalg, "solve", solve)
    x = _solve_path_element(clifford.MAX_SOLVE_DIM + 1)
    assert not issubclass(SolveTooLarge, NotInvertible)
    with pytest.raises(SolveTooLarge):
        x.inverse()
    with pytest.raises(SolveTooLarge):
        x.is_invertible()
    with pytest.raises(SolveTooLarge):
        in_group(x, "gamma")
    with pytest.raises(_SolveReached):
        _solve_path_element(clifford.MAX_SOLVE_DIM).inverse()


def _enumerate_elements_reference(space):
    """The enumeration as repeated additions of monomial multiples."""
    elems = [CliffordElement.zero(space)]
    for s in all_monomials(space):
        elems = [x if c.is_zero()
                 else x + CliffordElement.monomial(space, s, c)
                 for x in elems for c in space.field.elements()]
    return elems


def test_enumerate_elements_matches_repeated_additions():
    """The same elements in the same order, and none over Q."""
    for p, qdiag in ((3, [1]), (3, [1, 2]), (5, [0])):
        V = QuadraticSpace(PrimeField(p), qdiag)
        elems = enumerate_elements(V)
        assert elems == _enumerate_elements_reference(V)
        assert len(elems) == p ** (2 ** len(qdiag))
    with pytest.raises(InfiniteField):
        enumerate_elements(QuadraticSpace(Q, [1]))


# -- the integer store against Scalar-dict arithmetic ----------------------------
#
# The reference is the element arithmetic of the Scalar-dict store the
# integer store replaced: every operation on the Scalar coefficients read
# through x.coeffs, zero coefficients dropped.

_PART_KEEP = {"scalar": lambda s: not s, "even": lambda s: len(s) % 2 == 0,
              "odd": lambda s: len(s) % 2 == 1}


def _ref_sum(x, y):
    out = dict(x.items())
    for s, c in y.items():
        out[s] = out[s] + c if s in out else c
    return {s: c for s, c in out.items() if not c.is_zero()}


def _assert_store(got, want_coeffs):
    """got has the reference coefficients and the canonical integer form:
    residues in 1..p-1 over 1, or nonzero numerators over a positive den
    sharing no factor with them (so 0 is {} over 1)."""
    want = CliffordElement(got.space, want_coeffs)
    assert got == want and hash(got) == hash(want)
    assert got.coeffs == want_coeffs
    values, p = list(got.terms.values()), got.space.field.modulus
    assert all(type(n) is int and n for n in values)
    assert type(got.den) is int and got.den > 0
    if p is None:
        assert math.gcd(got.den, *values) == 1
    else:
        assert got.den == 1 and all(0 < n < p for n in values)


def _check_unary(x, multipliers):
    field, ref = x.space.field, dict(x.coeffs.items())
    _assert_store(-x, {s: -c for s, c in ref.items()})
    _assert_store(x.grade_involution(),
                  {s: -c if len(s) % 2 else c for s, c in ref.items()})
    for kind, keep in _PART_KEEP.items():
        _assert_store(x.part(kind),
                      {s: c for s, c in ref.items() if keep(s)})
    for k in multipliers:
        want = {s: c * field.element(k) for s, c in ref.items()}
        want = {s: c for s, c in want.items() if not c.is_zero()}
        _assert_store(x * k, want)
        _assert_store(k * x, want)


def _check_pair(x, y):
    rx, ry = dict(x.coeffs.items()), dict(y.coeffs.items())
    _assert_store(x + y, _ref_sum(rx, ry))
    _assert_store(x - y, _ref_sum(rx, {s: -c for s, c in ry.items()}))
    assert (x == y) == (rx == ry)
    if rx == ry:
        assert hash(x) == hash(y)


def test_store_matches_scalar_reference_gf3_dim_le_1():
    """Every ordered pair of elements of every GF(3) form of dim <= 1."""
    for qdiag in ([], [0], [1], [2]):
        elems = enumerate_elements(QuadraticSpace(F3, qdiag))
        for x in elems:
            _check_unary(x, (0, 1, 2, F3.element(2), Fraction(1, 2)))
            for y in elems:
                _check_pair(x, y)
                _assert_store((x + y) - y, dict(x.coeffs.items()))


def test_store_matches_scalar_reference_gf3_dim_2():
    """Every element of each GF(3) dim-2 form against 8 seeded partners."""
    rng = random.Random(67)
    for q0, q1, pair in itertools.product(range(3), repeat=3):
        elems = enumerate_elements(
            QuadraticSpace(F3, [q0, q1], {(0, 1): pair}))
        for x in elems:
            _check_unary(x, (2,))
            for y in rng.sample(elems, 8):
                _check_pair(x, y)


def test_store_matches_scalar_reference_over_q():
    """200 seeded pairs on the dim-4 verify-q space, with coefficient
    denominators 1, 2, 3, 4 and 6; half of the partners cancel x down to
    one monomial, so the sum must reduce its denominator."""
    V = QuadraticSpace(Q, *VERIFY_Q)
    monos = all_monomials(V)
    rng = random.Random(71)

    def draw():
        return CliffordElement(V, {
            s: Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)),
                        rng.choice((1, 2, 3, 4, 6)))
            for s in monos if rng.random() < 0.4})

    for i in range(200):
        x = draw()
        y = draw()
        if i % 2:
            y = CliffordElement.monomial(V, rng.choice(monos),
                                         Fraction(1, 6)) - x
        _check_pair(x, y)
        _check_unary(x, (Fraction(-2, 3), Q.element(Fraction(3, 4)), 6, 0))


def test_store_explicit_cases():
    V = QuadraticSpace(Q, *VERIFY_Q)
    x = CliffordElement(V, {(): Fraction(1, 2), (0, 1): Fraction(-3, 4),
                            (2,): 5, (0, 2, 3): Fraction(2, 3)})
    y = (x * Fraction(1, 3)) * 3
    assert y == x and hash(y) == hash(x) and y.den == x.den == 12
    assert x.part("even") + x.part("odd") == x
    even = CliffordElement(V, {(0,): Fraction(1, 2), (): 3}).part("even")
    assert even == 3 and even.den == 1 and even.terms == {0: 3}
    assert (x - x).terms == {} and (x - x).den == 1
    half, two_quarters = (element_from_json(V, [{"indices": [0], "coeff": c}])
                          for c in ("1/2", "2/4"))
    assert two_quarters == half and hash(two_quarters) == hash(half)
    assert two_quarters.den == 2 and two_quarters.terms == {0b1: 1}
    W = QuadraticSpace(F3, [1, 2])
    z = CliffordElement(W, {(): 2, (0, 1): Fraction(1, 2)})
    assert z.terms == {0: 2, 0b11: 2} and z.den == 1
    assert (z * 2) * 2 == z and -(-z) == z


@pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=repr)
def test_store_arithmetic_builds_no_scalars(field, monkeypatch):
    """Products, transposes, +, -, scalar *, the involutions, parts,
    equality, hashing and the keys and length of coeffs run on the integer
    store alone; only reading a coefficient builds a Scalar."""
    V = QuadraticSpace(field, *VERIFY_Q)
    x = CliffordElement(V, {(): 2, (0, 1): Fraction(1, 2), (2, 3): -3})
    y = CliffordElement(V, {(1,): Fraction(2, 3), (0, 2, 3): 1})
    k = field.element(3)
    V.raw  # the space's raw form is built once, from its Scalars
    built = []
    real_init = Scalar.__init__

    def counting_init(self, f, value):
        built.append(value)
        real_init(self, f, value)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    results = [x * y, x.transpose(), x + y, x - y, -x, x * k, k * x,
               x * Fraction(1, 2), 3 * x, x + 1, x.grade_involution(),
               x.conj(), x.part("even"), x.part("odd"), x.part("scalar")]
    assert x != y and x * 1 == x and x.norm() == x * x.conj()
    assert len({hash(r) for r in results}) > 1
    assert list(x.terms) == [0, 0b11, 0b1100] and len(y.coeffs) == 2
    assert list(x.coeffs) == [(), (0, 1), (2, 3)]
    assert built == []
    assert x.coeffs[(0, 1)] == Fraction(1, 2) and len(built) == 1
