"""Clifford group predicates, the projections pi and pi-tilde, and the
2x2-matrix isomorphisms."""

import itertools
import random
from fractions import Fraction

import pytest

from vahlen import linalg
from vahlen.clifford import (CliffordElement, NotInvertible, all_monomials,
                             enumerate_elements, paravector_pairing,
                             paravector_q, rho_map)
from vahlen.fields import PrimeField, Q
from vahlen.groups import (CMatrix2, CU_to_matrix, CUF_to_matrix,
                           NotInCliffordGroup, in_group, lands,
                           matrix_involution, matrix_to_CU, matrix_to_CUF,
                           pi, pi_tilde, probe_elements)
from vahlen.quadratic import NotASuperspace, QuadraticSpace

from matrix_helpers import (identity_matrix, is_orthogonal_fixing_radical,
                            r1_matrix, reflection_matrix)

F3 = PrimeField(3)


def rand_element(space, rng, density=0.5):
    coeffs = {}
    for s in all_monomials(space):
        if rng.random() < density:
            c = space.field.element(rng.randint(-3, 3))
            if not c.is_zero():
                coeffs[s] = c
    return CliffordElement(space, coeffs)


def rand_gamma_fx(space, rng, factors=3):
    """A random Gamma^Fx element: product of anisotropic vectors and a
    nonzero scalar (plus a twisted-center unit when a radical exists)."""
    x = CliffordElement.scalar(space, rng.choice((1, -1, 2)))
    made = 0
    while made < factors:
        v = space.vector([space.field.element(rng.randint(-2, 2))
                          for _ in range(space.dim)])
        if v.q().is_zero():
            continue
        x = x * CliffordElement.from_vector(v)
        made += 1
    for r in space.radical_basis():
        if rng.random() < 0.4:
            x = x * (CliffordElement.one(space)
                     + CliffordElement.from_vector(r))
    return x


@pytest.fixture
def degen_space():
    return QuadraticSpace(Q, [1, -1, 0], pairs={(0, 1): 1})


def test_scalars_are_central_gamma(degen_space):
    a = CliffordElement.scalar(degen_space, 5)
    assert in_group(a, "gamma")
    assert in_group(a, "gamma_fx")
    assert pi(a) == identity_matrix(3, Q)
    assert pi_tilde(a) == identity_matrix(4, Q)


def test_vector_memberships(degen_space):
    V = degen_space
    v = CliffordElement.from_vector(V.vector([1, 0, 0]))  # q = 1, N = -1
    assert in_group(v, "gamma_fx")
    assert in_group(v, "gamma_minus")
    assert not in_group(v, "gamma_1")  # N(v) = -q(v) = -1 != 1
    u = CliffordElement.from_vector(V.vector([0, 1, 0]))  # q = -1, N = 1
    assert in_group(u, "gamma_1")
    iso = CliffordElement.from_vector(V.vector([0, 0, 1]))  # radical
    assert not in_group(iso, "gamma")  # not invertible


def test_twisted_center(degen_space):
    V = degen_space
    r = CliffordElement.from_vector(V.vector([0, 0, 1]))
    one = CliffordElement.one(V)
    assert in_group(one + r, "twisted_center")
    assert in_group(one + r, "gamma")  # kernel of pi
    assert pi(one + r) == identity_matrix(3, Q)
    e0 = CliffordElement.monomial(V, (0,))
    assert not in_group(one + e0, "twisted_center")
    # nondegenerate: the twisted center reduces to the scalars
    W = QuadraticSpace(Q, [1, -1])
    assert in_group(CliffordElement.scalar(W, 2), "twisted_center")
    assert not in_group(CliffordElement.one(W)
                        + CliffordElement.monomial(W, (0,)),
                        "twisted_center")


def test_paravector_membership(degen_space):
    V = degen_space
    xi = CliffordElement.paravector(V, Q.element(2), V.vector([1, 0, 0]))
    # q_F(xi) = q(v) - a^2 = 1 - 4 = -3, so N(xi) = 3 is a nonzero scalar
    assert in_group(xi, "tilde_gamma_fx")
    mat = pi_tilde(xi)
    assert linalg.det(mat, Q) == Q.one


def test_graded_tags(degen_space):
    V = degen_space
    e0 = CliffordElement.monomial(V, (0,))
    e1 = CliffordElement.monomial(V, (1,))
    assert in_group(e0, "gamma_pm") and not in_group(e0, "gamma_plus")
    prod = e0 * e1
    assert in_group(prod, "gamma_plus") and in_group(prod, "gamma_pm")
    assert not in_group(prod, "gamma_minus")
    mixed = CliffordElement.one(V) + CliffordElement.monomial(V, (2,))
    assert in_group(mixed, "gamma") and not in_group(mixed, "gamma_pm")
    # norm-1 paravector: q_F(2 + e0) = 1 - 4 = -3... use a = 0, q(v) = -1
    xi = CliffordElement.paravector(V, Q.zero, V.vector([0, 1, 0]))
    assert in_group(xi, "tilde_gamma_1")  # N = -q_F = 1
    with pytest.raises(ValueError):
        in_group(e0, "gamma_zero")


NORM_TAGS = ("gamma_fx", "gamma_1", "tilde_gamma_fx", "tilde_gamma_1")


def _membership_via_inverse(x, tag):
    """The reference: conjugation by the general inverse, then the norm."""
    try:
        ginv = x.inverse().grade_involution()
    except NotInvertible:
        return False
    kind = "paravector" if tag.startswith("tilde") else "vector"
    if not all(lands(x * t * ginv, kind)
               for t in probe_elements(x.space, kind)):
        return False
    n = x.norm()
    if tag.endswith("_1"):
        return n == CliffordElement.one(x.space)
    return n.is_scalar() and not n.scalar_part().is_zero()


def test_norm_tags_never_solve(degen_space, monkeypatch):
    """The *_fx and *_1 tags decide membership from the norm and
    conj(x)/N(x), with the verdicts of the general-inverse reference."""
    rng = random.Random(12)
    V = degen_space
    one = CliffordElement.one(V)
    samples = [rand_element(V, rng) for _ in range(20)]
    samples += [rand_gamma_fx(V, rng) for _ in range(10)]
    samples += [CliffordElement.from_vector(V.vector([0, 0, 1])),  # N = 0
                one + CliffordElement.monomial(V, (0,)),  # N = 1 - q = 0
                CliffordElement.zero(V)]
    assert any(not x.norm().is_scalar() for x in samples)
    assert any(x.norm().is_scalar() and x.norm().scalar_part().is_zero()
               for x in samples)
    expected = {(i, tag): _membership_via_inverse(x, tag)
                for i, x in enumerate(samples) for tag in NORM_TAGS}
    assert any(expected.values()) and not all(expected.values())

    def no_solve(*args, **kwargs):
        raise AssertionError("in_group started a linear solve")

    monkeypatch.setattr(linalg, "solve", no_solve)
    for (i, tag), want in expected.items():
        assert in_group(samples[i], tag) == want, (samples[i], tag)


def test_pi_tilde_of_paravector_is_reflection_composite(degen_space):
    """pi_tilde(xi) = r_xi . r_1 for anisotropic paravectors."""
    V = degen_space
    n1 = V.dim + 1
    basis = [CliffordElement.one(V)] + \
        [CliffordElement.monomial(V, (i,)) for i in range(V.dim)]

    def para_reflection(xi):
        q = paravector_q(xi)
        a_xi, v_xi = xi.paravector_parts()
        xi_coords = (a_xi,) + v_xi.coords
        cols = []
        for eta in basis:
            a, v = eta.paravector_parts()
            coords = (a,) + v.coords
            f = paravector_pairing(eta, xi) / q
            cols.append(tuple(e - f * x for e, x in zip(coords, xi_coords)))
        return [[cols[j][i] for j in range(n1)] for i in range(n1)]

    r1 = r1_matrix(V)
    rng = random.Random(8)
    for _ in range(25):
        xi = CliffordElement.paravector(
            V, Q.element(rng.randint(-2, 2)),
            V.vector([Q.element(rng.randint(-2, 2)) for _ in range(V.dim)]))
        if paravector_q(xi).is_zero():
            continue
        composite = linalg.mat_mul(para_reflection(xi), r1, Q)
        assert pi_tilde(xi) == composite
        assert linalg.det(composite, Q) == Q.one


def test_tilde_norms_land_in_even_twisted_center(degen_space):
    V = degen_space
    rng = random.Random(9)
    for _ in range(25):
        x = CliffordElement.scalar(V, rng.choice((1, 2, -1)))
        for _ in range(2):
            while True:
                xi = CliffordElement.paravector(
                    V, Q.element(rng.randint(-2, 2)),
                    V.vector([Q.element(rng.randint(-2, 2))
                              for _ in range(V.dim)]))
                if not paravector_q(xi).is_zero():
                    break
            x = x * xi
        assert in_group(x, "tilde_gamma")
        n = x.norm()
        assert n.is_even()
        assert in_group(n, "twisted_center")


def test_pi_is_reflection(degen_space):
    V = degen_space
    w = V.vector([1, 2, -1])
    assert not w.q().is_zero()
    assert pi(CliffordElement.from_vector(w)) == reflection_matrix(w)


def test_pi_properties(degen_space):
    V = degen_space
    rng = random.Random(2)
    ident = identity_matrix(3, Q)
    for _ in range(40):
        x = rand_gamma_fx(V, rng)
        y = rand_gamma_fx(V, rng)
        px, py = pi(x), pi(y)
        assert is_orthogonal_fixing_radical(px, V)
        assert pi(x * y) == linalg.mat_mul(px, py, Q)
        assert pi(x.grade_involution()) == px
        assert linalg.mat_mul(pi(x.transpose()), px, Q) == ident
        assert linalg.mat_mul(pi(x.conj()), px, Q) == ident
        assert pi(x * 2) == px  # scalars are in the kernel
        # norm lands in the twisted-center units
        assert in_group(x.norm(), "twisted_center")


def test_pi_against_direct_conjugation():
    """pi's matrix columns agree with brute conjugation over GF(3)."""
    V = QuadraticSpace(F3, [1, 1])
    x = CliffordElement.monomial(V, (0, 1))
    assert in_group(x, "gamma_fx")
    mat = pi(x)
    ginv = x.inverse().grade_involution()
    for j in range(2):
        img = x * CliffordElement.monomial(V, (j,)) * ginv
        col = img.vector_coords().coords
        assert tuple(mat[i][j] for i in range(2)) == col


def test_pi_tilde_properties(degen_space):
    V = degen_space
    rng = random.Random(3)
    n1 = V.dim + 1
    ident = identity_matrix(n1, Q)
    r1 = r1_matrix(V)
    for _ in range(30):
        x = rand_gamma_fx(V, rng, factors=2)
        if not in_group(x, "tilde_gamma"):
            # odd products need not preserve paravectors; pair them up
            x = x * CliffordElement.from_vector(V.vector([1, 0, 0]))
        if not in_group(x, "tilde_gamma"):
            continue
        mat = pi_tilde(x)
        assert linalg.det(mat, Q) == Q.one  # lands in SO
        assert linalg.mat_mul(pi_tilde(x.conj()), mat, Q) == ident
        got = pi_tilde(x.grade_involution())
        assert got == linalg.mat_mul(r1, linalg.mat_mul(mat, r1, Q), Q)
        # orthogonal for q_F and fixes the radical
        vf = V.extend_sigma(Q.one)
        perm = _paravector_to_vf_matrix(mat, V, vf)
        assert is_orthogonal_fixing_radical(perm, vf)


def _paravector_to_vf_matrix(mat, base, vf):
    """Transport a matrix in basis (1, e_1..e_n) of F+V to the isomorphic
    V_F basis (e_1..e_n, rho) via iota: (a, v) -> v - a rho."""
    n = base.dim
    out = [[Q.zero] * (n + 1) for _ in range(n + 1)]
    # basis of V_F: e_j -> iota column from mat column j+1; rho -> -iota(1)
    for j in range(n):
        a = mat[0][j + 1]
        for i in range(n):
            out[i][j] = mat[i + 1][j + 1]
        out[n][j] = -a
    # iota(1) = -rho, so the rho column is iota of -(column of 1)
    a = mat[0][0]
    for i in range(n):
        out[i][n] = -mat[i + 1][0]
    out[n][n] = a
    return out


def test_gamma_fx_closure_exhaustive_gf3():
    """Over GF(3), dim 1 (q = x^2 and q = 0): the Gamma^Fx set is closed
    under multiplication and all three involutions."""
    for qdiag in ([1], [0]):
        V = QuadraticSpace(F3, qdiag)
        elems = enumerate_elements(V)
        members = [x for x in elems if in_group(x, "gamma_fx")]
        mset = set(members)
        for x in members:
            assert x.grade_involution() in mset
            assert x.transpose() in mset
            assert x.conj() in mset
            for y in members:
                assert x * y in mset


def test_pi_errors(degen_space):
    V = degen_space
    e = CliffordElement.from_vector(V.vector([0, 0, 1]))
    with pytest.raises(NotInCliffordGroup):
        pi(e)
    # invertible but conjugation leaves V: 1 + e0 over a nondegenerate space
    W = QuadraticSpace(Q, [1, -1])
    bad = CliffordElement.one(W) + CliffordElement.monomial(W, (0,))
    with pytest.raises(NotInCliffordGroup):
        pi(bad)


def test_matrix_iso_examples():
    V = QuadraticSpace(Q, [1, -1])
    vu = V.extend_hyperbolic()
    ident = CMatrix2.identity(V)
    assert matrix_to_CU(ident, vu) == CliffordElement.one(vu)  # ef + fe = 1
    e_mat = CMatrix2.from_entries(V, 0, 1, 0, 0)
    assert matrix_to_CU(e_mat, vu) == \
        CliffordElement.monomial(vu, (vu.labels["e"],))
    f_mat = CMatrix2.from_entries(V, 0, 0, 1, 0)
    assert matrix_to_CU(f_mat, vu) == \
        CliffordElement.monomial(vu, (vu.labels["f"],))
    vuf = V.extend_hyperbolic_rho()
    assert matrix_to_CUF(ident, vuf) == CliffordElement.one(vuf)


def test_matrix_iso_random(degen_space):
    V = degen_space
    vu = V.extend_hyperbolic()
    vuf = V.extend_hyperbolic_rho()
    rng = random.Random(7)
    for _ in range(40):
        m1 = CMatrix2(*(rand_element(V, rng) for _ in range(4)))
        m2 = CMatrix2(*(rand_element(V, rng) for _ in range(4)))
        psi = matrix_to_CU(m1, vu)
        assert CU_to_matrix(psi, V) == m1
        assert matrix_to_CU(m1 * m2, vu) == psi * matrix_to_CU(m2, vu)
        chi = matrix_to_CUF(m1, vuf)
        assert chi.is_even()
        assert CUF_to_matrix(chi, V) == m1
        assert matrix_to_CUF(m1 * m2, vuf) == chi * matrix_to_CUF(m2, vuf)
        for kind in ("grade", "transpose", "conj"):
            assert matrix_to_CU(matrix_involution(m1, kind), vu) == \
                psi.involution(kind)
        assert matrix_to_CUF(matrix_involution(m1, "conj"), vuf) == \
            chi.transpose()


def test_matrix_involution_formulas():
    V = QuadraticSpace(Q, [1, -1])
    ident = CMatrix2.identity(V)
    assert matrix_involution(ident, "grade") == ident
    v = CliffordElement.from_vector(V.vector([1, 2]))
    m = CMatrix2(CliffordElement.one(V), v, CliffordElement.zero(V),
                 CliffordElement.one(V))
    conj = matrix_involution(m, "conj")
    assert conj.b == -v  # v* = v with the sign from the formula
    assert conj.a == CliffordElement.one(V)


def test_iso_dimension_count(degen_space):
    """Both isomorphisms are bijections: 4 * 2^n coefficients round-trip."""
    V = degen_space
    vu = V.extend_hyperbolic()
    assert len(all_monomials(vu)) == 4 * len(all_monomials(V))
    vuf = V.extend_hyperbolic_rho()
    even = [s for s in all_monomials(vuf) if len(s) % 2 == 0]
    assert len(even) == 4 * len(all_monomials(V))


# -- M2(C) = C(V_{U,F})+ against the block form it replaced -------------------


def _matrix_to_CUF_reference(m, vuf):
    """(a b; c d) -> a_rho ef + b_rho e rho + c'_rho f rho + d'_rho fe."""
    def gen(name):
        return CliffordElement.monomial(vuf, (vuf.labels[name],))
    e, f, r = gen("e"), gen("f"), gen("rho")
    a, b, c, d = m.entries()
    return (rho_map(a, vuf) * (e * f) + rho_map(b, vuf) * (e * r)
            + rho_map(c.grade_involution(), vuf) * (f * r)
            + rho_map(d.grade_involution(), vuf) * (f * e))


def _CUF_to_matrix_reference(psi, base):
    """The eight-case peeler, one case per subset of {e, f, rho}."""
    assert psi.is_even()
    n, field = base.dim, base.field
    e_idx, f_idx, r_idx = n, n + 1, n + 2
    beta, gamma, delta, raw_ef, raw_efr = {}, {}, {}, {}, {}
    for s, c in psi.coeffs.items():
        content = frozenset(i for i in s if i >= n)
        rest = tuple(i for i in s if i < n)
        if content == frozenset():
            delta[rest] = c
        elif content == frozenset({r_idx}):
            delta[rest] = -c
        elif content in (frozenset({e_idx}), frozenset({e_idx, r_idx})):
            beta[rest] = c
        elif content == frozenset({f_idx}):
            gamma[rest] = -c
        elif content == frozenset({f_idx, r_idx}):
            gamma[rest] = c
        elif content == frozenset({e_idx, f_idx}):
            raw_ef[rest] = c
        else:
            raw_efr[rest] = c
    alpha = {}
    for s in set(raw_ef) | set(raw_efr) | set(delta):
        d = delta.get(s, field.zero)
        if len(s) % 2 == 0:
            alpha[s] = raw_ef.get(s, field.zero) + d
        else:
            alpha[s] = raw_efr.get(s, field.zero) - d
    return CMatrix2(CliffordElement(base, alpha), CliffordElement(base, beta),
                    CliffordElement(base, gamma), CliffordElement(base, delta))


def _gf3_forms(max_dim):
    """Every GF(3) form of dimension at most max_dim: all diagonals times all
    pair values."""
    for dim in range(max_dim + 1):
        slots = list(itertools.combinations(range(dim), 2))
        for qdiag in itertools.product(range(3), repeat=dim):
            for values in itertools.product(range(3), repeat=len(slots)):
                yield QuadraticSpace(F3, list(qdiag), dict(zip(slots, values)))


def test_cuf_iso_matches_block_form_on_single_entry_matrices():
    """Both maps are additive, so agreeing on every matrix with one nonzero
    entry (every element at every position) makes them equal."""
    checked = 0
    for V in _gf3_forms(1):
        vuf = V.extend_hyperbolic_rho()
        zero = CliffordElement.zero(V)
        for x in enumerate_elements(V):
            for pos in range(4):
                entries = [zero] * 4
                entries[pos] = x
                m = CMatrix2(*entries)
                chi = matrix_to_CUF(m, vuf)
                assert chi == _matrix_to_CUF_reference(m, vuf), (m, pos)
                assert CUF_to_matrix(chi, V) == m
                checked += 1
    assert checked == 120


def test_cuf_peeler_matches_eight_cases_on_even_monomials():
    """Every even monomial of C(V_{U,F}), a spanning set of C(V_{U,F})+, for
    every GF(3) form of dim <= 2, against the eight-case peeler."""
    checked = 0
    for V in _gf3_forms(2):
        vuf = V.extend_hyperbolic_rho()
        for s in all_monomials(vuf):
            if len(s) % 2:
                continue
            psi = CliffordElement.monomial(vuf, s)
            m = CUF_to_matrix(psi, V)
            assert m == _CUF_to_matrix_reference(psi, V), (V.qdiag, s)
            assert matrix_to_CUF(m, vuf) == psi
            checked += 1
    assert checked == 1 * 4 + 3 * 8 + 27 * 16


def test_cuf_iso_matches_block_form_over_q():
    """40 random matrices over the degenerate, non-orthogonal dim-4 space."""
    V = QuadraticSpace(Q, [1, -1, 2, 0], {(0, 1): 1, (2, 3): Fraction(1, 2)})
    vuf = V.extend_hyperbolic_rho()
    rng = random.Random(12)
    for _ in range(40):
        m = CMatrix2(*(rand_element(V, rng, 0.3) for _ in range(4)))
        chi = matrix_to_CUF(m)
        assert chi.space is vuf
        assert chi == _matrix_to_CUF_reference(m, vuf)
        assert CUF_to_matrix(chi, V) == m
        assert _CUF_to_matrix_reference(chi, V) == m


def _matrix_to_CUF_via_CU(m, vuf):
    """The composition through a separately built V_U: the C(V_U) image
    embedded into V_{U,F}, then rho_map."""
    return rho_map(matrix_to_CU(m), vuf)


def test_cuf_iso_inside_vuf_matches_composition_through_vu():
    """Every matrix over every GF(3) form of dim <= 1, and seeded matrices
    over the dim-4 and dim-5 spaces over Q that `verify` and `act` use."""
    checked = 0
    for V in _gf3_forms(1):
        vuf = V.extend_hyperbolic_rho()
        for entries in itertools.product(enumerate_elements(V), repeat=4):
            m = CMatrix2(*entries)
            assert matrix_to_CUF(m, vuf) == _matrix_to_CUF_via_CU(m, vuf)
            checked += 1
    assert checked == 3 ** 4 + 3 * 9 ** 4
    rng = random.Random(25)
    pairs = {(0, 1): 1, (2, 3): Fraction(1, 2)}
    for qdiag in ([1, -1, 2, 0], [1, -1, 2, 0, 3]):
        V = QuadraticSpace(Q, qdiag, pairs)
        vuf = V.extend_hyperbolic_rho()
        for _ in range(20):
            m = CMatrix2(*(rand_element(V, rng, 0.3) for _ in range(4)))
            assert matrix_to_CUF(m, vuf) == _matrix_to_CUF_via_CU(m, vuf)


def test_iso_peelers_refuse_elements_outside_their_images(degen_space):
    V = degen_space
    vuf = V.extend_hyperbolic_rho()
    odd = CliffordElement.monomial(vuf, (vuf.labels["e"],))
    with pytest.raises(ValueError, match="even subalgebra"):
        CUF_to_matrix(odd, V)
    with pytest.raises(ValueError, match="even subalgebra"):
        CUF_to_matrix(odd + CliffordElement.one(vuf), V)
    stray = CliffordElement.monomial(vuf, (0, vuf.labels["rho"]))
    with pytest.raises(ValueError, match="embedded C\\(V_U\\)"):
        CU_to_matrix(CliffordElement.one(vuf) + stray, V)


# -- the bit layouts against the product formulas they replaced ---------------


def _matrix_to_CU_by_products(m, vu):
    """(a b; c d) -> a ef + b e + c' f + d' fe, the entries embedded and
    multiplied by the blocks in C(V_U)."""
    e = CliffordElement.monomial(vu, (vu.labels["e"],))
    f = CliffordElement.monomial(vu, (vu.labels["f"],))
    a, b, c, d = (x.embed(vu) for x in m.entries())
    return (a * (e * f) + b * e + c.grade_involution() * f
            + d.grade_involution() * (f * e))


def _rho_map_by_products(x, target):
    """x_+ + x_- rho, multiplied in C(target)."""
    emb = x.embed(target)
    rho = CliffordElement.monomial(target, (target.labels["rho"],))
    return emb.part("even") + emb.part("odd") * rho


def _check_by_products(m, vu, vuf):
    assert matrix_to_CU(m, vu) == _matrix_to_CU_by_products(m, vu)
    chi = _rho_map_by_products(_matrix_to_CU_by_products(m, vuf), vuf)
    assert matrix_to_CUF(m, vuf) == chi


def test_bit_layouts_match_product_formulas():
    """Every matrix over every GF(3) form of dim <= 1, into both targets;
    seeded matrices over the dim-4 and dim-5 spaces over Q that `verify`
    and `act` use; and seeded matrices over V into the extensions of a
    larger space, which matrix_to_CU also takes."""
    checked = 0
    for V in _gf3_forms(1):
        vu, vuf = V.extend_hyperbolic(), V.extend_hyperbolic_rho()
        for entries in itertools.product(enumerate_elements(V), repeat=4):
            _check_by_products(CMatrix2(*entries), vu, vuf)
            checked += 1
    assert checked == 3 ** 4 + 3 * 9 ** 4
    rng = random.Random(30)
    pairs = {(0, 1): 1, (2, 3): Fraction(1, 2)}
    for qdiag in ([1, -1, 2, 0], [1, -1, 2, 0, 3]):
        V = QuadraticSpace(Q, qdiag, pairs)
        vu, vuf = V.extend_hyperbolic(), V.extend_hyperbolic_rho()
        for _ in range(40):
            m = CMatrix2(*(rand_element(V, rng, 0.3) for _ in range(4)))
            _check_by_products(m, vu, vuf)
    V, W = QuadraticSpace(Q, [1, -1]), QuadraticSpace(Q, [1, -1, 2, 0])
    for _ in range(20):
        m = CMatrix2(*(rand_element(V, rng) for _ in range(4)))
        _check_by_products(m, W.extend_hyperbolic(),
                           W.extend_hyperbolic_rho())


def test_bit_layouts_take_no_clifford_product(degen_space, monkeypatch):
    V = degen_space
    vu, vuf = V.extend_hyperbolic(), V.extend_hyperbolic_rho()
    rng = random.Random(31)
    ms = [CMatrix2(*(rand_element(V, rng) for _ in range(4)))
          for _ in range(10)]
    xs = [rand_element(V, rng) for _ in range(10)]
    calls = []
    mul = CliffordElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CliffordElement, "__mul__", counted)
    for m, x in zip(ms, xs):
        matrix_to_CU(m, vu)
        matrix_to_CUF(m, vuf)
        rho_map(x, vuf)
    assert calls == []


def test_peeler_refuses_an_element_of_another_space():
    """Over GF(5), (0, e_1; 0, 0) over V2 = [1, 2] maps to e_1 e; its e sits
    at bit 2, where the peeler for V1 = [1] would read f."""
    F5 = PrimeField(5)
    V2, V1 = QuadraticSpace(F5, [1, 2]), QuadraticSpace(F5, [1])
    e1 = CliffordElement.monomial(V2, (1,))
    zero = CliffordElement.zero(V2)
    psi = matrix_to_CU(CMatrix2(zero, e1, zero, zero))
    with pytest.raises(NotASuperspace):
        CU_to_matrix(psi, V1)


def test_iso_maps_refuse_spaces_off_their_layout(degen_space):
    V = degen_space
    vu, vuf = V.extend_hyperbolic(), V.extend_hyperbolic_rho()
    vfu = V.extend_sigma(1).extend_hyperbolic()  # rho before e and f
    m = CMatrix2.identity(V)
    other = QuadraticSpace(Q, [1, 1, 0])
    # the target must extend the matrix's space
    with pytest.raises(NotASuperspace):
        matrix_to_CU(m, other.extend_hyperbolic())
    # matrix_to_CUF needs rho right after f
    for target in (vu, vfu):
        with pytest.raises(NotASuperspace):
            matrix_to_CUF(m, target)
    # the peelers need e at bit base.dim, and CUF_to_matrix rho after f
    with pytest.raises(NotASuperspace):
        CU_to_matrix(CliffordElement.one(vu), other)
    with pytest.raises(NotASuperspace):
        CUF_to_matrix(CliffordElement.one(vuf), QuadraticSpace(Q, [1]))
    with pytest.raises(NotASuperspace):
        CUF_to_matrix(CliffordElement.one(vu), V)
    # rho_map takes no element with a term at or above rho's bit
    for target, name in ((vuf, "rho"), (vfu, "e")):
        x = CliffordElement.monomial(target, (target.labels[name],))
        with pytest.raises(ValueError, match="at or above rho"):
            rho_map(x, target)
