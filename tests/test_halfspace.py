"""Completed half-spaces: the K-model bijection, the four-case Moebius
formula, equivariance, value identities, stabilizers, and orbit censuses."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from vahlen import halfspace, matrices
from vahlen.cli import main
from vahlen.clifford import CliffordElement
from vahlen.fields import PrimeField, Q, Scalar, residue_tuples
from vahlen.groups import (CMatrix2, CUF_to_matrix, matrix_to_CU,
                           matrix_to_CUF, probe_elements)
from vahlen.halfspace import (HalfSpace, InvariantViolation,
                              point_from_json, point_to_json)
from vahlen.matrices import (NotVahlen, TooLarge, dilation, is_vahlen,
                             pseudo_det, random_vahlen, translation,
                             verify_equivalence_exhaustive, weyl)
from vahlen.quadratic import QuadraticSpace, SpaceMismatch
from vahlen.suites import boundary_parts

F3 = PrimeField(3)
F5 = PrimeField(5)


def _mobius_denominator(h, p, m):
    """den of the action tuple: N(cz + d), or its starred coefficient at
    the boundary."""
    return Scalar(h.field, h._action_data(m, p)[2])


@pytest.fixture
def hs():
    return HalfSpace(QuadraticSpace(Q, [1, -1]), 1, "vector")


@pytest.fixture
def hp():
    return HalfSpace(QuadraticSpace(Q, [1, -1]), -1, "paravector")


def test_point_invariants(hs):
    with pytest.raises(InvariantViolation):
        hs.regular_point([0, 0], 0)
    with pytest.raises(InvariantViolation):
        hs.boundary_point([1, 1], 1)  # q = 0 != c
    p = hs.boundary_point([1, 0], 0)  # q = 1 = c, b may be 0
    assert p.boundary and p.height == Q.zero


def test_boundary_radical_rule():
    h0 = HalfSpace(QuadraticSpace(Q, [1, 0]), 0, "vector")
    with pytest.raises(InvariantViolation):
        h0.boundary_point([0, 1], 0)  # radical u with b = 0 at c = 0
    assert h0.boundary_point([0, 1], 2).boundary
    assert h0.boundary_point([0, 0], 1).boundary  # u = 0 allowed with b != 0


def test_to_K_examples(hs):
    # sigma_c -> f + c e
    w = hs.to_K(hs.base_point())
    assert w.coords == (Q.zero, Q.zero, hs.c, Q.one)
    # boundary (inf u)_b -> u + b e
    b = hs.to_K(hs.boundary_point([1, 0], 5))
    assert b.coords == (Q.one, Q.zero, Q.element(5), Q.zero)


def test_K_roundtrip_and_value(hs, hp):
    rng = random.Random(1)
    for model in (hs, hp):
        pts = [model.base_point()]
        for _ in range(25):
            part = [Q.element(rng.randint(-3, 3))
                    for _ in range(model.part_len)]
            t = Q.element(rng.choice((1, -1, 2, 3)))
            pts.append(model.regular_point(part, t))
        for p in pts:
            w = model.to_K(p)
            assert w.q() == model.c
            assert not w.in_radical()
            assert model.from_K(w) == p


def test_from_K_rejects_non_K(hs):
    with pytest.raises(InvariantViolation):
        hs.from_K(hs.uspace.vector([0, 0, 0, 0]))
    with pytest.raises(InvariantViolation):
        hs.from_K(hs.uspace.vector([0, 1, 0, 0]))  # q = -1 != c


def test_translation_and_dilation_action(hs):
    V = hs.space
    t = translation(V, "vector", V.vector([1, 2]))
    p = hs.regular_point([3, 1], 2)
    assert hs.mobius_apply(t, p) == hs.regular_point([4, 3], 2)
    d = dilation(V, Q.element(5))
    assert hs.mobius_apply(d, hs.base_point()) == \
        hs.regular_point([0, 0], 5)


def test_boundary_closed_form(hs):
    """(a xi; 0 1) sends (inf u)_b to (inf u)_{ab - (u, xi)}."""
    V = hs.space
    rng = random.Random(9)
    for _ in range(40):
        a = Q.element(rng.choice((1, -1, 2, 3)))
        xi = V.vector([Q.element(rng.randint(-3, 3)) for _ in range(2)])
        m = translation(V, "vector", xi) * dilation(V, a)
        u = rng.choice(((Q.one, Q.zero), (-Q.one, Q.zero)))
        b = Q.element(rng.randint(-4, 4))
        p = hs.boundary_point(u, b)
        img = hs.mobius_apply(m, p)
        assert img.boundary
        assert img.part == p.part
        assert img.height == a * b - hs.part_space.bilinear(u, xi.coords)


def test_semidirect_acts_simply_transitively_on_regulars(hs):
    """(a xi; 0 1) takes sigma_c to xi + a sigma_c: hits every regular point
    exactly once."""
    V = hs.space
    seen = set()
    for a in (1, 2, -1):
        for x0 in (-1, 0, 1):
            for x1 in (-1, 0, 2):
                m = translation(V, "vector", V.vector([x0, x1])) \
                    * dilation(V, a)
                img = hs.mobius_apply(m, hs.base_point())
                assert img == hs.regular_point([x0, x1], a)
                assert img not in seen
                seen.add(img)


def test_weyl_to_boundary(hs):
    # q_F^c(z) = q(v) - c t^2 = 0 makes the weyl image a boundary point
    iso = hs.regular_point([1, 0], 1)
    img = hs.mobius_apply(weyl(hs.space), iso)
    assert img.boundary
    # and the K-model path agrees
    assert hs.equivariance_check(weyl(hs.space), iso)


def test_denominators(hs):
    V = hs.space
    t = translation(V, "vector", V.vector([1, 2]))
    for p in (hs.base_point(), hs.regular_point([2, 2], 3)):
        assert _mobius_denominator(hs, p, t) == Q.one
    assert _mobius_denominator(hs, hs.base_point(), weyl(V)) == hs.c
    # gamma = 0 at a boundary point: starred denominator vanishes
    bp = hs.boundary_point([1, 0], 3)
    assert _mobius_denominator(hs, bp, t) == Q.zero
    with pytest.raises(NotVahlen):
        hs.mobius_apply(CMatrix2.from_entries(V, 1, 1, 0, 1), bp)


def test_orthogonal_image_of_e_and_f(hs, hp):
    """eta e eta* = (embedded alpha conj(gamma)) + N(alpha) e + N(gamma) f,
    and the f analogue with beta, delta (before dividing by det); in the
    paravector model the first summand arrives through iota."""
    from vahlen.clifford import CliffordElement as CE
    rng = random.Random(21)
    for model, kind in ((hs, "vector"), (hp, "paravector")):
        e = CE.monomial(model.uspace, (model.e_idx,))
        f = CE.monomial(model.uspace, (model.f_idx,))

        def lift_part(x):
            coords = _part_coords_in_u_by_kind(
                model, model._element_to_part(x))
            return CE.from_vector(model.uspace.vector(coords))

        for _ in range(12):
            m = random_vahlen(model.space, kind, rng, rng.randint(1, 6))
            eta = (matrix_to_CU if kind == "vector" else matrix_to_CUF)(
                m, model.uspace)
            lhs_e = eta * e * eta.transpose()
            rhs_e = (lift_part(m.a * m.c.conj())
                     + e * m.a.norm().to_scalar()
                     + f * m.c.norm().to_scalar())
            assert lhs_e == rhs_e
            lhs_f = eta * f * eta.transpose()
            rhs_f = (lift_part(m.b * m.d.conj())
                     + e * m.b.norm().to_scalar()
                     + f * m.d.norm().to_scalar())
            assert lhs_f == rhs_f


def test_equivariance_and_value_identity_random(hs, hp):
    rng = random.Random(12)
    for model, kind in ((hs, "vector"), (hp, "paravector")):
        bparts = [(Q.one, Q.zero), (-Q.one, Q.zero)] if kind == "vector" \
            else [(Q.one, Q.zero, Q.zero), (Q.zero, Q.zero, Q.one)]
        pts = [model.base_point()]
        pts += [model.boundary_point(bp, rng.randint(-2, 2))
                for bp in bparts]
        for _ in range(10):
            part = [Q.element(rng.randint(-2, 2))
                    for _ in range(model.part_len)]
            pts.append(model.regular_point(part, rng.choice((1, 2, -1))))
        for _ in range(25):
            m = random_vahlen(model.space, kind, rng, rng.randint(1, 8))
            for p in pts:
                assert model.equivariance_check(m, p)
                assert model.value_identity_check(m, p)


def test_action_property_crossing_boundary(hs):
    rng = random.Random(13)
    pts = [hs.base_point(), hs.regular_point([1, 0], 1),
           hs.boundary_point([1, 0], 0), hs.boundary_point([-1, 0], 2)]
    for _ in range(25):
        m1 = random_vahlen(hs.space, "vector", rng, rng.randint(1, 5))
        m2 = random_vahlen(hs.space, "vector", rng, rng.randint(1, 5))
        for p in pts:
            assert hs.mobius_apply(m1 * m2, p) == \
                hs.mobius_apply(m1, hs.mobius_apply(m2, p))


def test_c_zero_boundary_outputs_respect_radical_rule():
    """mobius_apply revalidates every output point, so a c = 0 image with a
    radical u and b = 0 would raise; the orbit must stay inside H^0."""
    V = QuadraticSpace(F3, [1, 0])
    h0 = HalfSpace(V, 0, "vector")
    rng = random.Random(14)
    point_set = set(h0.enumerate_points())
    for _ in range(30):
        m = random_vahlen(V, "vector", rng, rng.randint(1, 6))
        for p in point_set:
            assert h0.mobius_apply(m, p) in point_set


def test_stabilizer_examples(hs):
    V = hs.space
    g = CliffordElement.from_vector(V.vector([0, 1]))  # N = 1, 1 + c N != 0
    shape_m = CMatrix2(CliffordElement.one(V).grade_involution(),
                       -(g.grade_involution() * hs.c), g,
                       CliffordElement.one(V))
    stab, shape = hs.stabilizer_shape_check(shape_m)
    assert stab and shape
    stab, shape = hs.stabilizer_shape_check(
        translation(V, "vector", V.vector([1, 0])))
    assert not stab and not shape
    stab, shape = hs.stabilizer_shape_check(dilation(V, 3))
    assert not stab and not shape


def test_stabilizer_verdicts_coincide_random(hs, hp):
    rng = random.Random(15)
    for model, kind in ((hs, "vector"), (hp, "paravector")):
        for _ in range(40):
            m = random_vahlen(model.space, kind, rng, rng.randint(1, 8))
            stab, shape = model.stabilizer_shape_check(m)
            assert stab == shape


def test_enumerate_points_and_boundary_count():
    V = QuadraticSpace(F3, [1])
    h = HalfSpace(V, 1, "vector")
    pts = h.enumerate_points()
    regular = [p for p in pts if not p.boundary]
    boundary = [p for p in pts if p.boundary]
    assert len(regular) == 3 * 2  # parts x nonzero t
    # q(u) = 1 has two solutions u = 1, 2; every b in GF(3) is allowed
    assert len(boundary) == 2 * 3
    # c = 0: u = 0 is radical, so b = 0 drops out
    h0 = HalfSpace(V, 0, "vector")
    b0 = [p for p in h0.enumerate_points() if p.boundary]
    assert len(b0) == 1 * 3 - 1
    with pytest.raises(TooLarge):
        HalfSpace(QuadraticSpace(F5, [1, 1, 1, 1, 1, 1, 1, 1]),
                  1, "vector").enumerate_points()


@pytest.mark.parametrize("qdiag,c,expect_orbits", [
    ([1], 1, 1),   # represented: transitive
    ([], 1, 2),    # dim 0: norm subgroup {1} inside GF(3)^x, index 2
    ([], 2, 1),    # weyl realizes 2 t^2 = 2, a nonsquare: index 1
])
def test_census_gf3(qdiag, c, expect_orbits):
    V = QuadraticSpace(F3, qdiag)
    h = HalfSpace(V, c, "vector")
    report = h.orbit_census("special")
    assert report["predictions_ok"]
    assert report["orbit_count"] == expect_orbits
    assert report["counts_match_k"]
    full = h.orbit_census("full")
    assert full["predictions_ok"] and full["transitive"]


def test_census_degenerate_paravector():
    V = QuadraticSpace(F3, [1, 0])
    h = HalfSpace(V, 2, "paravector")
    report = h.orbit_census("special")
    assert report["predictions_ok"]
    assert report["counts_match_k"]


def test_census_norm_subgroup_f5():
    V = QuadraticSpace(F5, [])
    h = HalfSpace(V, 2, "vector")
    report = h.orbit_census("special")
    assert report["predictions_ok"]
    # 2 t^2 realizes nonsquares, d^2 the squares: the whole group
    assert report["norm_subgroup"] == ["1", "2", "3", "4"]
    assert report["orbit_count"] == 1
    # c = 1 only realizes squares: a genuine index-2 decomposition
    h1 = HalfSpace(V, 1, "vector")
    rep1 = h1.orbit_census("special")
    assert rep1["predictions_ok"]
    assert rep1["norm_subgroup"] == ["1", "4"]
    assert rep1["orbit_count"] == 2
    h3 = HalfSpace(QuadraticSpace(F3, []), 1, "paravector")
    rep3 = h3.orbit_census("special")
    assert rep3["predictions_ok"]


@pytest.mark.parametrize("qdiag,kind", [
    ([], "vector"), ([0], "vector"), ([], "paravector"), ([0], "paravector"),
])
def test_special_orbits_c0_proper_norm_subgroup(qdiag, kind):
    """For c = 0, when the squares and the nonzero -q values generate a
    proper subgroup of F^x, the special group is NOT transitive even though
    c is represented: its image in the orthogonal group is the spinor
    kernel, and the hyperbolic rotations (e, f) -> (ae, f/a) needed to
    rescale sigma_0 have spinor norm a, so only those ratios are reached.
    The orbit count is the index of that subgroup, verified here against a
    closure under the WHOLE finite special group, not just the census
    generators."""
    from vahlen.clifford import enumerate_elements
    from vahlen.matrices import is_vahlen, pseudo_det

    V = QuadraticSpace(F3, qdiag)
    h0 = HalfSpace(V, 0, kind)
    census = h0.orbit_census("special")
    assert census["represented"]
    assert census["orbit_count"] == 2  # index of the squares in GF(3)^x
    assert not census["transitive"]
    assert not census["predictions_ok"]  # the predicted transitivity fails

    elems = enumerate_elements(V)
    sv = [m for m in
          (CMatrix2(a, b, c, d) for a in elems for b in elems
           for c in elems for d in elems)
          if is_vahlen(m, kind) and pseudo_det(m, kind) == F3.one]
    orbit = {h0.base_point()}
    frontier = [h0.base_point()]
    while frontier:
        new = []
        for p in frontier:
            for m in sv:
                q = h0.mobius_apply(m, p)
                if q not in orbit:
                    orbit.add(q)
                    new.append(q)
        frontier = new
    points = set(h0.enumerate_points())
    assert len(orbit) == len(points) // 2
    # the full Vahlen group, by contrast, is transitive as predicted
    full = h0.orbit_census("full")
    assert full["transitive"] and full["predictions_ok"]


def test_point_json(hs, hp):
    for model in (hs, hp):
        pts = [model.base_point()]
        if model.kind == "vector":
            pts.append(model.boundary_point([1, 0], 2))
        else:
            pts.append(model.boundary_point([1, 0, 0], 2))
        for p in pts:
            data = point_to_json(model, p)
            assert point_from_json(model, data) == p
    with pytest.raises(ValueError):
        point_from_json(hs, {"kind": "regular", "v": ["0", "0"],
                             "t": "1", "model": "paravector"})
    with pytest.raises(ValueError):
        point_from_json(hs, {"kind": "diagonal", "v": [], "t": "1"})


# -- the census on per-matrix constants and integer scans ---------------------
#
# The references below are the loops and the Moebius formula the census ran
# before its constants were kept per matrix and its scans ran on integers.


def _k_set_reference(h):
    out = []
    for coords in itertools.product(list(h.field.elements()),
                                    repeat=h.uspace.dim):
        w = h.uspace.vector(coords)
        if h.k_contains(w):
            out.append(w)
    return out


def _lift_reference(h, p):
    z = h.part_element(p.part).embed(h.sigma_space)
    sigma = CliffordElement.monomial(h.sigma_space, (h.sigma_idx,))
    return z + sigma * p.height


def _mobius_reference(h, m, p):
    """Every entry embedding, conjugate, norm and det recomputed here."""
    det = pseudo_det(m, h.kind)
    if not p.boundary:
        z = _lift_reference(h, p)
        a, b, c, d = (x.embed(h.sigma_space) for x in m.entries())
        upper, lower = a * z + b, c * z + d
        part, sigma_coeff = h._split(upper * lower.conj())
        assert sigma_coeff == p.height * det
        den = lower.norm().to_scalar()
        if not den.is_zero():
            inv = den.inverse()
            return h.regular_point([x * inv for x in part], sigma_coeff * inv)
        scale = (p.height * det).inverse()
        return h.boundary_point([x * scale for x in part],
                                upper.norm().to_scalar() * scale)
    a, b, c, d = m.entries()
    u = h.part_element(p.part)
    ub, t = u.conj(), p.height
    den_star = (c.norm() * t + (c * u * d.conj() + d * ub * c.conj())
                ).to_scalar()
    num_norm_star = (a.norm() * t
                     + (a * u * b.conj() + b * ub * a.conj())).to_scalar()
    part = h._element_to_part(
        a * c.conj() * t + (a * u * d.conj() + b * ub * c.conj()))
    if not den_star.is_zero():
        inv = den_star.inverse()
        return h.regular_point([x * inv for x in part], det * inv)
    inv = det.inverse()
    return h.boundary_point([x * inv for x in part], num_norm_star * inv)


def _forms(field, max_dim):
    """Every form of dim <= max_dim: all qdiag values and pair values."""
    values = range(field.modulus)
    for dim in range(max_dim + 1):
        pair_keys = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for qdiag in itertools.product(values, repeat=dim):
            for pv in itertools.product(values, repeat=len(pair_keys)):
                yield QuadraticSpace(field, qdiag, dict(zip(pair_keys, pv)))


def _halfspaces(field, max_dim):
    for space in _forms(field, max_dim):
        for c in range(field.modulus):
            for kind in ("vector", "paravector"):
                yield HalfSpace(space, c, kind)


# the orbit configurations of the census benchmark, with the Moebius
# applications each special-group census checks: points - 1 for the first
# six, which are transitive, and points x generators for the last
CENSUS_CONFIGS = [
    (5, [1, 1], {}, "paravector", 1, 649),
    (7, [1, 1], {}, "vector", 1, 349),
    (7, [1], {}, "paravector", 2, 335),
    (5, [1, 0], {(0, 1): 1}, "vector", 1, 119),
    (3, [1, 0], {(0, 1): 1}, "paravector", 1, 71),
    (3, [1, 0, 1], {}, "paravector", -1, 215),
    (5, [1], {}, "vector", 0, 144),
]


def _census_halfspace(p, qdiag, pairs, kind, c):
    return HalfSpace(QuadraticSpace(PrimeField(p), qdiag, pairs), c, kind)


def test_integer_k_set_matches_vector_scan():
    """On every GF(3) form of dim <= 2 and GF(5) form of dim <= 1, for
    every c and both kinds, in the same order."""
    count = 0
    for field, max_dim in ((F3, 2), (F5, 1)):
        for h in _halfspaces(field, max_dim):
            assert h.k_set() == _k_set_reference(h)
            count += 1
    assert count == 31 * 3 * 2 + 6 * 5 * 2


def test_direct_lift_matches_embedded_sum():
    """Every regular point of the GF(3) half-spaces of dim <= 2, and seeded
    points over Q."""
    checked = 0
    for h in _halfspaces(F3, 2):
        for p in h.enumerate_points():
            if not p.boundary:
                lifted = h.lift(p)
                assert lifted == _lift_reference(h, p)
                assert lifted.space is h.sigma_space
                checked += 1
    rng = random.Random(6)
    for qdiag, pairs in (([1, -1], {}), ([1, -1, 2, 0], {(0, 1): 1})):
        for kind in ("vector", "paravector"):
            h = HalfSpace(QuadraticSpace(Q, qdiag, pairs), -1, kind)
            for _ in range(40):
                part = [rng.choice((0, 1, -2, Q.parse("3/4")))
                        for _ in range(h.part_len)]
                p = h.regular_point(part, rng.choice((1, -1, Q.parse("2/5"))))
                assert h.lift(p) == _lift_reference(h, p)
                checked += 1
    assert checked > 5000


def _count_det_computations(monkeypatch):
    """Count, per matrix id, the calls of matrices._det_ok that compute
    a d* - b c* (those that find no "det" kept on the matrix)."""
    calls = Counter()
    kept = []  # keeps every matrix alive, so its id stays unique
    real_det_ok = matrices._det_ok

    def counting_det_ok(m, ctx):
        if "det" not in m._memo:
            calls[id(m)] += 1
            kept.append(m)
        return real_det_ok(m, ctx)

    monkeypatch.setattr(matrices, "_det_ok", counting_det_ok)
    return calls


def test_census_computes_each_pseudo_det_once(monkeypatch):
    calls = _count_det_computations(monkeypatch)
    kept = []  # keeps every generator alive, so its id stays unique
    gens = []
    real_generators = HalfSpace.census_generators

    def recording_generators(self, group):
        out = real_generators(self, group)
        gens.extend(id(g) for g in out)
        kept.extend(out)
        return out

    monkeypatch.setattr(HalfSpace, "census_generators", recording_generators)
    # the second has two special-group orbits, so every generator serves
    # two orbit closures on one kept pseudo-determinant
    for p, qdiag, pairs, kind, c, _ in (CENSUS_CONFIGS[4],
                                        CENSUS_CONFIGS[6]):
        h = _census_halfspace(p, qdiag, pairs, kind, c)
        for group in ("special", "full"):
            h.orbit_census(group)
    assert gens and all(calls[g] == 1 for g in gens)
    assert max(calls.values()) == 1 and set(calls) == set(gens)


def test_warm_memo_matches_fresh_matrix_and_reference():
    """Every (generator, point) pair of a GF(3) paravector census, boundary
    points included: the constants kept on the generator give the image a
    fresh equal matrix gives, and the image of the formula recomputed from
    scratch."""
    h = _census_halfspace(*CENSUS_CONFIGS[4][:5])
    points = h.enumerate_points()
    gens = h.census_generators("special")
    for g in gens:  # warm every memo on both paths first
        for p in points:
            h.mobius_apply(g, p)
    kinds = Counter()
    for g in gens:
        for p in points:
            image = h.mobius_apply(g, p)
            assert image == h.mobius_apply(CMatrix2(*g.entries()), p)
            assert image == _mobius_reference(h, g, p)
            kinds[p.boundary, image.boundary] += 1
    assert len(kinds) == 4  # all four Moebius cases ran


def test_census_checks_each_discovery_edge_or_every_pair(monkeypatch):
    """The census on the benchmark configurations applies the Moebius
    formula once per point it discovers, points - 1 times, when it finds
    one orbit, and once per (point, generator) pair otherwise."""
    applied = Counter()  # keyed by the half-space itself, which it keeps
    real_apply = HalfSpace.mobius_apply

    def counting_apply(self, m, p):
        applied[self] += 1
        return real_apply(self, m, p)

    monkeypatch.setattr(HalfSpace, "mobius_apply", counting_apply)
    total = 0
    for p, qdiag, pairs, kind, c, checks in CENSUS_CONFIGS:
        h = _census_halfspace(p, qdiag, pairs, kind, c)
        report = h.orbit_census("special")
        gens = h.census_generators("special")
        points = report["point_count"]
        assert applied[h] == (points - 1 if report["transitive"]
                              else points * len(gens))
        assert applied[h] == checks
        total += applied[h]
    assert total == 1882


def _orbit_reference(h, start, gens):
    """The orbit of start by BFS under the Moebius formula itself, as the
    census closed orbits before it compiled its generators."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = h.mobius_apply(g, p)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def test_census_partition_matches_moebius_bfs():
    """Every GF(3) and GF(5) form of dim <= 1, every c, both kinds and both
    groups: the orbits closed by the K-model permutations are the orbits
    closed by the Moebius formula, with the base point's first."""
    censuses = orbit_counts = 0
    for field in (F3, F5):
        for h in _halfspaces(field, 1):
            points = h.enumerate_points()
            for group in ("special", "full"):
                gens = h.census_generators(group)
                orbits = h._orbits(points, gens)
                remaining = set(points)
                expected = set()
                start = h.base_point()
                while remaining:
                    orbit = frozenset(_orbit_reference(h, start, gens))
                    expected.add(orbit)
                    remaining -= orbit
                    start = min(remaining, key=halfspace._point_sort_key,
                                default=None)
                assert h.base_point() in orbits[0]
                assert sum(map(len, orbits)) == len(points)
                assert {frozenset(o) for o in orbits} == expected
                censuses += 1
                orbit_counts += len(orbits)
    assert censuses == 168 and orbit_counts > censuses


@pytest.mark.parametrize("p,qdiag,c,orbits", [(3, [1], 1, 1), (5, [], 1, 2)])
def test_census_check_catches_a_wrong_moebius_image(p, qdiag, c, orbits,
                                                    monkeypatch, capsys):
    """A Moebius formula that disagrees with the K-model on the Weyl matrix
    fails the census and exits 1, on a transitive census (the check runs
    on discovery edges) and on one with two orbits (every pair)."""
    h = _census_halfspace(p, qdiag, {}, "vector", c)
    assert h.orbit_census("special")["orbit_count"] == orbits
    space = json.dumps({"field": f"F{p}", "qdiag": [str(x) for x in qdiag]})
    argv = ["orbit", "--space", space, "--c", str(c)]
    assert main(argv) == 0
    capsys.readouterr()
    real_apply = HalfSpace.mobius_apply

    def broken_apply(self, m, p):  # the Weyl matrix fixes every point
        return p if m == weyl(self.space) else real_apply(self, m, p)

    monkeypatch.setattr(HalfSpace, "mobius_apply", broken_apply)
    with pytest.raises(InvariantViolation):
        h.orbit_census("special")
    assert main(argv) == 1
    assert "Moebius image" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["k_values", "orthogonal_apply"])
def test_census_refuses_a_broken_k_index(broken, monkeypatch):
    """Two points on one K-vector, or a compiled image outside the
    points' K-vectors, fail the census instead of skewing its orbits."""
    h = _census_halfspace(3, [1], {}, "vector", 1)
    if broken == "k_values":
        monkeypatch.setattr(HalfSpace, "_k_values",
                            lambda self, p: p.raw_part)
        message = "share a K-vector"
    else:
        monkeypatch.setattr(HalfSpace, "orthogonal_apply",
                            lambda self, m, w: w * 0)
        message = "off the K-set"
    with pytest.raises(InvariantViolation, match=message):
        h.orbit_census("special")


# -- census generators without redundancy --------------------------------------
#
# The references below are the census generators and the transitivity-witness
# search as the census ran them while it also closed orbits under the norm
# diagonals and under any witness it found.  Every norm diagonal and every
# witness is a product of the translations, the Weyl matrix and the scalar
# diagonals; the first test after them checks that matrix by matrix.


def _parts(h):
    """(residues, part) for every part of a GF(p) half-space, in numeral
    order, the part as Scalars."""
    return ((t, tuple(Scalar(h.field, v) for v in t))
            for t in residue_tuples(h.field.modulus, h.part_len))


def _norm_diagonals_reference(h):
    """(delta' / -q(delta), 0; 0, delta) for the first part delta of each
    nonzero q-value, in numeral order."""
    space, seen, gens = h.space, set(), []
    q = h.part_space.raw.q
    for t, part in _parts(h):
        value = q(t)
        if not value or value in seen:
            continue
        seen.add(value)
        delta = h.part_element(part)
        scale = (-h.field.element(value)).inverse()
        gens.append(CMatrix2(delta.grade_involution() * scale,
                             CliffordElement.zero(space),
                             CliffordElement.zero(space), delta))
    return gens


def _census_generators_reference(h, group):
    """Basis translations, Weyl, diag(1/d, d), the norm diagonals and (full
    group only) every dilation."""
    space = h.space
    gens = [translation(space, h.kind, xi)
            for xi in probe_elements(space, h.kind)]
    gens.append(weyl(space))
    nonzero = [s for s in h.field.elements() if not s.is_zero()]
    for d in nonzero:
        gens.append(halfspace._diag(space, d.inverse(), d))
    gens.extend(_norm_diagonals_reference(h))
    if group == "full":
        for a in nonzero:
            gens.append(dilation(space, a))
    for g in gens:
        if not is_vahlen(g, h.kind):
            raise AssertionError("census generator failed Vahlen check")
    return gens


def _transitivity_witness_reference(h, a):
    """Every matrix (-a xi, -(1 + a q(xi))/d; d, xi), built from a regular
    point of q^c-value -1/a, that is Vahlen of pseudo-determinant 1, in the
    order the search tried them; the census took the first."""
    field, space = h.field, h.space
    p, c, q = field.modulus, h.c.value, h.part_space.raw.q
    target = (-a.inverse()).value
    for t, part in _parts(h):
        qt = q(t)
        for dv in range(1, p):
            if (qt - c * dv * dv - target) % p == 0:
                xi, d = h.part_element(part), Scalar(field, dv)
                beta = -(1 + a * h.part_q(part)) / d
                m = CMatrix2(xi * (-a), CliffordElement.scalar(space, beta),
                             CliffordElement.scalar(space, d), xi)
                if is_vahlen(m, h.kind) and \
                        pseudo_det(m, h.kind) == field.one:
                    yield m


def test_dropped_generators_lie_in_the_generated_group():
    """On every GF(3) half-space of dim <= 2 and GF(5) half-space of dim
    <= 1, both kinds: each norm diagonal diag(x, 1/x) is T(x) W T(1/x) W
    T(x) W^3, and each witness (A, B; d, D) of each nonzero a is T(A/d) W
    diag(d, 1/d) T(D/d), with diag(d, 1/d) a census generator."""
    diagonals = witnesses = 0
    for field, max_dim in ((F3, 2), (F5, 1)):
        for h in _halfspaces(field, max_dim):
            space, kind = h.space, h.kind
            w = weyl(space)
            w3 = w * w * w
            one = CliffordElement.one(space)
            gens = h.census_generators("special")
            for m in _norm_diagonals_reference(h):
                x, x_inv = m.a, m.d
                assert x * x_inv == one
                assert m == (translation(space, kind, x) * w
                             * translation(space, kind, x_inv) * w
                             * translation(space, kind, x) * w3)
                diagonals += 1
            for a in field.elements():
                if a.is_zero():
                    continue
                for m in _transitivity_witness_reference(h, a):
                    d = m.c.to_scalar()
                    diag = halfspace._diag(space, d, d.inverse())
                    assert diag in gens
                    assert m == (translation(space, kind, m.a * d.inverse())
                                 * w * diag
                                 * translation(space, kind,
                                               m.d * d.inverse()))
                    witnesses += 1
    assert (diagonals, witnesses) == (455, 2856)


def test_census_matches_reference_generators(monkeypatch):
    """Every GF(3) form of dim <= 1 for every c, both kinds and both groups,
    and two benchmark configurations: the census reports are equal under
    the reference generators."""
    halfspaces = list(_halfspaces(F3, 1))
    halfspaces += [_census_halfspace(*CENSUS_CONFIGS[i][:5]) for i in (4, 6)]
    groups = ("special", "full")
    reports = [h.orbit_census(g) for h in halfspaces for g in groups]
    monkeypatch.setattr(HalfSpace, "census_generators",
                        _census_generators_reference)
    assert reports == [h.orbit_census(g) for h in halfspaces for g in groups]


def test_kept_entries_follow_the_target_algebra():
    """A matrix over V also acts on the half-space of an extension of V;
    the entries kept for one algebra are not reused in the other."""
    V = QuadraticSpace(Q, [1, -1])
    wide = HalfSpace(QuadraticSpace(Q, [1, -1, 2]), 1, "vector")
    narrow = HalfSpace(V, 1, "vector")
    m = translation(V, "vector", CliffordElement.monomial(V, (0,))) \
        * weyl(V) * dilation(V, 3)
    points = [(narrow, narrow.regular_point([1, 2], 3)),
              (wide, wide.regular_point([1, 2, 0], 3)),
              (narrow, narrow.regular_point([0, 1], -1))]
    for h, p in points:
        assert h.mobius_apply(m, p) == _mobius_reference(h, m, p)
        assert h.equivariance_check(m, p)


def test_paravector_paths_build_no_vu():
    """The paravector action, its K-model path, the exhaustive conditions
    and the peeler work inside V_{U,F}: none of them builds V_U, which V
    would keep under "hyp" in its extension cache."""
    def action(call):
        V = QuadraticSpace(F3, [1])
        h = HalfSpace(V, 1, "paravector")
        m = random_vahlen(V, "paravector", random.Random(25), 4)
        call(h, m, h.base_point())
        return V

    paths = [
        action(lambda h, m, p: h.mobius_apply(m, p)),
        action(lambda h, m, p: h.orthogonal_apply(m, h.to_K(p))),
        action(lambda h, m, p: h.equivariance_check(m, p)),
    ]
    V = QuadraticSpace(F3, [])
    assert verify_equivalence_exhaustive(V, "paravector")[
        "condition_sets_equal"]
    paths.append(V)
    V = QuadraticSpace(F3, [2])
    m = random_vahlen(V, "paravector", random.Random(26), 4)
    assert CUF_to_matrix(matrix_to_CUF(m, V.extend_hyperbolic_rho()), V) == m
    paths.append(V)
    for V in paths:
        assert "hyprho" in V._ext_cache and "hyp" not in V._ext_cache


# -- the part layout ----------------------------------------------------------
#
# The references below are the part maps as they were written before
# groups.part_monomials laid out the part space, one branch per kind.


def _part_element_by_kind(h, part):
    if h.kind == "vector":
        return CliffordElement.from_vector(h.space.vector(part))
    return CliffordElement.paravector(h.space, part[0],
                                      h.space.vector(part[1:]))


def _element_to_part_by_kind(h, x):
    if h.kind == "vector":
        return x.vector_coords().coords
    a, v = x.paravector_parts()
    return (a,) + v.coords


def _lift_by_kind(h, p):
    if h.kind == "vector":
        coeffs = {(i,): x for i, x in enumerate(p.part)}
    else:
        coeffs = {(): p.part[0]}
        coeffs.update(((i,), x) for i, x in enumerate(p.part[1:]))
    coeffs[(h.sigma_idx,)] = p.height
    return CliffordElement(h.sigma_space, coeffs)


def _split_by_kind(h, x):
    part = [h.field.zero] * h.part_len
    sigma_coeff = h.field.zero
    for s, coeff in x.coeffs.items():
        if len(s) == 1 and s[0] == h.sigma_idx:
            sigma_coeff = coeff
        elif len(s) == 1 and s[0] < h.space.dim:
            part[s[0] + (1 if h.kind == "paravector" else 0)] = coeff
        elif not s and h.kind == "paravector":
            part[0] = coeff
        else:
            raise InvariantViolation(f"illegal term {s}")
    return tuple(part), sigma_coeff


def _part_coords_in_u_by_kind(h, part):
    coords = [h.field.zero] * h.uspace.dim
    if h.kind == "vector":
        for i, x in enumerate(part):
            coords[i] = x
    else:
        for i, x in enumerate(part[1:]):
            coords[i] = x
        coords[h.uspace.labels["rho"]] = -part[0]
    return coords


def _u_coords_to_part_by_kind(h, coords):
    if h.kind == "vector":
        part = tuple(coords[:h.space.dim])
    else:
        part = ((-coords[h.uspace.labels["rho"]],)
                + tuple(coords[:h.space.dim]))
    return part, coords[h.e_idx]


def _check_layout(h, p):
    """Each of the six part maps agrees with its reference at p."""
    part = p.part
    x = h.part_element(part)
    assert x == _part_element_by_kind(h, part)
    assert h._element_to_part(x) == _element_to_part_by_kind(h, x) == part
    u = _part_coords_in_u_by_kind(h, part)
    for coords in (u, list(h.to_K(p).coords)):
        assert h._u_coords_to_part(coords, False) == \
            _u_coords_to_part_by_kind(h, coords)
    if p.boundary:
        w = h.to_K(p).coords
        assert h._u_coords_to_part(w, True) == (part, p.height)
    else:
        z = h.lift(p)
        assert z == _lift_by_kind(h, p)
        assert h._split(z) == _split_by_kind(h, z) == (part, p.height)
        # a numerator that leaves the part space is refused by both
        num = z * z.conj() + z
        try:
            expected = _split_by_kind(h, num)
        except InvariantViolation:
            with pytest.raises(InvariantViolation):
                h._split(num)
        else:
            assert h._split(num) == expected


def test_part_layout_matches_maps_by_kind_over_gf3():
    """Every point of every GF(3) half-space of dim <= 2: every qdiag and
    pair value, every c and both kinds."""
    checked = Counter()
    for h in _halfspaces(F3, 2):
        for p in h.enumerate_points():
            _check_layout(h, p)
            checked[h.kind, p.boundary] += 1
    assert len(checked) == 4 and sum(checked.values()) == 8994


def _seeded_q_points(seed, count):
    """(half-space, point) pairs, regular and boundary, of the degenerate,
    non-orthogonal dim-4 space of verify-q, for c in {1, 0, -1} and both
    kinds.  A boundary part solves q = c for coordinate 3, in which q is
    linear."""
    V = QuadraticSpace(Q, [1, -1, 2, 0], {(0, 1): 1, (2, 3): Q.parse("1/2")})
    rng = random.Random(seed)
    values = (0, 1, -1, 2, Q.parse("3/4"), Q.parse("-1/3"))
    for i in range(count):
        h = HalfSpace(V, (1, 0, -1)[i % 3], ("vector", "paravector")[i % 2])
        part = [Q.element(rng.choice(values)) for _ in range(h.part_len)]
        if i % 4 < 2:
            p = h.regular_point(part, rng.choice(values[1:]))
        else:
            off = h.part_len - V.dim
            part[off + 2] = Q.element(rng.choice(values[1:]))
            part[off + 3] = Q.zero
            rest = h.part_q(tuple(part))
            part[off + 3] = (h.c - rest) / (Q.parse("1/2") * part[off + 2])
            b = rng.choice(values[1:]) if h.c.is_zero() else \
                rng.choice(values)
            p = h.boundary_point(part, b)
        yield h, p


def test_part_layout_matches_maps_by_kind_over_q():
    """200 seeded points of the verify-q space (_seeded_q_points)."""
    checked = Counter()
    for h, p in _seeded_q_points(9, 200):
        _check_layout(h, p)
        checked[h.kind, p.boundary] += 1
    assert len(checked) == 4 and sum(checked.values()) == 200


def _to_K_reference(h, p):
    """to_K on Scalars, as it was written before it read raw values."""
    coords = _part_coords_in_u_by_kind(h, p.part)
    if p.boundary:
        coords[h.e_idx] = p.height
        return h.uspace.vector(coords)
    tinv = p.height.inverse()
    coords[h.f_idx] = h.field.one
    coords[h.e_idx] = h.c * p.height * p.height - h.part_q(p.part)
    return h.uspace.vector([x * tinv for x in coords])


def test_raw_to_K_matches_scalar_reference():
    """Every point of every GF(3) half-space of dim <= 2, and 200 seeded
    points of the verify-q space over Q; the census's raw K-vector is the
    same map."""
    checked = Counter()
    for h, p in itertools.chain(
            ((h, p) for h in _halfspaces(F3, 2) for p in h.enumerate_points()),
            _seeded_q_points(29, 200)):
        w = _to_K_reference(h, p)
        assert h.to_K(p) == w
        assert h._k_values(p) == tuple(x.value for x in w.coords)
        checked[h.field.modulus, p.boundary] += 1
    assert checked[None, False] and checked[None, True]
    assert checked[3, False] + checked[3, True] == 8994


@pytest.mark.parametrize("kind", ["vector", "paravector"])
def test_element_to_part_refuses_terms_outside_the_part_space(kind):
    V = QuadraticSpace(Q, [1, -1])
    h = HalfSpace(V, 1, kind)
    bivector = CliffordElement.monomial(V, (0, 1))
    for x in (bivector, bivector + CliffordElement.monomial(V, (0,))):
        with pytest.raises(InvariantViolation):
            h._element_to_part(x)
    if kind == "vector":
        with pytest.raises(InvariantViolation):
            h._element_to_part(CliffordElement.one(V))


def test_census_translations_follow_the_part_layout():
    """The census translates by each basis part in slot order: by 1 first
    in the paravector model, then by e_0, e_1, ..."""
    for h in _halfspaces(F3, 2):
        zero, one = h.field.zero, h.field.one
        parts = [tuple(one if k == i else zero for k in range(h.part_len))
                 for i in range(h.part_len)]
        expected = [translation(h.space, h.kind,
                                _part_element_by_kind(h, part))
                    for part in parts]
        assert h.census_generators("special")[:h.part_len] == expected


def test_enumerate_points_guard_bounds_the_points():
    """A guard below the point count refuses: GF(5) [1, 1] paravector at
    c = 1 has 650 points, more than p^part_len * p = 625."""
    spaces = list(_halfspaces(F3, 2))
    spaces.append(HalfSpace(QuadraticSpace(F5, [1, 1]), 1, "paravector"))
    for h in spaces:
        count = len(h.enumerate_points())
        with pytest.raises(TooLarge):
            h.enumerate_points(max_points=count - 1)
    assert count == 650


# -- one action path ----------------------------------------------------------
#
# The references below are value_identity_check and mobius_denominator as
# they were written before both point kinds fed one (part, s, den, N) tuple:
# one branch per point kind, with every piece recomputed here.


def _numerator_pieces_reference(h, m, p):
    """(num, N(cz+d), N(az+b), det) at a regular point, and the starred
    (num*, den*, N*, det) at a boundary point."""
    det = pseudo_det(m, h.kind)
    if not p.boundary:
        z = _lift_reference(h, p)
        a, b, c, d = (x.embed(h.sigma_space) for x in m.entries())
        upper, lower = a * z + b, c * z + d
        return (upper * lower.conj(), lower.norm().to_scalar(),
                upper.norm().to_scalar(), det)
    a, b, c, d = m.entries()
    u = h.part_element(p.part)
    ub, t = u.conj(), p.height
    star = a * c.conj() * t + (a * u * d.conj() + b * ub * c.conj())
    den_star = (c.norm() * t + (c * u * d.conj() + d * ub * c.conj())
                ).to_scalar()
    num_norm_star = (a.norm() * t
                     + (a * u * b.conj() + b * ub * a.conj())).to_scalar()
    return star, den_star, num_norm_star, det


def _value_identity_reference(h, m, p):
    num, den, num_norm, det = _numerator_pieces_reference(h, m, p)
    if not p.boundary:
        part, _ = _split_by_kind(h, num)
        expected = h.c * p.height * p.height * det * det - num_norm * den
    else:
        part = _element_to_part_by_kind(h, num)
        expected = h.c * det * det - num_norm * den
    return h.part_q(part) == expected


def _denominator_reference(h, m, p):
    return _numerator_pieces_reference(h, m, p)[1]


def _check_action(h, m, p):
    """The three callers of the action agree with their references at p;
    returns the Moebius case, point kind then image kind."""
    image = h.mobius_apply(m, p)
    assert image == _mobius_reference(h, m, p)
    assert _mobius_denominator(h, p, m) == _denominator_reference(h, m, p)
    assert h.value_identity_check(m, p)
    assert _value_identity_reference(h, m, p)
    return "rb"[p.boundary] + "rb"[image.boundary]


def test_action_path_matches_references_over_gf3():
    """Every (reference special census generator, point) pair of every
    GF(3) half-space of dim <= 1: every qdiag, every c and both kinds."""
    cases = Counter()
    for h in _halfspaces(F3, 1):
        points = h.enumerate_points()
        for g in _census_generators_reference(h, "special"):
            for p in points:
                cases[_check_action(h, g, p)] += 1
    assert cases == {"rr": 1360, "rb": 80, "br": 80, "bb": 578}


def test_action_path_matches_references_over_q():
    """200 seeded random Vahlen matrices, each at a regular or a boundary
    point of the degenerate, non-orthogonal dim-4 space over Q, for c in
    {1, 0, -1} and both kinds."""
    V = QuadraticSpace(Q, [1, -1, 2, 0], {(0, 1): 1, (2, 3): Q.parse("1/2")})
    rng = random.Random(11)
    values = (1, -1, 2, Q.parse("3/4"), Q.parse("-1/3"))
    halfspaces = {}
    checked = Counter()
    for i in range(200):
        key = (1, 0, -1)[i % 3], ("vector", "paravector")[i % 2]
        if key not in halfspaces:
            h = HalfSpace(V, *key)
            halfspaces[key] = h, boundary_parts(h)
        h, bparts = halfspaces[key]
        m = random_vahlen(V, h.kind, rng, rng.randint(1, 3))
        if i % 4 < 2:
            part = [rng.choice((0,) + values) for _ in range(h.part_len)]
            p = h.regular_point(part, rng.choice(values))
        else:
            part = rng.choice(bparts)
            radical = h.c.is_zero() and h.part_space.in_radical(part)
            p = h.boundary_point(part, rng.choice(values if radical
                                                  else (0,) + values))
        _check_action(h, m, p)
        checked[h.kind, p.boundary] += 1
    assert len(checked) == 4 and sum(checked.values()) == 200


@pytest.mark.parametrize("kind", ["vector", "paravector"])
def test_sigma_check_refuses_a_wrong_det(kind, monkeypatch):
    """At a regular point the sigma coefficient of the numerator is t det:
    with a wrong pseudo-determinant each caller of the action refuses the
    point."""
    V = QuadraticSpace(Q, [1, -1])
    h = HalfSpace(V, 1, kind)
    m = translation(V, kind, CliffordElement.monomial(V, (0,))) * weyl(V)
    monkeypatch.setattr(halfspace, "pseudo_det",
                        lambda m, kind: pseudo_det(m, kind) * 2)
    p = h.regular_point([1] * h.part_len, 3)
    for call in (h.mobius_apply, h.value_identity_check,
                 lambda m, p: _mobius_denominator(h, p, m)):
        with pytest.raises(InvariantViolation, match="t det"):
            call(m, p)


def test_represented_iff_some_boundary_point():
    """The census reads represented off its boundary count: every GF(3)
    half-space of dim <= 2, every c and both kinds."""
    seen = Counter()
    for h in _halfspaces(F3, 2):
        has_boundary = any(p.boundary for p in h.enumerate_points())
        assert h.represented() == has_boundary
        seen[has_boundary] += 1
    assert len(seen) == 2


@pytest.mark.parametrize("kind", ["vector", "paravector"])
def test_equivariance_computes_each_pseudo_det_once(kind, monkeypatch):
    """The K-model path divides by the det the Moebius path keeps: 10 seeded
    matrices, each checked at 3 points of the dim-4 space, one a d* - b c*
    computed per matrix."""
    calls = _count_det_computations(monkeypatch)
    V = QuadraticSpace(Q, [1, -1, 2, 0], {(0, 1): 1, (2, 3): Q.parse("1/2")})
    h = HalfSpace(V, 1, kind)
    bparts = boundary_parts(h)
    rng = random.Random(23)
    values = (1, -1, 2, Q.parse("3/4"), Q.parse("-1/3"))
    for _ in range(10):
        m = random_vahlen(V, kind, rng, 2)
        points = [h.regular_point([rng.choice((0,) + values)
                                   for _ in range(h.part_len)],
                                  rng.choice(values))
                  for _ in range(2)]
        points.append(h.boundary_point(rng.choice(bparts),
                                       rng.choice((0,) + values)))
        for p in points:
            assert h.equivariance_check(m, p)
    assert len(calls) == 10 and set(calls.values()) == {1}


# -- points on raw values -------------------------------------------------------
#
# A point keeps raw values and the Moebius path runs on them; the Scalar
# references above are the oracles.


def _sample_points(points, rng, count):
    """A seeded sample of up to count regular and count boundary points."""
    out = []
    for boundary in (False, True):
        pool = [p for p in points if p.boundary == boundary]
        out += rng.sample(pool, min(count, len(pool)))
    return out


def test_action_path_matches_references_over_gf5():
    """Every reference special census generator of every GF(5) half-space
    of dim <= 1 (every qdiag, every c and both kinds), at three seeded
    regular and up to three seeded boundary points."""
    rng = random.Random(26)
    cases = Counter()
    for h in _halfspaces(F5, 1):
        points = _sample_points(h.enumerate_points(), rng, 3)
        for g in _census_generators_reference(h, "special"):
            for p in points:
                cases[_check_action(h, g, p)] += 1
    assert cases == {"rr": 1527, "rb": 33, "br": 108, "bb": 1026}


def test_action_path_matches_references_on_census_configs():
    """Every reference special census generator of the seven census
    benchmark configurations, at four seeded regular and up to four seeded
    boundary points."""
    rng = random.Random(27)
    cases = Counter()
    for p, qdiag, pairs, kind, c, _ in CENSUS_CONFIGS:
        h = _census_halfspace(p, qdiag, pairs, kind, c)
        points = _sample_points(h.enumerate_points(), rng, 4)
        for g in _census_generators_reference(h, "special"):
            for point in points:
                cases[_check_action(h, g, point)] += 1
    assert cases == {"rr": 303, "rb": 9, "br": 25, "bb": 287}


def _views_ok(h, p):
    """part and height are Scalars of h's field; over Q they hold
    Fractions, as every Scalar over Q does."""
    views = (*p.part, p.height)
    return all(type(x) is Scalar and x.field == h.field
               and (h.field.modulus or type(x.value) is Fraction)
               for x in views)


def _same_point(points):
    first = points[0]
    return all(p == first and hash(p) == hash(first) for p in points)


def test_points_from_every_source_are_equal_and_hash_alike():
    """A point built by regular_point or boundary_point from Scalars, from
    unreduced ints and from Fractions equals, and hashes like, the same
    point from enumerate_points and from mobius_apply."""
    h = _census_halfspace(*CENSUS_CONFIGS[3][:5])
    points = h.enumerate_points()
    by_view = {(p.boundary, p.part, p.height): p for p in points}
    gens = h.census_generators("special")
    kinds = Counter()
    for i, p in enumerate(points):
        img = h.mobius_apply(gens[i % len(gens)], p)
        build = h.boundary_point if img.boundary else h.regular_point
        values = [x.value for x in (*img.part, img.height)]
        built = [build(img.part, img.height),
                 build([v - 5 * i for v in values[:-1]], values[-1] + 5),
                 build([Fraction(2 * v + 5, 2) for v in values[:-1]],
                       Fraction(2 * values[-1] + 5, 2))]
        assert _same_point([img, by_view[img.boundary, img.part, img.height],
                            *built])
        assert all(_views_ok(h, q) for q in (img, *built))
        kinds[img.boundary] += 1
    assert len(kinds) == 2
    hq = HalfSpace(QuadraticSpace(Q, [1, -1]), 1, "vector")
    V = hq.space
    m = translation(V, "vector", V.vector([1, 2]))
    img = hq.mobius_apply(m, hq.regular_point([3, 1], 2))
    assert _same_point([img, hq.regular_point([4, 3], 2),
                        hq.regular_point([Fraction(8, 2), Fraction(3)],
                                         Fraction(2)),
                        hq.regular_point([Q.element(4), Q.element(3)],
                                         Q.element(2))])
    img = hq.mobius_apply(m * dilation(V, 2), hq.boundary_point([1, 0], 5))
    assert _same_point([img, hq.boundary_point([1, 0], 8),
                        hq.boundary_point([Fraction(1), 0], Fraction(16, 2)),
                        hq.boundary_point([Q.one, Q.zero], Q.element(8))])
    assert _views_ok(hq, img) and _views_ok(hq, hq.base_point())


def test_points_of_two_fields_with_equal_residues_are_unequal():
    """A GF(3) point and a GF(5) point with equal residues differ, and the
    comparison raises nothing."""
    pairs = []
    for build in ("regular_point", "boundary_point"):
        p3, p5 = (getattr(HalfSpace(QuadraticSpace(f, [1]), 1, "vector"),
                          build)([1], 2) for f in (F3, F5))
        assert p3.raw_part == p5.raw_part and p3.raw_height == p5.raw_height
        assert p3 != p5 and not p3 == p5 and p5 != p3
        pairs += [p3, p5]
    assert len(set(pairs)) == 4


def test_orbit_sizes_ascend_and_representatives_follow_the_sort_key(
        monkeypatch):
    """With the Weyl matrix as the only generator, GF(3) [] paravector at
    c = 1 falls into four orbits of sizes 1 and 2: the report lists the
    sizes ascending and the representatives in _point_sort_key order."""
    monkeypatch.setattr(HalfSpace, "census_generators",
                        lambda self, group: [weyl(self.space)])
    h = HalfSpace(QuadraticSpace(F3, []), 1, "paravector")
    report = h.orbit_census("special")
    assert report["orbit_count"] == 4
    assert report["orbit_sizes"] == [1, 1, 2, 2]
    reps = [point_from_json(h, p) for p in report["orbit_representatives"]]
    assert reps == sorted(reps, key=halfspace._point_sort_key)
    assert len(set(reps)) == 4


# -- the K-model action in M2(C(V)) -------------------------------------------
#
# The reference below is orthogonal_apply as it was written before the
# action ran in M2(C(V)): the sandwich eta w eta^T multiplied in C(V_U)
# resp. C(V_{U,F}).


def _orthogonal_reference(h, m, w):
    inv = pseudo_det(m, h.kind).inverse()
    to_u = matrix_to_CU if h.kind == "vector" else matrix_to_CUF
    eta = to_u(m, h.uspace)
    img = eta * CliffordElement.from_vector(w) * eta.transpose()
    return (img * inv).vector_coords()


def _check_orthogonal(h, m, vectors):
    for w in vectors:
        assert h.orthogonal_apply(m, w) == _orthogonal_reference(h, m, w)


def test_orthogonal_action_matches_reference_over_gf3():
    """Every full-group reference census generator of every GF(3)
    half-space of dim <= 1 (every qdiag, every c and both kinds), on every
    basis vector of V_U resp. V_{U,F} and every K-vector."""
    checked = Counter()
    for h in _halfspaces(F3, 1):
        vectors = [*h.uspace.basis(), *h.k_set()]
        for g in _census_generators_reference(h, "full"):
            _check_orthogonal(h, g, vectors)
            checked[h.kind] += len(vectors)
    assert checked == {"vector": 758, "paravector": 2621}


@pytest.mark.parametrize("qdiag", [[1, -1, 2, 0], [1, -1, 2, 0, 3]])
def test_orthogonal_action_matches_reference_on_bench_spaces(qdiag):
    """40 seeded Vahlen matrices per kind on the dim-4 and dim-5 spaces
    over Q, each on two seeded vectors of V_U resp. V_{U,F}."""
    V = QuadraticSpace(Q, qdiag, {(0, 1): 1, (2, 3): Q.parse("1/2")})
    rng = random.Random(28)
    values = (0, 1, -1, 2, Q.parse("3/4"), Q.parse("-1/3"))
    for kind in ("vector", "paravector"):
        h = HalfSpace(V, 1, kind)
        for _ in range(40):
            m = random_vahlen(V, kind, rng, rng.randint(1, 4))
            vectors = [h.uspace.vector([rng.choice(values)
                                        for _ in range(h.uspace.dim)])
                       for _ in range(2)]
            _check_orthogonal(h, m, vectors)


@pytest.mark.parametrize("kind", ["vector", "paravector"])
def test_orthogonal_action_of_a_matrix_over_a_subspace(kind):
    """A matrix over V acts on the K-model of an extension of V: its
    entries are embedded first."""
    V = QuadraticSpace(Q, [1, -1])
    h = HalfSpace(QuadraticSpace(Q, [1, -1, 2]), 1, kind)
    rng = random.Random(29)
    for _ in range(10):
        m = random_vahlen(V, kind, rng, rng.randint(1, 4))
        _check_orthogonal(h, m, [*h.uspace.basis(),
                                 h.to_K(h.regular_point([1] * h.part_len,
                                                        2))])


@pytest.mark.parametrize("kind", ["vector", "paravector"])
def test_orthogonal_action_refuses_a_vector_of_another_space(kind):
    V = QuadraticSpace(Q, [1, -1])
    h = HalfSpace(V, 1, kind)
    m = translation(V, kind, CliffordElement.monomial(V, (0,))) * weyl(V)
    other = HalfSpace(QuadraticSpace(Q, [1, 1]), 1, kind).uspace
    with pytest.raises(SpaceMismatch):
        h.orthogonal_apply(m, other.basis_vector(0))


def _constants(space):
    return sum(len(row) for row in space._mono_cache.values())


@pytest.mark.parametrize("kind", ["vector", "paravector"])
def test_orthogonal_action_fills_few_constants_of_vu(kind):
    """On a fresh dim-5 space, one orthogonal_apply fills fewer than 100
    structure constants of V_U resp. V_{U,F}: its products run in C(V).
    The sandwich in C(V_U) resp. C(V_{U,F}) fills hundreds."""
    V = QuadraticSpace(Q, [1, -1, 2, 0, 3],
                       {(0, 1): 1, (2, 3): Q.parse("1/2")})
    h = HalfSpace(V, 1, kind)
    m = random_vahlen(V, kind, random.Random(30), 6)
    w = h.to_K(h.regular_point([1] * h.part_len, 2))
    before = _constants(h.uspace)
    h.orthogonal_apply(m, w)
    assert _constants(h.uspace) - before < 100
