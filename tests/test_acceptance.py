"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is exact equality; there are no tolerances anywhere.  Run with
`pytest -v -s tests/test_acceptance.py` to see one line per criterion.
"""

import random
import time

import pytest

from vahlen import linalg
from vahlen.clifford import CliffordElement, all_monomials, enumerate_elements
from vahlen.fields import PrimeField, Q
from vahlen.groups import (CMatrix2, CU_to_matrix, CUF_to_matrix,
                           matrix_involution, matrix_to_CU, matrix_to_CUF,
                           in_group, pi, pi_tilde)
from vahlen.halfspace import HalfSpace
from vahlen.matrices import (dilation, is_vahlen, pseudo_det, random_vahlen,
                             translation, verify_equivalence_exhaustive)
from vahlen.quadratic import (QuadraticSpace, is_orthogonal_fixing_radical,
                              reflection_matrix)
from vahlen.suites import boundary_parts, sample_point

F3 = PrimeField(3)
F5 = PrimeField(5)


def _report(num, desc, ok, started=None):
    stamp = f" [{time.time() - started:.1f}s]" if started else ""
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}{stamp}")
    assert ok, f"criterion {num} failed: {desc}"


# -- criteria 1 and 2: exhaustive condition equivalence -------------------------


@pytest.mark.parametrize("num,kind", [(1, "vector"), (2, "paravector")])
def test_exhaustive_condition_equivalence(num, kind):
    started = time.time()
    ok = True
    for qdiag in ([1], [0]):
        space = QuadraticSpace(F3, qdiag)
        report = verify_equivalence_exhaustive(space, kind)
        ok = ok and report["matrix_count"] == 6561
        ok = ok and "T_star_invariant" in report  # hypothesis is flagged
        if report["T_star_invariant"]:
            ok = ok and report["condition_sets_equal"]
    _report(num, f"all 6561 matrices, four {kind} conditions coincide "
                 "under the transposition-invariance hypothesis "
                 "(GF(3), dim 1, q = x^2 and q = 0)", ok, started)


# -- criteria 3 and 4: equivariance and the value identity ------------------------


def _grid():
    forms = {
        0: [([], {})],
        1: [([1], {}), ([0], {})],
        2: [([1, -1], {}), ([1, 0], {})],
        3: [([1, -1, 1], {}), ([1, -1, 0], {(0, 1): 1})],
    }
    per_config = {0: 84, 1: 42, 2: 42, 3: 42}
    configs = []
    for dim, variants in forms.items():
        for qdiag, pairs in variants:
            for c in (0, 1, -1):
                for kind in ("vector", "paravector"):
                    configs.append((dim, qdiag, pairs, c, kind,
                                    per_config[dim]))
    return configs


@pytest.fixture(scope="module")
def equivariance_samples():
    """>= 500 sampled (Vahlen matrix, point) pairs per dimension, covering
    degenerate forms, c in {0, 1, -1}, both kinds, and boundary points
    whenever c is represented."""
    samples = []
    per_dim = {d: 0 for d in range(4)}
    boundary_seen = 0
    for dim, qdiag, pairs, c, kind, count in _grid():
        space = QuadraticSpace(Q, qdiag, pairs)
        hs = HalfSpace(space, c, kind)
        rng = random.Random(f"acceptance3:{dim}:{qdiag}:{c}:{kind}")
        boundaries = boundary_parts(hs)
        for _ in range(count):
            m = random_vahlen(space, kind, rng, rng.randint(1, 8))
            p = sample_point(hs, rng, boundaries)
            samples.append((hs, m, p))
            per_dim[dim] += 1
            boundary_seen += p.boundary
    assert all(n >= 500 for n in per_dim.values()), per_dim
    assert boundary_seen >= 100
    return samples


def test_equivariance(equivariance_samples):
    started = time.time()
    ok = all(hs.equivariance_check(m, p)
             for hs, m, p in equivariance_samples)
    _report(3, f"Moebius action equals the K-model action exactly on "
               f"{len(equivariance_samples)} sampled pairs over Q "
               "(dims 0-3, degenerate forms, boundary points)", ok, started)


def test_value_identity(equivariance_samples):
    started = time.time()
    ok = all(hs.value_identity_check(m, p)
             for hs, m, p in equivariance_samples)
    _report(4, "q(numerator part) = c t^2 det^2 - N N on every criterion-3 "
               "sample, including starred boundary forms", ok, started)


# -- criterion 5: the matrix-algebra isomorphisms ------------------------------------


def _random_element(space, rng, density=0.45):
    coeffs = {}
    for s in all_monomials(space):
        if rng.random() < density:
            c = space.field.element(rng.randint(-3, 3))
            if not c.is_zero():
                coeffs[s] = c
    return CliffordElement(space, coeffs)


def test_isomorphism_suite():
    started = time.time()
    configs = [
        QuadraticSpace(Q, []),
        QuadraticSpace(Q, [1, -1]),
        QuadraticSpace(Q, [1, 0]),
        QuadraticSpace(Q, [2, 3], pairs={(0, 1): 1}),
        QuadraticSpace(F5, [1, 2]),
        QuadraticSpace(F3, [0]),
    ]
    ok = True
    for space in configs:
        vu = space.extend_hyperbolic()
        vuf = space.extend_hyperbolic_rho()
        rng = random.Random(f"acceptance5:{space!r}")
        for _ in range(200):
            m1 = CMatrix2(*(_random_element(space, rng) for _ in range(4)))
            m2 = CMatrix2(*(_random_element(space, rng) for _ in range(4)))
            cu1 = matrix_to_CU(m1, vu)
            ok = ok and matrix_to_CU(m1 * m2, vu) == cu1 * matrix_to_CU(m2, vu)
            ok = ok and CU_to_matrix(cu1, space) == m1
            cuf1 = matrix_to_CUF(m1, vuf)
            ok = ok and matrix_to_CUF(m1 * m2, vuf) == \
                cuf1 * matrix_to_CUF(m2, vuf)
            ok = ok and CUF_to_matrix(cuf1, space) == m1
            for kind in ("grade", "transpose", "conj"):
                ok = ok and matrix_to_CU(matrix_involution(m1, kind), vu) == \
                    cu1.involution(kind)
            ok = ok and matrix_to_CUF(matrix_involution(m1, "conj"), vuf) == \
                cuf1.transpose()
            if not ok:
                break
    _report(5, "matrix-to-C(V_U) and matrix-to-C(V_UF)+ are multiplicative "
               "on 200 random pairs per configuration with exact involution "
               "transfer", ok, started)


# -- criterion 6: the group-theoretic suite ---------------------------------------------


def _random_gamma_fx(space, rng, factors):
    x = CliffordElement.scalar(space, rng.choice((1, -1, 2)))
    made = 0
    tries = 0
    while made < factors and tries < 200:
        tries += 1
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


def _random_tilde_gamma_fx(space, rng, factors):
    x = CliffordElement.scalar(space, rng.choice((1, -1, 2)))
    made = 0
    tries = 0
    while made < factors and tries < 200:
        tries += 1
        a = space.field.element(rng.randint(-2, 2))
        v = space.vector([space.field.element(rng.randint(-2, 2))
                          for _ in range(space.dim)])
        xi = CliffordElement.paravector(space, a, v)
        from vahlen.clifford import paravector_q
        if paravector_q(xi).is_zero():
            continue
        x = x * xi
        made += 1
    return x


def test_group_theoretic_suite():
    started = time.time()
    configs = [QuadraticSpace(Q, [1, -1]),
               QuadraticSpace(Q, [1, -1, 0], pairs={(0, 1): 1}),
               QuadraticSpace(F5, [1, 1])]
    ok = True
    checked = 0
    for space in configs:
        rng = random.Random(f"acceptance6:{space!r}")
        field = space.field
        n = space.dim
        ident = linalg.identity_matrix(n, field)
        for _ in range(80):
            x = _random_gamma_fx(space, rng, rng.randint(1, 4))
            y = _random_gamma_fx(space, rng, rng.randint(1, 4))
            px, py = pi(x), pi(y)
            ok = ok and is_orthogonal_fixing_radical(px, space)
            ok = ok and pi(x * y) == linalg.mat_mul(px, py, field)
            nx, nxy = x.norm(), (x * y).norm()
            ok = ok and nx.is_scalar() and nxy.is_scalar()
            ok = ok and nxy == nx * y.norm()
            # anisotropic vectors project to their reflections
            v = space.vector([field.element(rng.randint(-2, 2))
                              for _ in range(n)])
            if not v.q().is_zero():
                ok = ok and pi(CliffordElement.from_vector(v)) == \
                    reflection_matrix(v)
            xt = _random_tilde_gamma_fx(space, rng, rng.randint(1, 3))
            ok = ok and in_group(xt, "tilde_gamma_fx")
            ok = ok and linalg.det(pi_tilde(xt), field) == field.one
            m1 = random_vahlen(space, "vector", rng, rng.randint(1, 6))
            m2 = random_vahlen(space, "vector", rng, rng.randint(1, 6))
            ok = ok and pseudo_det(m1 * m2, "vector") == \
                pseudo_det(m1, "vector") * pseudo_det(m2, "vector")
            checked += 1
            if not ok:
                break
    ok = ok and checked >= 200
    _report(6, f"pi lands in O_perp with multiplicativity, pi(v) = r_v, "
               f"pi-tilde has determinant +1, norms and pseudo-dets are "
               f"multiplicative ({checked} samples)", ok, started)


# -- criterion 7: orbit census ----------------------------------------------------------


def test_orbit_census():
    """KNOWN RED (see the failure message and tests/test_halfspace.py
    test_special_orbits_c0_proper_norm_subgroup): for c = 0, when the squares
    together with the nonzero values of -q do not generate the whole of F^x,
    the special group provably has two orbits even though c is represented,
    so the criterion's prediction cannot hold there."""
    started = time.time()
    failures = []
    ran = 0
    for field in (F3, F5):
        spaces = [QuadraticSpace(field, []),
                  QuadraticSpace(field, [1]),
                  QuadraticSpace(field, [0]),
                  QuadraticSpace(field, [1, -1]),
                  QuadraticSpace(field, [1, 0])]
        for space in spaces:
            for c in (0, 1, 2):
                for kind in ("vector", "paravector"):
                    hs = HalfSpace(space, c, kind)
                    report = hs.orbit_census("special")
                    ran += 1
                    good = report["counts_match_k"]
                    if report["represented"]:
                        good = good and report["transitive"]
                    else:
                        good = good and report["contains_squares"]
                        good = good and report["orbit_coset_match"]
                        good = good and report["predictions_ok"]
                    if not good:
                        failures.append(
                            (repr(field), [str(v) for v in space.qdiag],
                             c, kind, report["orbit_count"]))
    ok = not failures
    desc = (f"{ran} censuses over GF(3)/GF(5), dims 0-2: transitive when c "
            "is represented (counts matching the K-set), coset decomposition "
            "by the norm subgroup (containing all squares) otherwise")
    if failures:
        desc += (f"; {len(failures)} configurations violate the stated "
                 f"prediction: {failures} (all are c = 0 with the squares "
                 "and the nonzero -q values generating a proper subgroup of "
                 "F^x, where the transitivity claim provably fails; "
                 "exhaustive closure under the whole special group confirms "
                 "the two orbits)")
    _report(7, desc, ok, started)


# -- criterion 8: boundary closed form -----------------------------------------------------


def _check_boundary_closed_form(hs, a, xi_part, p):
    m = translation(hs.space, hs.kind, hs.part_element(xi_part)) \
        * dilation(hs.space, a)
    img = hs.mobius_apply(m, p)
    expected = a * p.height - hs.part_pairing(p.part, xi_part)
    return (img.boundary and img.part == p.part
            and img.height == expected)


def _all_parts(hs):
    """Every part of a GF(p) half-space, in numeral order."""
    return [part for _, part in hs._parts()]


def test_boundary_closed_form():
    started = time.time()
    ok = True
    # exhaustive over finite-field boundary sets
    for field in (F3, F5):
        for qdiag, c in (([1], 1), ([1], 0), ([0], 0)):
            space = QuadraticSpace(field, qdiag)
            for kind in ("vector", "paravector"):
                hs = HalfSpace(space, c, kind)
                bpoints = [p for p in hs.enumerate_points() if p.boundary]
                parts = _all_parts(hs)
                for p in bpoints:
                    for a in field.elements():
                        if a.is_zero():
                            continue
                        for xi in parts:
                            ok = ok and _check_boundary_closed_form(
                                hs, a, xi, p)
                if not ok:
                    break
    # >= 100 samples over Q
    space = QuadraticSpace(Q, [1, -1])
    rng = random.Random("acceptance8")
    count = 0
    for kind in ("vector", "paravector"):
        hs = HalfSpace(space, 1, kind)
        boundaries = boundary_parts(hs)
        for _ in range(60):
            part = rng.choice(boundaries)
            p = hs.boundary_point(part, rng.randint(-5, 5))
            a = Q.element(rng.choice((1, -1, 2, 3)))
            xi = tuple(Q.element(rng.randint(-3, 3))
                       for _ in range(hs.part_len))
            ok = ok and _check_boundary_closed_form(hs, a, xi, p)
            count += 1
    ok = ok and count >= 100
    _report(8, "(a xi; 0 1) sends (inf u)_b to (inf u)_{ab - (u, xi)} on "
               f"exhaustive finite boundary sets and {count} Q samples",
            ok, started)


# -- criterion 9: stabilizer shape ------------------------------------------------------------


def test_stabilizer_shape_exhaustive():
    started = time.time()
    ok = True
    checked = 0
    for qdiag in ([1], [0]):
        space = QuadraticSpace(F3, qdiag)
        elems = enumerate_elements(space)
        for kind in ("vector", "paravector"):
            members = []
            for a in elems:
                for b in elems:
                    for c in elems:
                        for d in elems:
                            m = CMatrix2(a, b, c, d)
                            if is_vahlen(m, kind):
                                members.append(m)
            for cval in (0, 1, 2):
                hs = HalfSpace(space, cval, kind)
                for m in members:
                    stab, shape = hs.stabilizer_shape_check(m)
                    ok = ok and stab == shape
                    checked += 1
            if not ok:
                break
    _report(9, f"exhaustive over the GF(3) dim-1 Vahlen groups "
               f"({checked} matrix/c combinations): m stabilizes sigma_c "
               "iff m matches the (d', -c g'; g, d) shape", ok, started)
