"""The property suites behind the verify command.

Each suite is a list of named checks run over seeded samples; a check
returns None on success or a replayable JSON counterexample on failure.
Suites are ordered cheap-to-expensive so failures localize early.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from .clifford import (CliffordElement, SolveTooLarge, all_monomials,
                       element_to_json, iota, iota_inv, paravector_pairing,
                       paravector_q, rho_map, upsilon_map)
from .fields import PrimeField, Rationals, residue_tuples, sqrt_mod
from .groups import (CMatrix2, CU_to_matrix, CUF_to_matrix, matrix_involution,
                     matrix_to_CU, matrix_to_CUF, probe_elements)
from .halfspace import HalfSpace, point_to_json
from .matrices import (NotVahlen, diagnose, is_vahlen, matrix_inverse,
                       matrix_to_json, pseudo_det, random_paravector,
                       random_vahlen, random_vector)
from .quadratic import vector_to_json


def _rng_for(config, name):
    return random.Random(f"{config.seed}:{name}")


def _random_element(space, rng, density=0.45):
    coeffs = {}
    field = space.field
    for s in all_monomials(space):
        if rng.random() < density:
            if isinstance(field, Rationals):
                c = field.element(rng.choice(
                    (1, -1, 2, -2, 3, Fraction(1, 2))))
            else:
                c = field.element(rng.randrange(1, field.modulus))
            coeffs[s] = c
    return CliffordElement(space, coeffs)


def _random_matrix(space, rng):
    return CMatrix2(*(_random_element(space, rng) for _ in range(4)))


# -- algebra law suite -------------------------------------------------------


def algebra_suite(config):
    space = config.space
    rng = _rng_for(config, "algebra")
    checks = []

    def vector_square(_):
        for _ in range(config.samples):
            v = random_vector(space, rng)
            elt = CliffordElement.from_vector(v)
            if elt * elt != CliffordElement.scalar(space, v.q()):
                return {"v": vector_to_json(v)}
        return None

    def anticommutation(_):
        for i in range(space.dim):
            for j in range(space.dim):
                u = CliffordElement.monomial(space, (i,))
                v = CliffordElement.monomial(space, (j,))
                lhs = u * v + v * u
                if lhs != CliffordElement.scalar(space,
                                                 space.pair_value(i, j)):
                    return {"i": i, "j": j}
        return None

    def associativity(_):
        for _ in range(config.samples):
            x, y, z = (_random_element(space, rng) for _ in range(3))
            if (x * y) * z != x * (y * z):
                return {"x": element_to_json(x), "y": element_to_json(y),
                        "z": element_to_json(z)}
        return None

    def distributivity(_):
        for _ in range(config.samples):
            x, y, z = (_random_element(space, rng) for _ in range(3))
            if x * (y + z) != x * y + x * z:
                return {"x": element_to_json(x), "y": element_to_json(y),
                        "z": element_to_json(z)}
        return None

    def pairing_grade_identity(_):
        # u v' + v u' = -(u, v) for vectors
        for _ in range(config.samples):
            u, v = random_vector(space, rng), random_vector(space, rng)
            ue = CliffordElement.from_vector(u)
            ve = CliffordElement.from_vector(v)
            lhs = ue * ve.grade_involution() + ve * ue.grade_involution()
            if lhs != CliffordElement.scalar(space, -u.pair(v)):
                return {"u": vector_to_json(u), "v": vector_to_json(v)}
        return None

    def paravector_pairing_identity(_):
        # xi eta' + eta xi' = -(xi, eta)_F
        for _ in range(config.samples):
            xi = random_paravector(space, rng)
            eta = random_paravector(space, rng)
            lhs = (xi * eta.grade_involution()
                   + eta * xi.grade_involution())
            rhs = CliffordElement.scalar(space,
                                         -paravector_pairing(xi, eta))
            if lhs != rhs:
                return {"xi": element_to_json(xi), "eta": element_to_json(eta)}
        return None

    def paravector_norm(_):
        for _ in range(config.samples):
            xi = random_paravector(space, rng)
            if xi.norm() != CliffordElement.scalar(space,
                                                   -paravector_q(xi)):
                return {"xi": element_to_json(xi)}
        return None

    def inverse_roundtrip(_):
        one = CliffordElement.one(space)
        for _ in range(config.samples // 4 + 1):
            x = _random_element(space, rng)
            try:
                xi = x.inverse()
            except ArithmeticError:
                continue
            if x * xi != one or xi * x != one:
                return {"x": element_to_json(x)}
        return None

    checks.append(("vector_square_is_q", vector_square))
    checks.append(("anticommutation_pairing", anticommutation))
    checks.append(("associativity", associativity))
    checks.append(("distributivity", distributivity))
    checks.append(("pairing_grade_identity", pairing_grade_identity))
    checks.append(("paravector_pairing_identity",
                   paravector_pairing_identity))
    checks.append(("paravector_norm_is_minus_qF", paravector_norm))
    checks.append(("two_sided_inverse", inverse_roundtrip))
    return checks


# -- involution suite ------------------------------------------------------------


def involution_suite(config):
    space = config.space
    rng = _rng_for(config, "involution")

    def squares_to_identity(_):
        for _ in range(config.samples):
            x = _random_element(space, rng)
            for kind in ("grade", "transpose", "conj"):
                if x.involution(kind).involution(kind) != x:
                    return {"x": element_to_json(x), "involution": kind}
        return None

    def antihomomorphisms(_):
        for _ in range(config.samples):
            x, y = _random_element(space, rng), _random_element(space, rng)
            if (x * y).transpose() != y.transpose() * x.transpose():
                return {"x": element_to_json(x), "y": element_to_json(y),
                        "involution": "transpose"}
            if (x * y).conj() != y.conj() * x.conj():
                return {"x": element_to_json(x), "y": element_to_json(y),
                        "involution": "conj"}
            if ((x * y).grade_involution()
                    != x.grade_involution() * y.grade_involution()):
                return {"x": element_to_json(x), "y": element_to_json(y),
                        "involution": "grade"}
        return None

    def composition(_):
        for _ in range(config.samples):
            x = _random_element(space, rng)
            gt = x.grade_involution().transpose()
            tg = x.transpose().grade_involution()
            if gt != tg or gt != x.conj():
                return {"x": element_to_json(x)}
        return None

    def norm_multiplicativity(_):
        for _ in range(config.samples):
            x = _random_element(space, rng)
            y = CliffordElement.from_vector(random_vector(space, rng))
            ny = y.norm()
            if not ny.is_scalar():
                continue
            if (x * y).norm() != x.norm() * ny:
                return {"x": element_to_json(x), "y": element_to_json(y)}
        return None

    return [("involutions_square_to_identity", squares_to_identity),
            ("transpose_conj_antihomomorphism_grade_homomorphism",
             antihomomorphisms),
            ("grade_transpose_commute_to_conj", composition),
            ("norm_multiplicative_over_scalar_norms", norm_multiplicativity)]


# -- isomorphism suite --------------------------------------------------------------


def _matrix_to_CUF_upsilon(m, vuf):
    """The upsilon form a_u ef + b_u e rho + c_u f rho + d_u fe."""
    e = CliffordElement.monomial(vuf, (vuf.labels["e"],))
    f = CliffordElement.monomial(vuf, (vuf.labels["f"],))
    r = CliffordElement.monomial(vuf, (vuf.labels["rho"],))
    blocks = (e * f, e * r, f * r, f * e)
    out = CliffordElement.zero(vuf)
    for x, blk in zip(m.entries(), blocks):
        out = out + upsilon_map(x, vuf) * blk
    return out


def iso_suite(config):
    space = config.space
    vu = space.extend_hyperbolic()
    vuf = space.extend_hyperbolic_rho()
    rng = _rng_for(config, "iso")

    def cu_roundtrip_and_mult(_):
        for _ in range(config.samples):
            m1, m2 = _random_matrix(space, rng), _random_matrix(space, rng)
            if CU_to_matrix(matrix_to_CU(m1, vu), space) != m1:
                return {"matrix": matrix_to_json(m1)}
            if (matrix_to_CU(m1 * m2, vu)
                    != matrix_to_CU(m1, vu) * matrix_to_CU(m2, vu)):
                return {"m1": matrix_to_json(m1), "m2": matrix_to_json(m2)}
        return None

    def cu_involution_transfer(_):
        for _ in range(config.samples):
            m = _random_matrix(space, rng)
            for kind in ("grade", "transpose", "conj"):
                lhs = matrix_to_CU(matrix_involution(m, kind), vu)
                if lhs != matrix_to_CU(m, vu).involution(kind):
                    return {"matrix": matrix_to_json(m), "involution": kind}
        return None

    def cuf_roundtrip_and_mult(_):
        for _ in range(config.samples):
            m1, m2 = _random_matrix(space, rng), _random_matrix(space, rng)
            img = matrix_to_CUF(m1, vuf)
            if not img.is_even():
                return {"matrix": matrix_to_json(m1), "reason": "odd image"}
            if CUF_to_matrix(img, space) != m1:
                return {"matrix": matrix_to_json(m1)}
            if (matrix_to_CUF(m1 * m2, vuf)
                    != img * matrix_to_CUF(m2, vuf)):
                return {"m1": matrix_to_json(m1), "m2": matrix_to_json(m2)}
        return None

    def cuf_transposition_formula(_):
        for _ in range(config.samples):
            m = _random_matrix(space, rng)
            lhs = matrix_to_CUF(matrix_involution(m, "conj"), vuf)
            if lhs != matrix_to_CUF(m, vuf).transpose():
                return {"matrix": matrix_to_json(m)}
        return None

    def cuf_rho_upsilon_forms_agree(_):
        for _ in range(config.samples):
            m = _random_matrix(space, rng)
            if matrix_to_CUF(m, vuf) != _matrix_to_CUF_upsilon(m, vuf):
                return {"matrix": matrix_to_json(m)}
        return None

    def rho_map_properties(_):
        for _ in range(config.samples):
            x, y = _random_element(space, rng), _random_element(space, rng)
            if rho_map(x * y, vuf) != rho_map(x, vuf) * rho_map(y, vuf):
                return {"x": element_to_json(x), "y": element_to_json(y)}
            if rho_map(x.conj(), vuf) != rho_map(x, vuf).conj():
                return {"x": element_to_json(x), "reason": "conj"}
        return None

    def upsilon_relations(_):
        e = CliffordElement.monomial(vuf, (vuf.labels["e"],))
        f = CliffordElement.monomial(vuf, (vuf.labels["f"],))
        for _ in range(config.samples):
            x = _random_element(space, rng)
            xr, xu = rho_map(x, vuf), upsilon_map(x, vuf)
            if xu * e != xr * e:
                return {"x": element_to_json(x), "relation": "x_u e = x_rho e"}
            if xu * f != rho_map(x.grade_involution(), vuf) * f:
                return {"x": element_to_json(x),
                        "relation": "x_u f = x'_rho f"}
            if e * xu != rho_map(x.grade_involution(), vuf) * e:
                return {"x": element_to_json(x),
                        "relation": "e x_u = x'_rho e"}
            if upsilon_map(x.transpose(), vuf) != xu.transpose():
                return {"x": element_to_json(x), "relation": "(x*)_u = (x_u)*"}
        return None

    def iota_properties(_):
        rho = CliffordElement.monomial(vuf, (vuf.labels["rho"],))
        for _ in range(config.samples):
            xi = random_paravector(space, rng)
            img = iota(xi, vuf)
            if img.q() != paravector_q(xi):
                return {"xi": element_to_json(xi), "reason": "q value"}
            if CliffordElement.from_vector(img) != -(rho_map(xi, vuf) * rho):
                return {"xi": element_to_json(xi),
                        "reason": "iota = -xi_rho rho"}
            if iota_inv(img, space) != xi:
                return {"xi": element_to_json(xi), "reason": "roundtrip"}
        return None

    return [("m2_to_cu_roundtrip_and_multiplicativity", cu_roundtrip_and_mult),
            ("cu_involution_transfer", cu_involution_transfer),
            ("m2_to_cuf_roundtrip_and_multiplicativity",
             cuf_roundtrip_and_mult),
            ("cuf_transposition_formula", cuf_transposition_formula),
            ("cuf_rho_and_upsilon_forms_agree", cuf_rho_upsilon_forms_agree),
            ("rho_map_is_conj_compatible_isomorphism", rho_map_properties),
            ("upsilon_relations", upsilon_relations),
            ("iota_quadratic_isomorphism", iota_properties)]


# -- Vahlen condition diagnostics ----------------------------------------------------


def vahlen_suite(config):
    space = config.space
    kind = config.kind
    rng = _rng_for(config, "vahlen")
    samples = max(10, config.samples // 4)

    def sample(length=None):
        return random_vahlen(space, kind, rng,
                             length or rng.randint(1, config.gen_length))

    def conditions_agree(_):
        for _ in range(samples):
            m = sample()
            verdicts = diagnose(m, kind)
            if not verdicts["agree"] or not verdicts[3]:
                return {"matrix": matrix_to_json(m), "verdicts":
                        {str(k): v for k, v in verdicts.items()}}
        return None

    def closure_and_inverse(_):
        for _ in range(samples):
            m1, m2 = sample(), sample()
            if not is_vahlen(m1 * m2, kind):
                return {"m1": matrix_to_json(m1), "m2": matrix_to_json(m2)}
            inv = matrix_inverse(m1, kind)
            if not is_vahlen(inv, kind):
                return {"matrix": matrix_to_json(m1), "reason": "inverse"}
            if m1 * inv != CMatrix2.identity(space):
                return {"matrix": matrix_to_json(m1),
                        "reason": "inverse product"}
        return None

    def det_multiplicative(_):
        for _ in range(samples):
            m1, m2 = sample(), sample()
            if (pseudo_det(m1 * m2, kind)
                    != pseudo_det(m1, kind) * pseudo_det(m2, kind)):
                return {"m1": matrix_to_json(m1), "m2": matrix_to_json(m2)}
        return None

    def entry_norms_conj_invariant(_):
        for _ in range(samples):
            m = sample()
            for x in m.entries():
                if x.conj().norm() != x.norm():
                    return {"matrix": matrix_to_json(m)}
        return None

    def scalar_is_minus_pairing(_):
        for _ in range(samples):
            m = sample()
            a, b, c, d = m.entries()
            for t in probe_elements(space, kind):
                lhs = a * t * b.conj() + b * t.conj() * a.conj()
                vec = a.conj() * b
                if kind == "vector":
                    rhs = -space.bilinear(t.vector_coords().coords,
                                          vec.vector_coords().coords)
                else:
                    rhs = -paravector_pairing(t, vec)
                if lhs != CliffordElement.scalar(space, rhs):
                    return {"matrix": matrix_to_json(m),
                            "test": element_to_json(t)}
        return None

    return [("four_conditions_agree_on_samples", conditions_agree),
            ("group_closure_and_inverse_formula", closure_and_inverse),
            ("pseudo_det_multiplicative", det_multiplicative),
            ("entry_norms_conj_invariant", entry_norms_conj_invariant),
            ("condition1_scalar_is_minus_pairing", scalar_is_minus_pairing)]


# -- half-space suites -----------------------------------------------------------------


# candidates boundary_parts reads before it gives up; a full scan of any
# current configuration, Q paravectors on a dim-4 space included, fits
BOUNDARY_BUDGET = 1 << 15


def boundary_parts(hs, limit=6):
    """Part tuples with q-value c, found by a small exact search.  Candidate
    k is the base-b numeral of k over an alphabet of b scalars (the
    residues over GF(p), a small grid over Q), last coordinate fastest; the
    scan stops at `limit` hits or after BOUNDARY_BUDGET candidates, so it
    never lists the field or the part tuples.  A GF(p) scan that would pass
    the budget solves for one coordinate instead (_solved_boundary_parts)."""
    field, n = hs.field, hs.part_len
    if isinstance(field, PrimeField):
        p = field.modulus
        if p ** n > BOUNDARY_BUDGET:
            return _solved_boundary_parts(hs, limit)
        q, c = hs.part_space.raw.q, hs.c.value
        hits = (tuple(map(field.element, t))
                for t in residue_tuples(p, n) if q(t) == c)
    else:
        grid = [field.element(v) for v in (0, 1, -1, 2, -2, Fraction(1, 2))]
        parts = (tuple(grid[k] for k in t)
                 for t in residue_tuples(len(grid), n))
        hits = (part for part in islice(parts, BOUNDARY_BUDGET)
                if hs.part_q(part) == hs.c)
    return list(islice(hits, limit))


def _solved_boundary_parts(hs, limit):
    """Boundary parts over a GF(p) too large to scan: the last coordinate
    x_j in which q is not constant is solved from q = c, and the other such
    coordinates run through the numerals, at most BOUNDARY_BUDGET of them.
    With the rest fixed, q = q(e_j) x_j^2 + l x_j + q_0, which is linear
    when q(e_j) = 0 and needs a square root mod p otherwise.  Coordinates
    in which q is constant (radical basis vectors) stay 0."""
    form, field, p = hs.part_space.raw, hs.field, hs.field.modulus
    active = [i for i, row in enumerate(form.gram) if any(row)]
    if not active:  # q vanishes on every part
        parts = residue_tuples(p, hs.part_len) if hs.c.is_zero() else ()
        return [tuple(map(field.element, t)) for t in islice(parts, limit)]
    j, rest = active[-1], active[:-1]
    q, c, qj, row = form.q, hs.c.value, form.qdiag[j], form.gram[j]
    found = []
    for values in islice(residue_tuples(p, len(rest)), BOUNDARY_BUDGET):
        x = [0] * hs.part_len
        for i, v in zip(rest, values):
            x[i] = v
        lin = sum(row[i] * x[i] for i in rest) % p
        const = (q(x) - c) % p
        if qj:
            r = sqrt_mod(lin * lin - 4 * qj * const, p)
            inv = pow(2 * qj, -1, p)
            roots = () if r is None else sorted(
                {(-lin + r) * inv % p, (-lin - r) * inv % p})
        elif lin:
            roots = (-const * pow(lin, -1, p) % p,)
        else:
            roots = () if const else (0,)
        for root in roots:
            x[j] = root
            found.append(tuple(map(field.element, x)))
            if len(found) >= limit:
                return found
    return found


def sample_point(hs, rng, boundaries):
    if boundaries and rng.random() < 0.35:
        part = rng.choice(boundaries)
        while True:
            b = _random_height(hs, rng)
            if not (hs.c.is_zero() and hs.part_space.in_radical(part)
                    and b.is_zero()):
                return hs.boundary_point(part, b)
    part = [_random_height(hs, rng) for _ in range(hs.part_len)]
    while True:
        t = _random_height(hs, rng)
        if not t.is_zero():
            return hs.regular_point(part, t)


def _random_height(hs, rng):
    field = hs.field
    if isinstance(field, Rationals):
        return field.element(rng.choice(
            (0, 1, -1, 2, -2, Fraction(1, 2), 3)))
    return field.element(rng.randrange(field.modulus))


def equivariance_suite(config):
    hs = HalfSpace(config.space, config.c, config.kind)
    rng = _rng_for(config, "equivariance")
    boundaries = boundary_parts(hs)
    samples = max(10, config.samples // 2)

    def pairs():
        for _ in range(samples):
            m = random_vahlen(config.space, config.kind, rng,
                              rng.randint(1, config.gen_length))
            p = sample_point(hs, rng, boundaries)
            yield m, p

    def roundtrip(_):
        for _ in range(samples):
            p = sample_point(hs, rng, boundaries)
            if hs.from_K(hs.to_K(p)) != p:
                return {"point": point_to_json(hs, p)}
        return None

    def identity_acts_trivially(_):
        ident = CMatrix2.identity(config.space)
        for _ in range(samples // 4 + 1):
            p = sample_point(hs, rng, boundaries)
            if hs.mobius_apply(ident, p) != p:
                return {"point": point_to_json(hs, p)}
        return None

    def equivariance(_):
        for m, p in pairs():
            if not hs.equivariance_check(m, p):
                return {"matrix": matrix_to_json(m),
                        "point": point_to_json(hs, p)}
        return None

    def action_property(_):
        for _ in range(samples // 2 + 1):
            m1 = random_vahlen(config.space, config.kind, rng,
                               rng.randint(1, config.gen_length // 2 + 1))
            m2 = random_vahlen(config.space, config.kind, rng,
                               rng.randint(1, config.gen_length // 2 + 1))
            p = sample_point(hs, rng, boundaries)
            if (hs.mobius_apply(m1 * m2, p)
                    != hs.mobius_apply(m1, hs.mobius_apply(m2, p))):
                return {"m1": matrix_to_json(m1), "m2": matrix_to_json(m2),
                        "point": point_to_json(hs, p)}
        return None

    return [("K_model_roundtrip", roundtrip),
            ("identity_acts_trivially", identity_acts_trivially),
            ("mobius_equals_orthogonal_model", equivariance),
            ("action_property", action_property)]


def value_identity_suite(config):
    hs = HalfSpace(config.space, config.c, config.kind)
    rng = _rng_for(config, "value-identity")
    boundaries = boundary_parts(hs)
    samples = max(10, config.samples // 2)

    def identity_holds(_):
        for _ in range(samples):
            m = random_vahlen(config.space, config.kind, rng,
                              rng.randint(1, config.gen_length))
            p = sample_point(hs, rng, boundaries)
            if not hs.value_identity_check(m, p):
                return {"matrix": matrix_to_json(m),
                        "point": point_to_json(hs, p)}
        return None

    return [("q_of_numerator_identity", identity_holds)]


def stabilizer_suite(config):
    hs = HalfSpace(config.space, config.c, config.kind)
    rng = _rng_for(config, "stabilizer")
    samples = max(10, config.samples // 4)

    def verdicts_coincide(_):
        for _ in range(samples):
            m = random_vahlen(config.space, config.kind, rng,
                              rng.randint(1, config.gen_length))
            stab, shape = hs.stabilizer_shape_check(m)
            if stab != shape:
                return {"matrix": matrix_to_json(m),
                        "stabilizes": stab, "shape": shape}
            # candidate built from the bottom row of a sampled matrix
            cand = CMatrix2(m.d.grade_involution(),
                            -(m.c.grade_involution() * hs.c), m.c, m.d)
            if is_vahlen(cand, config.kind):
                stab, shape = hs.stabilizer_shape_check(cand)
                if stab != shape or not stab:
                    return {"matrix": matrix_to_json(cand),
                            "stabilizes": stab, "shape": shape}
        return None

    return [("stabilizer_iff_shape", verdicts_coincide)]


# -- runner --------------------------------------------------------------------


SUITES = (
    ("algebra", algebra_suite),
    ("involution", involution_suite),
    ("iso", iso_suite),
    ("vahlen", vahlen_suite),
    ("equivariance", equivariance_suite),
    ("value-identity", value_identity_suite),
    ("stabilizer", stabilizer_suite),
)


def run_verify(config):
    """Run all suites; report one entry per property with a replayable
    counterexample on failure."""
    properties = []
    passed = True
    for suite_name, builder in SUITES:
        for check_name, check in builder(config):
            try:
                counterexample = check(config)
            except NotVahlen as exc:
                counterexample = {"error": str(exc)}
            except SolveTooLarge:
                raise  # a refused size, not a property failure
            except Exception as exc:  # a crash is a property failure too
                counterexample = {"error": repr(exc)}
            name = f"{suite_name}/{check_name}"
            ok = counterexample is None
            passed = passed and ok
            properties.append({"name": name, "passed": ok,
                               "counterexample": counterexample})
    return {"passed": passed, "properties": properties}
