"""Completed half-spaces and the Moebius action of the (paravector) Vahlen
group, with the exact bijection onto the hyperboloid-style K-model.

A point is either regular -- a part x (vector of V, or paravector of F+V)
plus a nonzero height t, standing for x + t sigma_c -- or a boundary point,
a pair (u, b) with q(u) = c standing for (infinity u)_b + infinity sigma_c.
Boundary arithmetic never touches a symbolic infinity: the starred linear
coefficients are computed from their closed forms.

The action has one formula for all four cases (regular or boundary point,
regular or boundary image), fed by one tuple (part, s, den, N) of raw
values.  At a regular point z = x + t sigma_c, part and s are the part and
the sigma coefficient of the numerator (az+b) conj(cz+d), with s = t det,
and den = N(cz+d), N = N(az+b); at a boundary point they are the starred
coefficients, with s = det.  The image is the regular point (part, s)/den
when den != 0 and the boundary point (part, N)/s otherwise, and the value
identity reads q(part) = c s^2 - N den.

The part layout is groups.part_monomials: slot k of a part is the
coefficient of one monomial of C(V), e_i for the vector model and 1, e_0,
e_1, ... for the paravector model.  Every map between parts, elements of
C(V) or C(V_F^c) and coordinates of V_U or V_{U,F} loops over it; V_{U,F}
holds iota(a + v) = v - a rho, so the scalar slot goes to rho, negated.

The parts of every Moebius formula that depend on the matrix alone are
built once per matrix, on the first point that needs them, and kept in the
matrix's memo: N(c), N(a), a conj(c) and the conjugates of the entries for
a boundary point under "boundary", and the entries embedded in C(V_F^c) for
a regular point under ("regular", kind, raw c), kept next to that algebra
and rebuilt when the matrix meets a half-space over a different one.  The
pseudo-determinant is matrices.pseudo_det's, which checks membership and
keeps the scalar on the matrix.  A CMatrix2 is never changed once built
and every constant is an exact function of its entries (and the target
algebra), so a kept constant equals the one recomputed at every point.
The orbit census runs the formula only as a check (orbit_census).

The K-model action w -> eta w eta^T / det runs on C(V)'s products.  Phi =
matrix_to_CU is multiplicative and Phi(tau(m)) = Phi(m)^T, for tau =
matrix_involution(., "transpose"): (a, b; c, d) -> (d', b', c', a'), x' =
conj(x).  So the image is Phi(m Phi^-1(w) tau(m)).  For Phi' =
matrix_to_CUF, w rho^-1 = -w rho is even (q(rho) = -1), and so is eta;
rho eta^T = alpha'(eta^T) rho, alpha' negating the terms with an odd number
of generators other than rho, and alpha' after the transpose is tau under
Phi', so the image is Phi'(m Phi'^-1(w rho^-1) tau(m)) rho.

A point holds the raw values a Scalar holds: residues in 0..p-1 over
GF(p), reduced Fractions over Q.  The Moebius path runs on them: lift
builds the C(V_F^c) store from them directly, _split reads raw values
back, and the image takes one inverse of den (or s).  Scalars are built
only where a caller reads a point's part or height.  Over GF(p)
the finite sets (parts, points, K-vectors) are scanned as residue tuples in
numeral order, with q and the radical tested on the raw form of the space;
points keep their residue tuples, and only the K-set's hits become Scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .clifford import CliffordElement, mask_indices, monomial_mask
from .fields import InfiniteField, PrimeField, Scalar, residue_tuples
from .groups import (CU_to_matrix, CUF_to_matrix, lands, matrix_involution,
                     matrix_to_CU, matrix_to_CUF, part_monomials, probe_elements)
from .matrices import (CMatrix2, TooLarge, dilation, is_vahlen, pseudo_det,
                       translation, weyl)
from .quadratic import QuadraticSpace, SpaceMismatch


# the _census_work an orbit census may reach, in (special, full) seconds:
# the largest admitted, GF(1409) [] vector (1.99e6), takes (1.0, 0.9),
# GF(13) [1,1] paravector (0.70e6) (1.9, 2.2), and the slowest measured,
# the GF(3) zero form of dim 9, vector, c = 0 (1.36e6), (85, 16): two
# special orbits check every pair in C(V_F^c) of dim 10 (2-vCPU Xeon VM,
# Python 3.11)
MAX_CENSUS_WORK = 2 * 10**6


class InvariantViolation(ValueError):
    """A point invariant failed; on Moebius output this indicates a bug."""


class HPoint:
    """A point of the completed half-space: its field, the part as a tuple
    of raw values and the raw height, which equality and hashing read;
    part and height are read-only Scalar views."""

    __slots__ = ("boundary", "field", "raw_part", "raw_height")

    def __init__(self, boundary, field, raw_part, raw_height):
        self.boundary = boundary
        self.field = field
        self.raw_part = raw_part
        self.raw_height = raw_height

    @property
    def part(self):
        return tuple(Scalar(self.field, v) for v in self.raw_part)

    @property
    def height(self):
        return Scalar(self.field, self.raw_height)

    def __eq__(self, other):
        return (isinstance(other, HPoint) and other.boundary == self.boundary
                and other.raw_part == self.raw_part
                and other.raw_height == self.raw_height
                and (other.field is self.field or other.field == self.field))

    def __hash__(self):
        return hash((self.boundary, self.raw_part, self.raw_height))

    def __repr__(self):
        label = "boundary" if self.boundary else "regular"
        return f"HPoint({label}, part={list(self.part)}, {self.height})"


class HalfSpace:
    """The space H^c (kind "vector") or its paravector analogue (kind
    "paravector") for one quadratic space and one scalar c."""

    def __init__(self, space, c, kind):
        if kind not in ("vector", "paravector"):
            raise ValueError(f"unknown kind {kind!r}")
        self.space = space
        self.field = space.field
        self.c = space.field.element(c)
        self.kind = kind
        self.sigma_space = space.extend_sigma(self.c)
        self.sigma_idx = self.sigma_space.labels["sigma"]
        self.uspace = (space.extend_hyperbolic() if kind == "vector"
                       else space.extend_hyperbolic_rho())
        self.e_idx = self.uspace.labels["e"]
        self.f_idx = self.uspace.labels["f"]
        # slot -> monomial of C(V), monomial mask -> slot, and slot ->
        # (coordinate of V_U or V_{U,F}, negated?): the scalar slot is -rho
        monos = part_monomials(space.dim, kind)
        self._slot = {monomial_mask(s): k for k, s in enumerate(monos)}
        self._u_idx = tuple((s[0], False) if s
                            else (self.uspace.labels["rho"], True)
                            for s in monos)
        self.part_len = len(monos)
        self._part_space = None

    # -- parts: V-coordinates, or (scalar, V-coordinates) for paravectors ----

    def _raw_part(self, coords):
        part = tuple(map(self.field.raw, coords))
        if len(part) != self.part_len:
            raise ValueError("part length mismatch")
        return part

    def part_element(self, part):
        """The part as an element of C(V)."""
        return _store(self.space, [*zip(self._slot, self._raw_part(part))])

    @property
    def part_space(self):
        """The quadratic space of the parts: V, or F + V with the scalar
        first and q(a + v) = q(v) - a^2, so (a + v, b + u) = (v, u) - 2ab."""
        if self._part_space is None:
            space = self.space
            if self.kind == "vector":
                self._part_space = space
            else:
                pairs = {(i + 1, j + 1): v
                         for (i, j), v in space.pairs.items()}
                self._part_space = QuadraticSpace(
                    self.field, (-self.field.one,) + space.qdiag, pairs)
        return self._part_space

    def part_q(self, part):
        return self.part_space.q(part)

    def _element_to_part(self, x):
        """Inverse of part_element, by _split: x in C(V) carries no sigma,
        and a stray term (outside V resp. F+V) is an invariant failure."""
        return self._split(x)[0]

    # -- points ----------------------------------------------------------------

    def _point(self, boundary, part, h):
        """The point of a raw part and height, which must hold t != 0, or
        q(u) = c and, at c = 0 with u in the radical, b != 0."""
        if boundary:
            form, c = self.part_space.raw, self.c.value
            if form.q(part) != c:
                raise InvariantViolation("boundary part must have q-value c")
            if c == 0 and h == 0 and form.in_radical(part):
                raise InvariantViolation(
                    "radical boundary part requires b != 0 when c = 0")
        elif h == 0:
            raise InvariantViolation("regular point needs t != 0")
        return HPoint(boundary, self.field, part, h)

    def regular_point(self, part, t):
        return self._point(False, self._raw_part(part), self.field.raw(t))

    def boundary_point(self, part, b):
        return self._point(True, self._raw_part(part), self.field.raw(b))

    def base_point(self):
        """sigma_c itself."""
        return self.regular_point((0,) * self.part_len, 1)

    def represented(self):
        """Is c a q-value of the part space (finite fields by enumeration)?"""
        q, c = self.part_space.raw.q, self.c.value
        return any(q(t) == c for t in self._residues(self.part_len))

    # -- half-space <-> Clifford elements of C(V_F^c) ---------------------------

    def lift(self, p):
        """x + t sigma_c as an element of C(V_F^c); regular points only."""
        if p.boundary:
            raise InvariantViolation("boundary points have no finite lift")
        return _store(self.sigma_space, [*zip(self._slot, p.raw_part),
                                         (1 << self.sigma_idx, p.raw_height)])

    def _split(self, x):
        """Split an element of C(V_F^c) into (part tuple, sigma coefficient)
        of raw values; anything outside F+V+F sigma (or V+F sigma) is an
        invariant failure."""
        zero = self.field.zero.value
        part = [zero] * self.part_len
        sigma_coeff = zero
        sigma, slot = 1 << self.sigma_idx, self._slot
        den = None if self.field.modulus else x.den
        for s, n in x.terms.items():
            if den:
                n = Fraction(n, den)
            if s in slot:
                part[slot[s]] = n
            elif s == sigma:
                sigma_coeff = n
            else:
                raise InvariantViolation("Moebius numerator has an illegal "
                                         f"term {mask_indices(s)}: {x!r}")
        return tuple(part), sigma_coeff

    # -- Moebius action -----------------------------------------------------------

    def _regular_constants(self, m):
        """The entries embedded in C(V_F^c), kept on m next to that algebra;
        rebuilt when the matrix last met a half-space over another one."""
        key, algebra = ("regular", self.kind, self.c.value), self.sigma_space
        hit = m._memo.get(key)
        if hit is None or hit[0] is not algebra:
            hit = m._memo[key] = (algebra, tuple(x.embed(algebra)
                                                 for x in m.entries()))
        return hit[1]

    def _boundary_constants(self, m):
        """N(c), N(a), a conj(c), and the conjugates of a, b, c, d."""
        hit = m._memo.get("boundary")
        if hit is None:
            a, b, c, d = m.entries()
            ac, bc, cc, dc = a.conj(), b.conj(), c.conj(), d.conj()
            hit = m._memo["boundary"] = (c * cc, a * ac, a * cc,
                                         ac, bc, cc, dc)
        return hit

    def _regular_data(self, m, p, det):
        """(part, s = t det) of (az+b) conj(cz+d) at a regular point z,
        then den = N(cz+d) and N = N(az+b)."""
        z = self.lift(p)
        a, b, c, d = self._regular_constants(m)
        upper = a * z + b
        lower = c * z + d
        lower_bar = lower.conj()
        part, s = self._split(upper * lower_bar)
        if s != self.field._coerce(p.raw_height * det):
            raise InvariantViolation("sigma coefficient should be t det")
        return (part, s, (lower * lower_bar).scalar_value(),
                upper.norm().scalar_value())

    def _boundary_data(self, m, p, det):
        """(part, det, den*, N*) at a boundary point: the starred linear
        coefficients, from their closed forms entirely inside C(V)."""
        a, b, c, d = m.entries()
        norm_c, norm_a, a_cbar, ab, bb, cb, db = self._boundary_constants(m)
        u = self.part_element(p.raw_part)
        ub, height = u.conj(), p.raw_height
        au, bub = a * u, b * ub
        den_star = (norm_c * height + (c * u * db + d * ub * cb)
                    ).scalar_value()
        num_norm_star = (norm_a * height + (au * bb + bub * ab)
                         ).scalar_value()
        star = a_cbar * height + (au * db + bub * cb)
        return self._element_to_part(star), det, den_star, num_norm_star

    def _action_data(self, m, p):
        """(part, s, den, N) of the Moebius formula at p, either kind;
        pseudo_det refuses a non-Vahlen matrix first."""
        det = pseudo_det(m, self.kind).value
        if p.boundary:
            return self._boundary_data(m, p, det)
        return self._regular_data(m, p, det)

    def mobius_apply(self, m, p):
        """(part, s)/den if den != 0, else the boundary point (part, N)/s."""
        part, s, den, norm = self._action_data(m, p)
        boundary = den == 0
        h, inv = (norm, s) if boundary else (s, den)
        mod, inv = self.field.modulus, self.field._div(1, inv)
        out = [x * inv % mod if mod else x * inv for x in (*part, h)]
        return self._point(boundary, tuple(out[:-1]), out[-1])

    # -- the K-model ---------------------------------------------------------------

    def _k_values(self, p):
        """to_K(p) in raw values: the part at _u_idx and e = b, or, at a
        regular point, f = 1 and e = c t^2 - q(part), all times 1/t."""
        part, h, mod = p.raw_part, p.raw_height, self.field.modulus
        w = [0] * self.uspace.dim
        for (j, negate), x in zip(self._u_idx, part):
            w[j] = -x if negate else x
        if p.boundary:
            w[self.e_idx], inv = h, 1
        else:
            w[self.f_idx] = 1
            w[self.e_idx] = self.c.value * h * h - self.part_space.raw.q(part)
            inv = self.field._div(1, h)
        return tuple(x * inv % mod if mod else x * inv for x in w)

    def to_K(self, p):
        """The bijection onto vectors of q-value c outside the radical."""
        return self.uspace.vector(self._k_values(p))

    def from_K(self, w):
        """Inverse of to_K on raw values, over _u_idx: f = 0 gives the
        boundary point (part, e), any other f the regular point (part/f,
        1/f); _point refuses a radical vector at c = 0."""
        raw = [x.value for x in w.coords]
        if w.space != self.uspace or self.uspace.raw.q(raw) != self.c.value:
            raise InvariantViolation("vector is not in the K-set")
        part = [-raw[j] if negate else raw[j] for j, negate in self._u_idx]
        f, mod = raw[self.f_idx], self.field.modulus
        boundary = f == 0
        h, inv = ((raw[self.e_idx], 1) if boundary
                  else (1, self.field._div(1, f)))
        out = [x * inv % mod if mod else x * inv for x in (*part, h)]
        return self._point(boundary, tuple(out[:-1]), out[-1])

    def orthogonal_apply(self, m, w):
        """eta w eta^T / det as Phi(m W tau(m)) rho, W = Phi^-1(w rho^-1),
        with rho = 1 for V_U (see the module docstring)."""
        inv = pseudo_det(m, self.kind).inverse()
        uspace, space = self.uspace, self.space
        if w.space != uspace:
            raise SpaceMismatch("vector of another space")
        if m.space != space:
            m = CMatrix2(*(x.embed(space) for x in m.entries()))
        if self.kind == "vector":
            rho, to_m, to_u = 1, CU_to_matrix, matrix_to_CU
        else:  # w rho^-1 = -w rho: the sign goes to inv
            rho = CliffordElement.monomial(uspace, (uspace.labels["rho"],))
            to_m, to_u, inv = CUF_to_matrix, matrix_to_CUF, -inv
        x = to_m(CliffordElement.from_vector(w) * rho, space)
        img = to_u(m * x * matrix_involution(m, "transpose"), uspace) * rho
        return (img * inv).vector_coords()

    def equivariance_check(self, m, p):
        """Moebius path and K-model path must agree exactly."""
        via_k = self.from_K(self.orthogonal_apply(m, self.to_K(p)))
        return via_k == self.mobius_apply(m, p)

    def value_identity_check(self, m, p):
        """q(part) = c s^2 - N den, starred at a boundary point."""
        part, s, den, norm = self._action_data(m, p)
        return self.part_space.raw.q(part) == self.field._coerce(
            self.c.value * s * s - norm * den)

    def stabilizer_shape_check(self, m):
        """(stabilizes sigma_c, matches the (d', -c g'; g, d) shape); the two
        verdicts must coincide for Vahlen matrices."""
        stab = self.mobius_apply(m, self.base_point()) == self.base_point()
        g, d = m.c, m.d
        shape = (m.a == d.grade_involution()
                 and m.b == -(g.grade_involution() * self.c)
                 and lands(g * d.transpose(), self.kind))
        if shape:
            value = (d.norm() + g.norm() * self.c).to_scalar()
            shape = not value.is_zero()
        return stab, shape

    # -- finite enumeration and the orbit census ------------------------------------

    def _modulus(self):
        """p for GF(p); every enumeration is refused over Q."""
        if not isinstance(self.field, PrimeField):
            raise InfiniteField("point enumeration needs a finite field")
        return self.field.modulus

    def _residues(self, n):
        """Every n-tuple of residues in numeral order (GF(p) only)."""
        return residue_tuples(self._modulus(), n)

    def enumerate_points(self, max_points=10**6):
        p = self._modulus()
        bound = p ** self.part_len * (2 * p - 1)
        if bound > max_points:
            raise TooLarge(f"up to {bound} points exceed {max_points}")
        form, c, field = self.part_space.raw, self.c.value, self.field
        points = []
        for t in self._residues(self.part_len):
            points += [HPoint(False, field, t, h) for h in range(1, p)]
            if form.q(t) == c:
                skip_zero = c == 0 and form.in_radical(t)
                points += [HPoint(True, field, t, b)
                           for b in range(skip_zero, p)]
        return points

    def k_set(self):
        """Every vector of V_U (V_{U,F}) with q-value c outside the
        radical, in numeral order."""
        space = self.uspace
        form, c = space.raw, self.c.value
        return [space.vector(t) for t in self._residues(space.dim)
                if form.q(t) == c and not form.in_radical(t)]

    def census_generators(self, group):
        """Generators used by the orbit BFS: the basis translations T(e_k),
        the Weyl matrix W = (0, -1; 1, 0), diag(1/g, g) for the least
        primitive root g of GF(p) and (full group only) the dilation by g.

        Over GF(p) the basis translations generate T(u) for every part u,
        so the generated group holds diag(x, 1/x) = T(x) W T(1/x) W T(x)
        W^-1 for every invertible part x, diag(1/d, d) = diag(1/g, g)^k and
        dilation(d) = dilation(g)^k for each d = g^k, and every Vahlen
        matrix (A, B; d, D) of pseudo-determinant 1 with d a nonzero scalar,
        which is T(A/d) W diag(d, 1/d) T(D/d)."""
        space, p = self.space, self._modulus()
        # the least g whose powers fill F^x, found by that definition
        g = next(x for x in range(1, p)
                 if len({pow(x, k, p) for k in range(p - 1)}) == p - 1)
        gens = [translation(space, self.kind, xi)
                for xi in probe_elements(space, self.kind)]
        gens += [weyl(space), _diag(space, pow(g, -1, p), g)]
        if group == "full":
            gens.append(dilation(space, g))
        for m in gens:
            if not is_vahlen(m, self.kind):
                raise AssertionError("census generator failed Vahlen check")
        return gens

    def _census_work(self):
        """A bound on the work of one census sweep, n = part_len: points <=
        p^n (2p - 1) times the n + 3 generators at most that run, the
        permutation lookups, which bound the Moebius checks; and the K-set
        scan of p^(n + 2) vectors, which also bounds the height checks of
        an unrepresented c, as |N| <= p - 1."""
        p, n = self._modulus(), self.part_len
        return p ** n * ((2 * p - 1) * (n + 3) + p * p)

    def _orbits(self, points, gens):
        """The orbits of gens on points, each a list led by its least point,
        in the order of those points (the base point sorts first)."""
        points = sorted(points, key=_point_sort_key)
        index = {self._k_values(p): i for i, p in enumerate(points)}
        if len(index) != len(points):
            raise InvariantViolation("two points share a K-vector")
        perms, mod = [], self.field.modulus
        for g in gens:
            rows = list(zip(*([x.value for x in self.orthogonal_apply(
                g, e).coords] for e in self.uspace.basis())))
            try:
                perms.append([index[tuple(sum(map(mul, r, w)) % mod
                                          for r in rows)] for w in index])
            except KeyError:
                raise InvariantViolation("a K-image is off the K-set") from None
        seen, orbits, edges = [False] * len(points), [], []
        for start in range(len(points)):
            if seen[start]:
                continue
            seen[start], orbit = True, [start]
            for i in orbit:  # grows as the BFS finds points
                for g, perm in zip(gens, perms):
                    if not seen[perm[i]]:
                        seen[perm[i]] = True
                        orbit.append(perm[i])
                        edges.append((g, i, perm[i]))
            orbits.append([points[i] for i in orbit])
        if len(orbits) > 1:
            edges = [(g, i, j) for g, perm in zip(gens, perms)
                     for i, j in enumerate(perm)]
        for g, i, j in edges:
            if self.mobius_apply(g, points[i]) != points[j]:
                raise InvariantViolation("Moebius image != K-model image")
        return orbits

    def orbit_census(self, group="special"):
        """Materialize the whole space, close orbits under the generators,
        and compare against the predicted transitivity/coset structure.
        Each generator is compiled once, into the matrix of
        orthogonal_apply, to a permutation of the points' K-vectors, and a
        BFS closes the orbits.  mobius_apply checks each edge that first
        reached a point, or every (generator, point) pair if there are two
        or more orbits, so the orbits are the Moebius orbits."""
        if group not in ("special", "full"):
            raise ValueError("group must be 'special' or 'full'")
        work = self._census_work()
        if work > MAX_CENSUS_WORK:
            raise TooLarge(f"a census of up to {work} permutation lookups "
                           f"exceeds the guard {MAX_CENSUS_WORK}")
        points = self.enumerate_points()
        gens = self.census_generators(group)
        # a part of q-value c carries at least p - 1 boundary points
        boundary_count = sum(1 for p in points if p.boundary)
        represented = boundary_count > 0

        orbits = self._orbits(points, gens)
        base_orbit = orbits[0]
        k_count = len(self.k_set())
        reps = [o[0] for o in orbits]  # _orbits starts each at its least point
        report = {
            "kind": self.kind,
            "group": group,
            "c": str(self.c),
            "represented": represented,
            "point_count": len(points),
            "regular_count": len(points) - boundary_count,
            "boundary_count": boundary_count,
            "k_count": k_count,
            "counts_match_k": k_count == len(points),
            "orbit_count": len(orbits),
            "orbit_sizes": sorted(len(o) for o in orbits),
            "orbit_representatives": [point_to_json(self, p) for p in reps],
            "transitive": len(orbits) == 1,
        }
        if boundary_count == 0 and group == "special":
            mod = self.field.modulus
            part_count = mod ** self.part_len
            realized = sorted((p.height for p in base_orbit
                               if not any(p.raw_part)), key=lambda s: s.value)
            realized_set = set(realized)
            # the x of the cyclic F^x with x^|N| = 1 form its subgroup of
            # order gcd(|N|, p - 1): N lies in it exactly when N is closed
            size = len(realized_set)
            closed = all(pow(t.value, size, mod) == 1 for t in realized_set)
            squares = all(
                s * s in realized_set
                for s in self.field.elements() if not s.is_zero())
            index = (mod - 1) // size
            cosets_ok = True
            for orb in orbits:
                heights = {p.height for p in orb}
                coset = {next(iter(heights)) * s for s in realized_set}
                cosets_ok &= heights == coset and len(orb) == size * part_count
            report["norm_subgroup"] = [str(t) for t in realized]
            report["norm_subgroup_closed"] = closed
            report["contains_squares"] = squares
            report["orbit_coset_match"] = cosets_ok
            report["predictions_ok"] = (
                closed and squares and cosets_ok
                and report["orbit_count"] == index)
        else:
            report["predictions_ok"] = report["transitive"]
        report["predictions_ok"] = (report["predictions_ok"]
                                    and report["counts_match_k"])
        return report


def _point_sort_key(p):
    return p.boundary, p.raw_part, p.raw_height


def _store(space, items):
    """The element of C(space) with coefficients the raw values of (mask,
    value) items, stored directly: CliffordElement._values, uncoerced."""
    if space.field.modulus:
        return CliffordElement._of(space, dict(items))
    den = lcm(*(v.denominator for _, v in items))
    return CliffordElement._of(space, {
        s: v.numerator * (den // v.denominator) for s, v in items}, den)


def _diag(space, top, bottom):
    return CMatrix2.from_entries(space, top, 0, 0, bottom)


# -- JSON --------------------------------------------------------------------


def point_to_json(hs, p):
    key = "u" if p.boundary else "v"
    out = {
        "kind": "boundary" if p.boundary else "regular",
        key: [str(x) for x in p.part],
        ("b" if p.boundary else "t"): str(p.height),
        "c": str(hs.c),
        "model": hs.kind,
    }
    return out


def point_from_json(hs, data):
    if not isinstance(data, dict):
        raise ValueError("point must be a JSON object")
    if data.get("model", hs.kind) != hs.kind:
        raise ValueError("point model does not match the half-space kind")
    if "c" in data and hs.field.parse(str(data["c"])) != hs.c:
        raise ValueError("point c does not match the half-space")
    kind = data.get("kind")
    if kind not in ("regular", "boundary"):
        raise ValueError(f"unknown point kind {kind!r}")
    key, height = ("v", "t") if kind == "regular" else ("u", "b")
    if not isinstance(data.get(key), list):
        raise ValueError(f"point {key!r} must be a list of coordinates")
    field = hs.field
    part = [field.parse(str(x)) for x in data[key]]
    build = hs.regular_point if kind == "regular" else hs.boundary_point
    return build(part, field.parse(str(data[height])))
