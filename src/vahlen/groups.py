"""Clifford group membership, the projections pi and pi-tilde, and the
matrix-algebra isomorphisms M2(C(V,q)) = C(V_U) and M2(C(V,q)) = C(V_{U,F})+.
The second is the first, built inside C(V_{U,F}), followed by rho_map,
which carries that copy of C(V_U) onto C(V_U + F rho)+ = C(V_{U,F})+.
e, f and rho follow V's generators, at bits n, n + 1 and n + 2, so each
map sets the bits its inverse peels or strips, and takes no product.

Groups are infinite over Q, so membership is by predicate; nothing is ever
materialized.
"""

from __future__ import annotations

from math import lcm

from .clifford import CliffordElement, NotInvertible, monomial_mask, rho_map
from .quadratic import NotASuperspace, SpaceMismatch

GROUP_TAGS = frozenset({
    "twisted_center", "gamma", "gamma_pm", "gamma_plus", "gamma_minus",
    "gamma_fx", "gamma_1", "tilde_gamma", "tilde_gamma_fx", "tilde_gamma_1",
})


class NotInCliffordGroup(ValueError):
    pass


class NotInParavectorGroup(ValueError):
    pass


class CMatrix2:
    """A 2x2 matrix over one Clifford algebra."""

    __slots__ = ("a", "b", "c", "d", "_memo")

    def __init__(self, a, b, c, d):
        if not (a.space == b.space == c.space == d.space):
            raise SpaceMismatch("matrix entries over different algebras")
        self.a, self.b, self.c, self.d = a, b, c, d
        self._memo = {}

    @property
    def space(self):
        return self.a.space

    @classmethod
    def identity(cls, space):
        return cls.from_entries(space, 1, 0, 0, 1)

    @classmethod
    def from_entries(cls, space, a, b, c, d):
        def lift(x):
            if isinstance(x, CliffordElement):
                return x
            return CliffordElement.scalar(space, x)
        return cls(lift(a), lift(b), lift(c), lift(d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, CMatrix2):
            return NotImplemented
        return CMatrix2(self.a * other.a + self.b * other.c,
                        self.a * other.b + self.b * other.d,
                        self.c * other.a + self.d * other.c,
                        self.c * other.b + self.d * other.d)

    def scale(self, s):
        return CMatrix2(self.a * s, self.b * s, self.c * s, self.d * s)

    def __eq__(self, other):
        return (isinstance(other, CMatrix2) and self.a == other.a
                and self.b == other.b and self.c == other.c
                and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"CMatrix2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def matrix_involution(m, kind):
    """The matrix-side operation matching the involution on C(V_U)."""
    a, b, c, d = m.entries()
    if kind == "grade":
        return CMatrix2(a.grade_involution(), -b.grade_involution(),
                        -c.grade_involution(), d.grade_involution())
    if kind == "transpose":
        return CMatrix2(d.conj(), b.conj(), c.conj(), a.conj())
    if kind == "conj":
        return CMatrix2(d.transpose(), -b.transpose(),
                        -c.transpose(), a.transpose())
    raise ValueError(f"unknown involution {kind!r}")


# -- group membership ---------------------------------------------------------


def part_monomials(dim, kind):
    """The part layout: the monomials of C(V) spanning V, (0,) ... (dim-1,),
    for kind "vector", preceded by the scalar () for kind "paravector"."""
    vectors = tuple((i,) for i in range(dim))
    return ((),) + vectors if kind == "paravector" else vectors


def probe_elements(space, kind):
    """The basis of the part space in part_monomials order.  Conjugation and
    landing conditions are linear in the probe, so these decide them."""
    key = ("probes", kind)
    probes = space._ext_cache.get(key)
    if probes is None:
        probes = space._ext_cache[key] = tuple(
            CliffordElement.monomial(space, s)
            for s in part_monomials(space.dim, kind))
    return probes


# the part space of each kind, as messages name it
PART_SPACE = {"vector": "V", "paravector": "F+V"}


def lands(x, kind):
    """x lies in V (kind "vector") or in F+V (kind "paravector")."""
    return x.is_paravector() if kind == "paravector" else x.is_vector()


def in_group(x, tag):
    """Membership in the named subgroup of C(V, q)^x.  The *_fx and *_1
    tags test the norm first: they require N(x) to be a nonzero scalar, and
    then conj(x)/N(x) is the inverse, so they never need a linear solve."""
    if tag not in GROUP_TAGS:
        raise ValueError(f"unknown group tag {tag!r}")
    space = x.space
    if tag == "twisted_center":
        xg = x.grade_involution()
        for v in probe_elements(space, "vector"):
            if x * v != v * xg:
                return False
        return x.is_invertible()
    if tag.endswith(("_fx", "_1")):
        inv = x.norm_inverse()
        if inv is None or (tag.endswith("_1")
                           and x.norm() != CliffordElement.one(space)):
            return False
    else:
        try:
            inv = x.inverse()
        except NotInvertible:
            return False
    kind = "paravector" if tag.startswith("tilde") else "vector"
    ginv = inv.grade_involution()
    if not all(lands(x * t * ginv, kind) for t in probe_elements(space, kind)):
        return False
    if tag == "gamma_plus":
        return x.is_even()
    if tag == "gamma_minus":
        return x.is_odd()
    if tag == "gamma_pm":
        return x.is_even() or x.is_odd()
    return True


def _conjugation_matrix(x, kind, error):
    """The map t -> x t grade(x)^-1 on the part space of `kind`, as a
    matrix in the basis part_monomials lays out."""
    space = x.space
    try:
        ginv = x.inverse().grade_involution()
    except NotInvertible as exc:
        raise error(str(exc)) from exc
    monos = [monomial_mask(s) for s in part_monomials(space.dim, kind)]
    zero = space.field.zero
    cols = []
    for t in probe_elements(space, kind):
        img = x * t * ginv
        if not lands(img, kind):
            raise error(f"conjugation leaves {PART_SPACE[kind]}: {x!r}")
        terms = img.terms
        cols.append([img._scalar(terms[s]) if s in terms else zero
                     for s in monos])
    return [list(row) for row in zip(*cols)]


def pi(x):
    """The orthogonal map v -> x v grade(x)^-1 as a matrix on V."""
    return _conjugation_matrix(x, "vector", NotInCliffordGroup)


def pi_tilde(x):
    """The special-orthogonal map on F + V in the basis (1, e_1..e_n)."""
    return _conjugation_matrix(x, "paravector", NotInParavectorGroup)


# -- M2(C) = C(V_U) ------------------------------------------------------------


def _check_layout(space, base, n, rho):
    """space extends base with e, f and, if rho is set, rho at bits n,
    n + 1 and n + 2, n >= base.dim."""
    labels = space.labels
    if (n < base.dim or (labels.get("e"), labels.get("f")) != (n, n + 1)
            or rho and labels.get("rho") != n + 2
            or not space.is_extension_of(base)):
        raise NotASuperspace("not a hyperbolic extension of the base space")


def matrix_to_CU(m, vu=None):
    """(a b; c d) -> a ef + b e + c' f + d' fe = d' + b e + c' f + (a - d') ef
    in C(V_U), as fe = 1 - ef; m may lie over a leading subspace of V."""
    if vu is None:
        vu = m.space.extend_hyperbolic()
    n = vu.labels.get("e", -1)
    _check_layout(vu, m.space, n, False)
    a, b, c, d = m.entries()
    d = d.grade_involution()
    parts = (d, b, c.grade_involution(), a - d)  # of 1, e, f and ef
    den = lcm(*(x.den for x in parts))
    return CliffordElement._of(vu, {
        s | k << n: v * (den // x.den)
        for k, x in enumerate(parts) for s, v in x.terms.items()}, den)


def CU_to_matrix(psi, base):
    """Peel the four components matrix_to_CU places out of an element of
    C(V_U), or of C(V_{U,F}) with no rho term."""
    n = base.dim
    _check_layout(psi.space, base, n, False)
    low = (1 << n) - 1
    raw = ({}, {}, {}, {})  # the components of 1, e, f and ef
    for s, c in psi.terms.items():
        if s >> n > 3:
            raise ValueError("element does not lie in the embedded C(V_U)")
        raw[s >> n][s & low] = c
    part = lambda k: CliffordElement._of(base, raw[k], psi.den)
    d = part(0)
    return CMatrix2(part(3) + d, part(1), part(2).grade_involution(),
                    d.grade_involution())


# -- M2(C) = C(V_{U,F})+ ---------------------------------------------------------


def matrix_to_CUF(m, vuf=None):
    """rho_map of the C(V_U) image, built inside C(V_{U,F})."""
    if vuf is None:
        vuf = m.space.extend_hyperbolic_rho()
    _check_layout(vuf, m.space, vuf.labels.get("e", -1), True)
    return rho_map(matrix_to_CU(m, vuf), vuf)


def CUF_to_matrix(psi, base):
    """Strip the rho bit rho_map sets on odd terms, then peel with
    CU_to_matrix."""
    _check_layout(psi.space, base, base.dim, True)
    if not psi.is_even():
        raise ValueError("element is not in the even subalgebra")
    keep = ~(1 << (base.dim + 2))
    terms = {s & keep: c for s, c in psi.terms.items()}
    return CU_to_matrix(CliffordElement._of(psi.space, terms, psi.den), base)
