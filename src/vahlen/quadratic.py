"""Quadratic spaces (V, q) over an exact field, including degenerate forms.

A space stores q by its values on basis vectors plus the off-diagonal
pairings, so q stays exact and primary; the bilinear form is reconstructed
as (e_i, e_i) = 2 q(e_i), (e_i, e_j) = pairs[i, j].  The standard
extensions append their new generators after the original basis, in the
fixed order: sigma_c last; e then f; e, f, then rho.
"""

from __future__ import annotations

from . import linalg
from .fields import parse_field


class SpaceMismatch(ValueError):
    """Vectors or elements of different quadratic spaces were combined."""


class NotASuperspace(ValueError):
    """Embedding target is not an extension of the source space."""


class QuadraticSpace:
    """A finite-dimensional quadratic space with exact, possibly degenerate q."""

    # elements are sparse maps over 2^n monomials, and the extensions add up
    # to 3 generators; the inverse's 2^n x 2^n linear solve has its own,
    # lower bound, clifford.MAX_SOLVE_DIM
    MAX_DIM = 16

    def __init__(self, field, qdiag, pairs=None, labels=None):
        self.field = field
        self.qdiag = tuple(field.element(v) for v in qdiag)
        if len(self.qdiag) > self.MAX_DIM:
            raise ValueError(f"dimension {len(self.qdiag)} exceeds the "
                             f"supported maximum {self.MAX_DIM}")
        self.pairs = {}
        for (i, j), v in (pairs or {}).items():
            if not 0 <= i < j < len(self.qdiag):
                raise ValueError(f"bad pair index ({i}, {j})")
            v = field.element(v)
            if not v.is_zero():
                self.pairs[(i, j)] = v
        self.labels = dict(labels or {})
        # lazy caches filled by clifford.py and the extension constructors
        self._mono_cache = {}
        self._kernel = None
        self._ext_cache = {}
        self._gram = None
        self._radical = None

    @property
    def dim(self):
        return len(self.qdiag)

    def zero_vector(self):
        return Vector(self, (self.field.zero,) * self.dim)

    def basis_vector(self, i):
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return Vector(self, coords)

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def vector(self, coords):
        return Vector(self, [self.field.element(c) for c in coords])

    def pair_value(self, i, j):
        """(e_i, e_j) of the associated bilinear form."""
        if i == j:
            return self.qdiag[i] + self.qdiag[i]
        if i > j:
            i, j = j, i
        return self.pairs.get((i, j), self.field.zero)

    def gram(self):
        if self._gram is None:
            self._gram = [[self.pair_value(i, j) for j in range(self.dim)]
                          for i in range(self.dim)]
        return self._gram

    def q(self, coords):
        """q(v) = sum v_i^2 q(e_i) + sum_{i<j} v_i v_j (e_i, e_j)."""
        acc = self.field.zero
        nonzero = [(i, c) for i, c in enumerate(coords) if not c.is_zero()]
        for i, c in nonzero:
            acc = acc + c * c * self.qdiag[i]
        for a in range(len(nonzero)):
            i, ci = nonzero[a]
            for b in range(a + 1, len(nonzero)):
                j, cj = nonzero[b]
                p = self.pairs.get((i, j))
                if p is not None:
                    acc = acc + ci * cj * p
        return acc

    def bilinear(self, u, v):
        acc = self.field.zero
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            for j, vj in enumerate(v):
                if not vj.is_zero():
                    acc = acc + ui * vj * self.pair_value(i, j)
        return acc

    def radical_basis(self):
        """Basis of V-perp, the kernel of the Gram matrix."""
        if self._radical is None:
            kern = linalg.kernel_basis(self.gram(), self.field, self.dim)
            self._radical = tuple(Vector(self, v) for v in kern)
        return self._radical

    def in_radical(self, coords):
        gram = self.gram()
        for row in gram:
            acc = self.field.zero
            for a, c in zip(row, coords):
                acc = acc + a * c
            if not acc.is_zero():
                return False
        return True

    # -- extensions ---------------------------------------------------------

    def extend_sigma(self, c):
        """V_F^c = V + F sigma_c with q(sigma_c) = -c; sigma_1 is rho."""
        c = self.field.element(c)
        key = ("sigma", c)
        if key not in self._ext_cache:
            labels = dict(self.labels)
            labels["sigma"] = self.dim
            if c == self.field.one:
                labels["rho"] = self.dim
            ext = QuadraticSpace(self.field, self.qdiag + (-c,),
                                 dict(self.pairs), labels)
            self._ext_cache[key] = ext
        return self._ext_cache[key]

    def extend_hyperbolic(self):
        """V_U = V + (hyperbolic plane e, f), with (e, f) = 1."""
        if "hyp" not in self._ext_cache:
            n = self.dim
            pairs = dict(self.pairs)
            pairs[(n, n + 1)] = self.field.one
            labels = dict(self.labels)
            labels.update(e=n, f=n + 1)
            zero = self.field.zero
            self._ext_cache["hyp"] = QuadraticSpace(
                self.field, self.qdiag + (zero, zero), pairs, labels)
        return self._ext_cache["hyp"]

    def extend_hyperbolic_rho(self):
        """V_{U,F} = V + (e, f) + F rho with q(rho) = -1."""
        if "hyprho" not in self._ext_cache:
            n = self.dim
            pairs = dict(self.pairs)
            pairs[(n, n + 1)] = self.field.one
            labels = dict(self.labels)
            labels.update(e=n, f=n + 1, rho=n + 2)
            zero, mone = self.field.zero, -self.field.one
            self._ext_cache["hyprho"] = QuadraticSpace(
                self.field, self.qdiag + (zero, zero, mone), pairs, labels)
        return self._ext_cache["hyprho"]

    def is_extension_of(self, sub):
        """Does self contain sub as its leading coordinates, orthogonally?"""
        n = sub.dim
        if self.field != sub.field or self.dim < n:
            return False
        if self.qdiag[:n] != sub.qdiag:
            return False
        for (i, j), v in self.pairs.items():
            if i < n and j < n:
                if sub.pairs.get((i, j)) != v:
                    return False
            elif i < n <= j:
                return False
        for (i, j), v in sub.pairs.items():
            if self.pairs.get((i, j)) != v:
                return False
        return True

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, QuadraticSpace)
                and self.field == other.field
                and self.qdiag == other.qdiag
                and self.pairs == other.pairs)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.field, self.qdiag,
                     tuple(sorted(self.pairs.items()))))

    def __repr__(self):
        return (f"QuadraticSpace({self.field}, dim={self.dim}, "
                f"qdiag={list(self.qdiag)})")


class Vector:
    """A coordinate vector of a quadratic space."""

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        coords = tuple(coords)
        if len(coords) != space.dim:
            raise ValueError("coordinate length mismatch")
        self.space = space
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, Vector):
            raise TypeError("expected a Vector")
        if other.space != self.space:
            raise SpaceMismatch("vectors of different spaces")

    def __add__(self, other):
        self._check(other)
        return Vector(self.space,
                      [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return Vector(self.space,
                      [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Vector(self.space, [-a for a in self.coords])

    def __mul__(self, s):
        s = self.space.field.element(s)
        return Vector(self.space, [a * s for a in self.coords])

    __rmul__ = __mul__

    def q(self):
        return self.space.q(self.coords)

    def pair(self, other):
        self._check(other)
        return self.space.bilinear(self.coords, other.coords)

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def in_radical(self):
        return self.space.in_radical(self.coords)

    def __eq__(self, other):
        return (isinstance(other, Vector) and other.space == self.space
                and other.coords == self.coords)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Vector({list(self.coords)})"


def reflection_matrix(v):
    """The reflection r_v: u -> u - ((u, v)/q(v)) v, for q(v) != 0."""
    space = v.space
    qv = v.q()
    if qv.is_zero():
        raise ZeroDivisionError("reflection requires q(v) != 0")
    n = space.dim
    cols = []
    for j in range(n):
        ej = space.basis_vector(j)
        img = ej - (ej.pair(v) / qv) * v
        cols.append(img.coords)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def apply_matrix(mat, v):
    return Vector(v.space, linalg.mat_vec(mat, list(v.coords), v.space.field))


def is_orthogonal_fixing_radical(mat, space):
    """Invertible, preserves q and the pairing, identity on the radical."""
    n = space.dim
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError("matrix shape does not match the space")
    if n == 0:
        return True
    if not linalg.is_invertible(mat):
        return False
    images = [apply_matrix(mat, space.basis_vector(j)) for j in range(n)]
    for j in range(n):
        if images[j].q() != space.qdiag[j]:
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if images[i].pair(images[j]) != space.pair_value(i, j):
                return False
    for r in space.radical_basis():
        if apply_matrix(mat, r) != r:
            return False
    return True


# -- JSON ------------------------------------------------------------------

def space_to_json(space):
    return {
        "field": repr(space.field),
        "dim": space.dim,
        "qdiag": [str(v) for v in space.qdiag],
        "pairs": [[i, j, str(v)]
                  for (i, j), v in sorted(space.pairs.items())],
        "labels": dict(space.labels),
    }


# generator names the extensions assign; a space read from JSON must not
# claim them for its own basis vectors
RESERVED_LABELS = frozenset({"sigma", "rho", "e", "f"})


def space_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("space must be a JSON object")
    qdiag = data.get("qdiag", [])
    raw_pairs = data.get("pairs", [])
    labels = data.get("labels") or {}
    if not isinstance(qdiag, list) or not isinstance(raw_pairs, list):
        raise ValueError("qdiag and pairs must be lists")
    if not isinstance(labels, dict):
        raise ValueError("labels must be an object")
    reserved = sorted(RESERVED_LABELS.intersection(labels))
    if reserved:
        raise ValueError(f"labels {reserved} are reserved for the "
                         "generators of the extensions")
    field = parse_field(str(data["field"]))
    qdiag = [field.parse(str(v)) for v in qdiag]
    if "dim" in data and data["dim"] != len(qdiag):
        raise ValueError("dim does not match qdiag length")
    pairs = {}
    for entry in raw_pairs:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"pair {entry!r} is not [i, j, value]")
        i, j, v = entry
        pairs[(int(i), int(j))] = field.parse(str(v))
    return QuadraticSpace(field, qdiag, pairs, labels)


def vector_to_json(v):
    return [str(c) for c in v.coords]


def vector_from_json(space, data):
    return space.vector([space.field.parse(str(c)) for c in data])
