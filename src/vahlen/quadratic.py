"""Quadratic spaces (V, q) over an exact field, including degenerate forms.

A space stores q by its values on basis vectors plus the off-diagonal
pairings, so q stays exact and primary; the bilinear form is reconstructed
as (e_i, e_i) = 2 q(e_i), (e_i, e_j) = pairs[i, j].  The standard
extensions append their new generators after the original basis, in the
fixed order: sigma_c last; e then f; e, f, then rho.

A space's RawForm, built on first use, is the one place where the form
becomes raw values: residues mod p over GF(p), Fractions over Q.  It holds
the q(e_i), the pair values and the Gram rows, and evaluates q and the
radical test on raw coordinates.  The Scalar methods q, bilinear and
in_radical are single passes over it, and the finite scans and the
Clifford kernel read it directly.
"""

from __future__ import annotations

from . import linalg
from .fields import Scalar, parse_field


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
        self._raw = None
        self._radical = None
        # the space this one extends orthogonally, set by _extension; the
        # Clifford kernel derives this space's constants from its cache
        self._base = None

    @property
    def dim(self):
        return len(self.qdiag)

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

    @property
    def raw(self):
        """The form as raw values (a RawForm), built on first use."""
        if self._raw is None:
            self._raw = RawForm(self)
        return self._raw

    def q(self, coords):
        """q(v) = sum v_i^2 q(e_i) + sum_{i<j} v_i v_j (e_i, e_j)."""
        return self.field.element(self.raw.q([c.value for c in coords]))

    def bilinear(self, u, v):
        y = [c.value for c in v]
        return self.field.element(sum(
            x * sum(g * b for g, b in zip(row, y))
            for x, row in zip((c.value for c in u), self.raw.gram) if x))

    def radical_basis(self):
        """Basis of V-perp, the kernel of the Gram matrix."""
        if self._radical is None:
            gram = [[Scalar(self.field, g) for g in row]
                    for row in self.raw.gram]
            kern = linalg.kernel_basis(gram, self.field, self.dim)
            self._radical = tuple(Vector(self, v) for v in kern)
        return self._radical

    def in_radical(self, coords):
        return self.raw.in_radical([c.value for c in coords])

    # -- extensions ---------------------------------------------------------

    def _extension(self, key, qnew, pairs, labels):
        """V with generators of q-values qnew appended, built once per key."""
        ext = self._ext_cache.get(key)
        if ext is None:
            ext = self._ext_cache[key] = QuadraticSpace(
                self.field, self.qdiag + qnew, {**self.pairs, **pairs},
                {**self.labels, **labels})
            ext._base = self
        return ext

    def extend_sigma(self, c):
        """V_F^c = V + F sigma_c with q(sigma_c) = -c; sigma_1 is rho."""
        c, n = self.field.element(c), self.dim
        labels = {"sigma": n}
        if c == self.field.one:
            labels["rho"] = n
        return self._extension(("sigma", c), (-c,), {}, labels)

    def extend_hyperbolic(self):
        """V_U = V + (hyperbolic plane e, f), with (e, f) = 1."""
        n, zero = self.dim, self.field.zero
        return self._extension("hyp", (zero, zero),
                               {(n, n + 1): self.field.one},
                               {"e": n, "f": n + 1})

    def extend_hyperbolic_rho(self):
        """V_{U,F} = V + (e, f) + F rho with q(rho) = -1."""
        n, zero = self.dim, self.field.zero
        return self._extension("hyprho", (zero, zero, -self.field.one),
                               {(n, n + 1): self.field.one},
                               {"e": n, "f": n + 1, "rho": n + 2})

    def is_extension_of(self, sub):
        """Does self contain sub as its leading coordinates, orthogonally?"""
        n = sub.dim
        return (self.field == sub.field and self.qdiag[:n] == sub.qdiag
                and sub.pairs == {k: v for k, v in self.pairs.items()
                                  if k[0] < n})

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, QuadraticSpace)
                and self.field == other.field
                and self.qdiag == other.qdiag
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.field, self.qdiag,
                     tuple(sorted(self.pairs.items()))))

    def __repr__(self):
        return (f"QuadraticSpace({self.field}, dim={self.dim}, "
                f"qdiag={list(self.qdiag)})")


class RawForm:
    """The form of one space as raw values: p (None over Q), the q(e_i) as
    qdiag, the nonzero pair values as (i, j, value) triples with i < j, and
    the Gram rows.  q and in_radical take raw coordinates; over GF(p) every
    value they return or compare is reduced mod p."""

    __slots__ = ("p", "qdiag", "pairs", "gram", "_diag")

    def __init__(self, space):
        n = space.dim
        self.p = space.field.modulus
        self.qdiag = tuple(v.value for v in space.qdiag)
        self.pairs = tuple((i, j, v.value)
                           for (i, j), v in space.pairs.items())
        self.gram = tuple(tuple(space.pair_value(i, j).value
                                for j in range(n)) for i in range(n))
        self._diag = tuple((i, v) for i, v in enumerate(self.qdiag) if v)

    def q(self, x):
        acc = 0
        for i, v in self._diag:
            acc += v * x[i] * x[i]
        for i, j, v in self.pairs:
            acc += v * x[i] * x[j]
        return acc % self.p if self.p else acc

    def in_radical(self, x):
        """Is x orthogonal to every basis vector?"""
        p, sums = self.p, (sum(g * a for g, a in zip(row, x))
                           for row in self.gram)
        return not any(s % p for s in sums) if p else not any(sums)


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

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Vector({list(self.coords)})"


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
    dim = data.get("dim", len(qdiag))
    if type(dim) is not int or dim != len(qdiag):
        raise ValueError(f"dim {dim!r} is not the qdiag length {len(qdiag)}")
    for name, index in labels.items():
        if type(index) is not int or not 0 <= index < len(qdiag):
            raise ValueError(f"label {name!r} names {index!r}, not a basis "
                             f"index in range({len(qdiag)})")
    pairs = {}
    for entry in raw_pairs:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"pair {entry!r} is not [i, j, value]")
        i, j, v = entry
        if type(i) is not int or type(j) is not int or (i, j) in pairs:
            raise ValueError(f"pair {entry!r}: indices must be integers, "
                             "and each pair is given once")
        pairs[(i, j)] = field.parse(str(v))
    return QuadraticSpace(field, qdiag, pairs, labels)


def vector_to_json(v):
    return [str(c) for c in v.coords]


def vector_from_json(space, data):
    return space.vector([space.field.parse(str(c)) for c in data])
