"""The Clifford algebra C(V, q) of an exact quadratic space.

Elements are finite maps from canonical basis monomials (strictly increasing
index tuples) to nonzero scalars.  Products rewrite words by the two rules
e_i e_i -> q(e_i) and e_j e_i -> (e_i, e_j) - e_i e_j for i < j, so no
diagonalization of q is ever needed.  Monomial products and transposes are
cached per space.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .fields import Scalar
from .quadratic import NotASuperspace, SpaceMismatch, Vector


class NotInvertible(ArithmeticError):
    """The element has no two-sided inverse."""


class NotScalar(ValueError):
    """A scalar was required but the element has higher-degree terms."""


class NotAParavector(ValueError):
    """An element of F + V was required."""


def _normalize_word(space, word):
    """Rewrite a generator word into canonical monomials with coefficients."""
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


def _mono_product(space, s, t):
    cache = space._mono_cache
    hit = cache.get((s, t))
    if hit is None:
        hit = tuple(_normalize_word(space, s + t).items())
        cache[(s, t)] = hit
    return hit


def _mono_transpose(space, s):
    cache = space._transpose_cache
    hit = cache.get(s)
    if hit is None:
        hit = tuple(_normalize_word(space, tuple(reversed(s))).items())
        cache[s] = hit
    return hit


class CliffordElement:
    """An element of C(V, q); immutable by convention."""

    __slots__ = ("space", "coeffs", "_hash")

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = {s: c for s, c in coeffs.items() if not c.is_zero()}
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def scalar(cls, space, value):
        return cls(space, {(): space.field.element(value)})

    @classmethod
    def one(cls, space):
        return cls.scalar(space, 1)

    @classmethod
    def monomial(cls, space, indices, coeff=1):
        indices = tuple(indices)
        if list(indices) != sorted(set(indices)):
            raise ValueError("monomial indices must be strictly increasing")
        if indices and not 0 <= indices[-1] < space.dim:
            raise ValueError("monomial index out of range")
        return cls(space, {indices: space.field.element(coeff)})

    @classmethod
    def from_vector(cls, v):
        return cls(v.space, {(i,): c for i, c in enumerate(v.coords)
                             if not c.is_zero()})

    @classmethod
    def paravector(cls, space, a, v=None):
        coeffs = {(): space.field.element(a)}
        if v is not None:
            for i, c in enumerate(v.coords):
                coeffs[(i,)] = c
        return cls(space, coeffs)

    # -- ring structure ------------------------------------------------------

    def _check(self, other):
        if other.space != self.space:
            raise SpaceMismatch("elements of different algebras")

    def __add__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            other = CliffordElement.scalar(self.space, other)
        self._check(other)
        out = dict(self.coeffs)
        zero = self.space.field.zero
        for s, c in other.coeffs.items():
            out[s] = out.get(s, zero) + c
        return CliffordElement(self.space, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            other = CliffordElement.scalar(self.space, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CliffordElement(self.space,
                               {s: -c for s, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            k = self.space.field.element(other)
            return CliffordElement(self.space,
                                   {s: c * k for s, c in self.coeffs.items()})
        self._check(other)
        space = self.space
        zero = space.field.zero
        acc = {}
        for s, a in self.coeffs.items():
            for t, b in other.coeffs.items():
                ab = a * b
                for u, f in _mono_product(space, s, t):
                    prev = acc.get(u)
                    acc[u] = ab * f if prev is None else prev + ab * f
        return CliffordElement(space, acc)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, s):
        k = self.space.field.element(s)
        return self * k.inverse()

    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            other = CliffordElement.scalar(self.space, other)
        return (isinstance(other, CliffordElement)
                and other.space == self.space and other.coeffs == self.coeffs)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        # computed on first use: elements are hashed again and again as
        # memo keys, and are never changed once hashed
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def is_zero(self):
        return not self.coeffs

    # -- involutions and norm ------------------------------------------------

    def grade_involution(self):
        return CliffordElement(
            self.space,
            {s: (-c if len(s) % 2 else c) for s, c in self.coeffs.items()})

    def transpose(self):
        space = self.space
        acc = {}
        for s, a in self.coeffs.items():
            for u, f in _mono_transpose(space, s):
                prev = acc.get(u)
                acc[u] = a * f if prev is None else prev + a * f
        return CliffordElement(space, acc)

    def conj(self):
        """The Clifford involution, grade then transpose (they commute)."""
        return self.transpose().grade_involution()

    def involution(self, kind):
        if kind == "grade":
            return self.grade_involution()
        if kind == "transpose":
            return self.transpose()
        if kind == "conj":
            return self.conj()
        raise ValueError(f"unknown involution {kind!r}")

    def norm(self):
        """N(x) = x * conj(x), returned as an element (may not be scalar)."""
        return self * self.conj()

    # -- parts ----------------------------------------------------------------

    def part(self, kind):
        if kind == "scalar":
            return CliffordElement(
                self.space, {s: c for s, c in self.coeffs.items() if not s})
        if kind == "vector":
            return CliffordElement(
                self.space,
                {s: c for s, c in self.coeffs.items() if len(s) == 1})
        if kind == "paravector":
            return CliffordElement(
                self.space,
                {s: c for s, c in self.coeffs.items() if len(s) <= 1})
        if kind == "even":
            return CliffordElement(
                self.space,
                {s: c for s, c in self.coeffs.items() if len(s) % 2 == 0})
        if kind == "odd":
            return CliffordElement(
                self.space,
                {s: c for s, c in self.coeffs.items() if len(s) % 2 == 1})
        raise ValueError(f"unknown part {kind!r}")

    def is_scalar(self):
        return all(not s for s in self.coeffs)

    def is_vector(self):
        return all(len(s) == 1 for s in self.coeffs)

    def is_paravector(self):
        return all(len(s) <= 1 for s in self.coeffs)

    def is_even(self):
        return all(len(s) % 2 == 0 for s in self.coeffs)

    def is_odd(self):
        return all(len(s) % 2 == 1 for s in self.coeffs)

    def scalar_part(self):
        return self.coeffs.get((), self.space.field.zero)

    def to_scalar(self):
        """Checked extraction; scalarness failing is a reportable outcome."""
        if not self.is_scalar():
            raise NotScalar(f"not a scalar: {self!r}")
        return self.scalar_part()

    def vector_coords(self):
        coords = [self.space.field.zero] * self.space.dim
        for s, c in self.coeffs.items():
            if len(s) != 1:
                raise NotScalar(f"not a vector: {self!r}")
            coords[s[0]] = c
        return Vector(self.space, coords)

    def paravector_parts(self):
        """Split a + v into (a, v); raises NotAParavector otherwise."""
        if not self.is_paravector():
            raise NotAParavector(f"not a paravector: {self!r}")
        coords = [self.space.field.zero] * self.space.dim
        for s, c in self.coeffs.items():
            if s:
                coords[s[0]] = c
        return self.scalar_part(), Vector(self.space, coords)

    # -- inversion -------------------------------------------------------------

    def norm_inverse(self):
        """conj(x)/N(x) when N(x) is a nonzero scalar, else None."""
        xc = self.conj()
        n = self * xc
        if n.is_scalar() and not n.scalar_part().is_zero():
            # x * conj(x) = s forces left-multiplication by x onto, hence
            # bijective, and the one-sided inverse is two-sided.
            return xc * n.scalar_part().inverse()
        return None

    def inverse(self):
        """Two-sided inverse; conj(x)/N(x) when the norm is a nonzero scalar,
        else an exact linear solve on the left-multiplication operator."""
        inv = self.norm_inverse()
        if inv is not None:
            return inv
        space = self.space
        field = space.field
        monos = _all_monomials(space.dim)
        index = {s: k for k, s in enumerate(monos)}
        cols = []
        for s in monos:
            img = self * CliffordElement.monomial(space, s)
            col = [field.zero] * len(monos)
            for u, c in img.coeffs.items():
                col[index[u]] = c
            cols.append(col)
        mat = [[cols[j][i] for j in range(len(monos))]
               for i in range(len(monos))]
        rhs = [field.one if not s else field.zero for s in monos]
        sol = linalg.solve(mat, rhs, field)
        if sol is None:
            raise NotInvertible(f"no inverse: {self!r}")
        cand = CliffordElement(space,
                               {s: c for s, c in zip(monos, sol)})
        if cand * self != CliffordElement.one(space):
            raise NotInvertible(f"only one-sided invertible: {self!r}")
        return cand

    def is_invertible(self):
        try:
            self.inverse()
        except NotInvertible:
            return False
        return True

    # -- embeddings --------------------------------------------------------------

    def embed(self, target):
        """Reindex into the algebra of an extension; indices are preserved
        because extensions append their generators after the original basis."""
        if target == self.space:
            return CliffordElement(target, dict(self.coeffs))
        if not target.is_extension_of(self.space):
            raise NotASuperspace("target is not an extension")
        return CliffordElement(target, dict(self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for s, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
            name = "*".join(f"e{i}" for i in s) if s else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


def _all_monomials(dim):
    out = [()]
    for i in range(dim):
        out += [s + (i,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def all_monomials(space):
    """Canonical monomial index tuples of C(space), graded order."""
    return _all_monomials(space.dim)


def enumerate_elements(space):
    """All elements of C(space) over a finite field, deterministic order."""
    monos = _all_monomials(space.dim)
    elems = [CliffordElement.zero(space)]
    for s in monos:
        new = []
        for x in elems:
            for c in space.field.elements():
                if c.is_zero():
                    new.append(x)
                else:
                    new.append(x + CliffordElement.monomial(space, s, c))
        elems = new
    return elems


# -- paravector quadratic structure ------------------------------------------

def paravector_q(xi):
    """q_F(a + v) = q(v) - a^2."""
    a, v = xi.paravector_parts()
    return v.q() - a * a


def paravector_pairing(xi, eta):
    """(xi, eta)_F = (u, v) - 2ab for xi = a + v, eta = b + u."""
    a, v = xi.paravector_parts()
    b, u = eta.paravector_parts()
    return u.pair(v) - 2 * a * b


# -- the maps into rho-extensions ----------------------------------------------

def _labeled_generator(space, name):
    idx = space.labels.get(name)
    if idx is None:
        raise ValueError(f"space has no generator labeled {name!r}")
    return CliffordElement.monomial(space, (idx,))


def rho_map(x, target):
    """x = x_+ + x_-  ->  x_+ + x_- rho, an isomorphism onto C(V_F)_+."""
    if "rho" not in target.labels:
        raise ValueError("target has no rho generator")
    emb = x.embed(target)
    rho = _labeled_generator(target, "rho")
    return emb.part("even") + emb.part("odd") * rho


def upsilon_element(target):
    """upsilon = (ef - fe) rho inside C(V_{U,F})."""
    e = _labeled_generator(target, "e")
    f = _labeled_generator(target, "f")
    rho = _labeled_generator(target, "rho")
    return (e * f - f * e) * rho


def upsilon_map(x, target):
    """x = x_+ + x_-  ->  x_+ + x_- upsilon inside C(V_{U,F})."""
    for name in ("e", "f", "rho"):
        if name not in target.labels:
            raise ValueError(f"target has no generator labeled {name!r}")
    emb = x.embed(target)
    return emb.part("even") + emb.part("odd") * upsilon_element(target)


def iota(xi, target):
    """The quadratic-space isomorphism F + V -> V_F, a + v -> v - a rho."""
    a, v = xi.paravector_parts()
    if "rho" not in target.labels:
        raise ValueError("target has no rho generator")
    if not target.is_extension_of(xi.space):
        raise NotASuperspace("target is not an extension")
    coords = [target.field.zero] * target.dim
    for i, c in enumerate(v.coords):
        coords[i] = c
    coords[target.labels["rho"]] = -a
    return Vector(target, coords)


def iota_inv(w, base_space):
    """Inverse of iota: v - a rho -> a + v as an element of C(base_space)."""
    space = w.space
    rho_idx = space.labels.get("rho")
    if rho_idx is None:
        raise ValueError("vector space has no rho generator")
    n = base_space.dim
    for i, c in enumerate(w.coords):
        if i >= n and i != rho_idx and not c.is_zero():
            raise ValueError("vector is not in the image of iota")
    a = -w.coords[rho_idx]
    v = base_space.vector(w.coords[:n])
    return CliffordElement.paravector(base_space, a, v)


# -- JSON ------------------------------------------------------------------

def element_to_json(x):
    return [{"indices": list(s), "coeff": str(c)}
            for s, c in sorted(x.coeffs.items(),
                               key=lambda kv: (len(kv[0]), kv[0]))]


def element_from_json(space, data):
    coeffs = {}
    zero = space.field.zero
    for term in data:
        s = tuple(int(i) for i in term["indices"])
        c = space.field.parse(str(term["coeff"]))
        coeffs[s] = coeffs.get(s, zero) + c
    out = CliffordElement(space, coeffs)
    for s in out.coeffs:
        if list(s) != sorted(set(s)) or (s and s[-1] >= space.dim):
            raise ValueError(f"bad monomial indices {s}")
    return out
