"""The Clifford algebra C(V, q) of an exact quadratic space.

A monomial e_s is stored as its mask, bit i set for each i in s; callers
see the increasing index tuple s (constructor, coeffs, all_monomials, repr,
JSON).  The relations e_i e_i = q(e_i) and e_i e_j + e_j e_i = (e_i, e_j)
are used as given, so no diagonalization of q is ever needed.

An element is stored in the integer form its arithmetic runs on: a dict
`terms` from monomial mask to integer over one positive denominator `den`.
Over GF(p) the integers are residues in 1..p-1 and den is 1; over Q they are
nonzero numerators with gcd(den, all of them) = 1, and 0 is {} over 1.  The
form is canonical, so equality and hashing compare stores.  Every operation
passes an integer accumulator through the one normalizer, _of, which drops
zeros and reduces mod p or by the gcd; Scalars are built only at the API
boundary (coeffs, scalar_part, vector_coords, the JSON).  Products and
transposes take integer structure constants over the per-space scale
D = L**dim, where L is the lcm of the denominators of the q(e_i) and the
pair values (1 over GF(p)), so a product of two stores is an accumulator
over da * db * D.  Integer arithmetic is exact and every term carries the
same scale, so each coefficient is the same exact scalar that term-by-term
field arithmetic gives.

The constants are computed on first use in closed form and kept in the
space's monomial cache, one row per left mask s mapping the right mask t to
those of e_s e_t, and None to those of the transpose of e_s.  Multiplying
e_s on the right by a generator e_t moves e_t left past each j > t in s by
e_j e_t = (e_t, e_j) - e_t e_j, leaving the contraction
(-1)^|s >> (j + 1)| (e_t, e_j) e_{s - j}, |.| the popcount; then
e_t e_t = q(e_t) if bit t of s is set, or else bit t is set with the sign
(-1)^|s >> (t + 1)|.  A word is a fold of that step, and
the transpose of e_s is its reversed word applied to 1.  Each step
multiplies by L, which keeps its constants integral; a word of k generators
is padded by L**(dim - k), so every constant has scale D.

A space built directly takes every constant from that fold.  An extension
V + B from QuadraticSpace._extension appends a block B of 1 to 3 generators
orthogonally after V's, so C(V + B) is the graded tensor product of C(V) and
C(B), and a constant that involves V is derived from the two factors.  With
mask_V = 2**dim V - 1, split s into s_V = s & mask_V and s_B = s - s_V, and
t likewise.  Block generators anticommute with V's, so
e_s e_t = (-1)^(|s_B| |t_V|) (e_{s_V} e_{t_V}) (e_{s_B} e_{t_B}), and the
transpose of e_s is (-1)^(|s_B| |s_V|) e_{s_V}^T e_{s_B}^T, since products
keep the parity of the degree.  The V factor comes
from V's own cache, so every extension of V shares it (and an extension of
an extension recurses); the block factor is folded in the extension, which
touches only the 64 products and 8 transposes of block monomials.  V's and
B's bits are disjoint, so the product monomial is v | g.  V's constants
have scale L_V**dim_V; a block constant is a fold of at most |B| steps
padded by at least L**dim_V, and L_V divides L, so dividing it by
L_V**dim_V is exact and the product of the two factors has scale D.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from . import linalg
from .fields import InfiniteField, Scalar, residue_tuples
from .quadratic import NotASuperspace, SpaceMismatch, Vector


# the largest dimension whose inverse may take the linear solve, a dense
# 2^n x 2^n system: 2.5-4 s over Q and 0.8-1.4 s over GF(3) at dim 9,
# about four times that per further dimension (2-vCPU Xeon VM, Python 3.11)
MAX_SOLVE_DIM = 9


class NotInvertible(ArithmeticError):
    """The element has no two-sided inverse."""


class SolveTooLarge(ValueError):
    """An inverse needs the linear solve on a space past MAX_SOLVE_DIM.
    Not a NotInvertible: it says nothing about the element, so group tests
    must not read it as "no inverse"."""


class NotScalar(ValueError):
    """A scalar was required but the element has higher-degree terms."""


class NotAParavector(ValueError):
    """An element of F + V was required."""


def _kernel(space):
    """The integer form of a space's relations, scaled from its raw form on
    first use: (p, L, D, q, above) with p the modulus (None over Q),
    D = L**dim, q[i] the integer L q(e_i), and above[i] mapping each j > i
    with a nonzero pair value to the integer L (e_i, e_j)."""
    kern = space._kernel
    if kern is None:
        form = space.raw
        p, qs = form.p, form.qdiag
        step = 1 if p is not None else lcm(
            *(v.denominator for v in qs + tuple(v for *_, v in form.pairs)))
        scaled = lambda v: v.numerator * (step // v.denominator)
        above = [{} for _ in qs]
        for i, j, v in form.pairs:
            above[i][j] = scaled(v)
        kern = space._kernel = (p, step, step ** space.dim,
                                tuple(scaled(v) for v in qs), above)
    return kern


# both conversions are cached: the API and coeffs views run them per term
@cache
def monomial_mask(s):
    """The mask of the monomial e_s: bit i is set for each index i in s.
    s must be strictly increasing and nonnegative; the range check against
    a space's dimension is mask >> dim."""
    if list(s) != sorted(set(s)) or s and s[0] < 0:
        raise ValueError(f"bad monomial indices {s}")
    return sum(1 << i for i in s)


@cache
def mask_indices(m):
    """The strictly increasing index tuple of the monomial with mask m."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def _step(kern, terms, t):
    """(sum n_s e_s) e_t in closed form; every constant gains a factor L."""
    p, step, _, qs, above = kern
    partners, qt, bit = above[t], qs[t], 1 << t
    out = {}
    get = out.get
    for s, n in terms.items():
        if partners:
            for j in range(t + 1, s.bit_length()):
                pv = s >> j & 1 and partners.get(j)
                if pv:
                    u = s ^ (1 << j)
                    if (s >> (j + 1)).bit_count() % 2:
                        pv = -pv
                    out[u] = get(u, 0) + n * pv
        if (s >> (t + 1)).bit_count() % 2:
            n = -n
        if not s & bit:
            out[s | bit] = get(s | bit, 0) + n * step
        elif qt:
            out[s ^ bit] = get(s ^ bit, 0) + n * qt
    if p is not None:
        return {u: n % p for u, n in out.items() if n % p}
    return {u: n for u, n in out.items() if n}


def _mono_terms(space, s, t):
    """Integer constants of e_s e_t over the scale D, or of the transpose of
    e_s when t is None, from row s of the space's monomial cache."""
    row = space._mono_cache.setdefault(s, {})
    hit = row.get(t)
    if hit is None:
        base = space._base
        low = 0 if base is None else (1 << base.dim) - 1  # the mask of V
        if (s | (t or 0)) & low:
            hit = _block_terms(space, base, low, s, t)
        else:
            kern = _kernel(space)
            terms, word = (({0: 1}, mask_indices(s)[::-1]) if t is None
                           else ({s: 1}, mask_indices(t)))
            for g in word:
                terms = _step(kern, terms, g)
            pad = kern[1] ** (space.dim - len(word))  # L**(dim - k)
            hit = tuple((u, n * pad) for u, n in terms.items())
        row[t] = hit
    return hit


def _block_terms(space, base, low, s, t):
    """The constants of e_s e_t (or of the transpose of e_s) in an
    orthogonal extension V + B of base = V, with low the mask of V: V's
    constants times those of the block B alone, as the module docstring
    derives."""
    sv = s & low
    tv = sv if t is None else t & low
    vs = _mono_terms(base, sv, None if t is None else tv)
    bs = _mono_terms(space, s ^ sv, None if t is None else t ^ tv)
    p = _kernel(space)[0]
    dv = _kernel(base)[2]  # L_V**dim V divides every block constant
    if (s ^ sv).bit_count() * tv.bit_count() % 2:
        dv = -dv
    if dv != 1:
        bs = [(g, b // dv) for g, b in bs]
    if p is None:
        return tuple([(v | g, a * b) for v, a in vs for g, b in bs])
    return tuple([(v | g, a * b % p) for v, a in vs for g, b in bs])


# the monomials each part keeps
_PARTS = {"scalar": lambda s: not s, "even": lambda s: s.bit_count() % 2 == 0,
          "odd": lambda s: s.bit_count() % 2 == 1}


class CliffordElement:
    """An element of C(V, q); immutable by convention.  It is kept in the
    kernel's integer form: the element sum terms[s] e_s / den over monomial
    masks s, canonical as the module docstring states, so equal elements
    have equal stores."""

    __slots__ = ("space", "terms", "den", "_hash")

    def __new__(cls, space, coeffs):
        """From a map monomial -> Scalar, int or Fraction."""
        items = [(monomial_mask(s), c) for s, c in coeffs.items()]
        for (mask, _), s in zip(items, coeffs):
            if mask >> space.dim:
                raise ValueError(f"bad monomial indices {s}")
        return cls._values(space, items)

    @classmethod
    def _values(cls, space, items):
        """From pairs (monomial mask, Scalar, int or Fraction)."""
        raw = space.field.raw
        vals = [(s, raw(c)) for s, c in items]
        den = lcm(*(v.denominator for _, v in vals))
        return cls._of(space, {s: v.numerator * (den // v.denominator)
                               for s, v in vals}, den)

    @classmethod
    def _of(cls, space, acc, den=1):
        """The one normalizer: the element sum acc[u] e_u / den (den > 0)
        with its zero terms dropped, reduced mod p or by the gcd."""
        x = object.__new__(cls)
        p = space.field.modulus
        if p is None:
            g = gcd(den, *acc.values())
            terms, den = {u: n // g for u, n in acc.items() if n}, den // g
        else:
            terms = {u: r for u, n in acc.items() if (r := n % p)}
        x.space, x.terms, x.den, x._hash = space, terms, den, None
        return x

    def _scalar(self, n):
        """The Scalar of the stored coefficient n."""
        field = self.space.field
        return Scalar(field, n if field.modulus else Fraction(n, self.den))

    @property
    def coeffs(self):
        """The coefficients as a read-only map monomial -> Scalar; its keys
        and its length are read off the store without building Scalars."""
        return _Coeffs(self)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def scalar(cls, space, value):
        v = space.field.raw(value)
        return cls._of(space, {0: v.numerator}, v.denominator)

    @classmethod
    def one(cls, space):
        return cls.scalar(space, 1)

    @classmethod
    def monomial(cls, space, indices, coeff=1):
        return cls(space, {tuple(indices): coeff})

    @classmethod
    def from_vector(cls, v):
        return cls._values(v.space,
                           [(1 << i, c) for i, c in enumerate(v.coords)])

    @classmethod
    def paravector(cls, space, a, v=None):
        coords = () if v is None else v.coords
        return cls(space, {(): a, **{(i,): c for i, c in enumerate(coords)}})

    # -- ring structure ------------------------------------------------------

    def _check(self, other):
        if other.space is not self.space and other.space != self.space:
            raise SpaceMismatch("elements of different algebras")

    def _plus(self, other, sign):
        """self + sign * other."""
        if not isinstance(other, CliffordElement):
            other = CliffordElement.scalar(self.space, other)
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            den, acc = a, self.terms.copy()
        else:
            den = lcm(a, b)
            acc = {s: n * (den // a) for s, n in self.terms.items()}
        get, k = acc.get, sign * (den // b)
        for s, n in other.terms.items():
            acc[s] = get(s, 0) + n * k
        return CliffordElement._of(self.space, acc, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CliffordElement._of(
            self.space, {s: -n for s, n in self.terms.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            k = self.space.field.raw(other)
            return CliffordElement._of(
                self.space, {s: n * k.numerator for s, n in self.terms.items()},
                self.den * k.denominator)
        self._check(other)
        space = self.space
        rows = space._mono_cache
        acc = {}
        get = acc.get
        ys = other.terms.items()
        for s, a in self.terms.items():
            row = rows.get(s)
            if row is None:
                row = rows[s] = {}
            for t, b in ys:
                terms = row.get(t)
                if terms is None:
                    terms = _mono_terms(space, s, t)
                ab = a * b
                for u, f in terms:
                    acc[u] = get(u, 0) + ab * f
        return CliffordElement._of(space, acc,
                                   self.den * other.den * _kernel(space)[2])

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
                and other.space == self.space and other.den == self.den
                and other.terms == self.terms)

    def __hash__(self):
        # computed on first use: elements are hashed again and again as
        # memo keys, and are never changed once hashed
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.terms.items())))
        return self._hash

    def is_zero(self):
        return not self.terms

    # -- involutions and norm ------------------------------------------------

    def grade_involution(self):
        return CliffordElement._of(
            self.space,
            {s: -n if s.bit_count() % 2 else n for s, n in self.terms.items()},
            self.den)

    def transpose(self):
        return self._reverse(False)

    def conj(self):
        """The Clifford involution, grade then transpose (they commute): a
        transpose keeps each term's parity, so this negates the odd terms'
        transposes."""
        return self._reverse(True)

    def _reverse(self, grade):
        space = self.space
        rows = space._mono_cache
        acc = {}
        get = acc.get
        for s, a in self.terms.items():
            row = rows.get(s)
            terms = row.get(None) if row else None
            if terms is None:
                terms = _mono_terms(space, s, None)
            if grade and s.bit_count() % 2:
                a = -a
            for u, f in terms:
                acc[u] = get(u, 0) + a * f
        return CliffordElement._of(space, acc, self.den * _kernel(space)[2])

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
        keep = _PARTS.get(kind)
        if keep is None:
            raise ValueError(f"unknown part {kind!r}")
        return CliffordElement._of(
            self.space, {s: n for s, n in self.terms.items() if keep(s)},
            self.den)

    def is_scalar(self):
        return self.terms.keys() <= {0}

    def is_vector(self):
        return all(s.bit_count() == 1 for s in self.terms)

    def is_paravector(self):
        return all(s.bit_count() <= 1 for s in self.terms)

    def is_even(self):
        return all(s.bit_count() % 2 == 0 for s in self.terms)

    def is_odd(self):
        return all(s.bit_count() % 2 == 1 for s in self.terms)

    def scalar_part(self):
        n = self.terms.get(0)
        return self.space.field.zero if n is None else self._scalar(n)

    def scalar_value(self):
        """The raw value of a scalar element; anything else is NotScalar."""
        if not self.is_scalar():
            raise NotScalar(f"not a scalar: {self!r}")
        n = self.terms.get(0, 0)
        return n if self.space.field.modulus else Fraction(n, self.den)

    def to_scalar(self):
        """Checked extraction; scalarness failing is a reportable outcome."""
        return Scalar(self.space.field, self.scalar_value())

    def vector_coords(self):
        coords = [self.space.field.zero] * self.space.dim
        for s, n in self.terms.items():
            if s.bit_count() != 1:
                raise NotScalar(f"not a vector: {self!r}")
            coords[s.bit_length() - 1] = self._scalar(n)
        return Vector(self.space, coords)

    def paravector_parts(self):
        """Split a + v into (a, v); raises NotAParavector otherwise."""
        if not self.is_paravector():
            raise NotAParavector(f"not a paravector: {self!r}")
        coords = [self.space.field.zero] * self.space.dim
        for s, n in self.terms.items():
            if s:
                coords[s.bit_length() - 1] = self._scalar(n)
        return self.scalar_part(), Vector(self.space, coords)

    # -- inversion -------------------------------------------------------------

    def norm_inverse(self):
        """conj(x)/N(x) when N(x) is a nonzero scalar, else None."""
        xc = self.conj()
        n = self * xc
        if n.terms.keys() == {0}:  # a nonzero scalar
            # x * conj(x) = s forces left-multiplication by x onto, hence
            # bijective, and the one-sided inverse is two-sided.
            return xc * n.scalar_part().inverse()
        return None

    def inverse(self):
        """Two-sided inverse; conj(x)/N(x) when the norm is a nonzero scalar,
        else an exact linear solve on the left-multiplication operator,
        refused with SolveTooLarge above MAX_SOLVE_DIM."""
        inv = self.norm_inverse()
        if inv is not None:
            return inv
        space = self.space
        if space.dim > MAX_SOLVE_DIM:
            size = 2 ** space.dim
            raise SolveTooLarge(
                f"the norm is not a scalar, so the inverse needs a {size} x "
                f"{size} linear solve; dimension {space.dim} exceeds the "
                f"supported {MAX_SOLVE_DIM}")
        field = space.field
        monos = _all_monomials(space.dim)
        cols = [(self * CliffordElement.monomial(space, s)).coeffs
                for s in monos]
        mat = [[col.get(u, field.zero) for col in cols] for u in monos]
        rhs = [field.one if not s else field.zero for s in monos]
        sol = linalg.solve(mat, rhs, field)
        if sol is None:
            raise NotInvertible(f"no inverse: {self!r}")
        cand = CliffordElement(space, dict(zip(monos, sol)))
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
        if target != self.space and not target.is_extension_of(self.space):
            raise NotASuperspace("target is not an extension")
        return CliffordElement._of(target, self.terms, self.den)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for s, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
            name = "*".join(f"e{i}" for i in s) if s else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


class _Coeffs(Mapping):
    """CliffordElement.coeffs: a read-only Scalar view of the store."""

    def __init__(self, x):
        self._x = x

    def __getitem__(self, s):
        try:
            n = self._x.terms[monomial_mask(s)]
        except (KeyError, ValueError):
            raise KeyError(s) from None
        return self._x._scalar(n)

    def __iter__(self):
        return map(mask_indices, self._x.terms)

    def __len__(self):
        return len(self._x.terms)


def _all_monomials(dim):
    out = [()]
    for i in range(dim):
        out += [s + (i,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def all_monomials(space):
    """Canonical monomial index tuples of C(space), graded order."""
    return _all_monomials(space.dim)


def enumerate_elements(space):
    """All elements of C(space) over a finite field: their coefficient
    tuples over the graded monomials in numeral order, the first monomial
    slowest."""
    field = space.field
    if field.modulus is None:
        raise InfiniteField("Q cannot be enumerated")
    monos = [monomial_mask(s) for s in _all_monomials(space.dim)]
    return [CliffordElement._of(space, dict(zip(monos, t)))
            for t in residue_tuples(field.modulus, len(monos))]


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
    """x = x_+ + x_-  ->  x_+ + x_- rho, an isomorphism onto C(V_F)_+; x
    has no term at or above rho's bit, so x_- rho sets it on odd terms."""
    r = target.labels.get("rho")
    if r is None:
        raise ValueError("target has no rho generator")
    x = x.embed(target)
    if any(s >> r for s in x.terms):
        raise ValueError("element has a term at or above rho")
    return CliffordElement._of(target, {
        s | 1 << r if s.bit_count() % 2 else s: n
        for s, n in x.terms.items()}, x.den)


def upsilon_element(target):
    """upsilon = (ef - fe) rho inside C(V_{U,F})."""
    e = _labeled_generator(target, "e")
    f = _labeled_generator(target, "f")
    rho = _labeled_generator(target, "rho")
    return (e * f - f * e) * rho


def upsilon_map(x, target):
    """x = x_+ + x_-  ->  x_+ + x_- upsilon inside C(V_{U,F})."""
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
    if not isinstance(data, list):
        raise ValueError("element must be a JSON list of terms")
    coeffs = {}
    zero = space.field.zero
    for term in data:
        if not (isinstance(term, dict) and "coeff" in term
                and isinstance(term.get("indices"), list)
                and all(type(i) is int for i in term["indices"])):
            raise ValueError(f"term {term!r} is not "
                             '{"indices": [int, ...], "coeff": ...}')
        s = tuple(term["indices"])
        c = space.field.parse(str(term["coeff"]))
        coeffs[s] = coeffs.get(s, zero) + c
    return CliffordElement(space, coeffs)
