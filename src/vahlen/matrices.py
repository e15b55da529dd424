"""Vahlen and paravector Vahlen groups: the four equivalent membership
conditions, the pseudo-determinant, generators, a seeded sampler, and
exhaustive finite-field verification of the condition equivalences.

Each condition has one definition, which every caller runs: membership
(Condition 3, the cheapest, naming the clause that fails), the diagnostic
mode, which reports disagreements instead of silently picking a side, and
the exhaustive check, which evaluates all four on every matrix.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from fractions import Fraction

from .clifford import (CliffordElement, element_from_json, element_to_json,
                       enumerate_elements)
from .fields import InfiniteField, PrimeField, Rationals
from .groups import (PART_SPACE, CMatrix2, in_group, lands, matrix_to_CU,
                     matrix_to_CUF, part_monomials, probe_elements)
from .quadratic import Vector

KINDS = ("vector", "paravector")


class NotVahlen(ValueError):
    """The matrix fails the Vahlen membership conditions."""


class TooLarge(ValueError):
    """An exhaustive run would exceed the size guard."""


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _memoised(method):
    """Cache a _Context method per context, keyed on its arguments."""
    def cached(self, *args):
        table = self._memo[method]
        hit = table.get(args)
        if hit is None:
            hit = table[args] = method(self, *args)
        return hit
    return cached


class _Context:
    """The entry-level work of the conditions over one algebra, each piece
    computed once.  A context serves one call, or a whole exhaustive run,
    where a handful of elements fill every matrix position."""

    def __init__(self, space, kind):
        _check_kind(kind)
        self.kind = kind
        self.probes = probe_elements(space, kind)
        self._memo = defaultdict(dict)

    @_memoised
    def tr(self, x):
        return x.transpose()

    @_memoised
    def cj(self, x):
        return x.conj()

    @_memoised
    def mul(self, x, y):
        return x * y

    @_memoised
    def norm_scalar(self, x):
        return x.norm().is_scalar()

    @_memoised
    def in_T(self, x):
        if not self.norm_scalar(x):
            return False
        xt = self.tr(x)
        return all(lands(x * t * xt, self.kind) for t in self.probes)

    @_memoised
    def lands_mul(self, x, y):
        return lands(self.mul(x, y), self.kind)

    @_memoised
    def symmetric(self, x, y):
        return self.mul(x, self.tr(y)) == self.mul(y, self.tr(x))

    @_memoised
    def sandwiches(self, x, y):
        """(x t conj(y), x conj(t) conj(y)) for each probe t."""
        yb = self.cj(y)
        return tuple((x * t * yb, x * t.conj() * yb) for t in self.probes)

    def brackets(self, x, y, z, w):
        """x t conj(y) + z conj(t) conj(w) for each probe t."""
        return [p + q for (p, _), (_, q)
                in zip(self.sandwiches(x, y), self.sandwiches(z, w))]

    @_memoised
    def scalar_brackets(self, x, y):
        return all(u.is_scalar() for u in self.brackets(x, y, y, x))

    @_memoised
    def image(self, position, x):
        """x alone at `position` (0..3 for a, b, c, d) of a matrix, mapped by
        matrix_to_CU (vector) or matrix_to_CUF (paravector); the images of
        the four entries sum to the image of the matrix."""
        entries = [CliffordElement.zero(x.space)] * 4
        entries[position] = x
        m = CMatrix2(*entries)
        return matrix_to_CU(m) if self.kind == "vector" else matrix_to_CUF(m)


def in_T(x, kind):
    """x V x* in V (resp. x (F+V) x* in F+V) and N(x) scalar."""
    return _Context(x.space, kind).in_T(x)


def _det_ok(m, ctx):
    """Is a d* - b c* a nonzero scalar?  Three conditions ask; the scalar
    (or None) is kept on the matrix, where pseudo_det reads it."""
    if "det" not in m._memo:
        det = ctx.mul(m.a, ctx.tr(m.d)) - ctx.mul(m.b, ctx.tr(m.c))
        value = det.scalar_part()
        m._memo["det"] = (value if det.is_scalar() and not value.is_zero()
                          else None)
    return m._memo["det"] is not None


def _condition1(m, ctx):
    a, b, c, d = m.entries()
    return (all(map(ctx.norm_scalar, (a, b, c, d)))
            and ctx.symmetric(a, b) and ctx.symmetric(c, d)
            and _det_ok(m, ctx)
            and ctx.lands_mul(a, ctx.cj(c)) and ctx.lands_mul(b, ctx.cj(d))
            and ctx.scalar_brackets(a, b) and ctx.scalar_brackets(c, d)
            and all(lands(u, ctx.kind) for u in ctx.brackets(a, d, b, c)))


def _condition2(m, ctx):
    a, b, c, d = m.entries()
    return (all(map(ctx.in_T, (a, b, c, d))) and _det_ok(m, ctx)
            and ctx.lands_mul(a, ctx.tr(b)) and ctx.lands_mul(d, ctx.tr(c)))


def _condition3_failure(m, ctx):
    """The first failed clause of Condition 3, or None."""
    for name, x in zip(("alpha", "beta", "gamma", "delta"), m.entries()):
        if not ctx.in_T(x):
            return f"entry {name} not in T"
    if not _det_ok(m, ctx):
        return "pseudo-determinant not a nonzero scalar"
    if not ctx.lands_mul(ctx.cj(m.a), m.b):
        return f"conj(alpha)*beta not in {PART_SPACE[ctx.kind]}"
    if not ctx.lands_mul(ctx.cj(m.d), m.c):
        return f"conj(delta)*gamma not in {PART_SPACE[ctx.kind]}"
    return None


def _condition3(m, ctx):
    return _condition3_failure(m, ctx) is None


def _condition4(m, ctx):
    a, b, c, d = m.entries()
    psi = (ctx.image(0, a) + ctx.image(1, b) + ctx.image(2, c)
           + ctx.image(3, d))
    if ctx.kind == "paravector" and not psi.is_even():
        return False
    return in_group(psi, "gamma_fx")


_CONDITIONS = {1: _condition1, 2: _condition2, 3: _condition3, 4: _condition4}


def check_condition(m, kind, which):
    """Evaluate one of the four membership conditions verbatim."""
    return _CONDITIONS[which](m, _Context(m.space, kind))


def condition3_failure(m, kind):
    """Name of the first failed clause of Condition 3, or None."""
    key = ("vahlen", kind)
    if key not in m._memo:
        m._memo[key] = _condition3_failure(m, _Context(m.space, kind))
    return m._memo[key]


def is_vahlen(m, kind):
    return condition3_failure(m, kind) is None


def diagnose(m, kind):
    """All four condition verdicts plus their agreement flag."""
    ctx = _Context(m.space, kind)
    verdicts = {which: fn(m, ctx) for which, fn in _CONDITIONS.items()}
    verdicts["agree"] = len(set(verdicts.values())) == 1
    return verdicts


def pseudo_det(m, kind):
    """The scalar alpha delta* - beta gamma*; multiplicative on the group."""
    if not is_vahlen(m, kind):
        raise NotVahlen(condition3_failure(m, kind))
    return m._memo["det"]  # kept by _det_ok, which is_vahlen passed


def matrix_inverse(m, kind):
    """(delta*, -beta*; -gamma*, alpha*) over the pseudo-determinant."""
    det = pseudo_det(m, kind)
    inv = det.inverse()
    return CMatrix2(m.d.transpose() * inv, -(m.b.transpose() * inv),
                    -(m.c.transpose() * inv), m.a.transpose() * inv)


# -- generators --------------------------------------------------------------


def _as_translation_element(space, kind, xi):
    _check_kind(kind)
    if isinstance(xi, Vector):
        xi = CliffordElement.from_vector(xi)
    if not lands(xi, kind):
        raise ValueError("translation argument must lie in "
                         + PART_SPACE[kind])
    return xi


def translation(space, kind, xi):
    xi = _as_translation_element(space, kind, xi)
    return CMatrix2.from_entries(space, 1, xi, 0, 1)


def dilation(space, a):
    a = space.field.element(a)
    if a.is_zero():
        raise ValueError("dilation scale must be nonzero")
    return CMatrix2.from_entries(space, a, 0, 0, 1)


def weyl(space):
    return CMatrix2.from_entries(space, 0, -1, 1, 0)


def vector_scalar(space, v):
    if isinstance(v, Vector):
        v = CliffordElement.from_vector(v)
    if not v.is_vector():
        raise ValueError("vector_scalar argument must lie in V")
    if v.vector_coords().q().is_zero():
        raise ValueError("vector_scalar requires q(v) != 0")
    return CMatrix2.from_entries(space, v, 0, 0, v)


# -- seeded sampler ------------------------------------------------------------

_SMALL_HEIGHT = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
_SMALL_NONZERO = (1, -1, 2, -2, Fraction(1, 2), 3)


def _random_scalar(space, rng, nonzero=False):
    field = space.field
    if isinstance(field, Rationals):
        pool = _SMALL_NONZERO if nonzero else _SMALL_HEIGHT
        return field.element(rng.choice(pool))
    while True:
        s = field.element(rng.randrange(field.modulus))
        if not (nonzero and s.is_zero()):
            return s


def random_vector(space, rng):
    return space.vector([_random_scalar(space, rng)
                         for _ in range(space.dim)])


def random_paravector(space, rng):
    return CliffordElement.paravector(space, _random_scalar(space, rng),
                                      random_vector(space, rng))


def _random_anisotropic_vector(space, rng, tries=20):
    for _ in range(tries):
        v = random_vector(space, rng)
        if not v.q().is_zero():
            return v
    return None


def random_generator(space, kind, rng):
    """One random generator; weights 40/20/20/20 translation/dilation/weyl/
    vector_scalar, falling back to translation when no anisotropic vector
    turns up (totally isotropic forms)."""
    roll = rng.random()
    if 0.4 <= roll < 0.6:
        return dilation(space, _random_scalar(space, rng, nonzero=True))
    if 0.6 <= roll < 0.8:
        return weyl(space)
    if roll >= 0.8:
        v = _random_anisotropic_vector(space, rng)
        if v is not None:
            return vector_scalar(space, v)
    return translation(space, kind, CliffordElement(space, {
        s: _random_scalar(space, rng)
        for s in part_monomials(space.dim, kind)}))


def random_vahlen(space, kind, seed, length, special=False):
    """Seeded product of `length` random generators; always Vahlen.  The
    special variant divides out the pseudo-determinant via a dilation."""
    _check_kind(kind)
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    m = random_generator(space, kind, rng)
    for _ in range(length - 1):
        m = m * random_generator(space, kind, rng)
    if special:
        m = m * dilation(space, pseudo_det(m, kind).inverse())
    return m


# -- JSON ----------------------------------------------------------------------


def matrix_to_json(m):
    return {"a": element_to_json(m.a), "b": element_to_json(m.b),
            "c": element_to_json(m.c), "d": element_to_json(m.d)}


def matrix_from_json(space, data):
    keys = ("a", "b", "c", "d")
    if not isinstance(data, dict) or sorted(data) != list(keys):
        raise ValueError("matrix must be a JSON object with exactly the "
                         "entries a, b, c, d")
    return CMatrix2(*(element_from_json(space, data[key]) for key in keys))


# -- exhaustive equivalence check ------------------------------------------------


# the matrices an exhaustive run may enumerate: GF(5) [1] (390,625
# matrices) took 26 s for the vector and 31 s for the paravector
# conditions, and GF(31) [] (923,521) 75 s (2-vCPU Xeon VM shared with
# other load, Python 3.11)
MAX_EXHAUSTIVE_MATRICES = 10**6


def verify_equivalence_exhaustive(space, kind):
    """Enumerate every 2x2 matrix over C(space); report the four condition
    membership counts, whether the sets coincide, and whether T (resp. the
    paravector T) is invariant under transposition."""
    ctx = _Context(space, kind)
    if not isinstance(space.field, PrimeField):
        raise InfiniteField("exhaustive verification needs a finite field")
    p = space.field.modulus
    n_elems = p ** (2 ** space.dim)
    total = n_elems ** 4
    if total > MAX_EXHAUSTIVE_MATRICES:
        raise TooLarge(f"{total} matrices exceed the guard "
                       f"{MAX_EXHAUSTIVE_MATRICES}")

    elems = enumerate_elements(space)
    t_set = {x for x in elems if ctx.in_T(x)}
    t_star_invariant = all(ctx.tr(x) in t_set for x in t_set)

    counts = dict.fromkeys(_CONDITIONS, 0)
    sets_equal = True
    for entries in itertools.product(elems, repeat=4):
        m = CMatrix2(*entries)
        verdicts = [fn(m, ctx) for fn in _CONDITIONS.values()]
        for which, verdict in zip(_CONDITIONS, verdicts):
            counts[which] += verdict
        sets_equal = sets_equal and len(set(verdicts)) == 1
    return {
        "kind": kind,
        "matrix_count": total,
        "counts": {f"condition{k}": v for k, v in counts.items()},
        "condition_sets_equal": sets_equal,
        "T_count": len(t_set),
        "T_star_invariant": t_star_invariant,
    }
