"""Exact scalar arithmetic over Q and over GF(p) for odd primes p.

Every scalar is an immutable value tied to its field; there is no floating
point anywhere, and fields of characteristic 2 are rejected at construction.

A scalar holds a raw value: a reduced Fraction over Q, a residue in 0..p-1
over GF(p).  One Field method, `raw`, turns a Scalar of the field, an int or
a Fraction into a raw value and refuses another field's Scalar; `element`
and the Clifford layer call it, and only `Scalar._other`, which every scalar
operation runs, repeats its field check inline.  One Scalar helper, `_new`,
builds the results of +, - and *, reducing mod p over GF(p).  The only
per-field arithmetic is `_coerce` and `_div`, whose zero test and inverse
differ between the fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt


class FieldMismatch(ValueError):
    """Two scalars from different fields were combined."""


class InfiniteField(ValueError):
    """An enumeration was requested over Q."""


# Miller-Rabin with these bases decides primality exactly below the bound
# (Sorenson and Webster); the first twelve alone are exact only below
# 3.18e23
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; moduli from PRIME_BOUND up are refused."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} exceeds the supported bound "
                         f"{PRIME_BOUND}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def residue_tuples(p, n):
    """Every n-tuple of residues mod p as the base-p numerals 0, 1, ...,
    p**n - 1, last coordinate fastest: the order of itertools.product over
    range(p), without its pool of p residues."""
    digits = [0] * n
    while True:
        yield tuple(digits)
        i = n - 1
        while i >= 0 and digits[i] == p - 1:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1


def sqrt_mod(a, p):
    """The smaller square root of a mod the prime p, or None when a is not a
    square: Tonelli-Shanks (Cohen, A Course in Computational Algebraic
    Number Theory, 1993, Alg. 1.5.1) with the least non-residue, so the
    result is deterministic."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


class Field:
    """Common interface of the two supported exact fields."""

    def raw(self, value):
        """The raw value of an int, a Fraction or a Scalar of this field;
        anything else (a float, a string) is a TypeError."""
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"scalar of {value.field} used in {self}")
            return value.value
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{value!r} is not an int, a Fraction or a Scalar")
        return self._coerce(value)

    def element(self, value):
        """Coerce an int, Fraction, or Scalar of this field to a Scalar."""
        v = self.raw(value)
        return value if isinstance(value, Scalar) else Scalar(self, v)

    # scalars are never changed once built, so each field shares one 0 and 1
    @cached_property
    def zero(self):
        return self.element(0)

    @cached_property
    def one(self):
        return self.element(1)

    def parse(self, text):
        """Parse the text syntax: "n/d" or "n" over Q, a residue over GF(p).
        A denominator that is zero in the field is a ValueError."""
        try:
            return self.element(Fraction(text.strip()))
        except ZeroDivisionError:
            raise ValueError(
                f"{text!r} has a zero denominator in {self!r}") from None


class Rationals(Field):
    """The field Q, backed by arbitrary-precision fractions."""

    modulus = None

    def _coerce(self, value):
        return Fraction(value)

    def _div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def is_square(self, x):
        """x in (Q^x)^2: positive with square numerator and denominator."""
        x = self.element(x)
        if x.is_zero():
            raise ValueError("is_square is undefined at 0")
        v = x.value
        if v < 0:
            return False
        n, d = v.numerator, v.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    def elements(self):
        raise InfiniteField("Q cannot be enumerated")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("field", "Q"))

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """GF(p) for an odd prime p, residues stored reduced in 0..p-1."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.modulus = p

    def _coerce(self, value):
        if isinstance(value, Fraction):
            return self._div(value.numerator % self.modulus,
                             value.denominator % self.modulus)
        return value % self.modulus

    def _div(self, a, b):
        if b % self.modulus == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.modulus})")
        return (a * pow(b, -1, self.modulus)) % self.modulus

    def is_square(self, x):
        """Euler's criterion: x^((p-1)/2) = 1."""
        x = self.element(x)
        if x.is_zero():
            raise ValueError("is_square is undefined at 0")
        return pow(x.value, (self.modulus - 1) // 2, self.modulus) == 1

    def elements(self):
        """All p residues in the fixed order 0, 1, ..., p-1."""
        for v in range(self.modulus):
            yield Scalar(self, v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("field", self.modulus))

    def __repr__(self):
        return f"F{self.modulus}"


Q = Rationals()


def parse_field(text):
    """Parse a field descriptor: "Q", or "Fp" such as "F3"."""
    text = text.strip()
    if text == "Q":
        return Q
    if text.startswith("F") and text[1:].isdigit():
        return PrimeField(int(text[1:]))
    raise ValueError(f"unknown field descriptor {text!r}")


class Scalar:
    """An exact field element: a reduced fraction, or a residue mod p."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _other(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other.value
        if isinstance(other, (int, Fraction)):
            return self.field._coerce(other)
        return NotImplemented

    def _new(self, v):
        """The Scalar of this field with the raw value v, reduced mod p."""
        field = self.field
        p = field.modulus
        return Scalar(field, v if p is None else v % p)

    def __add__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return self._new(self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return self._new(self.value - v)

    def __rsub__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return self._new(v - self.value)

    def __mul__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return self._new(self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._div(self.value, v))

    def __rtruediv__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._div(v, self.value))

    def __neg__(self):
        return self._new(-self.value)

    def __pow__(self, n):
        out = self.field.one
        base = self
        if n < 0:
            base = base.inverse()
            n = -n
        for _ in range(n):
            out = out * base
        return out

    def inverse(self):
        return Scalar(self.field, self.field._div(1, self.value))

    def is_zero(self):
        return self.value == 0

    def is_square(self):
        return self.field.is_square(self)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return self.value == v

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"{self.value}"
