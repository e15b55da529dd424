"""Exact field arithmetic over Q and GF(p)."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vahlen.fields import (PRIME_BOUND, FieldMismatch, InfiniteField,
                           PrimeField, Q, Scalar, _is_prime, parse_field,
                           residue_tuples, sqrt_mod)

F3 = PrimeField(3)
F5 = PrimeField(5)

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


def test_rational_arithmetic():
    assert Q.parse("1/2") + Q.parse("1/3") == Q.parse("5/6")
    assert Q.parse("1/2") - Q.parse("1/3") == Q.parse("1/6")
    assert Q.parse("-2") * Q.parse("3/4") == Q.parse("-3/2")
    assert Q.parse("1/2") / Q.parse("1/3") == Q.parse("3/2")
    assert -Q.parse("2/4") == Q.parse("-1/2")


def test_prime_field_arithmetic():
    two = F3.element(2)
    assert two * two == F3.element(1)
    assert F5.element(2).inverse() == F5.element(3)
    assert F3.element(1) + F3.element(2) == F3.zero
    assert (F5.element(4) / F5.element(3)) * F5.element(3) == F5.element(4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q.one / Q.zero
    with pytest.raises(ZeroDivisionError):
        F3.element(2) / F3.zero
    with pytest.raises(ZeroDivisionError):
        F3.zero.inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F3.one + F5.one
    with pytest.raises(FieldMismatch):
        Q.one * F3.one


TABLE_FIELDS = (Q, F3, F5)
TABLE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv}
# numerators and denominators are units mod 5; -3/4 is 0 in GF(3)
TABLE_NUMBERS = (0, 1, -2, 7, Fraction(1, 2), Fraction(-3, 4))


def _residue(field, q):
    """Reference raw value of the rational q: q itself over Q, its residue
    mod p over GF(p)."""
    q = Fraction(q)
    if field.modulus is None:
        return q
    p = field.modulus
    return q.numerator * pow(q.denominator, -1, p) % p


def _reference(field, name, a, b):
    """Reference raw value of a <name> b on raw values a and b."""
    if field.modulus is None:
        return TABLE_OPS[name](a, b)
    p = field.modulus
    if name == "/":
        return a * pow(b, -1, p) % p
    return TABLE_OPS[name](a, b) % p


def _operands(field, b):
    """b as a Scalar of the field, as an int when it is one, and as a
    Fraction."""
    out = [field.element(b), Fraction(b)]
    if isinstance(b, int):
        out.append(b)
    return out


def _check_scalar(field, got, want):
    assert isinstance(got, Scalar) and got.field == field
    assert got.value == want
    assert type(got.value) is (Fraction if field.modulus is None else int)


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_scalar_operator_table(field):
    """Every binary operator in both operand orders, with Scalar, int and
    Fraction operands, and unary minus, against raw references."""
    for a in TABLE_NUMBERS:
        x, ra = field.element(a), _residue(field, a)
        _check_scalar(field, -x, _reference(field, "-", 0, ra))
        for b in TABLE_NUMBERS:
            rb = _residue(field, b)
            for y in _operands(field, b):
                for name, op in TABLE_OPS.items():
                    for left, right, u, v in ((x, y, ra, rb), (y, x, rb, ra)):
                        if name == "/" and v == 0:
                            with pytest.raises(ZeroDivisionError):
                                op(left, right)
                        else:
                            _check_scalar(field, op(left, right),
                                          _reference(field, name, u, v))


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_scalar_equality_table(field):
    one, two = field.element(1), field.element(2)
    for same in (field.element(1), 1, Fraction(1)):
        assert one == same and same == one
        assert not one != same and not same != one
    for other in (two, 2, Fraction(2)):
        assert one != other and other != one
        assert not one == other and not other == one


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_scalar_operators_refuse_another_field(field):
    ops = (*TABLE_OPS.values(), operator.eq, operator.ne)
    for other in TABLE_FIELDS:
        if other == field:
            continue
        x, y = field.element(2), other.element(2)
        for op in ops:
            with pytest.raises(FieldMismatch):
                op(x, y)
            with pytest.raises(FieldMismatch):
                op(y, x)


def test_scalar_against_a_foreign_object():
    assert (Q.one == "1") is False
    assert (Q.one != "1") is True


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_raw_coerces_scalars_ints_and_fractions(field):
    for a in TABLE_NUMBERS:
        for value in _operands(field, a):
            assert field.raw(value) == _residue(field, a)
        x = field.element(a)
        assert field.element(x) is x
    for other in TABLE_FIELDS:
        if other != field:
            with pytest.raises(FieldMismatch):
                field.raw(other.one)
            with pytest.raises(FieldMismatch):
                field.element(other.one)


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
@pytest.mark.parametrize("value", [1.5, "1/2", None, 1j],
                         ids=["float", "str", "None", "complex"])
def test_raw_refuses_other_types(field, value):
    """Only a Scalar, an int or a Fraction is a value: a float, a string,
    None or a complex is a TypeError wherever a value is coerced."""
    with pytest.raises(TypeError, match="not an int, a Fraction or a Scalar"):
        field.raw(value)
    with pytest.raises(TypeError, match="not an int, a Fraction or a Scalar"):
        field.element(value)


def test_characteristic_two_and_composite_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_primality_is_exact_and_bounded():
    assert PrimeField(2**61 - 1).modulus == 2**61 - 1
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(2**61 + 1)
    with pytest.raises(ValueError, match="exceeds"):
        PrimeField(PRIME_BOUND + 2)
    # strong pseudoprime to every prime base up to 37
    assert not _is_prime(318665857834031151167461)
    # trial division as the reference
    for n in range(3000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))


def test_parse_and_format():
    assert parse_field("Q") == Q
    assert parse_field("F7") == PrimeField(7)
    with pytest.raises(ValueError):
        parse_field("R")
    assert str(Q.parse("2/4")) == "1/2"
    assert str(F5.parse("-1")) == "4"
    assert str(F5.parse("7")) == "2"


def test_zero_and_one_built_once_per_field():
    for field in (Q, F3, PrimeField(3)):
        assert field.zero is field.zero and field.one is field.one
        assert (field.zero.value, field.one.value) == (0, 1)
    assert type(Q.zero.value) is Fraction


def test_enumeration():
    assert [s.value for s in F3.elements()] == [0, 1, 2]
    assert [s.value for s in F5.elements()] == [0, 1, 2, 3, 4]
    with pytest.raises(InfiniteField):
        list(Q.elements())


@pytest.mark.parametrize("field", [F3, F5])
def test_field_axioms_exhaustive(field):
    """Associativity, distributivity, inverses, exhaustively over GF(p)."""
    elems = list(field.elements())
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
            for z in elems:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
    for x in elems:
        assert x + (-x) == field.zero
        if not x.is_zero():
            assert x * x.inverse() == field.one


@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    x, y, z = Q.element(a), Q.element(b), Q.element(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero():
        assert (x / y) * y == x


def test_is_square_examples():
    assert Q.parse("4/9").is_square()
    assert not Q.parse("-4").is_square()
    assert not Q.parse("2").is_square()
    assert not F3.element(2).is_square()
    with pytest.raises(ValueError):
        Q.zero.is_square()


def test_is_square_matches_enumeration_oracle():
    # oracle: the set of squares of GF(p), built by brute force
    for field in (F3, F5, PrimeField(7)):
        squares = {(s * s).value for s in field.elements()
                   if not s.is_zero()}
        for x in field.elements():
            if x.is_zero():
                continue
            assert x.is_square() == (x.value in squares)
        # spot value: -1 is a square mod 5
        if field.modulus == 5:
            assert field.element(-1).is_square()


@pytest.mark.parametrize("field", [F3, F5, PrimeField(11)])
def test_square_class_group_has_order_two(field):
    """is_square(xy) = is_square(x) XNOR is_square(y) over prime fields."""
    nonzero = [x for x in field.elements() if not x.is_zero()]
    for x in nonzero:
        for y in nonzero:
            assert (x * y).is_square() == (x.is_square() == y.is_square())


def test_scalar_hash_and_pow():
    assert hash(F5.element(7)) == hash(F5.element(2))
    assert Q.element(Fraction(1, 2)) ** 3 == Q.parse("1/8")
    assert F3.element(2) ** -1 == F3.element(2)


def test_sqrt_mod_matches_brute_force():
    """For every prime p < 200 and every residue: None exactly for the
    non-squares, otherwise the smaller root."""
    for p in (n for n in range(2, 200) if _is_prime(n)):
        roots = {}
        for x in range(p):
            roots.setdefault(x * x % p, x)
        for a in range(p):
            assert sqrt_mod(a, p) == roots.get(a)
        assert sqrt_mod(a + 5 * p, p) == roots.get(a)


def test_sqrt_mod_large_prime():
    p = 2 ** 61 - 1
    for a in (2, 3, 10 ** 12, p - 2):
        r = sqrt_mod(a, p)
        assert r is None or (r * r % p == a % p and r <= p - r)
    assert sqrt_mod(p - 1, p) is None  # p = 3 mod 4
    assert sqrt_mod(4, p) == 2


def test_residue_tuples_in_numeral_order():
    for p, n in ((3, 0), (3, 1), (3, 3), (5, 2), (2, 4)):
        assert list(residue_tuples(p, n)) == \
            list(itertools.product(range(p), repeat=n))
    # lazy: a 61-bit modulus yields its first numerals at once
    head = list(itertools.islice(residue_tuples(2 ** 61 - 1, 2), 3))
    assert head == [(0, 0), (0, 1), (0, 2)]
