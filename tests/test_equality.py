"""`!=` is the negation of `==` on every value type: Python derives it from
`__eq__`, so no class defines its own."""

import pytest

from vahlen.clifford import CliffordElement
from vahlen.fields import PrimeField, Q
from vahlen.groups import CMatrix2
from vahlen.halfspace import HalfSpace
from vahlen.matrices import dilation
from vahlen.quadratic import QuadraticSpace


def _space():
    return QuadraticSpace(Q, [1, -1], {(0, 1): 1})


def _element(coeff):
    return CliffordElement(_space(), {(): 1, (0, 1): coeff})


def _point(t):
    return HalfSpace(_space(), 1, "vector").regular_point([1, 0], t)


# each maker builds equal values from equal arguments, built afresh so that
# no pair is one object
MAKERS = {
    "Field": (PrimeField, 3, 5),
    "QuadraticSpace": (lambda a: QuadraticSpace(Q, [1, a]), -1, 2),
    "Vector": (lambda a: _space().vector([1, a]), 2, 3),
    "CliffordElement": (_element, 2, 3),
    "CMatrix2": (lambda a: dilation(_space(), a), 2, 3),
    "HPoint": (_point, 1, 2),
}


@pytest.mark.parametrize("name", MAKERS)
def test_ne_negates_eq(name):
    make, a, b = MAKERS[name]
    x = make(a)
    assert not any("__ne__" in vars(cls) for cls in type(x).__mro__[:-1])
    for y in (make(a), make(b), "foreign", None):
        assert (x != y) == (not (x == y))
        assert (y != x) == (not (y == x))
    assert x == make(a) and x != make(b) and x != "foreign"
