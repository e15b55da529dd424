"""Matrix helpers that only the tests use: the identity, invertibility,
reflections and the orthogonality predicate, on lists of rows of Scalars.
The file name lacks ``test_``, so pytest does not collect it."""

from vahlen import linalg
from vahlen.quadratic import Vector


def identity_matrix(n, field):
    return [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]


def is_invertible(matrix):
    n = len(matrix)
    return n == 0 or (len(matrix[0]) == n and linalg.rank(matrix) == n)


def r1_matrix(space):
    """The reflection in 1 on F + V: negate the scalar slot."""
    mat = identity_matrix(space.dim + 1, space.field)
    mat[0][0] = -mat[0][0]
    return mat


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
    if not is_invertible(mat):
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
