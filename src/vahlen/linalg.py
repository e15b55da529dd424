"""Exact Gaussian elimination over the scalars of fields.py.

Matrices are lists of rows of Scalars.  Everything here is small and dense;
correctness over speed.
"""

from __future__ import annotations


def _echelon(rows, ncols):
    """Row-reduce in place; return the list of pivot column indices."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix):
    if not matrix:
        return 0
    rows = [list(row) for row in matrix]
    return len(_echelon(rows, len(rows[0])))


def kernel_basis(matrix, field, ncols):
    """Basis of the right kernel {x : matrix @ x = 0} as coordinate lists."""
    rows = [list(row) for row in matrix]
    pivots = _echelon(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve(matrix, rhs, field):
    """One solution of matrix @ x = rhs, or None if inconsistent."""
    if not matrix:
        return [] if all(b.is_zero() for b in rhs) else None
    ncols = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _echelon(rows, ncols)
    for row in rows[len(pivots):]:
        if not row[-1].is_zero():
            return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][-1]
    return x


def det(matrix, field):
    """Determinant by fraction-free-enough elimination (exact divisions)."""
    n = len(matrix)
    if n == 0:
        return field.one
    rows = [list(row) for row in matrix]
    result = field.one
    for c in range(n):
        piv = None
        for i in range(c, n):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            return field.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            result = -result
        result = result * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def mat_mul(a, b, field):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = field.zero
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v, field):
    out = []
    for row in a:
        acc = field.zero
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out
