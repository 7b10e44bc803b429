"""Exact linear algebra over the rationals and the integers.

Everything the sign calculus needs: determinants, kernels, one-sided
inverses, and an integer Smith normal form for lattice-image membership.
Matrices are plain lists of lists of Fraction or int.  The rational
routines scale each row to integers, eliminate fraction-free and build
Fractions only for their results; dimensions stay small, so
straightforward elimination wins over any heavyweight dependency.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .ring import integer_scaled


def mat(rows):
    """Copy `rows` into a rectangular list-of-lists of Fractions; Fraction
    entries are kept as they are."""
    out = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
           for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def product_is_zero(a, b):
    """Whether the product of the rational matrices a and b is zero.

    Each row of a and each column of b is scaled to integers; a positive
    scale does not change whether a dot product vanishes, so only
    integer dot products are formed.
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch %dx%d @ %dx%d"
                         % (len(a), len(a[0]), len(b), len(b[0])))
    rows = [integer_scaled(row)[0] for row in a]
    cols = [integer_scaled(col)[0] for col in zip(*b)]
    return all(sum(map(mul, row, col)) == 0 for row in rows for col in cols)


def hstack(a, b):
    if len(a) != len(b):
        raise ValueError("row count mismatch")
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def det(a):
    """Determinant of a square matrix; Fraction(0) when it is singular.

    Rational entries (int or Fraction) are scaled to integers row by row
    and eliminated fraction-free; the result is one Fraction.  Entries
    from any other field whose elements compare with 0 (`ring.PrimeField`
    elements) go through plain Gaussian elimination.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    scaled = [integer_scaled(row) for row in a]
    if None in scaled:
        return _det_field(a)
    return Fraction(_det_bareiss([ints for ints, _ in scaled]),
                    math.prod(d for _, d in scaled))


def _det_bareiss(m):
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (every division is exact); `m` is overwritten."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot_row = m[k][k + 1:]
        p = m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev
                           for x, y in zip(row[k + 1:], pivot_row)]
        prev = p
    return sign * m[n - 1][n - 1]


def _det_field(a):
    """Determinant by Gaussian elimination over a field."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / pv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    result = Fraction(sign)
    for i in range(n):
        result *= m[i][i]
    return result


def _echelon(a):
    """Row-reduce the rational matrix `a`; return (rref matrix of
    Fractions, pivot columns).

    Fraction-free Gauss-Jordan: each row is scaled to integers, rows are
    combined in integers and divided by their content, and each pivot
    row is divided by its pivot once, for the output.
    """
    m = []
    for row in a:
        scaled = integer_scaled(row)
        if scaled is None:
            raise TypeError("row reduction needs int or Fraction entries")
        m.append(scaled[0])
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(m[i], pivot_row)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    zero = Fraction(0)
    out = []
    for i, row in enumerate(m):
        if i < r:
            p = row[pivots[i]]
            out.append([Fraction(x, p) if x else zero for x in row])
        else:
            out.append([zero] * cols)
    return out, pivots


def rank(a):
    if not a or not a[0]:
        return 0
    return len(_echelon(a)[1])


def nullspace(a):
    """Basis of the right kernel, as a list of column vectors."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = _echelon(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution X of A X = B, or None if inconsistent.

    `b` may be a matrix or a single vector (returned in kind).
    """
    vector = b and not isinstance(b[0], list)
    bm = [[x] for x in b] if vector else [row[:] for row in b]
    rows = len(a)
    cols = len(a[0]) if a else 0
    wide = hstack(a, bm) if a else bm
    red, pivots = _echelon(wide) if wide else ([], [])
    if any(p >= cols for p in pivots):
        return None
    k = len(bm[0]) if bm else 0
    x = zeros(cols, k)
    for r, p in enumerate(pivots):
        for j in range(k):
            x[p][j] = red[r][cols + j]
    # rows below the pivots must be consistent
    for r in range(len(pivots), rows):
        if any(red[r][cols + j] != 0 for j in range(k)):
            return None
    return [row[0] for row in x] if vector else x


def right_inverse(a):
    """A matrix J with A J = I; None when A is not surjective."""
    return solve(a, identity(len(a)))


def columns_matrix(vectors):
    """Stack column vectors into a matrix."""
    if not vectors:
        return []
    n = len(vectors[0])
    return [[v[i] for v in vectors] for i in range(n)]


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u a v = d, u and v unimodular and d diagonal
    with d[i][i] | d[i+1][i+1].
    """
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        # move a nonzero entry of minimal magnitude to (t, t)
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = -(m[i][t] // m[t][t])
                add_row(t, i, q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = -(m[t][j] // m[t][t])
                add_col(t, j, q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: fold in any entry the pivot does not divide
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return m, u, v


def integer_solve(a, b):
    """One integer solution x of A x = b, or None."""
    d, u, v = smith_normal_form(a)
    rows = len(a)
    cols = len(a[0]) if a else 0
    c = [sum(u[i][k] * int(b[k]) for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(min(rows, cols)):
        if d[i][i] != 0:
            if c[i] % d[i][i] != 0:
                return None
            y[i] = c[i] // d[i][i]
        elif c[i] != 0:
            return None
    for i in range(min(rows, cols), rows):
        if c[i] != 0:
            return None
    return [sum(v[i][k] * y[k] for k in range(cols)) for i in range(cols)]
