"""Exact linear algebra over the rationals and the integers.

Everything the sign calculus needs: determinants, ranks, kernels,
linear solves, and an integer Smith normal form for lattice-image
membership.  Matrices are plain lists of lists of Fraction or int; any
other entry (a float, a string) is refused with TypeError by `_exact`,
the one type check.  The rational routines scale each row to integers,
eliminate fraction-free and build Fractions only for their results;
dimensions stay small, so straightforward elimination wins over any
heavyweight dependency.

Three private routines work in integers only and build no Fraction:
`_int_echelon` (fraction-free Gauss-Jordan of integer rows),
`_int_kernel` (the primitive integer kernel basis read off that
elimination; `nullspace` divides it out) and `_det_bareiss` (Bareiss's
determinant).  The orientation layer calls them directly, so that a
sign is read off an integer determinant without any Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _exact(values):
    """Refuse, with TypeError, any of the values that is not an int or a
    Fraction; return the values."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError("exact linear algebra needs int or Fraction "
                            "entries, got %s" % type(v).__name__)
    return values


def _integer_scaled(values):
    """The values over one denominator: (ints, d) with values[i] equal
    to ints[i] / d and d the lcm of their denominators.  The exact
    kernels run on ints and build Fractions only for their output."""
    dens = [v.denominator for v in _exact(values)]
    d = math.lcm(*dens)
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // q) for v, q in zip(values, dens)], d


def mat(rows):
    """Copy `rows` into a rectangular list-of-lists of Fractions; Fraction
    entries are kept as they are."""
    out = [[x if isinstance(x, Fraction) else Fraction(x) for x in _exact(row)]
           for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def hstack(a, b):
    if len(a) != len(b):
        raise ValueError("row count mismatch")
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def det(a):
    """Determinant of a square matrix; Fraction(0) when it is singular.

    The entries (int or Fraction) are scaled to integers row by row and
    eliminated fraction-free; the result is one Fraction.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    scaled = [_integer_scaled(row) for row in a]
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


def _int_rows(a):
    """Each row of the rational matrix `a` times the lcm of its
    denominators: a list of integer rows, each a positive multiple of
    the row of `a`."""
    return [_integer_scaled(row)[0] for row in a]


def _int_echelon(a):
    """Row-reduce the integer matrix `a`; return (integer rows, pivot
    columns).  `a` is not modified.

    Fraction-free Gauss-Jordan: rows are combined in integers and divided
    by their content.  Row i < the number of pivots has its pivot at
    pivots[i] and zeros in every other pivot column; the rows below are
    zero.
    """
    m = list(a)
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
    return m, pivots


def _echelon(a):
    """Row-reduce the rational matrix `a`; return (rref matrix of
    Fractions, pivot columns).  Each pivot row of `_int_echelon` is
    divided by its pivot once, for the output."""
    m, pivots = _int_echelon(_int_rows(a))
    cols = len(m[0]) if m else 0
    zero = Fraction(0)
    out = []
    for i, row in enumerate(m):
        if i < len(pivots):
            p = row[pivots[i]]
            out.append([Fraction(x, p) if x else zero for x in row])
        else:
            out.append([zero] * cols)
    return out, pivots


def rank(a):
    if not a or not a[0]:
        return 0
    return len(_int_echelon(_int_rows(a))[1])


def _int_kernel(m, pivots, cols):
    """Integer basis of the right kernel of a map on Q^cols, read off its
    integer echelon form (m, pivots) from `_int_echelon`.

    One vector per free column f: the primitive integer vector with a
    positive entry at f and zeros at the other free columns.  Each is a
    positive multiple of the `nullspace` vector of f.
    """
    pivot_set = set(pivots)
    scale = math.lcm(*(abs(m[r][p]) for r, p in enumerate(pivots)))
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = scale
        for r, p in enumerate(pivots):
            v[p] = -m[r][f] * (scale // m[r][p])
        g = math.gcd(*v)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def nullspace(a):
    """Basis of the right kernel, as a list of column vectors: for each
    free column, the kernel vector with a 1 there and zeros at the other
    free columns."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots = _int_echelon(_int_rows(a))
    free = [c for c in range(cols) if c not in pivots]
    return [[Fraction(x, v[f]) for x in v]
            for v, f in zip(_int_kernel(m, pivots, cols), free)]


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
