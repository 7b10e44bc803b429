"""Exact linear algebra over the rationals and the integers.

Everything the sign calculus and the lattice need: integer determinants
and kernels, linear solves, and `in_integer_span`, which decides whether
an integer vector lies in the integer span of others (closed-image
membership).  Matrices are plain lists of lists of Fraction or int; any
other entry (a float, a string, a bool) is refused with TypeError by
`_exact`, the one type check.  The rational routines scale each row to
integers, eliminate fraction-free and build Fractions only for their
results; dimensions stay small, so straightforward elimination wins over
any heavyweight dependency.

Three private routines work in integers only and build no Fraction:
`_int_echelon` (fraction-free Gauss-Jordan of integer rows, with the
sign of the determinant of its row operations), `_int_kernel` (the
primitive integer kernel basis read off that elimination) and
`_det_bareiss` (Bareiss's determinant), the one determinant.  The
orientation and tree-sum layers call them directly and build no
Fraction: an orientation sign is read off a problem's one elimination
and a Bareiss determinant the size of its fiber, a tree sum off a
Bareiss cofactor.
"""

from __future__ import annotations

import math
from fractions import Fraction


_EXACT_TYPES = frozenset((int, Fraction))
_INT_TYPE = frozenset((int,))


def _exact(values):
    """Refuse, with TypeError, any of the values whose type is not int
    or Fraction; return the values.  So a bool, a subclass of int, is
    refused too, as the input loaders refuse a boolean rational."""
    if not _EXACT_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT_TYPES)
        raise TypeError("exact linear algebra needs int or Fraction "
                        "entries, got %s" % type(bad).__name__)
    return values


def _integer_scaled(values):
    """The values over one denominator: (ints, d) with values[i] equal
    to ints[i] / d and d the lcm of their denominators.  The exact
    kernels run on ints and build Fractions only for their output.
    All-int values are copied as they are; any inexact value is refused
    by `_exact`."""
    if _INT_TYPE.issuperset(map(type, values)):
        return list(values), 1
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


def _det_bareiss(m):
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (every division is exact); `m` is overwritten.  A row
    whose entry below the pivot p is zero is only rescaled by p / prev,
    and left alone when p = prev; nothing is divided while prev is 1."""
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
            if f:
                if prev == 1:
                    row[k + 1:] = [p * x - f * y
                                   for x, y in zip(row[k + 1:], pivot_row)]
                else:
                    row[k + 1:] = [(p * x - f * y) // prev
                                   for x, y in zip(row[k + 1:], pivot_row)]
            elif p != prev:
                row[k + 1:] = [p * x // prev for x in row[k + 1:]]
        prev = p
    return sign * m[n - 1][n - 1]


def _int_rows(a):
    """Each row of the rational matrix `a` times the lcm of its
    denominators: a list of integer rows, each a positive multiple of
    the row of `a`."""
    return [_integer_scaled(row)[0] for row in a]


def _int_echelon(a):
    """Row-reduce the integer matrix `a`; return (integer rows, pivot
    columns, sign).  `a` is not modified.

    Fraction-free Gauss-Jordan: rows are combined in integers and divided
    by their content.  Row i < the number of pivots has its pivot at
    pivots[i] and zeros in every other pivot column; the rows below are
    zero.  The rows are E a for an invertible E, and sign is the sign of
    det E: a row swap negates it, and the update of a row to
    (p row - f pivot row) / g, g > 0, multiplies det E by p / g.
    """
    m = list(a)
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots = []
    sign = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(m[i], pivot_row)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
                if p < 0:
                    sign = -sign
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots, sign


def _echelon(a):
    """Row-reduce the rational matrix `a`; return (rref matrix of
    Fractions, pivot columns).  Each pivot row of `_int_echelon` is
    divided by its pivot once, for the output."""
    m, pivots, _ = _int_echelon(_int_rows(a))
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


def _int_kernel(m, pivots, cols):
    """Integer basis of the right kernel of a map on Q^cols, read off its
    integer echelon form (m, pivots) from `_int_echelon`.

    One vector per free column f: the primitive integer vector with a
    positive entry at f and zeros at the other free columns, a positive
    multiple of the rational kernel vector with a 1 at f.
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


def solve(a, b):
    """One solution X of A X = B, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    wide = hstack(a, b) if a else b
    red, pivots = _echelon(wide) if wide else ([], [])
    if any(p >= cols for p in pivots):
        return None
    k = len(b[0]) if b else 0
    x = zeros(cols, k)
    for r, p in enumerate(pivots):
        for j in range(k):
            x[p][j] = red[r][cols + j]
    # rows below the pivots must be consistent
    for r in range(len(pivots), rows):
        if any(red[r][cols + j] != 0 for j in range(k)):
            return None
    return x


def in_integer_span(vectors, b):
    """Whether the integer vector b is an integer combination of the
    integer vectors (all of b's length); the empty span holds only zero.

    One coordinate at a time, Euclid's algorithm on the vectors' entries
    there leaves one vector holding their gcd and zeros in the others.
    Its steps are unimodular, so the span is unchanged.  b must then be
    a multiple of that vector at that coordinate; the multiple is
    subtracted and the vector set aside, since the others are zero at
    every coordinate done.  b is in the span exactly when every
    coordinate clears.
    """
    vecs = [list(v) for v in vectors]
    b = list(b)
    for i in range(len(b)):
        live = [v for v in vecs if v[i]]
        while len(live) > 1:
            p = min(live, key=lambda v: abs(v[i]))
            for v in live:
                if v is not p:
                    q = v[i] // p[i]
                    v[:] = [x - q * y for x, y in zip(v, p)]
            live = [v for v in live if v[i]]
        if not live:
            if b[i]:
                return False
            continue
        p = live[0]
        q, r = divmod(b[i], p[i])
        if r:
            return False
        b = [x - q * y for x, y in zip(b, p)]
        vecs = [v for v in vecs if not v[i]]
    return True
