"""linalg against independent determinants, properties of its exact
kernels on random rational matrices, and its integer span membership
against the minors criterion."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opengw import linalg
from opengw.selfcheck import rand_matrix

from support import det, det_bareiss, det_leibniz, make_rng, nullspace, rank


def test_det_matches_bareiss_over_rationals():
    """_det_bareiss of a rational matrix with each row scaled to
    integers is the Fraction Bareiss determinant times the product of
    the row scales."""
    rng = make_rng(31)
    singular = 0
    for _ in range(200):
        n = rng.randint(0, 6)
        a = rand_matrix(rng, n, n)
        if n >= 2 and rng.random() < 0.3:
            # one row a multiple of another
            i, j = rng.sample(range(n), 2)
            scale = rng.randint(-2, 2)
            a[i] = [scale * x for x in a[j]]
        expected = det_bareiss(a)
        singular += expected == 0
        scaled = [linalg._integer_scaled(row) for row in a]
        got = linalg._det_bareiss([ints for ints, _ in scaled])
        assert got == expected * math.prod(d for _, d in scaled)
    assert linalg._det_bareiss([]) == 1
    assert singular >= 20


def test_mat_converts_ints_and_keeps_fractions():
    half = Fraction(1, 2)
    out = linalg.mat([[half, 3]])
    assert out == [[half, Fraction(3)]]
    assert out[0][0] is half and type(out[0][1]) is Fraction


def test_det_of_integer_matrices_is_an_exact_integer():
    """Integer entries give an int, never a float or a Fraction."""
    assert linalg._det_bareiss([[-1, 0], [1, 1]]) == -1
    rng = make_rng(41)
    for _ in range(200):
        n = rng.randint(0, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        got = linalg._det_bareiss([row[:] for row in a])
        assert type(got) is int
        assert got == det_bareiss(a)


def test_det_matches_permutation_expansion():
    """The same determinant over Q and over the integers, against an
    expansion that shares no elimination with linalg._det_bareiss."""
    rng = make_rng(43)
    for _ in range(60):
        n = rng.randint(0, 6)
        rational = rand_matrix(rng, n, n)
        assert det(rational) == det_leibniz(rational)
        ints = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        assert linalg._det_bareiss([row[:] for row in ints]) \
            == det_leibniz(ints)


def test_exact_kernels_refuse_a_float_entry():
    """Exact kernels take int or Fraction entries only: a float is
    refused with TypeError by the scaling to integers and by row
    reduction."""
    with pytest.raises(TypeError):
        linalg._int_rows([[Fraction(1), 0.5], [0, 1]])
    with pytest.raises(TypeError, match="int or Fraction"):
        linalg._int_rows([[True]])  # a bool is an int subclass, not a number here
    with pytest.raises(TypeError):
        linalg.solve([[Fraction(1), 0.5]], [[1]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_echelon_sign_is_that_of_its_row_operations(a):
    """For a square integer A of full rank the echelon rows E A are
    diagonal, so the sign `_int_echelon` returns for det E is the sign
    of the product of the pivots times that of det A."""
    det_a = linalg._det_bareiss([row[:] for row in a])
    if det_a == 0:
        return
    rows, pivots, sign = linalg._int_echelon(a)
    assert pivots == list(range(len(a)))
    product = math.prod(rows[i][p] for i, p in enumerate(pivots))
    assert sign == (1 if product > 0 else -1) * (1 if det_a > 0 else -1)


@pytest.mark.parametrize("entry", [0.5, 1.0, "1", None, True, False])
def test_mat_refuses_an_inexact_entry(entry):
    """mat converts ints and keeps Fractions, and refuses anything else
    with the TypeError of `_exact`, instead of storing the float's binary
    expansion as a Fraction."""
    with pytest.raises(TypeError, match="int or Fraction"):
        linalg.mat([[Fraction(1), entry]])


# --- properties of the kernels ------------------------------------------------

# the rationals p/q with |p| <= 5, 1 <= q <= 4; zero about one time in four
SMALL_RATIONALS = sorted({Fraction(p, q) for p in range(-5, 6)
                          for q in range(1, 5)})
ENTRY = st.sampled_from([Fraction(0)] * 10 + SMALL_RATIONALS)


@st.composite
def matrices(draw, rows=None, cols=None):
    """A rational matrix of shape 0-6 x 0-7 (or the shape given), with
    zero rows, zero columns and repeated rows drawn often enough to make
    singular cases common."""
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 7)) if cols is None else cols
    flat = draw(st.lists(ENTRY, min_size=r * c, max_size=r * c))
    a = [flat[i * c:(i + 1) * c] for i in range(r)]
    if r and draw(st.booleans()):
        a[draw(st.integers(0, r - 1))] = [Fraction(0)] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in a:
            row[j] = Fraction(0)
    if r >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(r)))[:2]
        scale = draw(ENTRY)
        a[i] = [scale * x for x in a[j]]
    return a


def _product(a, b, inner, cols):
    """a (any x inner) times b (inner x cols), shapes given so that empty
    matrices keep them."""
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@KERNEL_SETTINGS
@given(matrices())
def test_echelon_is_a_reduced_row_echelon_form_of_its_input(a):
    red, pivots = linalg._echelon(a)
    cols = len(a[0]) if a else 0
    assert len(red) == len(a)
    assert all(type(x) is Fraction for row in red for x in row)
    assert pivots == sorted(set(pivots))
    for r, row in enumerate(red):
        if r >= len(pivots):
            assert all(x == 0 for x in row)
            continue
        p = pivots[r]
        assert row[p] == 1
        assert all(x == 0 for x in row[:p])
        assert all(red[i][p] == 0 for i in range(len(red)) if i != r)
    # every input row is the combination of the rref rows given by its
    # own pivot-column entries
    for row in a:
        combo = [sum((row[p] * red[r][j] for r, p in enumerate(pivots)),
                     Fraction(0)) for j in range(cols)]
        assert combo == row


@KERNEL_SETTINGS
@given(matrices())
def test_rank_and_nullspace(a):
    cols = len(a[0]) if a else 0
    kernel = nullspace(a)
    if a:
        assert rank(a) + len(kernel) == cols
    for v in kernel:
        assert all(type(x) is Fraction for x in v)
        assert all(sum((x * y for x, y in zip(row, v)), Fraction(0)) == 0
                   for row in a)


@st.composite
def systems(draw):
    """(A, B): B is A times a drawn X half of the time (a consistent
    system), otherwise drawn freely."""
    a = draw(matrices())
    rows, cols = len(a), (len(a[0]) if a else 0)
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        x = draw(matrices(rows=cols, cols=k))
        b = _product(a, x, cols, k)
    else:
        b = draw(matrices(rows=rows, cols=k))
    return a, b


@KERNEL_SETTINGS
@given(systems())
def test_solve_exactly_when_consistent(system):
    a, b = system
    if not a:
        return
    cols = len(a[0])
    consistent = rank(a) == rank(linalg.hstack(a, b))
    x = linalg.solve(a, b)
    if not consistent:
        assert x is None
        return
    assert x is not None
    assert _product(a, x, cols, len(b[0])) == b


@KERNEL_SETTINGS
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(matrices(rows=n, cols=n), matrices(rows=n, cols=n))))
def test_det_is_multiplicative(pair):
    a, b = pair
    n = len(a)
    det_ab = det(_product(a, b, n, n))
    assert type(det_ab) is Fraction
    assert det_ab == det(a) * det(b)


# --- integer span membership ---------------------------------------------------


def _rank_and_minors_gcd(a, rows, cols):
    """(k, d): k the rank of the integer matrix `a` (rows x cols) and d
    the gcd of its k x k minors, each minor a permutation expansion; a
    0 x 0 minor is 1."""
    for k in range(min(rows, cols), -1, -1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, det_leibniz([[a[r][c] for c in cs]
                                             for r in rs]))
        if d:
            return k, d


@st.composite
def spans(draw):
    """(Q, b, the column count of Q, whether b = Q x): an integer matrix
    Q of shape 0-4 x 0-4, with entries |x| <= 4, a zero column or a multiple of another
    column drawn often enough to make rank-deficient Q common, and b = Q x
    for a drawn integer x half of the time, otherwise drawn freely."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.integers(-4, 4)
    q = [draw(st.lists(entry, min_size=cols, max_size=cols))
         for _ in range(rows)]
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        if draw(st.booleans()):
            for row in q:
                row[j] = 0
        else:
            k = draw(st.integers(0, cols - 1))
            scale = draw(entry)
            for row in q:
                row[j] = scale * row[k]
    image = draw(st.booleans())
    if image:
        x = draw(st.lists(entry, min_size=cols, max_size=cols))
        b = [sum(map(operator.mul, row, x)) for row in q]
    else:
        b = draw(st.lists(entry, min_size=rows, max_size=rows))
    return q, b, cols, image


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spans())
def test_integer_span_matches_the_minors_criterion(span):
    """b is in the integer span of Q's columns exactly when Q and [Q | b]
    have the same rank k and the same gcd of k x k minors; every b = Q x
    is inside."""
    q, b, cols, image = span
    got = linalg.in_integer_span([[row[j] for row in q] for j in range(cols)],
                                 b)
    assert got or not image
    wide = [row + [x] for row, x in zip(q, b)]
    assert got == (_rank_and_minors_gcd(q, len(q), cols)
                   == _rank_and_minors_gcd(wide, len(q), cols + 1))
