"""linalg against independent determinants, and properties of its
exact kernels on random rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opengw import linalg
from opengw.selfcheck import rand_matrix

from support import det_bareiss, det_leibniz, make_rng


def test_det_matches_bareiss_over_rationals():
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
        assert linalg.det(a) == expected
    assert linalg.det([]) == 1
    assert singular >= 20


def test_mat_converts_ints_and_keeps_fractions():
    half = Fraction(1, 2)
    out = linalg.mat([[half, 3]])
    assert out == [[half, Fraction(3)]]
    assert out[0][0] is half and type(out[0][1]) is Fraction


def test_det_of_integer_matrices_is_an_exact_fraction():
    """Plain int entries give a Fraction, never a float."""
    assert linalg.det([[-1, 0], [1, 1]]) == -1
    assert isinstance(linalg.det([[-1, 0], [1, 1]]), Fraction)
    rng = make_rng(41)
    for _ in range(200):
        n = rng.randint(0, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        got = linalg.det(a)
        assert isinstance(got, Fraction)
        assert got == det_bareiss(a)


def test_det_matches_permutation_expansion():
    """The same determinant over Q and over the integers, against an
    expansion that shares no elimination with linalg.det."""
    rng = make_rng(43)
    for _ in range(60):
        n = rng.randint(0, 6)
        rational = rand_matrix(rng, n, n)
        assert linalg.det(rational) == det_leibniz(rational)
        ints = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        assert linalg.det(ints) == det_leibniz(ints)


def test_det_refuses_a_float_entry():
    """Exact kernels take int or Fraction entries only: a float is
    refused with TypeError, as row reduction refuses it."""
    with pytest.raises(TypeError):
        linalg.det([[Fraction(1), 0.5], [0, 1]])
    with pytest.raises(TypeError):
        linalg.rank([[Fraction(1), 0.5]])


@pytest.mark.parametrize("entry", [0.5, 1.0, "1", None])
def test_mat_refuses_an_inexact_entry(entry):
    """mat converts ints and keeps Fractions, and refuses anything else
    with the TypeError of det, instead of storing the float's binary
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
    kernel = linalg.nullspace(a)
    if a:
        assert linalg.rank(a) + len(kernel) == cols
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
    consistent = linalg.rank(a) == linalg.rank(linalg.hstack(a, b))
    x = linalg.solve(a, b)
    if not consistent:
        assert x is None
        return
    assert x is not None
    assert _product(a, x, cols, len(b[0])) == b
    # the vector form returns a vector
    v = linalg.solve(a, [row[0] for row in b])
    assert [sum((row[j] * v[j] for j in range(cols)), Fraction(0))
            for row in a] == [row[0] for row in b]


@KERNEL_SETTINGS
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(matrices(rows=n, cols=n), matrices(rows=n, cols=n))))
def test_det_is_multiplicative(pair):
    a, b = pair
    n = len(a)
    det_ab = linalg.det(_product(a, b, n, n))
    assert type(det_ab) is Fraction
    assert det_ab == linalg.det(a) * linalg.det(b)
