"""linalg.det against the independent Bareiss determinant."""

from opengw import linalg
from opengw.ring import PrimeField
from opengw.selfcheck import rand_matrix

from support import det_bareiss, make_rng


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


def test_det_matches_bareiss_mod_13():
    """Over GF(13) the determinant is the integer one reduced mod 13."""
    gf = PrimeField(13)
    rng = make_rng(37)
    singular = 0
    for _ in range(200):
        n = rng.randint(0, 6)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:
            # singular mod 13 only: the rows differ by 13 times a row
            i, j = rng.sample(range(n), 2)
            a[i] = [x + 13 * y for x, y in zip(a[j], a[i])]
        expected = gf(det_bareiss(a))
        singular += expected == 0
        got = linalg.det([[gf(x) for x in row] for row in a])
        assert gf(got) == expected
    assert singular >= 20
