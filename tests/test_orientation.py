"""Sign calculus against the explicit determinant model."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from opengw import linalg
from opengw.orientation import (
    FACE_G,
    FACE_M,
    LinearFiberProblem,
    OrientationError,
    OrientedSpace,
    TransversalityError,
    association_sign,
    boundary_face_sign,
    fiber_orientation_sign,
    flip_sign,
)
from opengw.selfcheck import (
    association_oracle,
    boundary_face_oracle,
    flip_oracle,
    rand_matrix,
    random_fiber_problem,
    sign_of,
)

from support import (
    combined_map,
    det_bareiss,
    exact_sequence_sign,
    make_rng,
    nullspace,
    rank,
    reference_fiber_orientation_sign,
    right_inverse,
    transpose,
)


# --- exact_sequence_sign -------------------------------------------------


def test_ses_identity_case():
    sub = OrientedSpace(0, 1)
    total = OrientedSpace(3, 1)
    quotient = OrientedSpace(3, 1)
    assert exact_sequence_sign(sub, total, quotient, linalg.identity(3)) == 1


def test_ses_flipped_total():
    sub = OrientedSpace(0, 1)
    total = OrientedSpace(3, -1)
    quotient = OrientedSpace(3, 1)
    assert exact_sequence_sign(sub, total, quotient, linalg.identity(3)) == -1


def test_ses_rejects_dimension_mismatch():
    with pytest.raises(OrientationError):
        exact_sequence_sign(
            OrientedSpace(2), OrientedSpace(4), OrientedSpace(3), linalg.identity(4)
        )


def test_ses_rejects_non_splitting():
    # bottom block of the splitting must be the identity of the quotient
    bad = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(OrientationError):
        exact_sequence_sign(OrientedSpace(1), OrientedSpace(3), OrientedSpace(2), bad)


def test_ses_random_instance_matches_determinant_oracle():
    """2-in-5-onto-3 instances: sign equals the assembled 5x5 determinant
    sign, recomputed independently by Bareiss elimination."""
    rng = make_rng(20240917)
    for _ in range(60):
        incl = rand_matrix(rng, 5, 2)
        split = rand_matrix(rng, 5, 3)
        assembled = [list(a) + list(b) for a, b in zip(incl, split)]
        d = det_bareiss(assembled)
        signs = [rng.choice((1, -1)) for _ in range(3)]
        sub = OrientedSpace(2, signs[0])
        total = OrientedSpace(5, signs[1])
        quotient = OrientedSpace(3, signs[2])
        if d == 0:
            with pytest.raises(OrientationError):
                exact_sequence_sign(sub, total, quotient, split, inclusion=incl)
            continue
        got = exact_sequence_sign(sub, total, quotient, split, inclusion=incl)
        assert got == sign_of(d) * signs[0] * signs[1] * signs[2]


def test_ses_composition_is_multiplicative():
    """Sign of a concatenated pair of nested sequences is the product of
    the two individual signs when the big quotient carries the induced
    orientation."""
    rng = make_rng(7)
    for _ in range(40):
        a = rng.randint(0, 2)
        b = rng.randint(a + 1, a + 3)
        c = rng.randint(b + 1, b + 3)
        s = {k: rng.choice((1, -1)) for k in ("W", "V", "U", "VW", "UV")}
        split1 = rand_matrix(rng, b, b - a)
        for i in range(b - a):
            for j in range(b - a):
                split1[a + i][j] = Fraction(int(i == j))
        split2 = rand_matrix(rng, c, c - b)
        for i in range(c - b):
            for j in range(c - b):
                split2[b + i][j] = Fraction(int(i == j))
        sign1 = exact_sequence_sign(
            OrientedSpace(a, s["W"]), OrientedSpace(b, s["V"]),
            OrientedSpace(b - a, s["VW"]), split1,
        )
        sign2 = exact_sequence_sign(
            OrientedSpace(b, s["V"]), OrientedSpace(c, s["U"]),
            OrientedSpace(c - b, s["UV"]), split2,
        )
        # concatenated splitting of 0 -> W -> U -> U/W -> 0
        split12 = [
            [split1[i][j] if i < b else Fraction(0) for j in range(b - a)]
            + [split2[i][j - (b - a)] if j >= b - a else Fraction(0)
               for j in range(b - a, c - a)]
            for i in range(c)
        ]
        incl = [[Fraction(int(i == j)) for j in range(a)] for i in range(c)]
        sign12 = exact_sequence_sign(
            OrientedSpace(a, s["W"]), OrientedSpace(c, s["U"]),
            OrientedSpace(c - a, s["VW"] * s["UV"]), split12, inclusion=incl,
        )
        assert sign12 == sign1 * sign2


# --- fiber_orientation_sign ----------------------------------------------


def test_fiber_point_target_gives_product_orientation():
    prob = LinearFiberProblem.build([], [], 2, 1, 0)
    assert fiber_orientation_sign(prob, linalg.identity(3)) == 1
    neg = LinearFiberProblem.build([], [], 2, 1, 0, sign_g=-1)
    assert fiber_orientation_sign(neg, linalg.identity(3)) == -1


def test_fiber_rigid_even_target_sign_is_det_df():
    # dim M = dim X even, G a plus point: the rigid fiber point carries
    # the sign of det(df)
    rng = make_rng(11)
    for _ in range(25):
        df = rand_matrix(rng, 2, 2)
        if det_bareiss(df) == 0:
            continue
        prob = LinearFiberProblem.build(df, [[], []], 2, 0, 2)
        assert fiber_orientation_sign(prob, []) == sign_of(det_bareiss(df))


def test_fiber_rigid_odd_target_flips():
    # odd-dimensional X contributes the extra (-1)^{dim X}; forced by the
    # defining exact sequence with the map dg - df = -df
    df = [[Fraction(1)]]
    prob = LinearFiberProblem.build(df, [[]], 1, 0, 1)
    assert fiber_orientation_sign(prob, []) == -1


@pytest.mark.parametrize("candidate", [
    [[5, 7]], "xyz", [[1.5], [2]], [[Fraction(3, 2)], [2]], [[], [], []],
    [[]], [[], []]], ids=["one-row", "string", "float-column",
                          "fraction-column", "three-empty-rows",
                          "one-empty-row", "two-empty-rows"])
def test_rigid_fiber_refuses_a_candidate_of_the_wrong_shape(candidate):
    """A rigid fiber (fiber_dim 0) is oriented by [], its zero vectors,
    and nothing else: any vector, even an empty one, is refused, not
    given the sign of the point; so are n empty rows, the column form."""
    prob = LinearFiberProblem.build([[1, 0], [0, 1]], [[], []], 2, 0, 2)
    # the combined map is -I, whose determinant is 1
    assert fiber_orientation_sign(prob, []) == 1
    with pytest.raises(OrientationError, match="wrong shape"):
        fiber_orientation_sign(prob, candidate)


def test_integer_rows_are_built_once_per_problem():
    """The combined map's rows, each scaled to integers by the lcm of its
    denominators, are read off df and dg once per problem."""
    prob = LinearFiberProblem.build([[1, 2]], [[Fraction(1, 3)]], 2, 1, 1)
    assert combined_map(prob) == [[-1, -2, Fraction(1, 3)]]
    assert prob._int_rows == [[-3, -6, 1]]
    assert prob._int_rows is prob._int_rows
    assert prob == LinearFiberProblem.build([[1, 2]], [[Fraction(1, 3)]],
                                            2, 1, 1)


def test_surjectivity_is_decided_once_per_problem(monkeypatch):
    """One fraction-free elimination per problem: transversality, the
    kernel and every orientation sign read the same one, so
    `linalg._int_echelon` runs once, on the problem's integer rows, when
    the problem is built, and not again for surjective, kernel() and
    three signs.  Each sign then takes one determinant of size fiber_dim
    (2 here), not of size dim M + dim G."""
    eliminated = []
    determinants = []
    echelon = linalg._int_echelon
    bareiss = linalg._det_bareiss
    monkeypatch.setattr(linalg, "_int_echelon",
                        lambda rows: eliminated.append(rows) or echelon(rows))
    monkeypatch.setattr(linalg, "_det_bareiss",
                        lambda m: determinants.append(len(m)) or bareiss(m))
    prob = LinearFiberProblem.build([[1, 0]], [[Fraction(1, 2)]], 2, 1, 1)
    assert prob.surjective
    kernel = prob.kernel()
    assert kernel == [[0, 1, 0], [1, 0, 2]]
    for _ in range(3):
        # det of the rows (0, 1, 0), (1, 0, 2), (-2, 0, 1) is -5
        assert fiber_orientation_sign(prob, kernel) == -1
    assert eliminated == [[[-2, 0, 1]]]
    # a second problem eliminates its own map once
    other = LinearFiberProblem.build([[1, 0]], [[1]], 2, 1, 1)
    assert fiber_orientation_sign(other, [[1, 0, 1], [0, 1, 0]]) == 1
    assert other.kernel() == [[0, 1, 0], [1, 0, 1]]
    assert eliminated == [[[-2, 0, 1]], [[-1, 0, 1]]]
    assert determinants == [2, 2, 2, 2]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_kernel_is_an_integer_basis_of_positive_nullspace_multiples(seed):
    """kernel() has fiber_dim integer vectors that lie in the kernel and
    have full rank; each is a positive multiple of the nullspace vector
    of the same free column, and both bases get the same sign."""
    prob = random_fiber_problem(make_rng(seed), max_dim=5)
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    combined = combined_map(prob)
    kernel = prob.kernel()
    assert len(kernel) == d
    assert all(type(x) is int for v in kernel for x in v)
    assert all(sum(x * y for x, y in zip(row, v)) == 0
               for row in combined for v in kernel)
    assert d == 0 or rank(kernel) == d
    reference = nullspace(combined) if combined else linalg.identity(n)
    assert len(reference) == d
    for v, w in zip(kernel, reference):
        ratio = next(x / y for x, y in zip(v, w) if y)
        assert ratio > 0 and v == [ratio * y for y in w]
    assert fiber_orientation_sign(prob, kernel) \
        == fiber_orientation_sign(prob, reference)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_kernel_membership_matches_the_rational_product(seed, inside, data):
    """The integer in-kernel test of fiber_orientation_sign against the
    Fraction product A cand, on candidates drawn from the kernel (with
    rational mixing) and on free ones: a full-rank candidate gets a sign
    when the product vanishes and "does not lie in the kernel" when it
    does not; a rank-deficient one does not span either way."""
    rng = make_rng(seed)
    prob = random_fiber_problem(rng, max_dim=4, min_fiber=1)
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    combined = combined_map(prob)
    if inside:
        kernel = nullspace(combined) if combined else linalg.identity(n)
        mix = rand_matrix(rng, d, d)
        cand = [[sum(kernel[t][i] * mix[t][j] for t in range(d))
                 for i in range(n)] for j in range(d)]
    else:
        cand = transpose(rand_matrix(rng, n, d))
    if data.draw(st.booleans()):
        # perturb one entry by a small rational
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
        cand[j][i] += data.draw(NONZERO) / 1000
    vanishes = all(sum(row[i] * cand[j][i] for i in range(n)) == 0
                   for row in combined for j in range(d))
    try:
        outcome = fiber_orientation_sign(prob, cand)
    except OrientationError as exc:
        outcome = str(exc)
    if rank(cand) < d:
        assert outcome == "candidate does not span the kernel"
    elif vanishes:
        assert outcome in (1, -1)
    else:
        assert outcome == "candidate does not lie in the kernel"


def test_build_refuses_an_inexact_entry():
    """A float in df or dg is refused, not stored as the Fraction of its
    binary expansion (0.1 would become 3602879701896397/2**55)."""
    with pytest.raises(TypeError, match="int or Fraction"):
        LinearFiberProblem.build([[0.1]], [[1]], 1, 1, 1)
    with pytest.raises(TypeError, match="int or Fraction"):
        LinearFiberProblem.build([[1]], [[Fraction(1, 2), 0.5]], 1, 2, 1)
    with pytest.raises(TypeError, match="int or Fraction"):
        LinearFiberProblem.build([[True]], [[1]], 1, 1, 1)


def test_fiber_sign_refuses_an_inexact_candidate():
    # ker[-1, 1] is spanned by (1, 1)
    prob = LinearFiberProblem.build([[1]], [[1]], 1, 1, 1)
    assert fiber_orientation_sign(prob, [[1, Fraction(1)]]) in (1, -1)
    with pytest.raises(TypeError, match="int or Fraction"):
        fiber_orientation_sign(prob, [[1.0, 0.1]])
    with pytest.raises(TypeError, match="int or Fraction"):
        fiber_orientation_sign(prob, [[1, 1.0]])
    with pytest.raises(TypeError, match="int or Fraction"):
        fiber_orientation_sign(prob, [[True, 1]])


def test_ses_refuses_an_inexact_entry():
    with pytest.raises(TypeError, match="int or Fraction"):
        exact_sequence_sign(OrientedSpace(0), OrientedSpace(1),
                            OrientedSpace(1), [[1.0]])
    with pytest.raises(TypeError, match="int or Fraction"):
        exact_sequence_sign(OrientedSpace(1), OrientedSpace(2),
                            OrientedSpace(1), [[0], [1]],
                            inclusion=[[0.5], [0]])


def test_fiber_rejects_non_transverse():
    df = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    dg = [[Fraction(0)], [Fraction(0)]]
    prob = LinearFiberProblem.build(df, dg, 2, 1, 2)
    with pytest.raises(TransversalityError):
        fiber_orientation_sign(prob, [[Fraction(0), Fraction(0), Fraction(1)]])


def test_fiber_rejects_non_kernel_candidate():
    # two independent vectors of the right shape; ker[-1, 0, 1] misses
    # (1, 0, 0), so the in-kernel test refuses them, not the shape check
    df = [[Fraction(1), Fraction(0)]]
    dg = [[Fraction(1)]]
    prob = LinearFiberProblem.build(df, dg, 2, 1, 1)
    bad = [[Fraction(1), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(1), Fraction(0)]]
    with pytest.raises(OrientationError, match="does not lie in the kernel"):
        fiber_orientation_sign(prob, bad)


def test_fiber_rejects_candidate_just_outside_the_kernel():
    # ker(dg - df) = ker[-1, 0, 1] is spanned by (1, 0, 1) and (0, 1, 0);
    # the second vector misses it by 1/1000 in its last entry
    prob = LinearFiberProblem.build([[Fraction(1), Fraction(0)]],
                                    [[Fraction(1)]], 2, 1, 1)
    inside = [[Fraction(1), Fraction(0), Fraction(1)],
              [Fraction(0), Fraction(1), Fraction(0)]]
    assert fiber_orientation_sign(prob, inside) in (1, -1)
    outside = [v[:] for v in inside]
    outside[1][2] = Fraction(1, 1000)
    with pytest.raises(OrientationError, match="does not lie in the kernel"):
        fiber_orientation_sign(prob, outside)


# ker[-1, 0, 1] is spanned by (1, 0, 1) and (0, 1, 0)
_LINE = ([[1, 0]], [[1]], 2, 1, 1)


@pytest.mark.parametrize("problem, candidate, error, message", [
    (([[1, 0], [0, 0]], [[0], [0]], 2, 1, 2), [[1, 0, 0]],
     TransversalityError, "not surjective"),
    (_LINE, [[1, 0, 0], [1, 0, 0]], OrientationError, "does not span"),
    (_LINE, [[1, 0, 1], [1, 0, 1]], OrientationError, "does not span"),
    (([], [], 2, 1, 0), [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
     OrientationError, "does not span"),
], ids=["non-surjective-bad-candidate", "rank-deficient-outside-kernel",
        "rank-deficient-inside-kernel", "point-target-rank-deficient"])
def test_fiber_error_precedence(problem, candidate, error, message):
    """Transversality is decided first; a rank-deficient candidate fails
    to span whether or not it lies in the kernel."""
    prob = LinearFiberProblem.build(*problem)
    with pytest.raises(error, match=message):
        fiber_orientation_sign(prob, candidate)


NONZERO = st.builds(lambda s, p, q: Fraction(s * p, q),
                    st.sampled_from((1, -1)), st.integers(1, 6),
                    st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.data())
def test_transpose_complement_matches_right_inverse(seed, data):
    """The sign read off [cand | A^T] is the sign of [cand | J] for a
    right inverse J of the combined map A, over random problems, random
    kernel bases and column scalings of either sign."""
    rng = make_rng(seed)
    prob = random_fiber_problem(rng, max_dim=4)
    n = prob.space_m.dim + prob.space_g.dim
    dim_x = prob.space_x.dim
    d = prob.fiber_dim
    combined = combined_map(prob)
    kernel = nullspace(combined) if dim_x else linalg.identity(n)
    mix = rand_matrix(rng, d, d)
    assume(det_bareiss(mix) != 0)
    scales = data.draw(st.lists(NONZERO, min_size=d, max_size=d))
    cand = [[sum(kernel[t][i] * mix[t][j] for t in range(d)) * scales[j]
             for i in range(n)] for j in range(d)]
    inverse = right_inverse(combined) if dim_x else [[] for _ in range(n)]
    expected = (sign_of(det_bareiss([[v[i] for v in cand] + inverse[i]
                                     for i in range(n)]))
                * prob.space_m.sign * prob.space_g.sign * prob.space_x.sign)
    assert fiber_orientation_sign(prob, cand) == expected


def _fiber_problem_of_shape(rng, shape):
    """A random problem (maybe not transverse) with dim M, dim G <= 4 and
    rational entries p/q: a rigid fiber (dim X = dim M + dim G), a point
    target (dim X = 0) or any dim X up to dim M + dim G."""
    dim_m, dim_g = rng.randint(0, 4), rng.randint(0, 4)
    dim_x = {"rigid": dim_m + dim_g, "point-target": 0,
             "any": rng.randint(0, dim_m + dim_g)}[shape]
    return LinearFiberProblem.build(
        rand_matrix(rng, dim_x, dim_m), rand_matrix(rng, dim_x, dim_g),
        dim_m, dim_g, dim_x,
        rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -1)))


def _outcome(route, prob, candidate):
    try:
        return route(prob, candidate)
    except OrientationError as exc:
        return str(exc)


@pytest.mark.parametrize("shape", ["rigid", "point-target", "any"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_echelon_sign_matches_the_full_determinant(shape, seed, data):
    """The sign read off the problem's elimination and a d x d
    determinant against det[cand | A^T] (the n x n reference), on the
    kernel basis times an invertible integer or rational d x d matrix
    whose determinant takes either sign; and the same refusal from both
    for that candidate moved off the kernel in one entry and for one
    with a column made dependent on the others."""
    rng = make_rng(seed)
    prob = _fiber_problem_of_shape(rng, shape)
    assume(prob.surjective)
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    kernel = prob.kernel()
    if data.draw(st.booleans()):
        mix = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
    else:
        mix = rand_matrix(rng, d, d)
    if d and data.draw(st.booleans()):
        for row in mix:
            row[0] = -row[0]
    mix_det = det_bareiss(mix)
    assume(mix_det != 0)
    cand = [[sum(kernel[t][i] * mix[t][j] for t in range(d))
             for i in range(n)] for j in range(d)]
    got = fiber_orientation_sign(prob, cand)
    assert got == reference_fiber_orientation_sign(prob, cand)
    assert got == fiber_orientation_sign(prob, kernel) * sign_of(mix_det)
    if not d:
        return
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
    off = [v[:] for v in cand]
    off[j][i] += data.draw(NONZERO) / 1000
    refused = _outcome(fiber_orientation_sign, prob, off)
    assert refused == _outcome(reference_fiber_orientation_sign, prob, off)
    if any(row[i] for row in combined_map(prob)):
        assert refused in ("candidate does not lie in the kernel",
                           "candidate does not span the kernel")
    scale = data.draw(st.integers(-2, 2))
    flat = [v[:] for v in cand]
    flat[j] = [scale * x for x in cand[(j + 1) % d]] if d > 1 else [0] * n
    assert _outcome(fiber_orientation_sign, prob, flat) \
        == _outcome(reference_fiber_orientation_sign, prob, flat) \
        == "candidate does not span the kernel"


@pytest.mark.parametrize("shape", ["rigid", "point-target", "any"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_candidate_is_fiber_dim_vectors(shape, seed):
    """A candidate is d vectors of length n, the form of kernel(), with
    d = fiber_dim and n = dim M + dim G.  Where d != n the column form
    of the kernel basis (n rows of d entries) is refused as the wrong
    shape, never given a sign.  Where d = n (X a point, A with no rows)
    both forms pass the shape check, and a random invertible candidate
    and its transpose get the same sign, that of det C = det C^T.  The
    reference takes the same vectors and reads det[C | A^T] off the
    matrix it assembles, as this test does."""
    rng = make_rng(seed)
    prob = _fiber_problem_of_shape(rng, shape)
    assume(prob.surjective)
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    signs = prob.space_m.sign * prob.space_g.sign * prob.space_x.sign
    if d == n:
        cand = rand_matrix(rng, n, n)
        assume(det_bareiss(cand) != 0)
        candidates = [cand, transpose(cand)]
    else:
        kernel = prob.kernel()
        columns = [[v[i] for v in kernel] for i in range(n)]
        with pytest.raises(OrientationError, match="wrong shape"):
            fiber_orientation_sign(prob, columns)
        candidates = [kernel]
    a = combined_map(prob)
    for cand in candidates:
        expected = signs * sign_of(det_bareiss(
            [[v[i] for v in cand] + [row[i] for row in a] for i in range(n)]))
        assert fiber_orientation_sign(prob, cand) \
            == reference_fiber_orientation_sign(prob, cand) == expected
    assert len({fiber_orientation_sign(prob, c) for c in candidates}) == 1


@pytest.mark.parametrize("shape", ["any", "rigid", "point-target"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_sign_matches_the_full_determinant(shape, seed):
    """The sign of the problem's own kernel basis, read off its
    elimination alone, against det[kernel | A^T] (the n x n reference)
    and against fiber_orientation_sign with every check: on
    random_fiber_problem draws, on rigid fibers (dim X = dim M + dim G)
    and on X a point."""
    rng = make_rng(seed)
    if shape == "any":
        prob = random_fiber_problem(rng, max_dim=5)
    else:
        prob = _fiber_problem_of_shape(rng, shape)
        assume(prob.surjective)
    kernel = prob.kernel()
    assert prob.kernel_sign() \
        == reference_fiber_orientation_sign(prob, kernel) \
        == fiber_orientation_sign(prob, kernel)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), negative=st.booleans())
def test_kernel_sign_refuses_a_problem_without_orientation(seed, negative):
    """kernel_sign refuses what fiber_orientation_sign refuses for the
    same problem, with the same TransversalityError: a combined map whose
    last row is a rational multiple of its first, so it is not
    surjective, or a target of more dimensions than M x G, so the fiber
    dimension would be negative."""
    rng = make_rng(seed)
    dim_m, dim_g = rng.randint(0, 3), rng.randint(0, 3)
    if negative:
        dim_x = dim_m + dim_g + rng.randint(1, 2)
    else:
        dim_x = rng.randint(2, max(2, dim_m + dim_g))
    df = rand_matrix(rng, dim_x, dim_m)
    dg = rand_matrix(rng, dim_x, dim_g)
    scale = rand_matrix(rng, 1, 1)[0][0]
    df[-1] = [scale * x for x in df[0]]
    dg[-1] = [scale * x for x in dg[0]]
    prob = LinearFiberProblem.build(df, dg, dim_m, dim_g, dim_x,
                                    rng.choice((1, -1)), 1, 1)
    assert not prob.surjective
    with pytest.raises(TransversalityError) as own:
        prob.kernel_sign()
    with pytest.raises(TransversalityError) as full:
        fiber_orientation_sign(prob, prob.kernel())
    assert str(own.value) == str(full.value)
    assert ("negative" in str(own.value)) == (prob.fiber_dim < 0)


def test_fiber_consistent_with_ses_sign():
    """Internal consistency: the fiber orientation is the unique one
    making the defining sequence orientation-compatible, so recomputing
    through exact_sequence_sign on the same data must agree."""
    rng = make_rng(23)
    for _ in range(40):
        prob = random_fiber_problem(rng, max_dim=4, min_fiber=0)
        n = prob.space_m.dim + prob.space_g.dim
        dim_x = prob.space_x.dim
        combined = combined_map(prob)
        vecs = nullspace(combined) if dim_x else transpose(
            linalg.identity(n)
        )
        if n == 0:
            continue
        kmat = transpose(vecs) or [[] for _ in range(n)]
        got = fiber_orientation_sign(prob, vecs)
        if dim_x:
            j = right_inverse(combined)
            middle_sign = prob.space_m.sign * prob.space_g.sign
            ses = exact_sequence_sign(
                OrientedSpace(n - dim_x, 1),
                OrientedSpace(n, middle_sign),
                OrientedSpace(dim_x, prob.space_x.sign),
                j,
                inclusion=kmat,
            )
        else:
            # a 0-dimensional X is a signed point and still twists
            ses = (
                prob.space_m.sign * prob.space_g.sign * prob.space_x.sign
                * sign_of(det_bareiss(vecs))
            )
        assert got == ses


# --- the three closed-form rules against the linear model ----------------


def test_boundary_face_sign_values():
    assert boundary_face_sign(2, 1, 0, FACE_M) == -1  # (-1)^{dim G}
    assert boundary_face_sign(2, 1, 3, FACE_M) == 1   # (-1)^3 (-1)^1
    assert boundary_face_sign(2, 1, 3, FACE_G) == -1  # (-1)^3
    with pytest.raises(OrientationError):
        boundary_face_sign(0, 1, 1, FACE_M)
    with pytest.raises(OrientationError):
        boundary_face_sign(1, 0, 1, FACE_G)


@pytest.mark.parametrize("face", [FACE_M, FACE_G])
def test_boundary_face_sign_against_linear_model(face):
    """Both boundary faces against the determinant model.  The model also
    settles the G-side face (whose closed form is easy to mis-transcribe):
    it carries (-1)^{dim X} with no (-1)^{dim G} factor."""
    rng = make_rng(101 if face == FACE_M else 202)
    for _ in range(60):
        prob, observed = boundary_face_oracle(rng, face, max_dim=5)
        expected = boundary_face_sign(
            prob.space_m.dim, prob.space_g.dim, prob.space_x.dim, face
        )
        assert observed == expected


def test_flip_sign_direct_values():
    assert flip_sign(1, 1, 1) == 1
    assert flip_sign(-1, 1, -1) == 1
    assert flip_sign(-1, -1, -1) == -1
    with pytest.raises(OrientationError):
        flip_sign(0, 1, 1)


def test_flip_sign_multiplicative():
    signs = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    for s1 in signs:
        for s2 in signs:
            composed = tuple(x * y for x, y in zip(s1, s2))
            assert flip_sign(*composed) == flip_sign(*s1) * flip_sign(*s2)


def test_flip_sign_against_linear_model():
    rng = make_rng(303)
    for _ in range(60):
        det_signs, observed = flip_oracle(rng, max_dim=4)
        assert observed == flip_sign(*det_signs)


def test_association_sign_values():
    assert association_sign(2, 5) == 1
    assert association_sign(3, 1) == -1
    assert association_sign(3, 2) == 1
    assert association_sign(1, -1) == -1


def test_association_sign_involutive():
    for x in range(4):
        for c in range(-2, 4):
            assert association_sign(x, c) * association_sign(x, c) == 1


def test_association_sign_against_linear_model():
    rng = make_rng(404)
    for _ in range(50):
        dim_x, codim_h, observed = association_oracle(rng, max_dim=5)
        assert observed == association_sign(dim_x, codim_h)


# The SHA-256 of `_oracle_stream()`.  It pins the instances the oracles
# draw, the sign each observes and the random stream they leave behind,
# which the next suite of verify-all draws from: a change to how the
# oracles compute must keep all three, or verify-all's artifacts change.
ORACLE_STREAM_SHA256 = (
    "10afdfa12b850fd9797db9512380955250e95155fea54df54c27e921dd05bd0d")


def _oracle_stream(seeds=(0, 1, 2), per_kind=20):
    """Per seed: (face, dims, observed sign) of boundary_face_oracle on
    both faces, the returns of flip_oracle and association_oracle at
    the scales of orientation_suite, then the next rng.random()."""
    records = []
    for seed in seeds:
        rng = make_rng(seed)
        for face in (FACE_M, FACE_G):
            for _ in range(per_kind):
                prob, observed = boundary_face_oracle(rng, face, 5)
                records.append((face, prob.space_m.dim, prob.space_g.dim,
                                prob.space_x.dim, observed))
        for _ in range(per_kind):
            records.append(("flip",) + flip_oracle(rng, 4))
        for _ in range(per_kind):
            records.append(("association",) + association_oracle(rng, 3))
        records.append(("next", rng.random()))
    return records


def test_oracle_stream_is_pinned():
    records = _oracle_stream()
    assert len(records) == 3 * 81
    assert hashlib.sha256(repr(records).encode()).hexdigest() \
        == ORACLE_STREAM_SHA256
