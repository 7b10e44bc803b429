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
    exact_sequence_sign,
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

from support import det_bareiss, make_rng, right_inverse


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


def test_combined_map_is_built_once_per_problem():
    prob = LinearFiberProblem.build([[1, 2]], [[Fraction(1, 3)]], 2, 1, 1)
    assert prob.combined_map() == [[-1, -2, Fraction(1, 3)]]
    assert prob.combined_map() is prob.combined_map()
    assert prob == LinearFiberProblem.build([[1, 2]], [[Fraction(1, 3)]],
                                            2, 1, 1)


def test_surjectivity_is_decided_once_per_problem(monkeypatch):
    """One fraction-free elimination per problem: transversality, the
    kernel and every orientation sign read the same one, so
    `linalg._int_echelon` runs once, on the problem's integer rows, for
    surjective, kernel() and three signs."""
    prob = LinearFiberProblem.build([[1, 0]], [[Fraction(1, 2)]], 2, 1, 1)
    eliminated = []
    echelon = linalg._int_echelon
    monkeypatch.setattr(linalg, "_int_echelon",
                        lambda rows: eliminated.append(rows) or echelon(rows))
    assert prob.surjective
    kernel = prob.kernel()
    assert kernel == [[0, 1, 0], [1, 0, 2]]
    candidate = linalg.columns_matrix(kernel)
    for _ in range(3):
        # det of the rows (0, 1, 0), (1, 0, 2), (-2, 0, 1) is -5
        assert fiber_orientation_sign(prob, candidate) == -1
    assert eliminated == [[[-2, 0, 1]]]
    # a second problem eliminates its own map once
    other = LinearFiberProblem.build([[1, 0]], [[1]], 2, 1, 1)
    assert fiber_orientation_sign(other, [[1, 0], [0, 1], [1, 0]]) == 1
    assert other.kernel() == [[0, 1, 0], [1, 0, 1]]
    assert eliminated == [[[-2, 0, 1]], [[-1, 0, 1]]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_kernel_is_an_integer_basis_of_positive_nullspace_multiples(seed):
    """kernel() has fiber_dim integer vectors that lie in the kernel and
    have full rank; each is a positive multiple of the nullspace vector
    of the same free column, and both bases get the same sign."""
    prob = random_fiber_problem(make_rng(seed), max_dim=5)
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    combined = prob.combined_map()
    kernel = prob.kernel()
    assert len(kernel) == d
    assert all(type(x) is int for v in kernel for x in v)
    assert all(sum(x * y for x, y in zip(row, v)) == 0
               for row in combined for v in kernel)
    assert d == 0 or linalg.rank(kernel) == d
    reference = linalg.nullspace(combined) if combined else linalg.identity(n)
    assert len(reference) == d
    for v, w in zip(kernel, reference):
        ratio = next(x / y for x, y in zip(v, w) if y)
        assert ratio > 0 and v == [ratio * y for y in w]
    if n:
        assert fiber_orientation_sign(
            prob, linalg.columns_matrix(kernel) or [[] for _ in range(n)]
        ) == fiber_orientation_sign(
            prob, linalg.columns_matrix(reference) or [[] for _ in range(n)])


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
    combined = prob.combined_map()
    if inside:
        kernel = linalg.nullspace(combined) if combined else linalg.identity(n)
        mix = rand_matrix(rng, d, d)
        cand = [[sum(kernel[t][i] * mix[t][j] for t in range(d))
                 for j in range(d)] for i in range(n)]
    else:
        cand = rand_matrix(rng, n, d)
    if data.draw(st.booleans()):
        # perturb one entry by a small rational
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
        cand[i][j] += data.draw(NONZERO) / 1000
    vanishes = all(sum(row[i] * cand[i][j] for i in range(n)) == 0
                   for row in combined for j in range(d))
    try:
        outcome = fiber_orientation_sign(prob, cand)
    except OrientationError as exc:
        outcome = str(exc)
    if linalg.rank(cand) < d:
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


def test_fiber_sign_refuses_an_inexact_candidate():
    # ker[-1, 1] is spanned by (1, 1)
    prob = LinearFiberProblem.build([[1]], [[1]], 1, 1, 1)
    assert fiber_orientation_sign(prob, [[1], [Fraction(1)]]) in (1, -1)
    with pytest.raises(TypeError, match="int or Fraction"):
        fiber_orientation_sign(prob, [[1.0], [0.1]])
    with pytest.raises(TypeError, match="int or Fraction"):
        fiber_orientation_sign(prob, [[1], [1.0]])


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
        fiber_orientation_sign(prob, [[Fraction(0)], [Fraction(0)], [Fraction(1)]])


def test_fiber_rejects_non_kernel_candidate():
    df = [[Fraction(1), Fraction(0)]]
    dg = [[Fraction(1)]]
    prob = LinearFiberProblem.build(df, dg, 2, 1, 1)
    bad = [[Fraction(1)], [Fraction(0)], [Fraction(0)]]
    with pytest.raises(OrientationError):
        fiber_orientation_sign(prob, bad)


def test_fiber_rejects_candidate_just_outside_the_kernel():
    # ker(dg - df) = ker[-1, 0, 1] is spanned by (1, 0, 1) and (0, 1, 0);
    # the second column misses it by 1/1000 in its last entry
    prob = LinearFiberProblem.build([[Fraction(1), Fraction(0)]],
                                    [[Fraction(1)]], 2, 1, 1)
    inside = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)],
              [Fraction(1), Fraction(0)]]
    assert fiber_orientation_sign(prob, inside) in (1, -1)
    outside = [row[:] for row in inside]
    outside[2][1] = Fraction(1, 1000)
    with pytest.raises(OrientationError, match="does not lie in the kernel"):
        fiber_orientation_sign(prob, outside)


# ker[-1, 0, 1] is spanned by (1, 0, 1) and (0, 1, 0)
_LINE = ([[1, 0]], [[1]], 2, 1, 1)


@pytest.mark.parametrize("problem, candidate, error, message", [
    (([[1, 0], [0, 0]], [[0], [0]], 2, 1, 2), [[1], [0], [0]],
     TransversalityError, "not surjective"),
    (_LINE, [[1, 1], [0, 0], [0, 0]], OrientationError, "does not span"),
    (_LINE, [[1, 1], [0, 0], [1, 1]], OrientationError, "does not span"),
    (([], [], 2, 1, 0), [[1, 1, 0], [0, 0, 0], [0, 0, 1]],
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
    combined = prob.combined_map()
    kernel = linalg.nullspace(combined) if dim_x else linalg.identity(n)
    mix = rand_matrix(rng, d, d)
    assume(det_bareiss(mix) != 0)
    scales = data.draw(st.lists(NONZERO, min_size=d, max_size=d))
    cand = [[sum(kernel[t][i] * mix[t][j] for t in range(d)) * scales[j]
             for j in range(d)] for i in range(n)]
    j = right_inverse(combined) if dim_x else [[] for _ in range(n)]
    expected = (sign_of(det_bareiss([cand[i] + j[i] for i in range(n)]))
                * prob.space_m.sign * prob.space_g.sign * prob.space_x.sign)
    assert fiber_orientation_sign(prob, cand) == expected


def test_fiber_consistent_with_ses_sign():
    """Internal consistency: the fiber orientation is the unique one
    making the defining sequence orientation-compatible, so recomputing
    through exact_sequence_sign on the same data must agree."""
    rng = make_rng(23)
    for _ in range(40):
        prob = random_fiber_problem(rng, max_dim=4, min_fiber=0)
        n = prob.space_m.dim + prob.space_g.dim
        dim_x = prob.space_x.dim
        combined = prob.combined_map()
        vecs = linalg.nullspace(combined) if dim_x else linalg.transpose(
            linalg.identity(n)
        )
        if n == 0:
            continue
        kmat = linalg.columns_matrix(vecs)
        got = fiber_orientation_sign(prob, kmat if vecs else [[] for _ in range(n)])
        if dim_x:
            j = right_inverse(combined)
            middle_sign = prob.space_m.sign * prob.space_g.sign
            ses = exact_sequence_sign(
                OrientedSpace(n - dim_x, 1),
                OrientedSpace(n, middle_sign),
                OrientedSpace(dim_x, prob.space_x.sign),
                j,
                inclusion=kmat if vecs else [[] for _ in range(n)],
            )
        else:
            # a 0-dimensional X is a signed point and still twists
            ses = (
                prob.space_m.sign * prob.space_g.sign * prob.space_x.sign
                * sign_of(det_bareiss(kmat))
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
