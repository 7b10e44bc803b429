"""Randomized self-checks used by the batch front-end, and the single
home of the orientation oracles.

The oracles build an explicit linear model and read every observed sign
off bases and determinants of that model; they never call the
closed-form sign rules they check.  `orientation_suite` compares them
against those rules; the test suite imports the same oracles and passes
its own seeds and scales.  The dual-route suites compare two independent
evaluations of one quantity.  Each suite returns (ok, details) with exact
counts; the front-end turns them into report lines.  The suites fix
their own sizes, apart from `tree_count_suite`, which the caller sizes
to cover every tree table its run reads.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

from . import linalg, multidisk
from .orientation import (
    FACE_G,
    FACE_M,
    LinearFiberProblem,
    association_sign,
    boundary_face_sign,
    fiber_orientation_sign,
    flip_sign,
)


@functools.cache
def _small_rationals(top):
    """Fraction(p, q) for |p| <= top and 1 <= q <= 3, at index
    3 * (p + top) + q - 1; built once per bound and shared, since a
    Fraction is immutable."""
    return tuple(Fraction(p, q) for p in range(-top, top + 1)
                 for q in range(1, 4))


def _rationals(rng, count, top):
    """count entries p/q of _small_rationals(top), each drawn as
    rng.randint(-top, top) and then rng.randint(1, 3) would draw it.

    Its index 3 * (p + top) + q - 1 is read straight off
    rng.getrandbits, through the rejection loops CPython's randint runs
    in Random._randbelow_with_getrandbits: (2 top + 1).bit_length()-bit
    words until one is at most 2 top, then 2-bit words until one is at
    most 2.  So the values, and the state rng is left in, are those of
    the randint draws, without their three calls per number."""
    table = _small_rationals(top)
    bits = rng.getrandbits
    n = 2 * top + 1
    k = n.bit_length()
    out = []
    for _ in range(count):
        p = bits(k)
        while p >= n:
            p = bits(k)
        q = bits(2)
        while q == 3:
            q = bits(2)
        out.append(table[3 * p + q])
    return out


def rand_matrix(rng, rows, cols):
    """A rows x cols matrix of rationals p/q, |p| <= 5, 1 <= q <= 3: p
    and then q are drawn for each entry, and the entry is the shared
    Fraction p/q.  `_rationals` reads the draws straight off
    rng.getrandbits, which skips the three Python calls randint makes
    per number, and leaves both the values and the random state those
    of rng.randint(-5, 5) and then rng.randint(1, 3) per entry: the
    stream the self-checks' pinned records were drawn with."""
    return [_rationals(rng, cols, 5) for _ in range(rows)]


def sign_of(x):
    """+1 or -1; a zero has no sign."""
    if x == 0:
        raise ValueError("sign of zero")
    return 1 if x > 0 else -1


def random_fiber_problem(rng, max_dim, min_fiber=0, need_m_face=False,
                         need_g_face=False):
    """A random transverse LinearFiberProblem (resampled until valid)."""
    while True:
        dim_m = rng.randint(1 if need_m_face else 0, max_dim)
        dim_g = rng.randint(1 if need_g_face else 0, max_dim)
        dim_x = rng.randint(0, max_dim)
        if dim_m + dim_g - dim_x < min_fiber:
            continue
        prob = LinearFiberProblem.build(
            rand_matrix(rng, dim_x, dim_m), rand_matrix(rng, dim_x, dim_g),
            dim_m, dim_g, dim_x,
            rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -1)),
        )
        if prob.surjective:
            return prob


def boundary_face_oracle(rng, face, max_dim):
    """Observed boundary-face sign of a random problem.

    Returns (problem, observed sign) with [boundary orientation of the
    face] = observed sign * [fiber product orientation of the boundary
    problem].

    The face basis is read off the problem's integer kernel basis
    v_1..v_d: with v_o the first vector whose cut coordinate is nonzero,
    a = v_o[cut] and b_i = v_i[cut], it is a v_i - b_i v_o for i != o.
    Each of these integer vectors has cut coordinate 0, so it lies in
    the face, and its coefficients in kernel coordinates (a at i, -b_i
    at o) are written down directly.  The observed sign does not depend
    on the face basis: changing it by a matrix P scales the determinant
    of [face basis | outward] in kernel coordinates by det P and flips
    the boundary problem's orientation sign of the face basis by the
    sign of det P, so the two factors flip together.  So the basis
    a v_i - b_i v_o, which is a times v_i - (b_i / a) v_o, gives the same
    sign as the rational one, and no Fraction is built for it.
    """
    while True:
        prob = random_fiber_problem(
            rng, max_dim, min_fiber=1,
            need_m_face=(face == FACE_M), need_g_face=(face == FACE_G),
        )
        dim_m, dim_g = prob.space_m.dim, prob.space_g.dim
        n = dim_m + dim_g
        # the face cuts off the last coordinate of M or of G
        cut_m, cut_g = (1, 0) if face == FACE_M else (0, 1)
        cut = dim_m - 1 if face == FACE_M else n - 1
        kernel = prob.kernel()
        o = next((i for i, v in enumerate(kernel) if v[cut] != 0), None)
        if o is None:
            continue  # the cut functional vanishes on the kernel
        sub = LinearFiberProblem.build(
            [row[:dim_m - cut_m] for row in prob.df],
            [row[:dim_g - cut_g] for row in prob.dg],
            dim_m - cut_m, dim_g - cut_g, prob.space_x.dim,
            prob.space_m.sign, prob.space_g.sign, prob.space_x.sign,
        )
        if not sub.surjective:
            continue
        v_o = kernel[o]
        a = v_o[cut]
        d = len(kernel)
        face_vecs = []
        coeffs = [[0] * d for _ in range(d)]
        for col, i in enumerate(k for k in range(d) if k != o):
            b = kernel[i][cut]
            face_vecs.append([a * x - b * y for x, y in zip(kernel[i], v_o)])
            coeffs[i][col] = a
            coeffs[o][col] = -b
        # outward vector: v_o, turned to a positive cut coordinate
        coeffs[o][d - 1] = sign_of(a)
        observed = prob.kernel_sign() * sign_of(linalg._det_bareiss(coeffs))
        # the same face basis, in the coordinates of the boundary problem
        dropped = [v[:cut] + v[cut + 1:] for v in face_vecs]
        return prob, observed * fiber_orientation_sign(sub, dropped)


def flip_oracle(rng, max_dim):
    """Observed sign of a commuting-diffeomorphism flip on the fiber.

    Builds diagonal +-1 diffeomorphisms of the three factors and a pair
    of equivariant maps, and compares the orientation of a kernel basis
    with its image under the flip.  Returns (the factors' determinant
    signs, observed sign).
    """
    while True:
        dim_m = rng.randint(0, max_dim)
        dim_g = rng.randint(0, max_dim)
        dim_x = rng.randint(0, min(4, dim_m + dim_g))
        sm = [rng.choice((1, -1)) for _ in range(dim_m)]
        sg = [rng.choice((1, -1)) for _ in range(dim_g)]
        sx = [rng.choice((1, -1)) for _ in range(dim_x)]

        def equivariant(rows, cols, srow, scol):
            # the equivariant part (a + srow a scol) / 2 of a random a:
            # the entries of a where the two signs agree, zero elsewhere
            a = rand_matrix(rng, rows, cols)
            return [[x if s == t else 0 for x, t in zip(row, scol)]
                    for row, s in zip(a, srow)]

        prob = LinearFiberProblem.build(
            equivariant(dim_x, dim_m, sx, sm),
            equivariant(dim_x, dim_g, sx, sg),
            dim_m, dim_g, dim_x,
            rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -1)),
        )
        if not prob.surjective:
            continue
        det_signs = (math.prod(sm), math.prod(sg), math.prod(sx))
        vecs = prob.kernel()
        diag = sm + sg
        flipped = [[s * x for s, x in zip(diag, v)] for v in vecs]
        observed = prob.kernel_sign() * fiber_orientation_sign(prob, flipped)
        return det_signs, observed


def association_oracle(rng, max_dim):
    """Observed sign between the two iterated fiber product orientations.

    Model: f: M -> X, e: M -> Y, g: G -> X, h: C -> Y.  Returns
    (dim X, codim h, observed sign) with observed = [iterated
    orientation] * [one-step orientation] on a shared kernel basis.
    """
    while True:
        dims = [rng.randint(0, max_dim) for _ in range(5)]
        dim_m, dim_g, dim_c, dim_x, dim_y = dims
        signs = [rng.choice((1, -1)) for _ in range(5)]
        s_m, s_g, s_c, s_x, s_y = signs
        df = rand_matrix(rng, dim_x, dim_m)
        de = rand_matrix(rng, dim_y, dim_m)
        dg = rand_matrix(rng, dim_x, dim_g)
        dh = rand_matrix(rng, dim_y, dim_c)
        inner = LinearFiberProblem.build(df, dg, dim_m, dim_g, dim_x,
                                         s_m, s_g, s_x)
        if not inner.surjective:
            continue
        n1 = dim_m + dim_g
        k1 = inner.kernel()
        d1 = len(k1)
        inner_sign = inner.kernel_sign()
        if d1 and inner_sign == -1:
            k1[0] = [-x for x in k1[0]]
            inner_sign = 1
        # e on the inner fiber, in k1 coordinates, each row of de over
        # its own denominator; a rigid inner fiber is a signed point and
        # keeps its sign
        de_inner = [[Fraction(sum(map(mul, ints, v)), den) for v in k1]
                    for ints, den in map(linalg._integer_scaled, de)]
        outer = LinearFiberProblem.build(de_inner, dh, d1, dim_c, dim_y,
                                         inner_sign, s_c, s_y)
        if not outer.surjective:
            continue
        # the one-step problem: M against G x C over X x Y
        big_df = df + de
        big_dg = ([list(row) + [0] * dim_c for row in dg]
                  + [[0] * dim_g + list(row) for row in dh])
        onestep = LinearFiberProblem.build(
            big_df, big_dg, dim_m, dim_g + dim_c, dim_x + dim_y,
            s_m, s_g * s_c, s_x * s_y,
        )
        if not onestep.surjective:
            continue
        kb = onestep.kernel()
        if not kb:
            continue  # a rigid instance carries no basis to compare
        one_sign = onestep.kernel_sign()
        # the same vectors in (inner fiber) x C coordinates: k1 x = the
        # M x G part of each, solved fraction-free.  The vectors of k1
        # are independent, so row r of the reduced [k1 | M x G part]
        # reads p_r x_r = its right-hand side; every vector is scaled by
        # the positive lcm of the p_r, which keeps its orientation
        red, pivots, _ = linalg._int_echelon(
            [[v[i] for v in k1 + kb] for i in range(n1)])
        if any(p >= d1 for p in pivots):
            continue
        scale = math.lcm(*(red[r][r] for r in range(d1)))
        iter_sign = fiber_orientation_sign(outer, [
            [red[r][d1 + j] * (scale // red[r][r]) for r in range(d1)]
            + [scale * x for x in w[n1:]]
            for j, w in enumerate(kb)])
        return dim_x, dim_y - dim_c, iter_sign * one_sign


def orientation_suite(rng):
    """Closed-form sign rules against the determinant model on 200
    instances: 50 of each boundary face, then 50 flips and 50
    associations."""
    failures = 0
    for face in (FACE_M, FACE_G):
        for _ in range(50):
            prob, observed = boundary_face_oracle(rng, face, 5)
            if observed != boundary_face_sign(
                prob.space_m.dim, prob.space_g.dim, prob.space_x.dim, face
            ):
                failures += 1
    for _ in range(50):
        det_signs, observed = flip_oracle(rng, 4)
        if observed != flip_sign(*det_signs):
            failures += 1
    for _ in range(50):
        dim_x, codim_h, observed = association_oracle(rng, 3)
        if observed != association_sign(dim_x, codim_h):
            failures += 1
    return failures == 0, "200 instances, %d failures" % failures


def matrix_tree_suite(rng):
    """Cofactor determinant against explicit tree enumeration on 11
    weight lists per vertex count m from 1 to 6.  Each list holds one
    linking number p/q, |p| <= 6, 1 <= q <= 3, drawn p first, per edge
    of itertools.combinations(range(m), 2)."""
    failures = 0
    for m in range(1, 7):
        for _ in range(11):
            weights = _rationals(rng, m * (m - 1) // 2, 6)
            if multidisk.tree_weight_sum(m, weights) \
                    != multidisk.tree_weight_sum_enumerated(m, weights):
                failures += 1
    return failures == 0, "66 matrices, %d failures" % failures


def tree_count_suite(max_vertices):
    """Tree enumeration against the closed-form count on every vertex
    count up to max_vertices: the trees listed and the distinct edge
    sets among them.  Each tree of the packed table is a fixed-width row
    of its sorted edge indices, width m - 1 <= 8 as m is at most
    multidisk.MAX_TREE_VERTICES = 9; each row is copied into its own
    zero-padded 8-byte lane and read as one 64-bit integer, so distinct
    integers are exactly distinct trees."""
    for m in range(1, max_vertices + 1):
        expected = 1 if m == 1 else m ** (m - 2)
        if m == 1:
            trees = list(multidisk.tree_edge_indices(1))
            listed, distinct = len(trees), len(set(trees))
        else:
            packed, width = multidisk._packed_trees(m), m - 1
            listed = len(packed) // width
            lanes = bytearray(8 * listed)
            for k in range(width):
                lanes[k::8] = packed[k::width]
            distinct = len(set(memoryview(lanes).cast("Q")))
        if listed != expected or distinct != expected:
            return False, "vertex count %d: %d trees, %d distinct, " \
                "expected %d" % (m, listed, distinct, expected)
    return True, "all vertex counts up to %d" % max_vertices
