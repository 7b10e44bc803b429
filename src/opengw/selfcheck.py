"""Randomized self-checks used by the batch front-end, and the single
home of the orientation oracles.

The oracles build an explicit linear model and read every observed sign
off bases and determinants of that model; they never call the
closed-form sign rules they check.  `orientation_suite` compares them
against those rules; the test suite imports the same oracles and passes
its own seeds and scales.  The dual-route suites compare two independent
evaluations of one quantity.  Each suite returns (ok, details) with exact
counts; the front-end turns them into report lines.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .multidisk import LinkingMatrix, tree_edge_indices
from .orientation import (
    FACE_G,
    FACE_M,
    LinearFiberProblem,
    association_sign,
    boundary_face_sign,
    fiber_orientation_sign,
    flip_sign,
)


def rand_matrix(rng, rows, cols):
    """A rows x cols matrix of rationals p/q, |p| <= 5, 1 <= q <= 3."""
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


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
        dim_x = prob.space_x.dim
        n = dim_m + dim_g
        # the face cuts off the last coordinate of M or of G
        cut = dim_m - 1 if face == FACE_M else n - 1
        kernel = prob.kernel()
        o = next((i for i, v in enumerate(kernel) if v[cut] != 0), None)
        if o is None:
            continue  # the cut functional vanishes on the kernel
        if face == FACE_M:
            sub = LinearFiberProblem.build(
                [row[: dim_m - 1] for row in prob.df],
                [list(row) for row in prob.dg],
                dim_m - 1, dim_g, dim_x,
                prob.space_m.sign, prob.space_g.sign, prob.space_x.sign,
            )
        else:
            sub = LinearFiberProblem.build(
                [list(row) for row in prob.df],
                [row[: dim_g - 1] for row in prob.dg],
                dim_m, dim_g - 1, dim_x,
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
        sigma = fiber_orientation_sign(prob, linalg.columns_matrix(kernel))
        observed = sigma * sign_of(linalg.det(coeffs))
        # the same face basis, in the coordinates of the boundary problem
        dropped = [[v[i] for v in face_vecs] for i in range(n) if i != cut]
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
        half = Fraction(1, 2)

        def equivariant(rows, cols, srow, scol):
            a = rand_matrix(rng, rows, cols)
            return [[half * (a[i][j] + srow[i] * a[i][j] * scol[j])
                     for j in range(cols)] for i in range(rows)]

        prob = LinearFiberProblem.build(
            equivariant(dim_x, dim_m, sx, sm),
            equivariant(dim_x, dim_g, sx, sg),
            dim_m, dim_g, dim_x,
            rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -1)),
        )
        if not prob.surjective:
            continue
        det_signs = (math.prod(sm), math.prod(sg), math.prod(sx))
        n = dim_m + dim_g
        if n == 0:
            return det_signs, 1
        vecs = prob.kernel()
        kmat = linalg.columns_matrix(vecs) if vecs else [[] for _ in range(n)]
        diag = sm + sg
        flipped = [[diag[i] * x for x in row] for i, row in enumerate(kmat)]
        observed = (fiber_orientation_sign(prob, kmat)
                    * fiber_orientation_sign(prob, flipped))
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
        k1_vecs = inner.kernel()
        d1 = len(k1_vecs)
        k1 = linalg.columns_matrix(k1_vecs)
        inner_sign = fiber_orientation_sign(
            inner, k1 if d1 else [[] for _ in range(n1)]
        )
        if d1 and inner_sign == -1:
            k1_vecs[0] = [-x for x in k1_vecs[0]]
            k1 = linalg.columns_matrix(k1_vecs)
            inner_sign = 1
        # e on the inner fiber, in k1 coordinates; a rigid inner fiber is
        # a signed point and keeps its sign
        de_inner = [[sum(de[i][t] * k1[t][j] for t in range(dim_m))
                     for j in range(d1)] for i in range(dim_y)]
        outer = LinearFiberProblem.build(de_inner, dh, d1, dim_c, dim_y,
                                         inner_sign, s_c, s_y)
        if not outer.surjective:
            continue
        # the one-step problem: M against G x C over X x Y
        big_df = df + de
        big_dg = ([list(row) + [Fraction(0)] * dim_c for row in dg]
                  + [[Fraction(0)] * dim_g + list(row) for row in dh])
        onestep = LinearFiberProblem.build(
            big_df, big_dg, dim_m, dim_g + dim_c, dim_x + dim_y,
            s_m, s_g * s_c, s_x * s_y,
        )
        if not onestep.surjective:
            continue
        kb_vecs = onestep.kernel()
        if not kb_vecs:
            continue  # a rigid instance carries no basis to compare
        kb = linalg.columns_matrix(kb_vecs)
        one_sign = fiber_orientation_sign(onestep, kb)
        # the same vectors in (inner fiber) x C coordinates
        mg_part = [[kb[i][j] for j in range(len(kb_vecs))] for i in range(n1)]
        coeffs = linalg.solve(k1, mg_part) if d1 else []
        if d1 and coeffs is None:
            continue
        c_part = [[kb[n1 + i][j] for j in range(len(kb_vecs))]
                  for i in range(dim_c)]
        iter_sign = fiber_orientation_sign(outer, coeffs + c_part)
        return dim_x, dim_y - dim_c, iter_sign * one_sign


def orientation_suite(rng, instances=1000, max_dim=6):
    """Closed-form sign rules against the determinant model."""
    failures = 0
    per_kind = max(1, instances // 4)
    for face in (FACE_M, FACE_G):
        for _ in range(per_kind):
            prob, observed = boundary_face_oracle(rng, face, min(max_dim, 5))
            if observed != boundary_face_sign(
                prob.space_m.dim, prob.space_g.dim, prob.space_x.dim, face
            ):
                failures += 1
    for _ in range(per_kind):
        det_signs, observed = flip_oracle(rng, min(max_dim, 4))
        if observed != flip_sign(*det_signs):
            failures += 1
    for _ in range(instances - 3 * per_kind):
        dim_x, codim_h, observed = association_oracle(rng, 3)
        if observed != association_sign(dim_x, codim_h):
            failures += 1
    return failures == 0, "%d instances, %d failures" % (instances, failures)


def matrix_tree_suite(rng, matrices=200, max_vertices=7):
    """Cofactor determinant against explicit tree enumeration."""
    from .lattice import Target
    from .multidisk import DiskAtom, MultiDisk, tree_weight_sum, \
        tree_weight_sum_enumerated

    target = Target([("g", 1, 2)])
    failures = 0
    checked = 0
    per_m = max(1, matrices // max_vertices)
    for m in range(1, max_vertices + 1):
        for _ in range(per_m):
            loops = ["t%d" % i for i in range(m)]
            entries = [
                (loops[i], loops[j],
                 Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                for i in range(m) for j in range(i + 1, m)
            ]
            links = LinkingMatrix(entries)
            for ln in loops:
                links.declare_loop(ln)
            config = MultiDisk(tuple(
                DiskAtom(target.degree((1,)), frozenset(["p%d" % i]),
                         frozenset(), 1, loops[i])
                for i in range(m)
            ))
            checked += 1
            if tree_weight_sum(config, links) != tree_weight_sum_enumerated(
                config, links, cap=max_vertices
            ):
                failures += 1
    return failures == 0, "%d matrices, %d failures" % (checked, failures)


def tree_count_suite(max_vertices=7):
    """Tree enumeration against the closed-form count: the distinct edge
    sets among the enumerated trees.  Each tree is kept as a bytes row of
    its edge indices, all below 256, so distinct rows are exactly
    distinct trees."""
    for m in range(1, max_vertices + 1):
        expected = 1 if m == 1 else m ** (m - 2)
        got = len({bytes(tree)
                   for tree in tree_edge_indices(m, cap=max_vertices)})
        if got != expected:
            return False, "vertex count %d: %d trees, expected %d" % (
                m, got, expected
            )
    return True, "all vertex counts up to %d" % max_vertices
