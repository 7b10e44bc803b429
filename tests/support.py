"""Shared oracle machinery for the test suite.

The orientation oracles here never call the closed-form sign rules they
check: every expected sign comes from explicit bases and determinants of
an explicit linear model (with an independent Bareiss determinant as a
second opinion on the arithmetic).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from opengw import linalg
from opengw.orientation import LinearFiberProblem, fiber_orientation_sign


def det_bareiss(a):
    """Fraction-free Bareiss determinant; independent of linalg.det."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rand_frac(rng, lo=-5, hi=5, max_den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_matrix(rng, rows, cols, **kw):
    return [[rand_frac(rng, **kw) for _ in range(cols)] for _ in range(rows)]


def rand_sign(rng):
    return rng.choice((1, -1))


def sign_of(x):
    if x == 0:
        raise ValueError("sign of zero")
    return 1 if x > 0 else -1


def random_fiber_problem(rng, max_dim=6, min_fiber=0, need_m_face=False,
                         need_g_face=False):
    """A random transverse LinearFiberProblem (resampled until valid)."""
    while True:
        dim_m = rng.randint(1 if need_m_face else 0, max_dim)
        dim_g = rng.randint(1 if need_g_face else 0, max_dim)
        dim_x = rng.randint(0, max_dim)
        if dim_m + dim_g - dim_x < min_fiber:
            continue
        prob = LinearFiberProblem.build(
            rand_matrix(rng, dim_x, dim_m),
            rand_matrix(rng, dim_x, dim_g),
            dim_m, dim_g, dim_x,
            rand_sign(rng), rand_sign(rng), rand_sign(rng),
        )
        if dim_x == 0 or linalg.rank(prob.combined_map()) == dim_x:
            return prob


def kernel_basis_columns(matrix, ambient):
    vecs = linalg.nullspace(matrix) if matrix else [
        [Fraction(int(i == j)) for i in range(ambient)] for j in range(ambient)
    ]
    return linalg.columns_matrix(vecs), len(vecs)


def boundary_face_oracle(rng, face, max_dim=5):
    """Expected boundary-face sign from the explicit linear model.

    Returns (problem, observed_sign) where observed_sign satisfies
    [boundary orientation of the face] = observed_sign * [fiber product
    orientation of the boundary problem], computed purely from bases and
    determinants.
    """
    while True:
        prob = random_fiber_problem(
            rng, max_dim=max_dim, min_fiber=1,
            need_m_face=(face == "M"), need_g_face=(face == "G"),
        )
        dim_m, dim_g, dim_x = prob.space_m.dim, prob.space_g.dim, prob.space_x.dim
        n = dim_m + dim_g
        d = prob.fiber_dim
        combined = prob.combined_map()
        # cut coordinate: last coordinate of M or of G
        cut = dim_m - 1 if face == "M" else n - 1
        kernel_vecs = linalg.nullspace(combined) if dim_x else [
            [Fraction(int(i == j)) for i in range(n)] for j in range(n)
        ]
        face_rows = combined + [[Fraction(int(j == cut)) for j in range(n)]]
        face_vecs = linalg.nullspace(face_rows)
        if len(face_vecs) != d - 1:
            continue  # the cut functional vanishes on the kernel; resample
        # boundary-restricted problem must itself be transverse
        if face == "M":
            sub_df = [row[: dim_m - 1] for row in prob.df]
            sub_dg = [list(row) for row in prob.dg]
            sub_prob = LinearFiberProblem.build(
                sub_df, sub_dg, dim_m - 1, dim_g, dim_x,
                prob.space_m.sign, prob.space_g.sign, prob.space_x.sign,
            )
        else:
            sub_df = [list(row) for row in prob.df]
            sub_dg = [row[: dim_g - 1] for row in prob.dg]
            sub_prob = LinearFiberProblem.build(
                sub_df, sub_dg, dim_m, dim_g - 1, dim_x,
                prob.space_m.sign, prob.space_g.sign, prob.space_x.sign,
            )
        if dim_x and linalg.rank(sub_prob.combined_map()) != dim_x:
            continue
        # outward vector: kernel element with positive cut coordinate
        outward = next((v for v in kernel_vecs if v[cut] != 0), None)
        assert outward is not None
        if outward[cut] < 0:
            outward = [-x for x in outward]
        kmat = linalg.columns_matrix(kernel_vecs)
        sigma_f = fiber_orientation_sign(prob, kmat)
        # express [face basis | outward] in kernel coordinates
        target = linalg.columns_matrix(face_vecs + [outward])
        coeffs = linalg.solve(kmat, target)
        assert coeffs is not None
        boundary_sign = sigma_f * sign_of(det_bareiss(coeffs))
        # the same face basis, in the coordinates of the boundary problem
        dropped = [[v[i] for v in face_vecs] for i in range(n) if i != cut]
        sigma_face = fiber_orientation_sign(sub_prob, dropped)
        return prob, boundary_sign * sigma_face


def flip_oracle(rng, max_dim=4):
    """Observed sign of a commuting-diffeomorphism flip on the fiber.

    Builds diagonal +-1 diffeomorphisms of the three factors, a pair of
    equivariant maps, and compares the orientation of a kernel basis with
    its image under the flip.  Returns (factor signs, observed sign).
    """
    while True:
        dim_m = rng.randint(0, max_dim)
        dim_g = rng.randint(0, max_dim)
        dim_x = rng.randint(0, min(4, dim_m + dim_g))
        sm = [rand_sign(rng) for _ in range(dim_m)]
        sg = [rand_sign(rng) for _ in range(dim_g)]
        sx = [rand_sign(rng) for _ in range(dim_x)]
        half = Fraction(1, 2)

        def equivariant(rows, cols, srow, scol):
            a = rand_matrix(rng, rows, cols)
            return [
                [half * (a[i][j] + srow[i] * a[i][j] * scol[j]) for j in range(cols)]
                for i in range(rows)
            ]

        df = equivariant(dim_x, dim_m, sx, sm)
        dg = equivariant(dim_x, dim_g, sx, sg)
        prob = LinearFiberProblem.build(
            df, dg, dim_m, dim_g, dim_x,
            rand_sign(rng), rand_sign(rng), rand_sign(rng),
        )
        if dim_x and linalg.rank(prob.combined_map()) != dim_x:
            continue
        n = dim_m + dim_g
        kmat, d = kernel_basis_columns(prob.combined_map() if dim_x else [], n)
        if dim_x == 0:
            kmat = linalg.identity(n)
            d = n
        diag = sm + sg
        flipped = [[diag[i] * kmat[i][j] for j in range(d)] for i in range(n)]
        base = fiber_orientation_sign(prob, kmat) if n else 1
        moved = fiber_orientation_sign(prob, flipped) if n else 1
        det_signs = (
            _diag_det_sign(sm),
            _diag_det_sign(sg),
            _diag_det_sign(sx),
        )
        return det_signs, base * moved


def _diag_det_sign(entries):
    s = 1
    for e in entries:
        s *= e
    return s


def association_oracle(rng, max_dim=3):
    """Observed sign between the two iterated fiber product orientations.

    Model: f: M -> X, e: M -> Y, g: G -> X, h: C -> Y.  Returns
    (dim X, codim h, observed sign) with observed = [iterated orientation]
    * [one-step orientation] on a shared kernel basis.
    """
    while True:
        dim_m = rng.randint(0, max_dim + 2)
        dim_g = rng.randint(0, max_dim)
        dim_c = rng.randint(0, max_dim)
        dim_x = rng.randint(0, max_dim)
        dim_y = rng.randint(0, max_dim)
        s_m, s_g, s_c, s_x, s_y = (rand_sign(rng) for _ in range(5))
        df = rand_matrix(rng, dim_x, dim_m)
        de = rand_matrix(rng, dim_y, dim_m)
        dg = rand_matrix(rng, dim_x, dim_g)
        dh = rand_matrix(rng, dim_y, dim_c)
        inner = LinearFiberProblem.build(df, dg, dim_m, dim_g, dim_x, s_m, s_g, s_x)
        if dim_x and linalg.rank(inner.combined_map()) != dim_x:
            continue
        n1 = dim_m + dim_g
        k1_vecs = linalg.nullspace(inner.combined_map()) if dim_x else [
            [Fraction(int(i == j)) for i in range(n1)] for j in range(n1)
        ]
        d1 = len(k1_vecs)
        k1 = linalg.columns_matrix(k1_vecs)
        inner_cand = k1 if d1 else [[] for _ in range(n1)]
        inner_sign = fiber_orientation_sign(inner, inner_cand)
        if d1 and inner_sign == -1:
            k1_vecs[0] = [-x for x in k1_vecs[0]]
            k1 = linalg.columns_matrix(k1_vecs)
            inner_sign = 1
        # e' on the inner fiber, in k1 coordinates; a rigid inner fiber
        # is a signed point and keeps its sign
        de_inner = [
            [sum(de[i][t] * k1[t][j] for t in range(dim_m)) for j in range(d1)]
            for i in range(dim_y)
        ]
        outer = LinearFiberProblem.build(
            de_inner, dh, d1, dim_c, dim_y, inner_sign, s_c, s_y
        )
        if dim_y and linalg.rank(outer.combined_map()) != dim_y:
            continue
        # one-step problem: M against (G x C) over (X x Y)
        big_df = df + de
        big_dg = [list(row) + [Fraction(0)] * dim_c for row in dg] + [
            [Fraction(0)] * dim_g + list(row) for row in dh
        ]
        onestep = LinearFiberProblem.build(
            big_df, big_dg, dim_m, dim_g + dim_c, dim_x + dim_y,
            s_m, s_g * s_c, s_x * s_y,
        )
        if (dim_x + dim_y) and linalg.rank(onestep.combined_map()) != dim_x + dim_y:
            continue
        n = dim_m + dim_g + dim_c
        kb_vecs = linalg.nullspace(onestep.combined_map()) if dim_x + dim_y else [
            [Fraction(int(i == j)) for i in range(n)] for j in range(n)
        ]
        if not kb_vecs:
            continue  # rigid instance carries no basis to compare
        kb = linalg.columns_matrix(kb_vecs)
        sign_onestep = fiber_orientation_sign(onestep, kb)
        # the same vectors in (inner fiber) x C coordinates
        mg_part = [[kb[i][j] for j in range(len(kb_vecs))] for i in range(n1)]
        coeffs = linalg.solve(k1, mg_part) if d1 else [[] for _ in range(0)]
        if d1 and coeffs is None:
            continue
        c_part = [[kb[n1 + i][j] for j in range(len(kb_vecs))] for i in range(dim_c)]
        iterated_basis = (coeffs if d1 else []) + c_part
        sign_iter = fiber_orientation_sign(outer, iterated_basis)
        return dim_x, dim_y - dim_c, sign_iter * sign_onestep


def make_rng(seed):
    return random.Random(seed)


# --- synthetic disk-count instances ----------------------------------------


def synthetic_instance(rng, n_points=2, n_quartic=1, n_sextic=0, n_conic=0,
                       atom_choices=(0, 1, 1, 2), lk_range=3):
    """A random declared target plus a rigid-disk table.

    Rank-1 lattice with Maslov 2 per generator step; every sub-tuple of
    the top tuple that can carry rigid disks receives 0..2 atoms with
    random signs, and all loop pairs get small random rational linking
    numbers.  Returns (target, atom_table, top_tuple).
    """
    from opengw.lattice import Target
    from opengw.multidisk import AtomTable, DiskAtom, LinkingMatrix

    points = ["p%d" % i for i in range(n_points)]
    descs = (
        [("Q%d" % i, 4) for i in range(n_quartic)]
        + [("S%d" % i, 6) for i in range(n_sextic)]
        + [("C%d" % i, 2) for i in range(n_conic)]
    )
    target = Target([("g", 1, 2)], descriptors=descs)
    codim = {name: c for name, c in descs}

    def degree_for(k_set, l_set):
        # dimension-0 forces the degree: 2n = 2|K| + sum(codim - 2)
        total = 2 * len(k_set) + sum(codim[d] - 2 for d in l_set)
        return None if total % 2 else total // 2

    atoms = []
    counter = itertools.count()
    desc_names = [name for name, _ in descs]
    for k_mask in range(2 ** len(points)):
        k_set = frozenset(p for i, p in enumerate(points) if k_mask >> i & 1)
        for l_mask in range(2 ** len(desc_names)):
            l_set = frozenset(
                d for i, d in enumerate(desc_names) if l_mask >> i & 1
            )
            n = degree_for(k_set, l_set)
            if n is None or n == 0:
                continue
            for _ in range(rng.choice(atom_choices)):
                atoms.append(DiskAtom(
                    target.degree((n,)), k_set, l_set,
                    rng.choice((1, -1)), "L%d" % next(counter),
                ))
    loops = [a.loop for a in atoms]
    entries = []
    for i in range(len(loops)):
        for j in range(i + 1, len(loops)):
            entries.append((
                loops[i], loops[j],
                Fraction(rng.randint(-lk_range, lk_range), rng.randint(1, 2)),
            ))
    links = LinkingMatrix(entries)
    for loop in loops:
        links.declare_loop(loop)
    table = AtomTable(target, atoms, links)
    top_n = len(points) + sum(
        (codim[d] - 2) // 2 for d in desc_names
    )
    top = target.constraint_tuple((top_n,), points, desc_names)
    return target, table, top


def dim0_subtuples(target, table, top):
    """The dimension-0 tuples below (and including) the top tuple."""
    out = [
        a for a in target.predecessors(top)
        if target.dimension(a) == 0 and not a.is_point_tuple()
    ]
    if target.dimension(top) == 0:
        out.append(top)
    return out


# --- the rescan WDVV solver, kept as an oracle for the indexed one ----------


def solve_wdvv_rescan(target, model, closed, seeds, area_bound,
                      max_insertions=3):
    """The solver loop that `opengw.wdvv.solve_wdvv` replaced.

    Every sweep re-substitutes all solved brackets into every form, for
    every pending unknown, and every pass rebuilds every deferred
    instance.  Same schedule and tie-break as the indexed solver; the
    tests compare the two result for result.
    """
    from opengw.wdvv import (
        LinForm,
        NonlinearEquationError,
        OpenInvariantTable,
        RelationInstance,
        SolveResult,
        relation_instances,
        unknown_keys,
        wdvv1_form,
        wdvv2_form,
    )

    table = OpenInvariantTable(target, model)
    for (coords, ins), value in seeds.entries():
        table.set(coords, ins, value)
    unknowns = set(unknown_keys(target, model, seeds, area_bound, max_insertions))
    instances = relation_instances(target, model, area_bound, max_insertions)
    solved_values = {}

    def resolve(beta, insertions):
        fixed = table.resolve_fixed(beta, insertions)
        if fixed is not None:
            return LinForm(fixed)
        key = table._key(beta, insertions)
        if key in solved_values:
            return LinForm(solved_values[key])
        if key in unknowns:
            return LinForm(Fraction(0), {key: Fraction(1)})
        return LinForm(table.value(beta, insertions))

    def build(inst):
        builder = wdvv1_form if inst.relation == 1 else wdvv2_form
        return builder(
            target, model, closed, resolve,
            target.degree(inst.beta_coords), inst.gamma,
        )

    forms = {}
    deferred = list(instances)
    solved_log = []
    progress = True
    while progress:
        progress = False
        still = []
        for inst in deferred:
            try:
                form = build(inst)
            except NonlinearEquationError:
                still.append(inst)
                continue
            if form is not None:
                forms[inst] = form
            progress = progress or form is not None
        deferred = still
        advanced = True
        while advanced:
            advanced = False
            pending = sorted(
                unknowns - set(solved_values),
                key=lambda key: (target.degree(key[0]).area, len(key[1]), key),
            )
            for key in pending:
                for inst in sorted(forms, key=RelationInstance.sort_key):
                    reduced = forms[inst].substitute(solved_values)
                    if set(reduced.coeffs) == {key} and reduced.coeffs[key] != 0:
                        value = -reduced.const / reduced.coeffs[key]
                        solved_values[key] = value
                        solved_log.append((key, inst, value))
                        advanced = True
                        progress = True
                        break
        if not deferred:
            break
    for (coords, ins), value in sorted(solved_values.items()):
        table.set(coords, ins, value)
    unsolved = sorted(unknowns - set(solved_values))
    residuals = []
    for inst in instances:
        if inst in forms:
            reduced = forms[inst].substitute(solved_values)
            residuals.append(
                (inst, reduced.const if reduced.is_constant else None)
            )
        elif inst in deferred:
            residuals.append((inst, None))
    return SolveResult(
        table=table,
        solved=solved_log,
        unsolved=unsolved,
        residuals=residuals,
        nonlinear=sorted(deferred, key=RelationInstance.sort_key),
    )
