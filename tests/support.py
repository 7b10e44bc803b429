"""Shared machinery for the test suite.

The orientation oracles live in `opengw.selfcheck`; the tests import them
from there and pass their own seeds and scales.  This module keeps what
only the tests need: an independent Bareiss determinant to cross-check
`linalg.det`, the synthetic instance generator, and the rescan WDVV
solver that the indexed one is compared against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


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
