"""Shared machinery for the test suite.

The orientation oracles live in `opengw.selfcheck`; the tests import them
from there and pass their own seeds and scales.  This module keeps what
only the tests need: two determinants to cross-check `linalg.det` (a
Bareiss elimination in Fractions and a permutation expansion that
eliminates nothing), the synthetic instance generator and a writer of
its instances as input documents, the direct class-level enumerator of
degeneration classes and the raw expansion into ordered splittings
(both independent of the live-class generator behind
`Target.degeneration_classes`), and the open WDVV relation forms built
term by term to cross-check `wdvv1_form` and `wdvv2_form`.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
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


def det_leibniz(a):
    """Determinant by permutation expansion, for n <= 6.  No elimination
    and no division, so it also holds over any commutative ring."""
    n = len(a)
    if n > 6:
        raise ValueError("permutation expansion is capped at n = 6")
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total + term
    return total


def make_rng(seed):
    return random.Random(seed)


def toy_atoms():
    """The bundled toy: (target, atom bundle)."""
    from opengw import fileio

    data = os.path.join(os.path.dirname(fileio.__file__), "data")
    target = fileio.load_target(os.path.join(data, "toy_target.json")).target
    return target, fileio.load_atoms(os.path.join(data, "toy_atoms.json"),
                                     target)


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


def instance_documents(target, table, top):
    """An instance as opengw-target and opengw-atoms documents, with top
    as the atoms document's tuple of interest; every loop pair is listed
    in the linking data."""
    from opengw.fileio import FORMAT_VERSION, rational_str

    target_doc = {
        "format": "opengw-target", "version": FORMAT_VERSION,
        "generators": [
            {"name": name, "area": rational_str(area), "maslov": maslov}
            for name, area, maslov in zip(target.generator_names,
                                          target.gen_areas, target.gen_maslov)
        ],
        "descriptors": [
            {"id": d.ident, "codim": d.codim}
            for d in sorted(target.descriptors.values(), key=lambda d: d.ident)
        ],
    }
    loops = sorted(a.loop for a in table.atoms)
    atoms_doc = {
        "format": "opengw-atoms", "version": FORMAT_VERSION,
        "atoms": [
            {"degree": list(a.degree.coords), "points": sorted(a.points),
             "descriptors": sorted(a.descriptors), "sign": a.sign,
             "loop": a.loop}
            for a in table.atoms
        ],
        "linking": [
            [a, b, rational_str(table.links.lk(a, b))]
            for a, b in itertools.combinations(loops, 2)
        ],
        "tuples_of_interest": [{
            "degree": list(top.beta.coords), "points": sorted(top.points),
            "descriptors": sorted(top.descriptors),
        }],
    }
    return target_doc, atoms_doc


def dim0_subtuples(target, table, top):
    """The dimension-0 tuples below (and including) the top tuple."""
    out = [
        a for a in target.predecessors(top)
        if target.dimension(a) == 0 and not a.is_point_tuple()
    ]
    if target.dimension(top) == 0:
        out.append(top)
    return out


# --- degeneration classes, enumerated directly ------------------------------


def direct_degeneration_classes(target, alpha):
    """Degenerations grouped up to permutation of the parts.

    Enumerated directly at the class level: a choice of center
    descriptors, a set partition of the remaining labels into part
    blocks, effective degrees for the blocks, and an unordered
    multiset of nonzero degrees for unlabeled parts.  Returns a
    sorted list of (canonical representative, number of raw ordered
    splittings in the class).  The part count is capped structurally:
    one part per label plus one per area gap in the degree.
    """
    from opengw.lattice import ConstraintTuple, DegenerationType, _subsets

    cap = (
        len(alpha.points) + len(alpha.descriptors)
        + int(alpha.beta.area / target.area_gap)
    )
    points = sorted(alpha.points)
    descs = sorted(alpha.descriptors)
    out = []
    for center_l in _subsets(alpha.descriptors):
        labels = points + [d for d in descs if d not in center_l]
        for blocks in _set_partitions(labels):
            if len(blocks) > cap:
                continue
            block_tuples = [
                (
                    frozenset(x for x in block if x in alpha.points),
                    frozenset(x for x in block if x not in alpha.points),
                )
                for block in blocks
            ]
            for labeled in _block_degree_choices(
                target, alpha.beta, len(blocks)
            ):
                rest = alpha.beta
                for d in labeled:
                    rest = rest - d
                parts_labeled = tuple(
                    ConstraintTuple(d, pts, dsc)
                    for d, (pts, dsc) in zip(labeled, block_tuples)
                    if not (d.is_zero and not pts and not dsc)
                )
                if len(parts_labeled) != len(blocks):
                    continue
                for center_beta, unlabeled in _center_and_free_parts(
                    target, rest, cap - len(blocks)
                ):
                    k = len(blocks) + len(unlabeled)
                    if center_beta.is_zero and k == 1 and not center_l:
                        continue
                    if k == 0 and points:
                        continue
                    parts = parts_labeled + tuple(
                        ConstraintTuple(d, frozenset(), frozenset())
                        for d in unlabeled
                    )
                    eta = DegenerationType(
                        center_beta, center_l,
                        tuple(sorted(parts, key=ConstraintTuple.sort_key)),
                    )
                    out.append((eta, orderings(parts)))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def orderings(parts):
    """Number of distinct ordered arrangements of the parts."""
    return math.factorial(len(parts)) // math.prod(
        math.factorial(c) for c in Counter(parts).values()
    )


def _block_degree_choices(target, beta, blocks):
    """Ordered tuples of `blocks` effective degrees with sum <= beta."""
    out = []

    def rec(remaining, chosen):
        if len(chosen) == blocks:
            out.append(tuple(chosen))
            return
        for d in target.effective_below(remaining):
            rec(remaining - d, chosen + [d])

    rec(beta, [])
    return out


def _center_and_free_parts(target, budget, max_free):
    """Pairs (center degree, non-increasing tuple of nonzero degrees)
    with center + sum = budget."""
    out = []
    nonzero = [
        d for d in target.effective_below(budget) if not d.is_zero
    ]
    nonzero.sort(key=lambda d: d.coords, reverse=True)

    def rec(remaining, start, chosen):
        if len(chosen) <= max_free:
            out.append((remaining, tuple(chosen)))
        if len(chosen) >= max_free:
            return
        for idx in range(start, len(nonzero)):
            d = nonzero[idx]
            if (remaining - d).is_effective:
                rec(remaining - d, idx, chosen + [d])

    rec(budget, 0, [])
    return out


def _set_partitions(items):
    """All partitions of a list into nonempty blocks (including the empty
    partition of the empty list)."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        out.append([[first]] + part)
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1:])
    return out


# --- the raw expansion into ordered splittings -------------------------------


RAW_EXPANSION_CAP = 500_000


def raw_degenerations(target, alpha, cap=None):
    """The raw set of degeneration types of alpha (ordered parts).

    Expanded from the direct class enumeration; refuses to materialize
    more than `cap` raw splittings.
    """
    from opengw.lattice import DegenerationType

    cap = RAW_EXPANSION_CAP if cap is None else cap
    classes = direct_degeneration_classes(target, alpha)
    total = sum(count for _, count in classes)
    if total > cap:
        raise ValueError(
            "raw splitting expansion of size %d exceeds the cap %d"
            % (total, cap)
        )
    out = []
    for eta, _count in classes:
        for perm in distinct_permutations(eta.parts):
            out.append(DegenerationType(
                eta.center_degree, eta.center_descriptors, perm
            ))
    out.sort(key=DegenerationType.sort_key)
    return out


def distinct_permutations(parts):
    """Distinct orderings of a tuple of (hashable) parts.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) on the parts' first-seen
    ranks: each distinct ordering once, in lexicographic rank order,
    without walking the n! orderings of the plain permutations.
    """
    rank = {}
    a = [rank.setdefault(p, len(rank)) for p in parts]
    a.sort()
    values = list(rank)
    n = len(a)
    out = [tuple(values[i] for i in a)]
    while True:
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return out
        l = n - 1
        while a[j] >= a[l]:
            l -= 1
        a[j], a[l] = a[l], a[j]
        a[j + 1:] = reversed(a[j + 1:])
        out.append(tuple(values[i] for i in a))


# --- the open WDVV relations, term by term ----------------------------------


def reference_wdvv_form(target, model, closed, resolve, relation, beta, gamma,
                        bino):
    """A relation form built by the defining loops: every complex or real
    split, every anchored partition and every (i, j) pair of the inverse
    pairing, added one term at a time with `LinForm` arithmetic.

    Returns None where the relation does not apply; raises
    NonlinearEquationError at the first product of two unknowns, in the
    order the loops below meet them.
    """
    from opengw.wdvv import LinForm, anchored_partitions

    def mixed_sum(partitions):
        total = LinForm()
        for rel_part, b_coords in target.complex_splits(beta):
            for left, right in partitions:
                closed_ins = [gamma[x - 1] for x in left]
                open_ins = [gamma[x - 1] for x in right]
                for i in range(1, model.size + 1):
                    closed_val = closed.value(
                        b_coords,
                        [model.restrict(x) for x in closed_ins + [i]],
                    )
                    if closed_val == 0:
                        continue
                    for j in range(1, model.size + 1):
                        g = model.g_inv(i, j)
                        if g == 0:
                            continue
                        open_val = resolve(rel_part,
                                           tuple(sorted(open_ins + [j])))
                        total = total + open_val * (closed_val * g)
        return total

    def open_sum(partitions, k, shift):
        total = LinForm()
        for b1, b2 in target.real_splits(beta):
            for left, right in partitions:
                left_ins = tuple(sorted(gamma[x - 1] for x in left))
                right_ins = tuple(sorted(gamma[x - 1] for x in right))
                count = target.boundary_point_count(
                    b1, [model.degree_of(i) for i in left_ins]
                )
                if count is None:
                    continue
                weight = bino(k, count - shift)
                if weight == 0:
                    continue
                total = total + (resolve(b1, left_ins)
                                 * resolve(b2, right_ins)) * weight
        return total

    l = len(gamma)
    count = target.boundary_point_count(
        beta, [model.degree_of(i) for i in gamma]
    )
    k = None if count is None else count - 1
    if relation == 1:
        if l < 2 or k is None or k < 1:
            return None
        left = anchored_partitions(l, "left", i=2)
        right = anchored_partitions(l, "right", j=2)
        return (mixed_sum(left) - open_sum(left, k - 1, 0)
                + open_sum(right, k - 1, 1))
    if l < 3 or k is None or k < 0:
        return None

    def side(i, j):
        both = anchored_partitions(l, "both", i=i, j=j)
        return mixed_sum(both) - open_sum(both, k, 0)

    return side(2, 3) - side(3, 2)
