"""Shared machinery for the test suite.

The orientation oracles live in `opengw.selfcheck`; the tests import them
from there and pass their own seeds and scales.  This module keeps what
only the tests need: the rational determinant `det` (rows scaled to
integers, then `linalg._det_bareiss`), the oracle for every determinant
a test needs, and two determinants to cross-check it (a Bareiss
elimination in Fractions and a permutation expansion that eliminates
nothing), a right inverse for the splitting route to the
fiber product orientation, the synthetic instance generator and a writer of
its instances as input documents, the direct class-level enumerator of
degeneration classes and the raw expansion into ordered splittings
(both independent of the live-class generator behind
`Target.degeneration_classes`), the quotient side of the branch
bijection enumerated on loop-pair objects (the oracle for the packed
check in `bounding_chain`), the listing of the packed decorated
configurations and the branch-bijection check run one of them at a time
(the reference for the check, which proves its first two steps once per
census bucket and configuration, and lists none), the census of cut
shapes with every tree cut at every center by its own walk (the
reference for the census, which cuts a tree at all centers from one
rooted walk), the class listing of a tuple, alone or through an extra
point, filtered from the direct enumerator's full list and evaluated
class by class with its own sign bookkeeping, and the boundary, the
degree invariant and the weighted invariant summed from it (the
references for a chain's values, which `bounding_chain.assemble_chain`
reads off memoized sums over the live classes, and the linking pairs
those classes ask for), the open WDVV relation forms built term by
term, in their own Fraction form (`FractionForm`) and its arithmetic,
to cross-check `wdvv1_form` and `wdvv2_form`, which build the integer
`wdvv.LinForm`, and the open WDVV solver that rebuilds a deferred form
from scratch and eliminates in Fractions (the reference for
`solve_wdvv`, which resumes it).  It also keeps the small helpers that
only tests call: the four fiber-count expressions of a linking number,
the rational formatter of the document writer and the clamped binomial
of the negative controls; the randint forms of the self-checks' random
rationals (the references for the draws `selfcheck` reads off
getrandbits); and the reference routines that production
does not call (the class key of a splitting, its point labels, chain
slots and center tuple, tuples that cannot fit below a given one, the
order on tuples, the
combined map of a fiber problem, the orientation sign of a fiber
problem read off one n x n determinant (the reference for the sign
`orientation.fiber_orientation_sign` reads off the problem's
elimination), the sign of an exact sequence, rank,
nullspace and transpose, the spanning trees as edge sets, and the tree
table decoded one Pruefer sequence at a time, the reference for the
lane decode of `multidisk._packed_trees`).
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import random
import weakref
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction


def det(a):
    """Determinant of a square matrix of int or Fraction entries, as a
    Fraction; Fraction(0) when it is singular.

    Each row is scaled to integers by the lcm of its denominators, the
    integer matrix goes through `linalg._det_bareiss`, and the result
    is divided by the product of the scales.
    """
    from opengw import linalg

    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    scaled = [linalg._integer_scaled(row) for row in a]
    return Fraction(linalg._det_bareiss([ints for ints, _ in scaled]),
                    math.prod(d for _, d in scaled))


def det_bareiss(a):
    """Bareiss determinant in Fractions; independent of `det`."""
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
    and no division."""
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


def right_inverse(a):
    """A matrix J with A J = I; None when A is not surjective."""
    from opengw import linalg

    return linalg.solve(a, linalg.identity(len(a)))


def make_rng(seed):
    return random.Random(seed)


def reference_rand_matrix(rng, rows, cols, top=5):
    """`selfcheck.rand_matrix` in its randint form, the reference for
    the draws it reads straight off rng.getrandbits: per entry
    p = rng.randint(-top, top) and then q = rng.randint(1, 3), the entry
    Fraction(p, q).  top = 6 is the form of the matrix-tree weights."""
    return [[Fraction(rng.randint(-top, top), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def reference_matrix_tree_weights(rng, m):
    """One weight list of `selfcheck.matrix_tree_suite` in its randint
    form: a p/q, |p| <= 6, 1 <= q <= 3, per edge of
    itertools.combinations(range(m), 2)."""
    return reference_rand_matrix(rng, 1, m * (m - 1) // 2, top=6)[0]


def rational_str(value):
    return str(Fraction(value))


def linking_number(links, a, b, variant=1):
    """One of the four equivalent fiber-count expressions for lk.

    Variants 1 and 3 (chain of a against b, chain of b against a)
    agree; variants 2 and 4 (arguments through the loop first) are
    their negatives.
    """
    from opengw.multidisk import LinkingError

    if variant not in (1, 2, 3, 4):
        raise LinkingError("variant must be 1..4")
    base = links.lk(a, b) if variant in (1, 2) else links.lk(b, a)
    return base if variant in (1, 3) else -base


def clamped_binomial(n, m):
    """C(n, m) with m clamped into [0, n] where the relations' binomial
    vanishes: the wrong convention of the negative controls."""
    return math.comb(n, min(max(m, 0), n))


# --- reference routines that production does not call ----------------------


def class_key(eta):
    """Canonical key identifying a splitting up to permuting its parts."""
    return (
        eta.center_degree.coords,
        tuple(sorted(eta.center_descriptors)),
        tuple(sorted(p.sort_key() for p in eta.parts)),
    )


def point_labels(eta):
    """Labels of a splitting's parts that are bare point tuples."""
    return frozenset(
        next(iter(p.points)) for p in eta.parts if p.is_point_tuple()
    )


def chain_slots(eta):
    """Indices of a splitting's parts that are not bare point tuples."""
    return tuple(i for i, p in enumerate(eta.parts) if not p.is_point_tuple())


def center_tuple(eta):
    """Central tuple of a splitting (center degree, point-part labels,
    center descriptors); None when that tuple would be empty."""
    from opengw.lattice import ConstraintTuple

    pts = point_labels(eta)
    if eta.center_degree.is_zero and not pts and not eta.center_descriptors:
        return None
    return ConstraintTuple(eta.center_degree, pts, eta.center_descriptors)


def parts_that_cannot_fit(target, alpha):
    """Tuples that no class of alpha can hold, each once without labels
    of alpha and once with alpha's least label: of the first generator's
    degree with a point label or a declared descriptor alpha lacks, and
    of 2, 4 and 8 times alpha's largest coordinate (at least 1) along
    each generator.  Those coordinates are past the field a packed
    degree of alpha has, and the larger ones would land in the next
    field if read unchecked."""
    least = ([("points", min(alpha.points))] if alpha.points
             else [("descriptors", min(alpha.descriptors))]
             if alpha.descriptors else [])
    lacking = [("points", "outside")] + [
        ("descriptors", d) for d in sorted(target.descriptors)
        if d not in alpha.descriptors]
    top = max(max(alpha.beta.coords), 1)
    large = [target.degree([k * top * (j == i) for j in range(target.rank)])
             for k in (2, 4, 8) for i in range(target.rank)]

    def with_labels(beta, labels):
        kinds = {"points": [], "descriptors": []}
        for kind, x in labels:
            kinds[kind].append(x)
        return target.constraint_tuple(beta, **kinds)

    return [with_labels(beta, labels + own)
            for own in ([], least)
            for beta, labels in
            [(target.generator(0), [label]) for label in lacking]
            + [(beta, []) for beta in large]]


def precedes(first, second, strict=False):
    """The partial order on constraint tuples: degree difference in the
    positive cone, labels nested."""
    if not (second.beta - first.beta).in_positive_cone():
        return False
    if not (first.points <= second.points
            and first.descriptors <= second.descriptors):
        return False
    return not strict or first != second


def combined_map(prob):
    """The matrix of (v, w) |-> dg(w) - df(v) of a fiber problem, built
    from its df and dg: the map whose integer rows the problem
    eliminates."""
    return [[-x for x in f] + list(g) for f, g in zip(prob.df, prob.dg)]


def reference_fiber_orientation_sign(prob, candidate):
    """The orientation sign of `fiber_orientation_sign` read off one
    n x n determinant, det[C | A^T] with A the combined map of the
    transverse problem `prob` (n = dim M + dim G) and C the matrix whose
    columns are the candidate's vectors, instead of off the problem's
    elimination; the
    same refusals of a candidate of the right shape (fiber_dim vectors
    of length n) that is outside the kernel or rank-deficient inside it.
    The reference for the echelon identity.

    A C = 0 is checked on the rational map, a candidate outside the
    kernel does not span when its rank is short, and the determinant is
    `det` of the rows of the transpose: the candidate's vectors, then
    the rows of A.
    """
    from opengw.orientation import OrientationError

    a = combined_map(prob)
    cols = [list(v) for v in candidate]
    if any(sum(x * y for x, y in zip(row, col)) for row in a for col in cols):
        if rank(cols) != prob.fiber_dim:
            raise OrientationError("candidate does not span the kernel")
        raise OrientationError("candidate does not lie in the kernel")
    d = det(cols + a)
    if d == 0:
        raise OrientationError("candidate does not span the kernel")
    sign = 1 if d > 0 else -1
    return sign * prob.space_m.sign * prob.space_g.sign * prob.space_x.sign


def exact_sequence_sign(sub, total, quotient, splitting, inclusion=None):
    """Sign of the sequence 0 -> sub -> total -> quotient -> 0.

    `splitting` maps the quotient into the total (columns = images of the
    quotient's standard basis) and must be a genuine complement of the
    included sub; `inclusion` defaults to the embedding onto the first
    dim(sub) coordinates.  Returns +1 when sub-basis followed by split
    quotient-basis is an oriented basis of the total, else -1; the result
    does not depend on the choice of splitting.
    """
    from opengw import linalg
    from opengw.orientation import OrientationError

    if sub.dim + quotient.dim != total.dim:
        raise OrientationError(
            "dimension mismatch: %d + %d != %d" % (sub.dim, quotient.dim, total.dim)
        )
    n = total.dim
    canonical = inclusion is None
    if canonical:
        inclusion = [[Fraction(int(i == j)) for j in range(sub.dim)] for i in range(n)]
    else:
        inclusion = linalg.mat(inclusion)
        if len(inclusion) != n or (inclusion and len(inclusion[0]) != sub.dim):
            raise OrientationError("inclusion has the wrong shape")
    split = linalg.mat(splitting) if quotient.dim else [[] for _ in range(n)]
    if quotient.dim and (len(split) != n or len(split[0]) != quotient.dim):
        raise OrientationError("splitting has the wrong shape")
    if canonical and quotient.dim:
        # canonical projection drops the first dim(sub) coordinates;
        # a splitting must invert it exactly
        for i in range(quotient.dim):
            for j in range(quotient.dim):
                if split[sub.dim + i][j] != (1 if i == j else 0):
                    raise OrientationError(
                        "not a splitting: projection o splitting != identity"
                    )
    assembled = [list(inclusion[i]) + list(split[i] if split else []) for i in range(n)]
    d = det(assembled) if n else Fraction(1)
    if d == 0:
        raise OrientationError("splitting does not complement the included sub")
    sign = 1 if d > 0 else -1
    return sign * sub.sign * quotient.sign * total.sign


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rank(a):
    """Rank of a rational matrix, from `linalg._int_echelon`."""
    from opengw import linalg

    if not a or not a[0]:
        return 0
    return len(linalg._int_echelon(linalg._int_rows(a))[1])


def nullspace(a):
    """Basis of the right kernel, as a list of column vectors: for each
    free column, the kernel vector with a 1 there and zeros at the other
    free columns; `linalg._int_kernel` divided out."""
    from opengw import linalg

    if not a:
        return []
    cols = len(a[0])
    m, pivots, _ = linalg._int_echelon(linalg._int_rows(a))
    free = [c for c in range(cols) if c not in pivots]
    return [[Fraction(x, v[f]) for x in v]
            for v, f in zip(linalg._int_kernel(m, pivots, cols), free)]


def spanning_trees(m):
    """All spanning trees of the complete graph on m labeled vertices,
    each a frozenset of edges (i, j), i < j, decoded from
    `multidisk.tree_edge_indices`."""
    from opengw.multidisk import tree_edge_indices

    edges = list(itertools.combinations(range(m), 2))
    return [frozenset([edges[k] for k in tree]) for tree in tree_edge_indices(m)]


def reference_packed_trees(m):
    """The packed tree table of `multidisk._packed_trees(m)`, m >= 2,
    decoded one Pruefer sequence at a time in linear time: a pointer
    walks forward to the next leaf, and a vertex that becomes a leaf
    behind it is taken at once.  The reference for the lane decode."""
    from opengw.multidisk import _edge_index_table

    index = _edge_index_table(m)
    packed = bytearray()
    for seq in itertools.product(range(m), repeat=m - 2):
        degree = [1] * m
        for v in seq:
            degree[v] += 1
        ptr = leaf = degree.index(1)
        edges = []
        for v in seq:
            edges.append(index[leaf][v])
            degree[v] -= 1
            if degree[v] == 1 and v < ptr:
                leaf = v
            else:
                ptr += 1
                while degree[ptr] != 1:
                    ptr += 1
                leaf = ptr
        edges.append(index[leaf][m - 1])
        packed += bytes(sorted(edges))
    return bytes(packed)


def edge_weights(config, links):
    """The linking numbers of the configuration's atom pairs, in the
    order of itertools.combinations(range(len(config)), 2): the
    `weights` argument of the tree sums."""
    return [links.lk(a.loop, b.loop)
            for a, b in itertools.combinations(config.atoms, 2)]


def tree_weights(configs, links):
    """The `tree_weight_sum` of each configuration, in order: the
    `weights` argument of `welschinger_count`."""
    from opengw.multidisk import tree_weight_sum

    return [tree_weight_sum(len(config), edge_weights(config, links))
            for config in configs]


def configuration_count(alpha, table, target):
    """`welschinger_count` over the tuple's configurations, with their
    tree weight sums evaluated here rather than read from the table."""
    from opengw.multidisk import welschinger_count

    configs = table.multi_disks(alpha)
    return welschinger_count(alpha, configs,
                             tree_weights(configs, table.links), target)


def toy_atoms():
    """The bundled toy: (target, atom bundle)."""
    from opengw import fileio

    data = os.path.join(os.path.dirname(fileio.__file__), "data")
    target = fileio.load_target(os.path.join(data, "toy_target.json")).target
    return target, fileio.load_atoms(os.path.join(data, "toy_atoms.json"),
                                     target)


# --- synthetic disk-count instances ----------------------------------------


def synthetic_instance(rng, n_points=2, n_quartic=1, n_sextic=0, n_conic=0,
                       atom_choices=(0, 1, 1, 2), lk_range=3, rank=1):
    """A random declared target plus a rigid-disk table.

    Maslov 2 per generator step; every sub-tuple of the top tuple that
    can carry rigid disks receives 0..2 atoms with random signs, and all
    loop pairs get small random rational linking numbers.  Returns
    (target, atom_table, top_tuple).

    rank 1 is one generator of area 1.  rank 2 adds a second generator of
    area 3/2: an atom of total degree n gets the split (a, n - a), a
    drawn right after its sign, and the top tuple of total degree n the
    split (n - n // 2, n // 2).  Only rank 2 draws splits, so rank 1
    makes the same draws as with no rank option.
    """
    from opengw.lattice import Target
    from opengw.multidisk import AtomTable, DiskAtom, LinkingMatrix

    points = ["p%d" % i for i in range(n_points)]
    descs = (
        [("Q%d" % i, 4) for i in range(n_quartic)]
        + [("S%d" % i, 6) for i in range(n_sextic)]
        + [("C%d" % i, 2) for i in range(n_conic)]
    )
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
    generators = [("g", 1, 2), ("h", Fraction(3, 2), 2)][:rank]
    target = Target(generators, descriptors=descs)
    codim = {name: c for name, c in descs}

    def split(n, a):
        return (n,) if rank == 1 else (a, n - a)

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
                sign = rng.choice((1, -1))
                a = rng.randint(0, n) if rank == 2 else None
                atoms.append(DiskAtom(
                    target.degree(split(n, a)), k_set, l_set,
                    sign, "L%d" % next(counter),
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
    top = target.constraint_tuple(split(top_n, top_n - top_n // 2), points,
                                  desc_names)
    return target, table, top


def instance_documents(target, table, top):
    """An instance as opengw-target and opengw-atoms documents, with top
    as the atoms document's tuple of interest; every loop pair is listed
    in the linking data."""
    from opengw.fileio import FORMAT_VERSION

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


# (points, quartics, sextics, conics) of the synthetic instances whose
# class listing the tests check
LISTING_SHAPES = ((1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (1, 1, 0, 0),
                  (2, 1, 0, 0), (1, 0, 1, 0), (2, 0, 0, 1), (1, 1, 1, 0))


def benchmark_synth():
    """The benchmark's own copy of the instance generator,
    perfbench/synth.py, loaded as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "synth.py")
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


# --- the branch bijection on loop-pair objects -----------------------------


@dataclass(frozen=True)
class DecoratedMultiDisk:
    """A configuration with a distinguished disk and a spanning tree.

    The tree is a set of unordered loop-id pairs over the configuration's
    boundary loops, and construction checks that it spans.
    """

    config: object
    center: object
    tree: frozenset

    def __post_init__(self):
        from opengw.multidisk import ConfigurationError

        if self.center not in self.config.atoms:
            raise ConfigurationError("distinguished disk not in the configuration")
        loops = {a.loop for a in self.config.atoms}
        if len(self.tree) != len(loops) - 1:
            raise ConfigurationError("tree must have exactly m - 1 edges")
        adj = {l: set() for l in loops}
        for edge in self.tree:
            a, b = tuple(edge)
            if a not in loops or b not in loops:
                raise ConfigurationError("tree edge outside the configuration")
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        stack = [next(iter(loops))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adj[node])
        if seen != loops:
            raise ConfigurationError("tree does not span the configuration")

    def sort_key(self):
        return (
            tuple(a.loop for a in self.config.atoms),
            self.center.loop,
            tuple(sorted(tuple(sorted(e)) for e in self.tree)),
        )


@dataclass(frozen=True)
class BranchDecomposition:
    """A splitting, a center disk, and (part tuple, decorated
    sub-configuration) branches in canonical order."""

    eta: object
    center: object
    branches: tuple

    def sort_key(self):
        return (
            self.eta.sort_key(),
            self.center.loop,
            tuple(b.sort_key() for _, b in self.branches),
        )


def _canonical_branches(pairs):
    return tuple(sorted(pairs, key=lambda pb: (pb[0].sort_key(),
                                               pb[1].sort_key())))


def loop_decorated_multidisks(alpha, table):
    """All (configuration, center, spanning tree) triples of the tuple,
    with `spanning_trees` edge sets turned into loop pairs."""
    out = []
    for config in table.multi_disks(alpha):
        m = len(config)
        for edges in spanning_trees(m):
            tree = frozenset(
                frozenset((config.atoms[i].loop, config.atoms[j].loop))
                for i, j in edges
            )
            for center in config.atoms:
                out.append(DecoratedMultiDisk(config, center, tree))
    return out


def loop_form(decorated):
    """A packed `bounding_chain.Decorated` as a DecoratedMultiDisk."""
    atoms = decorated.config.atoms
    pairs = list(itertools.combinations(range(len(atoms)), 2))
    return DecoratedMultiDisk(
        decorated.config, atoms[decorated.center],
        frozenset(frozenset((atoms[pairs[k][0]].loop, atoms[pairs[k][1]].loop))
                  for k in decorated.tree),
    )


def branch_decompositions(alpha, table, target, decorated=None):
    """The quotient side of the branch bijection, enumerated: every
    splitting class of alpha through a table tuple as center and parts
    with decorated configurations, with every center disk and every
    assignment of decorated configurations to the slots whose atoms are
    pairwise distinct, the center disk included.  Equal unlabeled parts
    make equal decompositions, which the set merges.

    `decorated` maps tuples to their `loop_decorated_multidisks`, so that
    one map can serve every tuple of a run; a part missing from it is
    decorated here.
    """
    from opengw.bounding_chain import _center_triples

    known = {} if decorated is None else decorated
    parts = {}
    for part in target.predecessors(alpha):
        if target.dimension(part) == 0 and not part.is_point_tuple():
            dmds = known.get(part)
            if dmds is None:
                dmds = loop_decorated_multidisks(part, table)
            if dmds:
                parts[part] = dmds
    out = set()
    for eta, _count in target.classes_through(
        alpha, _center_triples(table), parts
    ):
        slot_parts = [eta.parts[i] for i in chain_slots(eta)]
        slot_dmds = [parts[part] for part in slot_parts]
        for center_atom in table.single_disks(center_tuple(eta)):
            for assignment in itertools.product(*slot_dmds):
                loops = [center_atom.loop] + [
                    a.loop for d in assignment for a in d.config.atoms
                ]
                if len(set(loops)) != len(loops):
                    continue
                out.add(BranchDecomposition(
                    eta, center_atom,
                    _canonical_branches(zip(slot_parts, assignment)),
                ))
    return sorted(out, key=BranchDecomposition.sort_key)


def decorated_multidisks(alpha, table):
    """All decorated configurations of the tuple, packed as
    `bounding_chain.Decorated`: every configuration with every tree of
    the tree table and every distinguished disk."""
    from opengw.bounding_chain import Decorated
    from opengw.multidisk import tree_edge_indices

    return [
        Decorated(config, center, tree)
        for config in table.multi_disks(alpha)
        for tree in tree_edge_indices(len(config))
        for center in range(len(config))
    ]


def cut_shape(m, c, tree):
    """The `bounding_chain.CutShape` of a tree on m vertices at vertex c:
    each neighbour of c roots one branch, the subtree behind it.  Read
    from the module's `_tree_cuts` when called, so a test that patches
    the per-tree cut patches this too."""
    from opengw import bounding_chain

    return bounding_chain._shape(m, bounding_chain._tree_cuts(m, tree)[c])


def cut_decorated(decorated, keys):
    """`bounding_chain.to_branches` of a packed decorated configuration,
    with its tree cut first by `cut_shape`, keyed by the `SplittingKeys`
    keys.  The cut and the shape are read from the module when called,
    so a test that patches them patches this too."""
    from opengw import bounding_chain

    config, c, tree = decorated
    return bounding_chain.to_branches(config, c,
                                      cut_shape(len(config), c, tree), keys)


def splitting_of(key, keys):
    """The `DegenerationType` a `SplittingKeys` key stands for: its parts
    read back by id, in sort-key order."""
    from opengw.lattice import ConstraintTuple, DegenerationType

    coords, descriptors, ids = key
    return DegenerationType(
        keys.target.degree(coords), frozenset(descriptors),
        tuple(sorted((keys.parts[i] for i in ids),
                     key=ConstraintTuple.sort_key)))


def decomposition_form(cut, keys):
    """A packed `bounding_chain.BranchCut`, keyed by `keys`, as a
    BranchDecomposition."""
    return BranchDecomposition(
        splitting_of(cut.key, keys), cut.center, _canonical_branches(
            (keys.parts[pid], loop_form(sub))
            for pid, _, sub in cut.branches))


def reference_branch_bijection_failures(alpha, table, target):
    """The branch-bijection check one decorated configuration at a time:
    alpha's `decorated_multidisks` are listed, and each is cut, re-glued
    and classified on its own.  The reference for
    `bounding_chain.branch_bijection_failures`, which proves steps 1 and
    2 once per census bucket and configuration; same arguments, same
    result.  The cut, the shape and the re-glue are read from the module
    when called, so a test that patches them patches both routes."""
    from opengw import bounding_chain

    keys = bounding_chain.SplittingKeys(target)
    classes, count = bounding_chain._branch_classes(alpha, table, target,
                                                    keys)
    configs = {}

    def is_branch_of(pid, sub):
        if pid not in configs:
            configs[pid] = frozenset(table.multi_disks(keys.parts[pid]))
        return (sub.config in configs[pid]
                and 0 <= sub.center < len(sub.config)
                and sub.tree in bounding_chain._tree_table(len(sub.config)))

    def is_decomposition(cut):
        centers, slots = classes.get(cut.key, ((), None))
        return (cut.center in centers
                and tuple(pid for pid, _, _ in cut.branches) == slots
                and all(is_branch_of(pid, sub)
                        for pid, _, sub in cut.branches))

    left_inverse = in_classes = True
    decorated = decorated_multidisks(alpha, table)
    for d in decorated:
        cut = cut_decorated(d, keys)
        left_inverse = (left_inverse
                        and bounding_chain.from_branches(cut) == d)
        in_classes = in_classes and is_decomposition(cut)
    steps = (left_inverse, in_classes, count == len(decorated))
    return (tuple(step for step, ok in enumerate(steps, 1) if not ok),
            len(decorated))


def reference_cut_shape(m, c, tree):
    """`cut_shape` by its own walk out from c: each
    neighbour of c roots one branch, the subtree behind it.  Blocks are
    vertex tuples in order of least vertex, and the re-glue places each
    local subtree on its block's vertices by edge pairs, so neither the
    bitmask tables nor the rooted walk of `_tree_cuts` is shared."""
    from opengw import bounding_chain
    from opengw.multidisk import _edge_index_table, _edge_pairs

    pairs = _edge_pairs(m)
    adj = [[] for _ in range(m)]
    for k in tree:
        i, j = pairs[k]
        adj[i].append(j)
        adj[j].append(i)
    # walk out from c: each vertex's parent, and the branch root above it
    parent = [None] * m
    root_of = [None] * m
    parent[c] = c
    walk = [c]
    for v in walk:  # grows while it is walked
        for w in adj[v]:
            if parent[w] is None:
                parent[w] = v
                root_of[w] = w if v == c else root_of[v]
                walk.append(w)
    members = {}  # root -> its block, in order of least vertex
    local = [None] * m  # a vertex's index in its block
    for v in range(m):
        if v != c:
            block = members.setdefault(root_of[v], [])
            local[v] = len(block)
            block.append(v)
    blocks = tuple(map(tuple, members.values()))
    branches = []
    for root, block in members.items():
        index = _edge_index_table(len(block))
        branches.append((local[root], tuple(sorted(
            index[local[parent[v]]][local[v]] for v in block if v != root
        ))))
    index = _edge_index_table(m)
    glued = [index[c][block[root]]
             for block, (root, _) in zip(blocks, branches)]
    for block, (_, sub_tree) in zip(blocks, branches):
        local_pairs = _edge_pairs(len(block))
        glued += [index[block[local_pairs[k][0]]][block[local_pairs[k][1]]]
                  for k in sub_tree]
    return bounding_chain.CutShape(
        blocks, tuple(branches), tuple(sorted(glued)) == tree,
        all(0 <= root < len(block)
            and sub_tree in bounding_chain._tree_table(len(block))
            for block, (root, sub_tree) in zip(blocks, branches)),
    )


def reference_census(m):
    """`bounding_chain._census(m)` with every tree cut at every center by
    `reference_cut_shape`, one center at a time."""
    from opengw.multidisk import tree_edge_indices

    census = [{} for _ in range(m)]
    for tree in tree_edge_indices(m):
        for c, buckets in enumerate(census):
            shape = reference_cut_shape(m, c, tree)
            entry = buckets.setdefault(shape.blocks,
                                       [0, tree, shape, True, True])
            entry[0] += 1
            entry[3] &= shape.reglued
            entry[4] &= shape.in_table
    return tuple(tuple(map(tuple, buckets.values())) for buckets in census)


# --- the chain invariants, each by its own walk ----------------------------


_FULL_CLASSES = weakref.WeakKeyDictionary()


def full_class_list(target, alpha):
    """`direct_degeneration_classes(target, alpha)`, kept per target and
    tuple while the target lives."""
    known = _FULL_CLASSES.setdefault(target, {})
    if alpha not in known:
        known[alpha] = direct_degeneration_classes(target, alpha)
    return known[alpha]


def reference_class_terms(alpha, chains, table, target, point=None):
    """The classes of alpha that add to its chain, as (class, {loop:
    coefficient}) pairs with zeros dropped; the listing oracle for
    `bounding_chain.assemble_chain`, which reads the same classes off
    memoized sums and lists none.

    The classes are the full list of `direct_degeneration_classes`
    (through `full_class_list`), filtered to a center of nonzero degree
    and non-point parts whose chains have nonempty boundary.  Each rigid
    disk of a class's center tuple adds sgn(disk) * (-1)^(parts) * (-1)^(slots) times the product
    over the slot chains of sum coeff * lk(disk loop, loop) over the
    chain's boundary: the class sign and the divisor trade's sign, each
    kept on its own.  With `point`, the classes of alpha through `point`
    as one extra constraint: the point is put back on every center.
    """
    from opengw.lattice import ConstraintTuple

    extra = frozenset() if point is None else frozenset([point])
    assert not extra & alpha.points, (alpha, point)
    links = table.links
    out = []
    for eta, _count in full_class_list(target, alpha):
        slots = [chains.get(part) for part in eta.parts
                 if not part.is_point_tuple()]
        if eta.center_degree.is_zero or not all(
                chain is not None and chain.boundary for chain in slots):
            continue
        center = ConstraintTuple(eta.center_degree,
                                 point_labels(eta) | extra,
                                 eta.center_descriptors)
        sign = (-1) ** eta.part_count * (-1) ** len(slots)
        contribution = {}
        for atom in table.single_disks(center):
            value = Fraction(sign * atom.sign)
            for chain in slots:
                value *= sum((coeff * links.lk(atom.loop, other)
                              for other, coeff in chain.boundary), Fraction(0))
            contribution[atom.loop] = contribution.get(atom.loop, 0) + value
        contribution = {loop: v for loop, v in contribution.items() if v}
        if contribution:
            out.append((eta, contribution))
    return out


def reference_linked_pairs(alpha, chains, table, target):
    """The (center disk loop, slot part) pairs of the classes of alpha
    that `reference_class_terms` evaluates, zero-valued classes
    included: the linking numbers chain assembly of alpha must ask for,
    and no others."""
    from opengw.lattice import ConstraintTuple

    pairs = set()
    for eta, _count in full_class_list(target, alpha):
        slots = [part for part in eta.parts if not part.is_point_tuple()]
        if eta.center_degree.is_zero or not all(
                part in chains and chains[part].boundary for part in slots):
            continue
        center = ConstraintTuple(eta.center_degree, point_labels(eta),
                                 eta.center_descriptors)
        pairs.update((atom.loop, part)
                     for atom in table.single_disks(center) for part in slots)
    return pairs


def reference_boundary(terms):
    """The boundary multiset, {loop: coefficient}, that a list of
    `reference_class_terms` sums to."""
    total = Counter()
    for _eta, contribution in terms:
        total.update(contribution)
    return {loop: v for loop, v in total.items() if v}


def reference_degree_invariant(alpha, table, target, point, chains):
    """The degree invariant of a dimension-2 tuple through one extra
    point: minus the total of its `reference_class_terms` through the
    point.  The oracle for the `degrees` of the chain of alpha with the
    point."""
    assert target.dimension(alpha) == 2, alpha
    return -sum((sum(contribution.values()) for _, contribution in
                 reference_class_terms(alpha, chains, table, target, point)),
                Fraction(0))


def reference_weighted_invariant(alpha, table, target, chains):
    """The weighted invariant of a dimension-0 tuple: each class total of
    `reference_class_terms` times s(k) * max(k, 1), k its part count and
    s(k) = 1/k - 1/2 (s(0) = 1), plus half the
    `reference_degree_invariant` of each point drop.  The oracle for the
    chain's `weighted`."""
    from opengw.lattice import ConstraintTuple

    total = Fraction(0)
    for eta, contribution in reference_class_terms(alpha, chains, table,
                                                   target):
        k = eta.part_count
        weight = Fraction(1, k) - Fraction(1, 2) if k else Fraction(1)
        total += weight * max(k, 1) * sum(contribution.values())
    for p in alpha.points:
        dropped = ConstraintTuple(alpha.beta, alpha.points - {p},
                                  alpha.descriptors)
        total += Fraction(1, 2) * reference_degree_invariant(
            dropped, table, target, p, chains)
    return total


# --- the open WDVV relations, term by term ----------------------------------


def structure_outcome(name, target, model, open_table, closed_table=None):
    """The outcome of the structural audit called `name` on a table."""
    from opengw.wdvv import check_structure

    outcomes = check_structure(target, model, open_table, closed_table)
    return next(o for o in outcomes if o.name == name)


@dataclass
class FractionForm:
    """The oracle's affine form const + sum of coeff * unknown(key), with
    a Fraction constant and Fraction coefficients; the production
    `wdvv.LinForm` holds integers over one denominator instead."""

    const: Fraction = Fraction(0)
    coeffs: dict = field(default_factory=dict)

    @property
    def is_constant(self):
        return not self.coeffs

    def substitute(self, values):
        const = self.const
        coeffs = {}
        for k, v in self.coeffs.items():
            if k in values:
                const += v * values[k]
            else:
                coeffs[k] = v
        return FractionForm(const, coeffs)


def fraction_form(form):
    """A production `LinForm` read as a `FractionForm` (a `FractionForm`
    is returned as it is)."""
    if isinstance(form, FractionForm):
        return form
    return FractionForm(Fraction(form.const, form.den),
                        {k: Fraction(v, form.den)
                         for k, v in form.coeffs.items()})


def linform(const, coeffs=None):
    """The production `LinForm` of const + sum of coeffs[k] * unknown(k)
    for Fractions or ints: zero coefficients dropped, over the lcm of the
    denominators, which leaves it reduced."""
    from opengw.wdvv import LinForm

    const = Fraction(const)
    coeffs = {k: Fraction(v) for k, v in (coeffs or {}).items() if v != 0}
    den = math.lcm(const.denominator,
                   *(v.denominator for v in coeffs.values()))
    return LinForm(int(const * den),
                   {k: int(v * den) for k, v in coeffs.items()}, den)


def form_sum(a, b):
    """a + b for two `FractionForm`s; coefficients that cancel are
    dropped."""
    coeffs = dict(a.coeffs)
    for k, v in b.coeffs.items():
        coeffs[k] = coeffs.get(k, Fraction(0)) + v
    return FractionForm(a.const + b.const,
                        {k: v for k, v in coeffs.items() if v != 0})


def form_scaled(form, scalar):
    """scalar * form; the empty form when scalar is 0."""
    scalar = Fraction(scalar)
    if scalar == 0:
        return FractionForm()
    return FractionForm(form.const * scalar,
                        {k: v * scalar for k, v in form.coeffs.items()})


def form_difference(a, b):
    return form_sum(a, form_scaled(b, -1))


def form_product(a, b):
    """a * b, which is affine only when one factor is constant; a
    product of two unknowns raises NonlinearEquationError naming the
    unknowns of both factors."""
    from opengw.wdvv import NonlinearEquationError

    if a.coeffs and b.coeffs:
        raise NonlinearEquationError("product of two unknown brackets",
                                     set(a.coeffs) | set(b.coeffs))
    if not b.coeffs:
        return form_scaled(a, b.const)
    return form_scaled(b, a.const)


def reference_wdvv_form(target, model, closed, resolve, relation, beta, gamma,
                        bino):
    """A relation form built by the defining loops: every complex or real
    split, every anchored partition and every (i, j) pair of the inverse
    pairing, added one term at a time with the form arithmetic above.
    `bino` gives the binomial weights of the open-open terms.  `resolve`
    hands out production `LinForm`s, as for `wdvv1_form`; they are read
    as `FractionForm`s, and so is the result.

    Returns None where the relation does not apply; raises
    NonlinearEquationError at the first product of two unknowns, in the
    order the loops below meet them.
    """
    from opengw.wdvv import anchored_partitions

    def bracket(b, insertions):
        return fraction_form(resolve(b, insertions))

    def mixed_sum(partitions):
        total = FractionForm()
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
                        g = model.pairing_inv[i - 1][j - 1]
                        if g == 0:
                            continue
                        open_val = bracket(rel_part,
                                           tuple(sorted(open_ins + [j])))
                        total = form_sum(
                            total, form_scaled(open_val, closed_val * g)
                        )
        return total

    def open_sum(partitions, k, shift):
        total = FractionForm()
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
                product = form_product(bracket(b1, left_ins),
                                       bracket(b2, right_ins))
                total = form_sum(total, form_scaled(product, weight))
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
        return form_sum(
            form_difference(mixed_sum(left), open_sum(left, k - 1, 0)),
            open_sum(right, k - 1, 1),
        )
    if l < 3 or k is None or k < 0:
        return None

    def side(i, j):
        both = anchored_partitions(l, "both", i=i, j=j)
        return form_difference(mixed_sum(both), open_sum(both, k, 0))

    return form_difference(side(2, 3), side(3, 2))


def reference_solve_wdvv(target, model, closed, seeds, area_bound,
                         max_insertions):
    """`solve_wdvv` with the same sweeps and schedule, building each form
    as the public `wdvv1_form` / `wdvv2_form` do, by `_first_pass`, on
    one shared `_FormContext`: an instance whose build raises
    NonlinearEquationError is deferred and, once an unknown of its
    failing product is solved, rebuilt from scratch.  Each built form is
    read as a `FractionForm`, and the elimination runs in Fractions."""
    from opengw import wdvv
    from opengw.wdvv import (NonlinearEquationError, OpenInvariantTable,
                             RelationInstance, SolveResult,
                             relation_instances, unknown_keys)

    table = OpenInvariantTable(target, model)
    for (coords, ins), value in seeds.entries():
        table.set(coords, ins, value)
    order = unknown_keys(target, model, seeds, area_bound, max_insertions)
    unknowns = set(order)
    instances = relation_instances(target, model, area_bound, max_insertions)
    solved_values = {}
    solved_log = []
    context = wdvv._FormContext(target, model, closed)
    assumed_zero = set()

    def resolve(beta, insertions):
        value = table.resolve_fixed(beta, insertions)
        key = table._key(beta, insertions)
        if value is None and key not in unknowns:
            if not table.known(beta, insertions):
                assumed_zero.add(key)
            value = table.value(beta, insertions)
        if value is not None:
            return linform(value)
        if key in solved_values:
            return linform(solved_values[key])
        return linform(0, {key: 1})

    forms, occurs, isolating, blocked = {}, {}, {}, {}

    def note_isolating(inst, form):
        if len(form.coeffs) != 1:
            return
        ((key, coeff),) = form.coeffs.items()
        if coeff != 0 and (key not in isolating or
                           inst.sort_key() < isolating[key].sort_key()):
            isolating[key] = inst

    def solve(key):
        inst = isolating.pop(key)
        form = forms[inst]
        value = -form.const / form.coeffs[key]
        solved_values[key] = value
        solved_log.append((key, inst, value))
        for other in occurs.pop(key):
            forms[other] = forms[other].substitute({key: value})
            note_isolating(other, forms[other])

    to_build = instances
    while to_build:
        for inst in to_build:
            builder = wdvv._build1 if inst.relation == 1 else wdvv._build2
            try:
                form = wdvv._first_pass(builder, context, resolve,
                                        target.degree(inst.beta_coords),
                                        inst.gamma)
            except NonlinearEquationError as exc:
                blocked[inst] = exc.keys
                continue
            blocked.pop(inst, None)
            if form is None:
                continue
            form = forms[inst] = fraction_form(form)
            for key in form.coeffs:
                occurs.setdefault(key, set()).add(inst)
            note_isolating(inst, form)
        advanced = True
        while advanced:
            advanced = False
            for key in order:
                if key in isolating:
                    solve(key)
                    advanced = True
        to_build = [inst for inst, keys in blocked.items()
                    if not keys.isdisjoint(solved_values)]
    for (coords, ins), value in sorted(solved_values.items()):
        table.set(coords, ins, value)
    residuals = []
    for inst in instances:
        if inst in forms:
            form = forms[inst]
            residuals.append((inst, form.const if form.is_constant else None))
        elif inst in blocked:
            residuals.append((inst, None))
    return SolveResult(
        table=table,
        solved=solved_log,
        unsolved=sorted(unknowns - set(solved_values)),
        residuals=residuals,
        nonlinear=sorted(blocked, key=RelationInstance.sort_key),
        assumed_zero=sorted(assumed_zero),
    )
