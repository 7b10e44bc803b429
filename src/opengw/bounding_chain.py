"""The boundary recursion for disk counts, and both invariant definitions.

A bounding chain assigns to every dimension-0, non-point tuple at or
below the tuples of interest (the tops) a 2-chain in the ambient
3-manifold, known here only through its boundary: a formal signed
multiset of boundary loops.  One family per run holds them all; the
recursion builds it level by level over the predecessor order:

  boundary(alpha) = sum over degeneration classes of alpha of
      (-1)^(number of point parts)
      * sum over rigid center disks through the point parts of
          sgn(center) * prod over non-point parts of
              lk(center loop, chain boundary of the part)
      placed on the center disk's boundary loop.

Splittings with zero central degree never contribute: their central
moduli are constant disks, which either miss the interior constraints
or cancel in sign pairs; and parts of nonzero dimension contribute
nothing because their chains are empty.

The classes are summed, not listed.  A contributing class is a table
tuple c as its center plus a multiset of live parts (tuples whose
chains have nonempty boundary) that splits alpha minus c, and its
product of linking numbers depends only on the center disk's loop and
the parts.  So for each rigid disk a of c the sum over those multisets
is one recursion on the labels and the degree left, W_a, kept as a
polynomial in the number of parts and memoized by (disk loop, labels
left, degree left, least unlabeled index) over the whole family
(`_ClassSums`): a sum met again by a larger tuple is read, not redone.
The recursion walks the parts in the order of `lattice._PartIndex`,
whose docstring states that order and how labels and degrees pack.

Two invariants are read off the same sums, and each chain carries them:

- The degree-type invariant of alpha with a point p dropped, a
  dimension-2 tuple, is minus the count of its top chain through p as
  one extra point constraint (the odd ambient dimension flips the count
  against the degree).  It is the sum of alpha's class contributions
  over the classes with p among their point parts.
- The weighted-type invariant of alpha sums over raw splittings with
  weight (-1)^(parts) * s(parts), where s(k) = 1/k - 1/2 for k > 0 and
  s(0) = 1: each class adds s(k) * max(k, 1) times its total.  Half the
  sum of the point-dropped degree invariants is added.

`assemble_chain` says why these readings are exact, and `_ClassSums`
why the memoized sum meets each class once.  The test suite keeps its
own class listing as the oracle: it filters the full class list of a
direct enumerator and evaluates each class with its own sign
bookkeeping, once for alpha and once per point as an extra constraint.
It also checks the invariants against each other and against the
direct linking-weighted configuration count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import OpenGWError
from .lattice import ConstraintTuple, _PartIndex
from .multidisk import (
    MultiDisk,
    _block_tables,
    _edge_index_table,
    _edge_pairs,
    tree_edge_indices,
)


class ChainError(OpenGWError, ValueError):
    """Missing or inconsistent chain data."""


@dataclass(frozen=True)
class BoundingChain:
    """A chain datum: the dimension-0, non-point tuple it bounds for, its
    boundary multiset, the only part of the chain the model keeps, and
    the two invariants of the tuple read off the same class sums.

    boundary: sorted tuple of (loop id, coefficient); empty for tuples
    that carry no rigid disks.  The coefficient of a loop is the sum,
    over the classes whose center disk bounds it, of sgn(center disk) *
    (-1)^(point parts) * prod over slot chains of lk(loop, chain), read
    off the disk's memoized class sum (`assemble_chain`).
    degrees: (point, degree invariant of alpha without the point,
    through that point) pairs, by increasing point.
    weighted: the weighted-type invariant of alpha.

    A chain also keeps {loop: lk(loop, its boundary)}, filled by
    `_chain_linking` the first time a class sum links the loop with it,
    so each (loop, chain) pair of a `build_chains` run is summed once.
    The linking numbers are those of the atom table the chain was built
    from; they are not part of the chain's value.
    """

    alpha: ConstraintTuple
    boundary: tuple
    degrees: tuple
    weighted: Fraction
    _linking: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def point_drop_degrees(self):
        """{point: (alpha without the point, its degree invariant through
        that point)}, by increasing point."""
        alpha = self.alpha
        return {
            p: (ConstraintTuple(alpha.beta, alpha.points - {p},
                                alpha.descriptors), degree)
            for p, degree in self.degrees
        }


def _chain_linking(loop, chain, links):
    """lk of a loop against a chain's boundary multiset, extended
    linearly, summed the first time the chain is asked for the loop.

    A loop in the chain's own boundary raises `ChainError`.  The loop's
    disk is on a tuple c below the chain's tuple P, so c's labels are
    among P's; P is a part of a class with center c, so c has none.  A
    dimension-0 tuple without labels has Maslov index 0, which the
    positivity convention excludes."""
    known = chain._linking
    value = known.get(loop)
    if value is None:
        if any(other == loop for other, _ in chain.boundary):
            raise ChainError(
                "a class links the disk on loop %r with the chain of %r, "
                "which that loop bounds: the disk's tuple has no label and "
                "Maslov index 0, against the positivity convention"
                % (loop, chain.alpha))
        value = known[loop] = sum(
            (coeff * links.lk(loop, other) for other, coeff in chain.boundary),
            Fraction(0))
    return value


def _class_sign(point_parts):
    """The sign of a class with `point_parts` bare point parts,
    (-1)^(point parts).  The point parts of a contributing class are the
    points of its center, so the sign is one per center.

    The derivation stacks three (-1)^(part count) factors (the unordered
    regrouping, the flip rule, the reassociation rule) and the divisor
    trade's (-1)^(chain slots); a part is a bare point or fills a slot,
    so together they reduce to (-1)^(point parts).
    """
    return -1 if point_parts % 2 else 1


def _live_parts(alpha, chains, target):
    """The parts a contributing class of alpha may carry: the tuples of
    the family whose chains have nonempty boundary.

    The family holds no point tuples, and a class places only parts that
    fit below alpha, so the family of any tops above alpha serves.
    Nothing is silently zero: a dimension-0, non-point strict
    predecessor of alpha without a chain raises instead of reading as an
    empty chain.
    """
    for pred in target.predecessors(alpha):
        if (pred not in chains and not pred.is_point_tuple()
                and target.dimension(pred) == 0):
            raise ChainError("missing predecessor chain for %r" % (pred,))
    return [a for a, chain in chains.items() if chain.boundary]


def _center_triples(table):
    """The atom table's tuples as class centers."""
    return [(c.beta, c.points, c.descriptors) for c in table.tuples()]


_ONE = (1, (1,))  # the class sum with nothing left: the empty multiset


class _ClassSums(_PartIndex):
    """The memoized class sums of one chain family: a `lattice._PartIndex`
    of its live chains, whose docstring states the order of the walk and
    the packing of labels and degrees.

    `total(loop, labels, rest, start)` is W_a for a rigid disk a on that
    loop: the sum, over the multisets of live parts that split the
    labels and the degree left, of prod lk(a's loop, part's chain), as a
    polynomial in t, the number of parts; None when no multiset splits
    them.  A polynomial is (denominator, integer coefficients from t^0
    up), in lowest terms.  A live part is a chain with nonempty
    boundary.  W of no labels and the zero degree is 1, and any other W
    is the sum over the index's steps past a part P of t * lk(a, P) * W
    of the step's state.  The walk meets each multiset once, so W_a of
    what a center c leaves of alpha meets each class of alpha with
    center c once, and a path's product is its class's.

    The centers are the table tuples that can fit below the family, as
    (label bits, packed degree, points, rigid disks).  The memo is keyed
    by (disk loop, labels left, degree left, least unlabeled index).  W
    of a key depends only on the key and on the live parts that fit it,
    and those are strict predecessors of every tuple whose sums reach
    the key.  `build_chains` adds the chains in level order, so they are
    all added before the key is first summed, no later chain fits it,
    and unlabeled parts keep the index they were added with.  So one
    memo serves one family, whose chains all come from one atom table.
    lk(a, P) is read only once W of the rest of the branch is known to
    have a multiset, and then whatever its value, so the (loop, chain)
    pairs linked are exactly those of the classes that exist: a loop
    without linking data raises exactly when one of them needs it.
    """

    def __init__(self, table, target, tuples):
        super().__init__(target.rank, tuples)
        self.links = table.links
        self.centers = []
        for c in table.tuples():
            packed = self.pack(c.beta, c.points, c.descriptors)
            if packed is not None:
                self.centers.append(packed + (c.points, table.single_disks(c)))
        self.memo = {}

    def total(self, loop, labels, rest, start):
        key = (loop, labels, rest, start)
        memo = self.memo
        if key in memo:
            return memo[key]
        if not labels and rest == self.guard:
            memo[key] = _ONE
            return _ONE
        out = None
        for left, left_rest, chain, nxt in self.next_parts(labels, rest,
                                                           start):
            sub = self.total(loop, left, left_rest, nxt)
            if sub is not None:
                value = _chain_linking(loop, chain, self.links)
                out = _poly_add(out, sub, value.numerator,
                                value.denominator, 1)
        if out is not None:
            den, coeffs = out
            g = math.gcd(den, *coeffs)
            if g != 1:
                out = den // g, [c // g for c in coeffs]
        memo[key] = out
        return out


def _poly_add(out, poly, num, den, shift):
    """out + (num / den) * t^shift * poly, on (denominator, coefficients)
    polynomials over the lcm of the two denominators; out None is the
    empty sum.  Returns a new polynomial for None, else out's own list,
    added into."""
    poly_den, coeffs = poly
    den *= poly_den
    if out is None:
        return den, [0] * shift + [num * c for c in coeffs]
    out_den, out_coeffs = out
    if out_den != den:
        g = math.gcd(out_den, den)
        up = den // g
        if up != 1:
            out_coeffs = [c * up for c in out_coeffs]
        num *= out_den // g
        out_den *= up
    missing = len(coeffs) + shift - len(out_coeffs)
    if missing > 0:
        out_coeffs.extend([0] * missing)
    for j, c in enumerate(coeffs, shift):
        out_coeffs[j] += num * c
    return out_den, out_coeffs


def splitting_weight(part_count):
    """The splitting weight: 1 at no parts, else 1/parts - 1/2."""
    if part_count == 0:
        return Fraction(1)
    return Fraction(1, part_count) - Fraction(1, 2)


def assemble_chain(alpha, chains, table, target):
    """The chain of a dimension-0 tuple: its boundary multiset, its
    point-dropped degree invariants and its weighted invariant, read off
    the memoized class sums of its rigid center disks.  `chains` must
    hold the chains of alpha's dimension-0 predecessors.  Called alone it
    sums over its own memo; `build_chains` shares one across a family.

    The contributing classes are the table tuples c that fit under alpha
    as centers, each with the multisets of live parts that split alpha
    minus c.  The center carries a rigid disk (constant central disks
    are killed by the interior constraints or cancel in sign pairs
    between marked-point orderings), it has nonzero degree (an atom of
    zero degree is refused, so the excluded splitting, a trivial center
    with one part, never occurs), and every non-point part has a chain
    with nonempty boundary.  The point parts are the points of c.  For
    each rigid disk a of c, W_a (`_ClassSums`) sums prod lk(a's loop,
    part's chain) over those multisets, by number of parts, so:

    - a's loop gets sgn(c) * sgn(a) * W_a at one, sgn(c) = (-1)^(points
      of c): each class's total on that disk;
    - the center total, the sum of sgn(c) * sgn(a) * W_a over the disks
      of c, at one, is added to the degree invariant of each point of c;
    - its coefficient of t^j is the class total of the classes with
      |c.points| + j parts, which the weighted invariant weighs.

    Why the degrees are exact.  The degree invariant of alpha without p,
    through p, counts the classes of alpha without p whose centers are
    the table tuples through p, with p removed; each class counts with p
    put back on its center, and the total is negated.  Adding p back as
    a bare point part maps those classes one-to-one onto the classes of
    alpha whose point parts include p.  The slot chains and the center
    tuple, hence its rigid disks, are the same.  The point parts rise by
    one, so the class sign flips, and that flip cancels the minus.  So
    the degree invariant through p is the sum of alpha's class totals
    over the classes with p among their point parts: the center totals
    of the centers through p.

    The weighted invariant's class terms are the same class totals:
    a class total is (-1)^(parts) times the class's fiber count through
    the divisor-trade rule on the declared rigid disks, sgn(disk) *
    (-1)^(slots) * prod lk, so it already carries the weight's
    (-1)^(parts).  Multiplicity bookkeeping: the raw sum ranges over
    ordered splittings whose center moduli carry position-ordered
    boundary points.  A rigid center configuration with k constrained
    boundary points is position-compatible with exactly the k cyclic
    rotations of the slot-to-point matching, so a class of k parts
    contributes its full (unordered) divisor-rule count times max(k, 1),
    not times the raw class size.  The comparison against the degree
    invariant pins this factor.
    """
    dim = target.dimension(alpha)
    if dim != 0:
        raise ChainError(
            "boundary assembly needs a dimension-0 tuple, got dimension %d" % dim
        )
    sums = _ClassSums(table, target, [alpha])
    for part in _live_parts(alpha, chains, target):
        sums.add(part, chains[part])
    return _assemble(alpha, sums)


def _assemble(alpha, sums):
    """The chain of a dimension-0 tuple read off `sums`, which must hold
    the chains of its live predecessors (`assemble_chain`)."""
    boundary = {}
    degrees = dict.fromkeys(sorted(alpha.points), Fraction(0))
    by_parts = {}  # part count -> the sum of its class totals
    labels, packed = sums.pack(alpha.beta, alpha.points, alpha.descriptors)
    guard = sums.guard
    packed += guard
    for bits, degree, points, disks in sums.centers:
        rest = packed - degree
        if bits & labels != bits or rest & guard != guard:
            continue
        left = labels ^ bits
        sign = _class_sign(len(points))
        total = None
        for atom in disks:
            try:
                sums_a = sums.total(atom.loop, left, rest, 0)
            except ChainError as exc:
                raise ChainError("assembling the chain of %r: %s"
                                 % (alpha, exc)) from None
            if sums_a is None:
                break  # no class: whether one exists does not depend on a
            s = sign * atom.sign
            den, coeffs = sums_a
            # a loop is one disk's, and its center is met once
            boundary[atom.loop] = Fraction(s * sum(coeffs), den)
            total = _poly_add(total, sums_a, s, 1, 0)
        if total is None:
            continue
        den, coeffs = total
        value = Fraction(sum(coeffs), den)
        for p in points:
            degrees[p] += value
        for k, coeff in enumerate(coeffs, len(points)):
            by_parts[k] = by_parts.get(k, 0) + Fraction(coeff, den)
    weighted = Fraction(sum(degrees.values()), 2) + sum(
        splitting_weight(k) * max(k, 1) * total
        for k, total in by_parts.items()
    )
    return BoundingChain(
        alpha, tuple(sorted((k, v) for k, v in boundary.items() if v != 0)),
        tuple(degrees.items()), weighted,
    )


def direct_boundary(alpha, table, target):
    """The multi-disk side of the same multiset:
    (-1)^|K| * sum over configurations of sgn * tree weight on each loop."""
    total = {}
    sign = -1 if len(alpha.points) % 2 else 1
    for config, weight in zip(table.multi_disks(alpha),
                              table.tree_weights(alpha)):
        value = weight if config.sgn() > 0 else -weight
        if sign < 0:
            value = -value
        for atom in config.atoms:
            total[atom.loop] = total.get(atom.loop, Fraction(0)) + value
    return {k: v for k, v in total.items() if v != 0}


def chain_tuples(target, tops):
    """The tuples that carry a chain in the family of `tops`: every
    dimension-0, non-point tuple at or below one of them, sorted."""
    seen = set()
    for top in tops:
        seen.update(
            alpha for alpha in target.predecessors(top) + [top]
            if target.dimension(alpha) == 0 and not alpha.is_point_tuple()
        )
    return sorted(seen, key=ConstraintTuple.sort_key)


def build_chains(tops, table, target):
    """The one chain family of `tops`, keyed in `chain_tuples` order.

    Chains are assembled by increasing level (area, then constraint
    count), so the chains of a tuple's strict predecessors come first,
    and every dimension-0, non-point predecessor of a family tuple is in
    the family.  One `_ClassSums` memo serves the family: each chain is
    added to it once assembled, before any tuple it can be a part of.
    """
    order = chain_tuples(target, tops)
    sums = _ClassSums(table, target, order)
    chains = {}
    for alpha in sorted(order, key=lambda a: (
            a.beta.area, len(a.points) + len(a.descriptors), a.sort_key())):
        chain = chains[alpha] = _assemble(alpha, sums)
        if chain.boundary:
            sums.add(alpha, chain)
    return {alpha: chains[alpha] for alpha in order}


def constant_center_classes(alpha, chains, table, target):
    """Splittings the weighted invariant cannot see.

    A splitting with zero central degree, no point parts, no central
    descriptors, and nonzero weight pins its central disks at the
    common intersection of the part chains' interiors.  The model keeps
    chains only through their boundaries, so those counts carry no data
    here and are evaluated as zero; this detector reports the classes
    whose honest geometric value could differ, which gates the
    weighted-versus-degree comparison.
    """
    empty_center = (target.zero_degree(), frozenset(), frozenset())
    return [
        (eta, count) for eta, count in target.classes_through(
            alpha, [empty_center], _live_parts(alpha, chains, target)
        )
        if splitting_weight(eta.part_count) != 0
    ]


# --- decorated configurations and the branch bijection ----------------------


class Decorated(NamedTuple):
    """A configuration with a distinguished disk and a spanning tree, packed.

    center indexes config.atoms; tree is a tuple of edge indices into
    itertools.combinations(range(len(config)), 2), as
    `multidisk.tree_edge_indices` yields it.  Trees come only from that
    table, so a packed tree is a spanning tree by construction.
    """

    config: MultiDisk
    center: int
    tree: tuple


class BranchCut(NamedTuple):
    """The cut-at-the-center form of a decorated configuration.

    key is the `SplittingKeys` key of its splitting: one bare point part
    per point of the center disk, one part per branch.  center is the
    center disk.  branches holds (part id, loop tuple, decorated
    sub-configuration) triples, in increasing order; a branch's
    distinguished disk is the one joined to the center.
    """

    key: tuple
    center: object
    branches: tuple


class SplittingKeys:
    """Integer keys for the splittings of one atom table's target, shared
    by the class side and the images of the branch-bijection checks on
    that table.

    Each part gets an id, in the order parts are first met, looked up by
    its coordinates and label sets, never by its Fraction-bearing degree.
    parts lists the parts by id, and labels holds the label of each bare
    point part, None for the others.  The key of a splitting is (center
    degree coordinates, sorted center descriptor labels, the ids of its
    parts in increasing order).  Coordinates fix a degree of the target,
    and a `DegenerationType` lists its parts in one canonical order, so
    two splittings have equal keys exactly when they are equal.

    branches maps a branch's loop tuple to (part id, sub-configuration),
    and centers a center disk's loop to (coordinates, descriptor labels,
    point part ids): each is built once, however many tuples are
    checked.  Both are read from the table's atoms, so the keys belong to
    one table: another table of the same target needs its own.
    """

    def __init__(self, target):
        self.target = target
        self.parts = []
        self.labels = []
        self._ids = {}
        self.branches = {}
        self.centers = {}

    def part_id(self, part):
        key = (part.beta.coords, part.points, part.descriptors)
        pid = self._ids.get(key)
        if pid is None:
            pid = self._ids[key] = len(self.parts)
            self.parts.append(part)
            self.labels.append(next(iter(part.points))
                               if part.is_point_tuple() else None)
        return pid

    def class_key(self, eta):
        """The key of a `DegenerationType`."""
        return (eta.center_degree.coords,
                tuple(sorted(eta.center_descriptors)),
                tuple(sorted(map(self.part_id, eta.parts))))

    def branch(self, atoms):
        """The entry of `branches` for a block's atoms, in loop order."""
        sub = MultiDisk(tuple(atoms))
        entry = self.branches[tuple(a.loop for a in atoms)] = (
            self.part_id(ConstraintTuple(sub.total_degree(),
                                         sub.total_points(),
                                         sub.total_descriptors())),
            sub)
        return entry

    def center(self, atom):
        """The entry of `centers` for a center disk."""
        entry = self.centers[atom.loop] = (
            atom.degree.coords, tuple(sorted(atom.descriptors)),
            [self.part_id(self.target.point_tuple(x)) for x in atom.points])
        return entry


@functools.cache
def _tree_table(m):
    return frozenset(tree_edge_indices(m))


class CutShape(NamedTuple):
    """The index-level cut of a tree at vertex c, and the shape-level
    halves of steps 1 and 2 of the branch-bijection proof.

    blocks is the vertex partition: one sorted vertex tuple per branch,
    ordered by least vertex.  branches holds, per block, the branch's
    local root (the block's neighbour of c) and its local subtree, both
    in the block's own indices.  reglued says that `_glue` of the blocks'
    bitmasks and the branches gives back the tree; in_table that each
    local subtree is in the tree table of the block's size.  A local
    root is its vertex's place in the block, so it lies in the block.
    """

    blocks: tuple
    branches: tuple
    reglued: bool
    in_table: bool


def _glue(m, c, blocks, branches):
    """Re-glue at the index level: each local subtree lifted onto its
    block, given as a vertex bitmask, plus the edge from c to the
    block's local root, as the sorted edge indices of a graph on m
    vertices."""
    tables = _block_tables(m)
    index = _edge_index_table(m)[c]
    tree = []
    for mask, (root, sub_tree) in zip(blocks, branches):
        verts, _, lift = tables[mask]
        tree += [lift[k] for k in sub_tree]
        tree.append(index[verts[root]])
    tree.sort()
    return tuple(tree)


def _tree_cuts(m, tree):
    """Cut a tree on m vertices at every vertex, from one walk of the
    tree rooted at vertex 0: per center c, (blocks, branches, reglued,
    in_table), with blocks the bitmasks of the branches' vertex sets,
    ordered by least vertex, and the rest as in `CutShape`.

    The branches at c are, unless c is the root, the rest of the tree,
    joined to c at c's parent, which holds vertex 0, and then the
    subtrees of c's children.  A block's local subtree is the edges from
    its vertices to their parents, the block's top vertex excepted,
    relabelled by the block's `_block_tables` entry.
    """
    pairs = _edge_pairs(m)
    index = _edge_index_table(m)
    adj = [[] for _ in range(m)]
    for k in tree:
        i, j = pairs[k]
        adj[i].append(j)
        adj[j].append(i)
    parent = [-1] * m
    parent[0] = 0
    up = [-1] * m  # the edge from each vertex to its parent
    order = [0]
    for v in order:  # grows while it is walked
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                up[w] = index[v][w]
                order.append(w)
    below = [1 << v for v in range(m)]  # each vertex's subtree
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    # (block, the vertex joined to the center, the block's top vertex)
    # per branch at each center, ordered by least vertex
    everything = (1 << m) - 1
    least = [b & -b for b in below]
    at = [[] for _ in range(m)]
    for v in order[1:]:
        at[v].append((everything ^ below[v], parent[v], 0))
    for v in sorted(order[1:], key=least.__getitem__):
        at[parent[v]].append((below[v], v, v))
    tables = _block_tables(m)
    cuts = []
    for c, tops in enumerate(at):
        blocks = []
        branches = []
        in_table = True
        for mask, root, top in tops:
            verts, local, _ = tables[mask]
            sub_tree = [local[up[v]] for v in verts if v != top]
            sub_tree.sort()
            sub_tree = tuple(sub_tree)
            blocks.append(mask)
            branches.append((verts.index(root), sub_tree))
            in_table = in_table and sub_tree in _tree_table(len(verts))
        cuts.append((tuple(blocks), tuple(branches),
                     _glue(m, c, blocks, branches) == tree, in_table))
    return cuts


def _shape(m, cut):
    """The `CutShape` of one `_tree_cuts` entry."""
    tables = _block_tables(m)
    blocks, branches, reglued, in_table = cut
    return CutShape(tuple(tables[mask][0] for mask in blocks), branches,
                    reglued, in_table)


@functools.cache
def _census(m):
    """Per center c of m vertices, one bucket per vertex partition, in
    order of first tree: (the number of trees cut at c into it, the first
    of them, its `CutShape`, whether all are reglued, whether all are
    in_table).  Every tree of the tree table is cut at every center, by
    one `_tree_cuts` walk per tree, and gets both verdicts; a shape is
    built for each bucket's first tree only, and only the Bell(m - 1)
    buckets per center are kept."""
    census = [{} for _ in range(m)]
    for tree in tree_edge_indices(m):
        for buckets, cut in zip(census, _tree_cuts(m, tree)):
            entry = buckets.get(cut[0])
            if entry is None:
                entry = buckets[cut[0]] = [0, tree, _shape(m, cut), True,
                                           True]
            entry[0] += 1
            entry[3] = entry[3] and cut[2]
            entry[4] = entry[4] and cut[3]
    return tuple(tuple(map(tuple, buckets.values())) for buckets in census)


def to_branches(config, c, shape, keys):
    """Cut a tree of config at the distinguished disk c, given the tree's
    `CutShape` at c: each neighbour of the center roots one branch, the
    subtree behind it, on its own atoms, with that neighbour as its
    distinguished disk.  Each block's atoms form the branch's
    sub-configuration; its local root and subtree pass through.
    `keys` is the table's `SplittingKeys`, which interns each branch by
    loop tuple and each center disk by loop, so a cut costs lookups and
    two short sorts.
    """
    atoms = config.atoms
    interned = keys.branches
    branches = []
    for block, (root, sub_tree) in zip(shape.blocks, shape.branches):
        loops = tuple([atoms[v].loop for v in block])
        entry = interned.get(loops)
        if entry is None:
            entry = keys.branch([atoms[v] for v in block])
        pid, sub = entry
        branches.append((pid, loops, Decorated(sub, root, sub_tree)))
    branches.sort()  # loops differ, so no two entries tie before the last
    center = atoms[c]
    entry = keys.centers.get(center.loop)
    if entry is None:
        entry = keys.center(center)
    coords, descriptors, points = entry
    ids = [pid for pid, _, _ in branches] + points
    ids.sort()
    return BranchCut((coords, descriptors, tuple(ids)), center,
                     tuple(branches))


def from_branches(cut):
    """Reattach the branches to the center (the inverse of to_branches):
    each branch's local tree and root edge are placed at the positions of
    its atoms in the re-glued configuration."""
    center = cut.center
    atoms = [center]
    for _, _, sub in cut.branches:
        atoms += sub.config.atoms
    config = MultiDisk(tuple(atoms))
    index = {a.loop: k for k, a in enumerate(config.atoms)}
    blocks = []
    for _, _, sub in cut.branches:
        mask = 0
        for a in sub.config.atoms:
            mask |= 1 << index[a.loop]
        blocks.append(mask)
    c = index[center.loop]
    tree = _glue(len(config), c, blocks,
                 [(sub.center, sub.tree) for _, _, sub in cut.branches])
    return Decorated(config, c, tree)


def _branch_classes(alpha, table, target, keys):
    """The quotient side of the branch bijection of alpha, class by class.

    Returns (classes, count): classes maps the `keys` key of every class
    of alpha through a table tuple as center, and dimension-0, non-point
    parts with configurations, to its (center disks, slot part ids);
    count is the number of branch decompositions, summed per class as
    |center disks| times the product over slots of the part's decorated
    count.  A part's decorated count is the sum over its configurations
    of m times the trees of the tree table on m vertices, m the
    configuration's size.  The count is exact when every atom carries a
    label: the atoms of the center and of distinct parts are then
    distinct, and no two parts of a class are equal.  A table with an
    unlabeled atom raises ChainError.
    """
    for atom in table.atoms:
        if not atom.points and not atom.descriptors:
            raise ChainError(
                "atom on loop %r carries no point or descriptor label; the "
                "branch decompositions are counted only over labeled atoms"
                % (atom.loop,)
            )
    parts = [
        part for part in target.predecessors(alpha)
        if target.dimension(part) == 0 and not part.is_point_tuple()
        and table.multi_disks(part)
    ]
    # a center tuple by its sort key: coordinates and sorted labels
    centers_of = {t.sort_key(): table.single_disks(t)
                  for t in table.tuples()}
    labels = keys.labels
    sizes = {}

    def decorated_count(pid):
        if pid not in sizes:
            sizes[pid] = sum(len(config) * len(_tree_table(len(config)))
                             for config in table.multi_disks(keys.parts[pid]))
        return sizes[pid]

    classes = {}
    count = 0
    # every center is a table tuple, so every class has center disks, and
    # only the parts that fill a slot are counted
    for eta, _raw in target.classes_through(
        alpha, _center_triples(table), parts
    ):
        key = keys.class_key(eta)
        coords, descriptors, ids = key
        points = tuple(sorted(labels[i] for i in ids
                              if labels[i] is not None))
        centers = centers_of.get((coords, points, descriptors), ())
        slots = tuple(i for i in ids if labels[i] is None)
        classes[key] = (centers, slots)
        count += len(centers) * math.prod(map(decorated_count, slots))
    return classes, count


def branch_bijection_failures(alpha, table, target, keys):
    """(the steps of the branch-bijection proof that fail for alpha, the
    number of decorated configurations of alpha).  The steps are () when
    cutting at the center is a bijection from the decorated
    configurations (config, c, tree) of alpha, tree from the tree table,
    onto its branch decompositions.

    1. from_branches(to_branches(d)) == d for every d: a left inverse,
       so the cut is injective.
    2. Every image is a branch decomposition, checked structurally: its
       splitting is one of the classes of `_branch_classes`, its center
       disk realizes that class's center tuple, its branches carry the
       class's slot parts, and each branch is a configuration of its
       part with a tree of the tree table.
    3. The number of decorated configurations equals the class-level
       count of branch decompositions.

    Steps 1 and 2 make the cut an injection into the decompositions and
    step 3 makes it onto them.  Configurations are read from the table.
    `keys` is the table's `SplittingKeys`, which the checks of the
    table's tuples share.  Raises as `_branch_classes` does for a table
    with an unlabeled atom.

    No decorated configuration is listed: the check walks alpha's
    configurations x centers c x buckets of `_census(m)[c]`.  The image
    of d = (config, c, tree) has two halves: its splitting, center disk
    and branch sub-configurations depend only on (config, c, blocks),
    and each branch's distinguished disk and tree are its block's local
    root and subtree, passed through from the cut shape.  from_branches
    rebuilds config and c from the first half and, a sub-configuration
    being its block's atoms in loop order, glues the second half at the
    blocks.  So for every tree t of a bucket whose first tree is r, step
    1 holds for (config, c, t) if it holds for (config, c, r) and t's
    shape is reglued, and step 2 if r's image passes the class checks
    and t's shape is in_table.  The census proves both verdicts for
    every tree; the round trip and the class checks run on r.  The
    buckets of a center partition the tree table, so their counts,
    summed over configurations and centers, are step 3's number.
    Splittings and parts are compared by their integer keys and ids.
    """
    classes, count = _branch_classes(alpha, table, target, keys)
    configs = {}  # part id -> its configurations, keyed by loop tuple

    def is_decomposition(cut):
        centers, slots = classes.get(cut.key, ((), None))
        if (cut.center not in centers
                or tuple([pid for pid, _, _ in cut.branches]) != slots):
            return False
        for pid, loops, sub in cut.branches:
            if pid not in configs:
                configs[pid] = {
                    tuple(a.loop for a in config.atoms): config
                    for config in table.multi_disks(keys.parts[pid])}
            # equal configurations have equal loops, so a branch whose
            # loops were mislabeled fails here too
            if configs[pid].get(loops) != sub.config:
                return False
        return True

    left_inverse = in_classes = True
    decorated = 0
    for config in table.multi_disks(alpha):
        for c, buckets in enumerate(_census(len(config))):
            for trees, tree, shape, reglued, in_table in buckets:
                cut = to_branches(config, c, shape, keys)
                # a Decorated equals the plain tuple of its fields
                left_inverse = left_inverse and reglued and (
                    from_branches(cut) == (config, c, tree))
                in_classes = in_classes and in_table and is_decomposition(cut)
                decorated += trees
    steps = (left_inverse, in_classes, count == decorated)
    return tuple(step for step, ok in enumerate(steps, 1) if not ok), decorated


# --- headline comparison ------------------------------------------------------


def verify_welschinger_relation(alpha, degree, total):
    """The sign relation between the two counts of a dimension-0 tuple:
    the degree invariant of alpha with one point dropped (`degree`, one
    of the `degrees` of alpha's chain) equals (-1)^|K| times the
    configuration count of alpha (`total`, from `welschinger_count`)."""
    return degree == (-total if len(alpha.points) % 2 else total)
