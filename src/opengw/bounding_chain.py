"""The boundary recursion for disk counts, and both invariant definitions.

A bounding chain assigns to every admissible sub-tuple a 2-chain in the
ambient 3-manifold, known here only through its boundary: a formal
signed multiset of boundary loops.  The recursion builds those
multisets level by level over the predecessor order:

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

Two invariants come out of a chain family.  The degree-type invariant
of a dimension-2 tuple is (minus) the count of the top chain through
one extra point.  The weighted-type invariant of a dimension-0 tuple
sums over raw splittings with weight (-1)^(parts) * s(parts), where
s(k) = 1/k - 1/2 for k > 0 and s(0) = 1, and adds half the sum of the
degree-type invariants with one point dropped.  The test suite checks
the two against each other and against the direct linking-weighted
configuration count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import OpenGWError
from .lattice import ConstraintTuple, DegenerationType
from .multidisk import (
    ConfigurationError,
    MultiDisk,
    spanning_trees,
    tree_weight_sum,
    welschinger_count,
)
from .ring import QQ


class ChainError(OpenGWError, ValueError):
    """Missing or inconsistent chain data."""


@dataclass(frozen=True)
class BoundingChain:
    """A chain datum: the tuple it bounds for, and its boundary multiset.

    boundary: sorted tuple of (loop id, coefficient); empty for point
    chains and for tuples that carry no rigid disks.  virtual_dim
    records dim(alpha) + 2, the dimension the chain itself would have.
    """

    alpha: ConstraintTuple
    boundary: tuple
    is_point: bool
    virtual_dim: int

    def coefficient(self, loop, ring=QQ):
        for name, value in self.boundary:
            if name == loop:
                return value
        return ring.zero

    def as_dict(self):
        return dict(self.boundary)


def point_chain(target, label):
    """The chain of a bare point tuple: the point itself, no boundary."""
    alpha = target.point_tuple(label)
    return BoundingChain(alpha, (), True, target.dimension(alpha) + 2)


def _chain_linking(loop, chain, links, ring):
    """lk of a loop against a chain boundary multiset, extended linearly."""
    total = ring.zero
    for other, coeff in chain.boundary:
        total = total + coeff * links.lk(loop, other)
    return total


def divisor_covering_degree(loop, chain_list, links, ring=QQ):
    """Covering degree absorbing codimension-1 boundary insertions:
    (-1)^(number of insertions) * product of chain linking numbers."""
    product = ring.one
    for chain in chain_list:
        product = product * _chain_linking(loop, chain, links, ring)
    return product if len(chain_list) % 2 == 0 else -product


SIGN_TOGGLES_DEFAULT = (True, True, True)


def _class_sign_exponent(eta, toggles):
    """Exponent of the class-level sign.

    The derivation stacks three separate (-1)^(part count) factors (the
    unordered regrouping, the flip rule, the reassociation rule); the
    divisor trade's own (-1)^(chain slots) lives inside
    divisor_covering_degree, and together they reduce to
    (-1)^(point parts).  The toggles exist so the test suite can flip
    each stacked factor independently and watch the result move by the
    predicted sign.
    """
    k = eta.part_count
    return sum(1 for t in toggles if t) * k


def _live_parts(alpha, chains, target):
    """The parts a contributing class of alpha may carry: the non-point
    tuples whose chains have nonempty boundary.

    Nothing is silently zero: a dimension-0, non-point strict
    predecessor of alpha without a chain raises instead of reading as
    an empty chain.
    """
    for pred in target.predecessors(alpha):
        if (pred not in chains and not pred.is_point_tuple()
                and target.dimension(pred) == 0):
            raise ChainError("missing predecessor chain for %r" % (pred,))
    return [a for a, chain in chains.items()
            if chain.boundary and not a.is_point_tuple()]


def _center_triples(table, extra_point=None):
    """The atom table's tuples as class centers; with `extra_point`, only
    those through that point, with the point removed."""
    return [
        (c.beta, c.points - {extra_point}, c.descriptors)
        for c in table.tuples()
        if extra_point is None or extra_point in c.points
    ]


def boundary_class_terms(alpha, chains, table, target, ring=QQ,
                         sign_toggles=SIGN_TOGGLES_DEFAULT, extra_point=None):
    """Per-class contributions to the boundary multiset of alpha.

    Yields (canonical splitting, {loop: coefficient}) for every
    degeneration class with a nonzero evaluation rule.  With
    `extra_point`, the center tuple is augmented by one more point
    constraint (the degree-counting configuration); the returned
    multisets then represent a rigid signed count per loop.

    Only classes that can contribute are generated: the center carries
    a rigid disk (so its degree is nonzero; constant central disks are
    killed by the interior constraints or cancel in sign pairs between
    marked-point orderings) and every non-point part has a chain with
    nonempty boundary.
    """
    if extra_point is not None and extra_point in alpha.points:
        raise ChainError("augmentation point %r already constrained" % (extra_point,))
    out = []
    for eta, _count in target._classes_through(
        alpha, _center_triples(table, extra_point),
        _live_parts(alpha, chains, target),
    ):
        slot_chains = [chains[eta.parts[i]] for i in eta.chain_slots()]
        pts = eta.point_labels()
        if extra_point is not None:
            pts = pts | {extra_point}
        center = ConstraintTuple(eta.center_degree, pts, eta.center_descriptors)
        atoms = table.single_disks(center)
        exponent = _class_sign_exponent(eta, sign_toggles)
        # the divisor trade itself contributes (-1)^(chain slots), which
        # divisor_covering_degree already carries
        contribution = {}
        for atom in atoms:
            value = divisor_covering_degree(
                atom.loop, slot_chains, table.links, ring=ring
            )
            if atom.sign < 0:
                value = -value
            if exponent % 2:
                value = -value
            if value != ring.zero:
                contribution[atom.loop] = (
                    contribution.get(atom.loop, ring.zero) + value
                )
        contribution = {k: v for k, v in contribution.items() if v != ring.zero}
        if contribution:
            out.append((eta, contribution))
    return out


def assemble_boundary(alpha, chains, table, target, ring=QQ,
                      sign_toggles=SIGN_TOGGLES_DEFAULT):
    """The boundary multiset of the chain attached to a dimension-0 tuple."""
    dim = target.dimension(alpha)
    if dim != 0:
        raise ChainError(
            "boundary assembly needs a dimension-0 tuple, got dimension %d" % dim
        )
    total = {}
    for _eta, contribution in boundary_class_terms(
        alpha, chains, table, target, ring=ring, sign_toggles=sign_toggles
    ):
        for loop, value in contribution.items():
            total[loop] = total.get(loop, ring.zero) + value
    return {k: v for k, v in total.items() if v != ring.zero}


def direct_boundary(alpha, table, target, ring=QQ):
    """The multi-disk side of the same multiset:
    (-1)^|K| * sum over configurations of sgn * tree weight on each loop."""
    total = {}
    sign = -1 if len(alpha.points) % 2 else 1
    for config in table.multi_disks(alpha):
        weight = tree_weight_sum(config, table.links, ring=ring)
        value = weight if config.sgn() > 0 else -weight
        if sign < 0:
            value = -value
        for atom in config.atoms:
            total[atom.loop] = total.get(atom.loop, ring.zero) + value
    return {k: v for k, v in total.items() if v != ring.zero}


def build_chains(alpha, table, target, ring=QQ, include_self=False):
    """Chain family for all strict predecessors of alpha (and alpha
    itself when include_self and dim(alpha) = 0), by increasing level."""
    chains = {}
    preds = target.predecessors(alpha)
    if include_self:
        preds = preds + [alpha]
    preds.sort(key=lambda a: (a.beta.area, len(a.points) + len(a.descriptors),
                              a.sort_key()))
    for cand in preds:
        if cand.is_point_tuple():
            chains[cand] = point_chain(target, next(iter(cand.points)))
        elif target.dimension(cand) == 0:
            boundary = assemble_boundary(cand, chains, table, target, ring=ring)
            chains[cand] = BoundingChain(
                cand,
                tuple(sorted(boundary.items())),
                False,
                target.dimension(cand) + 2,
            )
    return chains


# --- the two invariants -----------------------------------------------------


def invariant_via_degree(alpha, table, target, point, chains, ring=QQ,
                         sign_toggles=SIGN_TOGGLES_DEFAULT):
    """Degree of the top chain of a dimension-2 tuple.

    Evaluated by cutting with one extra point constraint: minus the
    total signed coefficient of the point-augmented boundary assembly
    (the odd ambient dimension flips the count against the degree).
    `chains` must hold the chains of alpha's predecessors; the family of
    any tuple above alpha serves, since a chain depends only on its
    tuple.
    """
    dim = target.dimension(alpha)
    if dim != 2:
        raise ChainError(
            "degree invariant needs a dimension-2 tuple, got dimension %d" % dim
        )
    total = ring.zero
    for _eta, contribution in boundary_class_terms(
        alpha, chains, table, target, ring=ring,
        sign_toggles=sign_toggles, extra_point=point,
    ):
        for value in contribution.values():
            total = total + value
    return -total


def default_weight_rule(part_count):
    """The splitting weight: 1 at no parts, else 1/parts - 1/2."""
    if part_count == 0:
        return Fraction(1)
    return Fraction(1, part_count) - Fraction(1, 2)


def constant_center_classes(alpha, chains, table, target,
                            weight_rule=default_weight_rule):
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
        (eta, count) for eta, count in target._classes_through(
            alpha, [empty_center], _live_parts(alpha, chains, target)
        )
        if weight_rule(eta.part_count) != 0
    ]


def invariant_via_weights(alpha, table, target, chains, ring=QQ,
                          weight_rule=default_weight_rule,
                          sign_toggles=SIGN_TOGGLES_DEFAULT):
    """Weighted sum over raw splittings plus the half point-drop sum.

    Defined for dimension-0 tuples (zero otherwise).  The fiber count of
    each splitting is evaluated through the divisor-trade rule on the
    declared rigid disks: the class terms of the boundary assembly, whose
    sign already carries (-1)^(parts).

    Multiplicity bookkeeping: the raw sum ranges over ordered splittings
    whose center moduli carry position-ordered boundary points.  A rigid
    center configuration with k constrained boundary points is
    position-compatible with exactly the k cyclic rotations of the
    slot-to-point matching, so the class of a splitting contributes its
    full (unordered) divisor-rule count times k, not times the raw class
    size.  The dual-formula comparison against the degree invariant pins
    this factor.
    """
    if target.dimension(alpha) != 0:
        return ring.zero
    total = ring.zero
    for eta, contribution in boundary_class_terms(
        alpha, chains, table, target, ring=ring, sign_toggles=sign_toggles
    ):
        scale = ring(weight_rule(eta.part_count)) * ring(max(eta.part_count, 1))
        for value in contribution.values():
            total = total + scale * value
    half = ring(Fraction(1, 2))
    for p in sorted(alpha.points):
        dropped = ConstraintTuple(
            alpha.beta, alpha.points - {p}, alpha.descriptors
        )
        total = total + half * invariant_via_degree(
            dropped, table, target, point=p, chains=chains, ring=ring,
            sign_toggles=sign_toggles,
        )
    return total


# --- decorated configurations and the branch bijection ----------------------


def _loop_edges(tree_indices, atoms):
    return frozenset(
        frozenset((atoms[i].loop, atoms[j].loop)) for i, j in tree_indices
    )


@dataclass(frozen=True)
class DecoratedMultiDisk:
    """A configuration with a distinguished disk and a spanning tree.

    The tree is a set of unordered loop-id pairs over the configuration's
    boundary loops.
    """

    config: MultiDisk
    center: object
    tree: frozenset

    def __post_init__(self):
        if self.center not in self.config.atoms:
            raise ConfigurationError("distinguished disk not in the configuration")
        loops = {a.loop for a in self.config.atoms}
        m = len(loops)
        if len(self.tree) != m - 1:
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
    """The cut-at-the-center form of a decorated configuration.

    parts mirrors the degeneration type: one bare point part per point
    constraint on the center, one part per branch.  branches holds, in
    canonical order, (part tuple, attached decorated sub-configuration).
    """

    eta: DegenerationType
    center: object
    branches: tuple

    def sort_key(self):
        return (
            self.eta.sort_key(),
            self.center.loop,
            tuple(b.sort_key() for _, b in self.branches),
        )


def decorated_multidisks(alpha, table, tree_cap=None):
    """All (configuration, center, spanning tree) triples for the tuple."""
    out = []
    kwargs = {} if tree_cap is None else {"cap": tree_cap}
    for config in table.multi_disks(alpha):
        m = len(config)
        for tree_idx in spanning_trees(m, **kwargs) if m > 1 else [frozenset()]:
            tree = _loop_edges(tree_idx, config.atoms)
            for center in config.atoms:
                out.append(DecoratedMultiDisk(config, center, tree))
    out.sort(key=DecoratedMultiDisk.sort_key)
    return out


def to_branches(decorated, target):
    """Cut the tree at the distinguished disk.

    Each branch keeps its subtree, and its attachment vertex (the disk
    that was linked to the center) becomes its distinguished disk.
    """
    config = decorated.config
    center = decorated.center
    others = [a for a in config.atoms if a.loop != center.loop]
    adj = {}
    for edge in decorated.tree:
        a, b = tuple(edge)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    by_loop = {a.loop: a for a in config.atoms}
    components = []
    unvisited = {a.loop for a in others}
    while unvisited:
        start = min(unvisited)
        comp = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in comp or node == center.loop:
                continue
            comp.add(node)
            stack.extend(adj.get(node, ()))
        unvisited -= comp
        components.append(comp)
    branches = []
    for comp in components:
        attach = [
            l for l in comp if center.loop in adj.get(l, ())
        ]
        if len(attach) != 1:
            raise ConfigurationError("tree branch attaches more than once")
        atoms = tuple(by_loop[l] for l in sorted(comp))
        sub_tree = frozenset(
            e for e in decorated.tree if all(x in comp for x in e)
        )
        sub = DecoratedMultiDisk(MultiDisk(atoms), by_loop[attach[0]], sub_tree)
        beta = sub.config.total_degree()
        part = ConstraintTuple(
            beta, sub.config.total_points(), sub.config.total_descriptors()
        )
        branches.append((part, sub))
    point_parts = [target.point_tuple(p) for p in sorted(center.points)]
    all_parts = point_parts + [p for p, _ in branches]
    all_parts.sort(key=ConstraintTuple.sort_key)
    eta = DegenerationType(
        center.degree, center.descriptors, tuple(all_parts)
    )
    branches.sort(key=lambda pb: (pb[0].sort_key(), pb[1].sort_key()))
    return BranchDecomposition(eta, center, tuple(branches))


def from_branches(decomposition, target):
    """Reattach the branches to the center (inverse of to_branches)."""
    center = decomposition.center
    atoms = [center]
    edges = set()
    for part, sub in decomposition.branches:
        total = ConstraintTuple(
            sub.config.total_degree(),
            sub.config.total_points(),
            sub.config.total_descriptors(),
        )
        if total != part:
            raise ConfigurationError(
                "branch contents contradict the splitting part %r" % (part,)
            )
        atoms.extend(sub.config.atoms)
        edges |= sub.tree
        edges.add(frozenset((center.loop, sub.center.loop)))
    expected_parts = sorted(
        [target.point_tuple(p) for p in center.points]
        + [p for p, _ in decomposition.branches],
        key=ConstraintTuple.sort_key,
    )
    if tuple(expected_parts) != tuple(
        sorted(decomposition.eta.parts, key=ConstraintTuple.sort_key)
    ):
        raise ConfigurationError("splitting parts contradict the branches")
    return DecoratedMultiDisk(
        MultiDisk(tuple(atoms)), center, frozenset(edges)
    )


def branch_decompositions(alpha, table, target, decorated=None):
    """Independent enumeration of branch decompositions (the quotient
    side of the bijection), built from splittings and sub-configurations
    rather than by cutting trees.

    `decorated` maps tuples to their `decorated_multidisks`, so that one
    map can serve every tuple of a run; a part missing from it is
    decorated here with the default tree cap.
    """
    known = {} if decorated is None else decorated
    parts = {}
    for part in target.predecessors(alpha):
        if target.dimension(part) == 0 and not part.is_point_tuple():
            dmds = known.get(part)
            if dmds is None:
                dmds = decorated_multidisks(part, table)
            if dmds:
                parts[part] = dmds
    out = set()
    for eta, _count in target._classes_through(
        alpha, _center_triples(table), parts
    ):
        slot_parts = [eta.parts[i] for i in eta.chain_slots()]
        slot_dmds = [parts[part] for part in slot_parts]
        for center_atom in table.single_disks(eta.center_tuple()):
            for assignment in itertools.product(*slot_dmds):
                branches = sorted(
                    zip(slot_parts, assignment),
                    key=lambda pb: (pb[0].sort_key(), pb[1].sort_key()),
                )
                out.add(BranchDecomposition(eta, center_atom, tuple(branches)))
    return sorted(out, key=BranchDecomposition.sort_key)


# --- headline comparison ------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    alpha: ConstraintTuple
    removed_point: str
    chain_degree: object
    welschinger_total: object
    sign: int

    @property
    def holds(self):
        expected = self.welschinger_total if self.sign > 0 else -self.welschinger_total
        return self.chain_degree == expected


def verify_welschinger_relation(alpha, table, target, chains, point=None,
                                ring=QQ):
    """Check the sign relation between the chain-degree invariant and the
    direct linking-weighted count.

    For a dimension-0 tuple whose point set contains `point` (default:
    the smallest label), the degree invariant of the tuple with that
    point removed must equal (-1)^|K| times the configuration count of
    the full tuple.  `chains` is a chain family covering alpha's
    predecessors, such as that of alpha or of any tuple above it.
    """
    if target.dimension(alpha) != 0:
        raise ChainError("the comparison needs a dimension-0 tuple")
    if not alpha.points:
        raise ChainError("the comparison needs at least one point constraint")
    p = min(alpha.points) if point is None else point
    if p not in alpha.points:
        raise ChainError("point %r is not a constraint of the tuple" % (p,))
    dropped = ConstraintTuple(alpha.beta, alpha.points - {p}, alpha.descriptors)
    degree = invariant_via_degree(dropped, table, target, p, chains, ring=ring)
    configs = table.multi_disks(alpha)
    total = welschinger_count(alpha, configs, table.links, target, ring=ring)
    sign = -1 if len(alpha.points) % 2 else 1
    return ComparisonReport(alpha, p, degree, total, sign)
