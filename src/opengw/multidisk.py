"""Disk configurations, linking numbers, and spanning-tree sums.

The synthetic geometry is a table of rigid single disks: each atom
carries a degree, the point and descriptor labels it absorbs, a sign,
and a boundary-loop identifier.  Multi-disk configurations are the
unordered collections of distinct atoms that jointly realize a
constraint tuple; pairwise boundary linking numbers are declared in a
symmetric matrix over the loop identifiers.

The weight of a configuration is the sum over spanning trees of its
complete graph of the product of edge linking numbers.  The production
evaluation goes through the weighted matrix-tree determinant; explicit
tree enumeration is kept as the independent oracle route and the two
must agree exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import OpenGWError, linalg
from .ring import QQ


DEFAULT_TREE_CAP = 7


class LinkingError(OpenGWError, ValueError):
    """Missing or ill-formed linking data."""


class ConfigurationError(OpenGWError, ValueError):
    """A disk configuration violates its constraint tuple."""


@dataclass(frozen=True)
class DiskAtom:
    """A rigid single disk with its constraints and boundary loop."""

    degree: object
    points: frozenset
    descriptors: frozenset
    sign: int
    loop: str

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ConfigurationError("atom sign must be +1 or -1")

    def sort_key(self):
        return (self.loop,)

    def __repr__(self):
        return "Atom(%s%s@%s)" % (
            "+" if self.sign > 0 else "-",
            "/".join(str(c) for c in self.degree.coords),
            self.loop,
        )


class LinkingMatrix:
    """Symmetric pairwise linking numbers over declared boundary loops.

    Only loops declared null-homologous (`bounded`) may be queried; the
    diagonal is undefined by convention.
    """

    def __init__(self, entries, ring=QQ, unbounded=()):
        self.ring = ring
        self.loops = set()
        self.unbounded = frozenset(unbounded)
        self._values = {}
        for a, b, value in entries:
            if a == b:
                raise LinkingError("self-linking entry for loop %r" % (a,))
            key = (a, b) if a <= b else (b, a)
            coerced = ring(value)
            if key in self._values and self._values[key] != coerced:
                raise LinkingError("conflicting entries for %r" % (key,))
            self._values[key] = coerced
            self.loops.add(a)
            self.loops.add(b)

    def declare_loop(self, loop):
        self.loops.add(loop)

    def lk(self, a, b):
        """The normalized linking number of two distinct bounded loops."""
        if a == b:
            raise LinkingError("self-linking of %r is undefined" % (a,))
        for loop in (a, b):
            if loop in self.unbounded:
                raise LinkingError(
                    "loop %r is not declared null-homologous" % (loop,)
                )
            if loop not in self.loops:
                raise LinkingError("loop %r has no linking data" % (loop,))
        key = (a, b) if a <= b else (b, a)
        return self._values.get(key, self.ring.zero)

    def linking_number(self, a, b, variant=1):
        """One of the four equivalent fiber-count expressions for lk.

        Variants 1 and 3 (chain of a against b, chain of b against a)
        agree; variants 2 and 4 (arguments through the loop first) are
        their negatives.
        """
        if variant not in (1, 2, 3, 4):
            raise LinkingError("variant must be 1..4")
        base = self.lk(a, b) if variant in (1, 2) else self.lk(b, a)
        return base if variant in (1, 3) else -base


@dataclass(frozen=True)
class MultiDisk:
    """An unordered configuration of distinct single disks."""

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ConfigurationError("a configuration needs at least one disk")
        loops = [a.loop for a in self.atoms]
        if len(set(loops)) != len(loops):
            raise ConfigurationError("boundary loops must be pairwise distinct")
        ordered = tuple(sorted(self.atoms, key=DiskAtom.sort_key))
        object.__setattr__(self, "atoms", ordered)

    def __len__(self):
        return len(self.atoms)

    def sgn(self):
        s = 1
        for a in self.atoms:
            s *= a.sign
        return s

    def total_degree(self):
        total = self.atoms[0].degree
        for a in self.atoms[1:]:
            total = total + a.degree
        return total

    def total_points(self):
        return frozenset().union(*(a.points for a in self.atoms))

    def total_descriptors(self):
        return frozenset().union(*(a.descriptors for a in self.atoms))

    def validate_against(self, alpha):
        """The atom data must partition the constraint tuple exactly."""
        if sum(len(a.points) for a in self.atoms) != len(self.total_points()):
            raise ConfigurationError("point labels overlap between atoms")
        if self.total_points() != alpha.points:
            raise ConfigurationError("point labels do not partition the tuple")
        if sum(len(a.descriptors) for a in self.atoms) != len(self.total_descriptors()):
            raise ConfigurationError("descriptor labels overlap between atoms")
        if self.total_descriptors() != alpha.descriptors:
            raise ConfigurationError("descriptor labels do not partition the tuple")
        if self.total_degree() != alpha.beta:
            raise ConfigurationError("degrees do not sum to the tuple degree")


# --- spanning trees --------------------------------------------------------


def _tree_from_pruefer(seq, m):
    """Decode a Pruefer sequence over [0, m) into a tree edge set."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(m) if degree[v] == 1)
    seq = list(seq)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            # re-insert keeping the pool sorted
            lo, hi = 0, len(leaves)
            while lo < hi:
                mid = (lo + hi) // 2
                if leaves[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            leaves.insert(lo, v)
    edges.append((leaves[0], leaves[1]))
    return frozenset(edges)


def spanning_trees(m, cap=DEFAULT_TREE_CAP):
    """All spanning trees of the complete graph on m labeled vertices.

    Pruefer decoding; m above the cap is refused since the count m^(m-2)
    explodes.
    """
    if m < 1:
        raise ConfigurationError("need at least one vertex")
    if m > cap:
        raise ConfigurationError(
            "tree enumeration capped at %d vertices (asked for %d)" % (cap, m)
        )
    if m == 1:
        return [frozenset()]
    if m == 2:
        return [frozenset([(0, 1)])]
    return [
        _tree_from_pruefer(seq, m)
        for seq in itertools.product(range(m), repeat=m - 2)
    ]


def _edge_weights(config, links):
    atoms = config.atoms
    m = len(atoms)
    return {
        (i, j): links.lk(atoms[i].loop, atoms[j].loop)
        for i in range(m) for j in range(i + 1, m)
    }


def tree_weight_sum(config, links, ring=QQ):
    """Sum over spanning trees of the product of edge linking numbers,
    via the weighted matrix-tree cofactor determinant (the ring must be
    a field)."""
    m = len(config)
    if m == 1:
        return ring.one
    w = _edge_weights(config, links)
    size = m - 1
    lap = [[ring.zero for _ in range(size)] for _ in range(size)]
    for i in range(m):
        for j in range(i + 1, m):
            val = w[(i, j)]
            if i < size and j < size:
                lap[i][j] = lap[i][j] - val
                lap[j][i] = lap[j][i] - val
            if i < size:
                lap[i][i] = lap[i][i] + val
            if j < size:
                lap[j][j] = lap[j][j] + val
    return ring(linalg.det(lap))


def tree_weight_sum_enumerated(config, links, ring=QQ, cap=DEFAULT_TREE_CAP):
    """The same sum by explicit tree enumeration; the oracle route."""
    m = len(config)
    if m == 1:
        return ring.one
    w = _edge_weights(config, links)
    total = ring.zero
    for tree in spanning_trees(m, cap=cap):
        prod = ring.one
        for e in tree:
            prod = prod * w[e]
        total = total + prod
    return total


# --- the atom table and configuration enumeration -------------------------


class AtomTable:
    """The declared synthetic geometry: rigid disks plus linking data."""

    def __init__(self, target, atoms, links, ring=QQ):
        self.target = target
        self.ring = ring
        self.links = links
        self.atoms = tuple(sorted(atoms, key=DiskAtom.sort_key))
        loops = [a.loop for a in self.atoms]
        if len(set(loops)) != len(loops):
            raise ConfigurationError("duplicate boundary loop identifiers")
        self._by_tuple = {}
        for atom in self.atoms:
            if atom.degree.is_zero:
                raise ConfigurationError(
                    "atom %r: rigid disks of zero degree do not occur" % (atom,)
                )
            alpha = target.constraint_tuple(
                atom.degree, atom.points, atom.descriptors
            )
            if target.dimension(alpha) != 0:
                raise ConfigurationError(
                    "atom %r sits in a tuple of dimension %d, want 0"
                    % (atom, target.dimension(alpha))
                )
            self._by_tuple.setdefault(alpha, []).append(atom)
            links.declare_loop(atom.loop)

    def single_disks(self, alpha):
        """SD: the declared rigid disks realizing the tuple exactly."""
        return tuple(self._by_tuple.get(alpha, ()))

    def tuples(self):
        return sorted(self._by_tuple, key=lambda a: a.sort_key())

    def multi_disks(self, alpha, max_atoms=None):
        """MD: unordered configurations of distinct atoms that jointly
        partition the tuple."""
        usable = [
            a for a in self.atoms
            if a.points <= alpha.points
            and a.descriptors <= alpha.descriptors
            and (alpha.beta - a.degree).is_effective
        ]
        out = []
        cap = max_atoms if max_atoms is not None else len(usable)

        def rec(start, chosen, beta_left, pts_left, dsc_left):
            if beta_left.is_zero and not pts_left and not dsc_left:
                if chosen:
                    out.append(MultiDisk(tuple(chosen)))
                # a completed configuration cannot be extended: any
                # further atom would overshoot the degree or labels
                return
            if len(chosen) >= cap:
                return
            for idx in range(start, len(usable)):
                atom = usable[idx]
                if not atom.points <= pts_left:
                    continue
                if not atom.descriptors <= dsc_left:
                    continue
                rest = beta_left - atom.degree
                if not rest.is_effective:
                    continue
                chosen.append(atom)
                rec(idx + 1, chosen, rest,
                    pts_left - atom.points, dsc_left - atom.descriptors)
                chosen.pop()

        rec(0, [], alpha.beta, alpha.points, alpha.descriptors)
        out.sort(key=lambda c: tuple(a.loop for a in c.atoms))
        return out


def welschinger_count(alpha, configs, links, target, ring=QQ):
    """Signed linking-weighted count over the supplied configurations.

    Configurations are validated against the tuple; the count is zero by
    definition when the tuple has nonzero dimension.
    """
    for config in configs:
        config.validate_against(alpha)
    if target.dimension(alpha) != 0:
        return ring.zero
    total = ring.zero
    for config in configs:
        sgn = config.sgn()
        weight = tree_weight_sum(config, links, ring=ring)
        total = total + (weight if sgn > 0 else -weight)
    return total


# --- conjugation cancellation ----------------------------------------------


@dataclass(frozen=True)
class InvolutionData:
    """Degree flip plus boundary-loop reversal pairing."""

    degree_map: tuple  # square integer matrix acting on degree coords
    loop_partner: dict  # loop id <-> loop id (an involution)

    def flip_degree(self, target, beta):
        n = len(self.degree_map)
        coords = tuple(
            sum(self.degree_map[i][j] * beta.coords[j] for j in range(n))
            for i in range(n)
        )
        return target.degree(coords)

    def flip_atom(self, target, atom):
        partner = self.loop_partner.get(atom.loop)
        if partner is None:
            raise ConfigurationError("loop %r has no declared partner" % (atom.loop,))
        return DiskAtom(
            self.flip_degree(target, atom.degree),
            atom.points,
            atom.descriptors,
            atom.sign,
            partner,
        )

    def validate(self, target):
        n = len(self.degree_map)
        if n != target.rank or any(len(r) != n for r in self.degree_map):
            raise ConfigurationError("degree map must be rank x rank")
        for i in range(n):
            g = target.generator(i)
            gg = self.flip_degree(target, self.flip_degree(target, g))
            if gg != g:
                raise ConfigurationError("degree map is not an involution")
            flipped = self.flip_degree(target, g)
            if not flipped.is_effective:
                raise ConfigurationError("degree map must preserve effectivity")
            if flipped.area != g.area or flipped.maslov != g.maslov:
                raise ConfigurationError(
                    "degree map must preserve area and Maslov index"
                )
        for a, b in self.loop_partner.items():
            if self.loop_partner.get(b) != a:
                raise ConfigurationError("loop pairing is not an involution")


@dataclass(frozen=True)
class CancellationReport:
    multi_disk_total: object
    single_disk_total: object
    full_total: object
    config_count: int
    pair_count: int
    valence_histogram: tuple

    @property
    def cancels(self):
        return self.multi_disk_total == 0 or self.multi_disk_total == Fraction(0)


def conjugation_cancellation_check(tuples, table, involution, ring=QQ,
                                   tree_cap=DEFAULT_TREE_CAP):
    """Verify the conjugation pairing on a degree-class orbit.

    `tuples` lists the constraint tuples whose configurations make up
    the orbit (same labels, conjugate degrees).  Checks that the data is
    closed under flipping any single atom, that the multi-disk part of
    the (configuration, tree) sum cancels exactly, and that the total
    therefore equals the single-disk signed count.
    """
    involution.validate(table.target)
    seen_labels = {(t.points, t.descriptors) for t in tuples}
    if len(seen_labels) != 1:
        raise ConfigurationError("orbit tuples must share point/descriptor labels")
    degrees = {t.beta for t in tuples}
    for t in tuples:
        flipped = involution.flip_degree(table.target, t.beta)
        if flipped not in degrees:
            raise ConfigurationError(
                "degree orbit not closed: missing %r" % (flipped,)
            )
    configs = []
    for t in tuples:
        configs.extend(table.multi_disks(t))
    config_keys = {tuple(a.loop for a in c.atoms) for c in configs}
    for config in configs:
        for i in range(len(config.atoms)):
            flipped_atoms = list(config.atoms)
            flipped_atoms[i] = involution.flip_atom(table.target, config.atoms[i])
            try:
                key = tuple(a.loop for a in MultiDisk(tuple(flipped_atoms)).atoms)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    "atom flip collides inside a configuration: %s" % exc
                ) from exc
            if key not in config_keys:
                raise ConfigurationError(
                    "configuration set is not closed under the atom flip"
                )
    multi_total = ring.zero
    single_total = ring.zero
    valences = {}
    pair_count = 0
    for config in configs:
        sgn = config.sgn()
        if len(config) == 1:
            single_total = single_total + (ring.one if sgn > 0 else -ring.one)
            continue
        w = _edge_weights(config, table.links)
        for tree in spanning_trees(len(config), cap=tree_cap):
            pair_count += 1
            prod = ring.one
            for e in tree:
                prod = prod * w[e]
            term = prod if sgn > 0 else -prod
            multi_total = multi_total + term
            deg = [0] * len(config)
            for a, b in tree:
                deg[a] += 1
                deg[b] += 1
            for d in deg:
                valences[d] = valences.get(d, 0) + 1
    return CancellationReport(
        multi_disk_total=multi_total,
        single_disk_total=single_total,
        full_total=multi_total + single_total,
        config_count=len(configs),
        pair_count=pair_count,
        valence_histogram=tuple(sorted(valences.items())),
    )
