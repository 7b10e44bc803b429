"""Disk configurations, linking numbers, and spanning-tree sums.

The synthetic geometry is a table of rigid single disks: each atom
carries a degree, the point and descriptor labels it absorbs, a sign,
and a boundary-loop identifier.  Multi-disk configurations are the
unordered collections of distinct atoms that jointly realize a
constraint tuple; pairwise boundary linking numbers are declared in a
symmetric matrix over the loop identifiers.

The weight of a configuration is the sum over spanning trees of its
complete graph of the product of edge linking numbers.  Every production
evaluation goes through the weighted matrix-tree determinant, once per
configuration, kept by `AtomTable.tree_weights`; explicit tree
enumeration is kept as the independent oracle route, which the
matrix-tree self-check compares with it on random weights, and the two
must agree exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from . import OpenGWError, linalg


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

    def __init__(self, entries, unbounded=()):
        self.loops = set()
        self.unbounded = frozenset(unbounded)
        self._values = {}
        for a, b, value in entries:
            if a == b:
                raise LinkingError("self-linking entry for loop %r" % (a,))
            key = (a, b) if a <= b else (b, a)
            coerced = Fraction(value)
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
        return self._values.get(key, Fraction(0))


@dataclass(frozen=True)
class MultiDisk:
    """An unordered configuration of distinct single disks."""

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ConfigurationError("a configuration needs at least one disk")
        if len({a.loop for a in self.atoms}) != len(self.atoms):
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

# The most vertices a spanning-tree table is decoded for.  The decode
# keeps the vertices below the last one as the bits of a byte, so 9 is
# the most it can hold; the table of 9 vertices holds 9^7 trees, that
# of 10 would hold 10^8.
MAX_TREE_VERTICES = 9
# the most Pruefer sequences the decode handles in one block: at 9
# vertices a block's ints then take about 2 MB, and 2^16 decoded faster
# than 2^12, 2^14 or 2^20
_BLOCK_LANES = 1 << 16


@functools.cache
def _edge_pairs(m):
    return tuple(itertools.combinations(range(m), 2))


@functools.cache
def _edge_index_table(m):
    """index[i][j]: the index of edge {i, j} in
    itertools.combinations(range(m), 2), for i != j."""
    index = [[None] * m for _ in range(m)]
    for k, (i, j) in enumerate(_edge_pairs(m)):
        index[i][j] = index[j][i] = k
    return index


@functools.cache
def _block_tables(m):
    """Per subset of range(m), indexed by its bitmask: (its vertices in
    increasing order, the local index of each edge of the complete graph
    on m vertices that lies inside it, -1 for the others, and the edge
    index on m vertices of each local edge).  Local indices are those of
    itertools.combinations(range(size), 2) over the sorted vertices."""
    index = _edge_index_table(m)
    edges = len(_edge_pairs(m))
    tables = []
    for mask in range(1 << m):
        verts = tuple(v for v in range(m) if mask >> v & 1)
        lift = tuple(index[verts[i]][verts[j]]
                     for i, j in _edge_pairs(len(verts)))
        local = [-1] * edges
        for k, edge in enumerate(lift):
            local[edge] = k
        tables.append((verts, tuple(local), lift))
    return tuple(tables)


def _translated(lanes, count, table):
    """The little-endian int of `count` byte lanes with each lane mapped
    through a 256-byte table."""
    return int.from_bytes(
        lanes.to_bytes(count, "little").translate(table), "little")


@functools.cache
def _packed_trees(m):
    """Every spanning tree of the complete graph on m vertices, 2 <= m <=
    MAX_TREE_VERTICES, in Pruefer order, as the sorted indices of its
    m - 1 edges in itertools.combinations(range(m), 2), packed end to
    end in one bytes object; decoded once per m.

    The decode runs each step of the Pruefer decode on a block of
    sequences at once, one byte lane per sequence in a little-endian
    int.  Step i joins the least vertex that is neither removed nor in
    the sequence from position i on (the leaf) to the digit at i; the
    last step joins the one vertex left below m - 1 to m - 1, as if
    m - 1 closed the sequence.  Vertex m - 1 is never a leaf before the
    last step, so a vertex set needs only the bits of the m - 1 <= 8
    vertices below it, and a byte holds it.  The leaf is the lowest
    clear bit of (removed | suffix), which adding 1 to each lane
    isolates without a carry out of the lane.  The byte (leaf << 4) |
    digit names the edge, since leaf < 8 and digit < 16.  The m - 1
    edge lanes are then sorted by an odd-even transposition network:
    edge indices are below 128, so (a | 128) - b keeps each lane apart
    and its bit 7 says whether a >= b.  A block is the sequences that
    share their leading digits, a contiguous slice of the table."""
    if m > MAX_TREE_VERTICES:
        raise ConfigurationError(
            "the spanning trees of %d vertices are past the decode's "
            "limit of %d vertices" % (m, MAX_TREE_VERTICES))
    index = _edge_index_table(m)
    width = m - 1
    onehot = bytes([1 << v for v in range(width)]).ljust(256, b"\0")
    leaf = bytearray(256)  # a one-hot vertex byte -> vertex << 4
    edge = bytearray(256)  # (leaf << 4) | digit -> the edge's index
    for v in range(width):
        leaf[1 << v] = v << 4
        for d in range(m):
            if d != v:
                edge[v << 4 | d] = index[v][d]
    tail = 0  # the trailing digits that vary within a block
    while tail < m - 2 and m ** (tail + 1) <= _BLOCK_LANES:
        tail += 1
    lanes = m ** tail
    head = m - 2 - tail
    ones = int.from_bytes(b"\1" * lanes, "little")
    guard = ones << 7
    # the trailing digit columns, the same in every block, then m - 1;
    # and for each, the vertices below m - 1 from its position on
    columns = [int.from_bytes(
        b"".join(bytes([d]) * m ** (m - 3 - j) for d in range(m))
        * m ** (j - head), "little") for j in range(head, m - 2)]
    columns.append((m - 1) * ones)
    suffixes = [0]
    for column in reversed(columns[:-1]):
        suffixes.append(suffixes[-1] | _translated(column, lanes, onehot))
    suffixes.reverse()
    out = bytearray(width * m ** (m - 2))
    size = width * lanes
    for start, digits in zip(range(0, len(out), size),
                             itertools.product(range(m), repeat=head)):
        steps = list(zip(suffixes, columns))
        for d in reversed(digits):  # the leading digits, fixed in a block
            steps.insert(0, (steps[0][0] | onehot[d] * ones, d * ones))
        removed = 0
        rows = []
        for suffix, column in steps:
            taken = removed | suffix
            low = (taken + ones) & ~taken
            removed |= low
            rows.append(_translated(
                _translated(low, lanes, leaf) | column, lanes, edge))
        for r in range(width):
            for a in range(r & 1, width - 1, 2):
                p, q = rows[a], rows[a + 1]
                ge = ((p | guard) - q & guard) >> 7  # 1 where p >= q
                swap = (p ^ q) & ((ge << 8) - ge)  # that 1 widened to 0xff
                rows[a], rows[a + 1] = p ^ swap, q ^ swap
        for j, row in enumerate(rows):
            out[start + j:start + size:width] = row.to_bytes(lanes, "little")
    return bytes(out)


def tree_edge_indices(m):
    """Iterate over the spanning trees on m vertices, each a sorted tuple
    of edge indices into itertools.combinations(range(m), 2).  The count
    is m^(m-2), so callers bound m: `verify-all` refuses a run whose
    largest configuration is over its tree cap before any work, and m
    over MAX_TREE_VERTICES is refused before any decode."""
    if m < 1:
        raise ConfigurationError("need at least one vertex")
    if m == 1:
        return iter([()])
    return zip(*[iter(_packed_trees(m))] * (m - 1))


def _edge_weights(config, links):
    """Linking numbers of the configuration's atom pairs, in the order
    of itertools.combinations(range(m), 2)."""
    return [links.lk(a.loop, b.loop)
            for a, b in itertools.combinations(config.atoms, 2)]


def tree_weight_sum(m, weights):
    """Sum over the spanning trees on m vertices of the product of their
    edge weights, given in the order of itertools.combinations(range(m),
    2), via the weighted matrix-tree cofactor determinant.  The
    Laplacian is built in integers, over the weights' common denominator
    den, so its cofactor is den^(m-1) times the sum."""
    if m == 1:
        return Fraction(1)
    ints, den = linalg._integer_scaled(weights)
    size = m - 1
    lap = [[0] * size for _ in range(size)]
    # i < j, so the row and column of i are always kept
    for (i, j), w in zip(_edge_pairs(m), ints):
        lap[i][i] += w
        if j < size:
            lap[j][j] += w
            lap[i][j] -= w
            lap[j][i] -= w
    return Fraction(linalg._det_bareiss(lap), den ** size)


@functools.cache
def _tree_getters(m):
    """One itemgetter per spanning tree on m >= 3 vertices, in the order
    of `tree_edge_indices`, picking the tree's edges out of a list of
    edge weights; built once per m."""
    return tuple(itertools.starmap(itemgetter, tree_edge_indices(m)))


def tree_weight_sum_enumerated(m, weights):
    """The same sum by explicit tree enumeration; the oracle route.  The
    products are taken in integers, over the weights' common
    denominator, one per tree, and divided once."""
    if m == 1:
        return Fraction(1)
    ints, den = linalg._integer_scaled(weights)
    if m == 2:
        return Fraction(ints[0], den)  # the one tree is the one edge
    prod = math.prod
    total = sum([prod(tree(ints)) for tree in _tree_getters(m)])
    return Fraction(total, den ** (m - 1))


# --- the atom table and configuration enumeration -------------------------


class AtomTable:
    """The declared synthetic geometry: rigid disks plus linking data."""

    def __init__(self, target, atoms, links):
        self.target = target
        self.links = links
        self.atoms = tuple(sorted(atoms, key=DiskAtom.sort_key))
        loops = [a.loop for a in self.atoms]
        if len(set(loops)) != len(loops):
            raise ConfigurationError("duplicate boundary loop identifiers")
        self._by_tuple = {}
        self._configs = {}  # tuple -> its configurations, listed once
        self._weights = {}  # tuple -> their tree weight sums
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

    def multi_disks(self, alpha):
        """MD: unordered configurations of distinct atoms that jointly
        partition the tuple.  Listed once per tuple and kept on the
        table; each call returns a new list."""
        return list(self._configurations(alpha))

    def tree_weights(self, alpha):
        """The `tree_weight_sum` of each configuration of the tuple, in
        the order of `multi_disks`; evaluated once per tuple."""
        weights = self._weights.get(alpha)
        if weights is None:
            links = self.links
            weights = self._weights[alpha] = tuple(
                tree_weight_sum(len(config), _edge_weights(config, links))
                for config in self._configurations(alpha)
            )
        return weights

    def largest_configuration(self, tuples):
        """The most atoms in any configuration of the tuples; 0 when they
        have none."""
        return max((len(config) for alpha in tuples
                    for config in self._configurations(alpha)), default=0)

    def _configurations(self, alpha):
        configs = self._configs.get(alpha)
        if configs is None:
            configs = self._configs[alpha] = self._list_configurations(alpha)
        return configs

    def _list_configurations(self, alpha):
        usable = [
            a for a in self.atoms
            if a.points <= alpha.points
            and a.descriptors <= alpha.descriptors
            and (alpha.beta - a.degree).is_effective
        ]
        out = []

        def rec(start, chosen, beta_left, pts_left, dsc_left):
            if beta_left.is_zero and not pts_left and not dsc_left:
                if chosen:
                    out.append(MultiDisk(tuple(chosen)))
                # a completed configuration cannot be extended: any
                # further atom would overshoot the degree or labels
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
        return tuple(out)


def welschinger_count(alpha, configs, weights, target):
    """Signed linking-weighted count over the supplied configurations.

    `weights` holds the configurations' tree weight sums in their
    order, as `AtomTable.tree_weights` keeps them.  Configurations are
    validated against the tuple; the count is zero by definition when
    the tuple has nonzero dimension.
    """
    for config in configs:
        config.validate_against(alpha)
    if target.dimension(alpha) != 0:
        return Fraction(0)
    total = Fraction(0)
    for config, weight in zip(configs, weights, strict=True):
        total = total + (weight if config.sgn() > 0 else -weight)
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

    @property
    def cancels(self):
        return self.multi_disk_total == 0


def conjugation_cancellation_check(tuples, table, involution):
    """Verify the conjugation pairing on a degree-class orbit.

    `tuples` lists the constraint tuples whose configurations make up
    the orbit (same labels, conjugate degrees).  Checks that the data is
    closed under flipping any single atom, that the multi-disk part of
    the (configuration, tree) sum cancels exactly, and that the total
    therefore equals the single-disk signed count.  Each configuration's
    tree sum is the one `AtomTable.tree_weights` keeps.
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
    weighted = [pair for t in tuples
                for pair in zip(table.multi_disks(t), table.tree_weights(t))]
    config_keys = {tuple(a.loop for a in c.atoms) for c, _ in weighted}
    for config, _ in weighted:
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
    multi_total = Fraction(0)
    single_total = Fraction(0)
    for config, weight in weighted:
        signed = weight if config.sgn() > 0 else -weight
        if len(config) == 1:
            single_total += signed
        else:
            multi_total += signed
    return CancellationReport(
        multi_disk_total=multi_total,
        single_disk_total=single_total,
        full_total=multi_total + single_total,
    )
