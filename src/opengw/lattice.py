"""Degree lattice, constraint tuples, and degeneration enumeration.

The geometric side is modeled by a declared finitistic surrogate: a free
lattice Z^r whose standard generators are the effective disk classes,
each carrying a positive rational area and an integer Maslov-type index
(both extended linearly).  Enumeration ranges over the effective cone
spanned by the generators; the positive-area gap of the declared
generators is what makes every enumeration below finite.  A second
declared lattice of closed (sphere) classes maps into the relative one
by an integer matrix.

A constraint tuple is (degree, point labels, constraint-descriptor
labels).  Degeneration types record how a tuple splits into a central
part and an ordered list of sub-tuples; the degenerate shape with an
empty central part and exactly one unconstrained slot is excluded at the
type level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import OpenGWError, linalg


class TargetError(OpenGWError, ValueError):
    """Malformed or unusable target declaration."""


class EnumerationError(OpenGWError, RuntimeError):
    """An enumeration would be unbounded or exceeds a configured cap."""


@dataclass(frozen=True, order=True)
class DegreeClass:
    """Element of the relative degree lattice with its linear data."""

    coords: tuple
    area: Fraction
    maslov: int

    def __add__(self, other):
        return DegreeClass(
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            self.area + other.area,
            self.maslov + other.maslov,
        )

    def __sub__(self, other):
        return DegreeClass(
            tuple(a - b for a, b in zip(self.coords, other.coords)),
            self.area - other.area,
            self.maslov - other.maslov,
        )

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @property
    def is_effective(self):
        """Lies in the declared effective cone (or is zero)."""
        return all(c >= 0 for c in self.coords)

    def in_positive_cone(self):
        """Positive area or zero: membership in the admissible classes."""
        return self.area > 0 or self.is_zero

    def __repr__(self):
        return "DegreeClass%r" % (self.coords,)


@dataclass(frozen=True)
class ConstraintDescriptor:
    """An interior constraint: an even-codimension cycle label."""

    ident: str
    codim: int

    def __post_init__(self):
        if self.codim not in (2, 4, 6):
            raise TargetError(
                "descriptor %r: codim must be one of 2, 4, 6" % (self.ident,)
            )

    @property
    def deg_cohomology(self):
        return self.codim


@dataclass(frozen=True)
class ConstraintTuple:
    """(degree, point-label set, descriptor-label set); not all trivial."""

    beta: DegreeClass
    points: frozenset
    descriptors: frozenset

    def __post_init__(self):
        if self.beta.is_zero and not self.points and not self.descriptors:
            raise TargetError("the empty constraint tuple is excluded")
        if not self.beta.in_positive_cone():
            raise TargetError("degree %r has nonpositive area" % (self.beta,))

    def sort_key(self):
        return (self.beta.coords, tuple(sorted(self.points)),
                tuple(sorted(self.descriptors)))

    def is_point_tuple(self):
        return self.beta.is_zero and len(self.points) == 1 and not self.descriptors

    def __repr__(self):
        return "(%s;%s;%s)" % (
            ",".join(str(c) for c in self.beta.coords),
            ",".join(sorted(self.points)) or "-",
            ",".join(sorted(self.descriptors)) or "-",
        )


@dataclass(frozen=True)
class DegenerationType:
    """A splitting of a tuple: central data plus ordered sub-tuples.

    center_degree / center_descriptors are the degree and interior
    constraints staying on the central component; parts is the ordered
    tuple of boundary sub-tuples.
    """

    center_degree: DegreeClass
    center_descriptors: frozenset
    parts: tuple

    def __post_init__(self):
        if (self.center_degree.is_zero and len(self.parts) == 1
                and not self.center_descriptors):
            raise TargetError(
                "excluded degenerate splitting: trivial center with one part"
            )

    @property
    def part_count(self):
        return len(self.parts)

    def point_labels(self):
        """Labels of parts that are bare point tuples."""
        return frozenset(
            next(iter(p.points)) for p in self.parts if p.is_point_tuple()
        )

    def chain_slots(self):
        """Indices of parts that are not bare point tuples."""
        return tuple(
            i for i, p in enumerate(self.parts) if not p.is_point_tuple()
        )

    def center_tuple(self):
        """Central tuple (center degree, point-part labels, center
        descriptors); None when that tuple would be empty."""
        pts = self.point_labels()
        if self.center_degree.is_zero and not pts and not self.center_descriptors:
            return None
        return ConstraintTuple(self.center_degree, pts, self.center_descriptors)

    def sort_key(self):
        return (
            self.center_degree.coords,
            tuple(sorted(self.center_descriptors)),
            tuple(p.sort_key() for p in self.parts),
        )

    def class_key(self):
        """Canonical key identifying the splitting up to permuting parts."""
        return (
            self.center_degree.coords,
            tuple(sorted(self.center_descriptors)),
            tuple(sorted(p.sort_key() for p in self.parts)),
        )

    def canonical(self):
        return DegenerationType(
            self.center_degree,
            self.center_descriptors,
            tuple(sorted(self.parts, key=ConstraintTuple.sort_key)),
        )


class Target:
    """A declared combinatorial target: lattices, functionals, descriptors.

    generators: list of (name, area, maslov) for the relative lattice;
    closed_generators: list of (name, area, w2_sign) for the sphere-class
    lattice; q_matrix: integer matrix taking closed coordinates to
    relative coordinates (r x s).
    """

    def __init__(self, generators, descriptors=(), closed_generators=(),
                 q_matrix=None):
        if not generators:
            raise TargetError("at least one relative generator is required")
        self.generator_names = tuple(name for name, _, _ in generators)
        if len(set(self.generator_names)) != len(self.generator_names):
            raise TargetError("duplicate generator names")
        self.gen_areas = tuple(Fraction(a) for _, a, _ in generators)
        self.gen_maslov = tuple(int(m) for _, _, m in generators)
        if any(a <= 0 for a in self.gen_areas):
            raise TargetError(
                "every effective generator needs positive area (the area gap)"
            )
        self.rank = len(generators)
        self.area_gap = min(self.gen_areas)

        self.descriptors = {}
        for d in descriptors:
            if isinstance(d, ConstraintDescriptor):
                desc = d
            else:
                desc = ConstraintDescriptor(d[0], int(d[1]))
            if desc.ident in self.descriptors:
                raise TargetError("duplicate descriptor id %r" % (desc.ident,))
            self.descriptors[desc.ident] = desc

        self.closed_names = tuple(name for name, _, _ in closed_generators)
        self.closed_areas = tuple(Fraction(a) for _, a, _ in closed_generators)
        self.closed_w2 = tuple(int(s) for _, _, s in closed_generators)
        if any(s not in (1, -1) for s in self.closed_w2):
            raise TargetError("w2 pairing signs must be +1 or -1")
        if any(a <= 0 for a in self.closed_areas):
            raise TargetError("closed generators need positive area")
        self.closed_rank = len(closed_generators)
        if q_matrix is None:
            q_matrix = [[0] * self.closed_rank for _ in range(self.rank)]
        self.q_matrix = [[int(x) for x in row] for row in q_matrix]
        if len(self.q_matrix) != self.rank or any(
            len(row) != self.closed_rank for row in self.q_matrix
        ):
            raise TargetError("q matrix must be rank x closed_rank")
        # area compatibility: area(q(B)) must equal the declared closed area
        for j in range(self.closed_rank):
            pushed = sum(
                self.gen_areas[i] * self.q_matrix[i][j] for i in range(self.rank)
            )
            if pushed != self.closed_areas[j]:
                raise TargetError(
                    "closed generator %r: declared area %s but its image "
                    "has area %s" % (self.closed_names[j],
                                     self.closed_areas[j], pushed)
                )
        self._class_cache = {}

    # -- degree construction ------------------------------------------

    def degree(self, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise TargetError("degree coords must have length %d" % self.rank)
        area = sum(
            (a * c for a, c in zip(self.gen_areas, coords)), Fraction(0)
        )
        maslov = sum(m * c for m, c in zip(self.gen_maslov, coords))
        return DegreeClass(coords, area, maslov)

    def zero_degree(self):
        return self.degree((0,) * self.rank)

    def generator(self, i):
        return self.degree(tuple(int(j == i) for j in range(self.rank)))

    def constraint_tuple(self, coords_or_degree, points=(), descriptors=()):
        beta = (
            coords_or_degree
            if isinstance(coords_or_degree, DegreeClass)
            else self.degree(coords_or_degree)
        )
        descriptors = frozenset(descriptors)
        for d in descriptors:
            if d not in self.descriptors:
                raise TargetError("undeclared descriptor %r" % (d,))
        return ConstraintTuple(beta, frozenset(points), descriptors)

    def point_tuple(self, label):
        return ConstraintTuple(self.zero_degree(), frozenset([label]), frozenset())

    # -- dimension and order ------------------------------------------

    def dimension(self, alpha):
        """mu(beta) - 2|K| - sum over descriptors of (codim - 2)."""
        excess = sum(
            self.descriptors[d].codim - 2 for d in alpha.descriptors
        )
        return alpha.beta.maslov - 2 * len(alpha.points) - excess

    def precedes(self, first, second, strict=False):
        """Partial order: degree difference admissible, labels nested."""
        diff = second.beta - first.beta
        if not diff.in_positive_cone():
            return False
        if not (first.points <= second.points
                and first.descriptors <= second.descriptors):
            return False
        return not strict or first != second

    # -- enumeration ---------------------------------------------------

    def effective_degrees(self, max_area, include_zero=True):
        """All effective degrees with area <= max_area, sorted."""
        if max_area < 0:
            return []
        out = []

        def walk(prefix, budget):
            i = len(prefix)
            if i == self.rank:
                out.append(self.degree(prefix))
                return
            c = 0
            while c * self.gen_areas[i] <= budget:
                walk(prefix + (c,), budget - c * self.gen_areas[i])
                c += 1

        walk((), Fraction(max_area))
        out.sort(key=lambda b: b.coords)
        if not include_zero:
            out = [b for b in out if not b.is_zero]
        return out

    def effective_below(self, beta):
        """Effective degrees d with beta - d effective, sorted."""
        ranges = [range(c + 1) for c in beta.coords]
        return [self.degree(c) for c in itertools.product(*ranges)]

    def predecessors(self, alpha):
        """All strict predecessors of alpha with effective degree."""
        subs = self.effective_below(alpha.beta)
        out = []
        for beta in subs:
            for k in _subsets(alpha.points):
                for l in _subsets(alpha.descriptors):
                    if beta.is_zero and not k and not l:
                        continue
                    cand = ConstraintTuple(beta, k, l)
                    if cand != alpha:
                        out.append(cand)
        out.sort(key=ConstraintTuple.sort_key)
        return out

    def degeneration_classes(self, alpha, max_parts=None):
        """Degenerations grouped up to permutation of the parts.

        Enumerated directly at the class level: a choice of center
        descriptors, a set partition of the remaining labels into part
        blocks, effective degrees for the blocks, and an unordered
        multiset of nonzero degrees for unlabeled parts.  Returns a
        sorted list of (canonical representative, number of raw ordered
        splittings in the class).
        """
        structural = (
            len(alpha.points) + len(alpha.descriptors)
            + int(alpha.beta.area / self.area_gap)
        )
        cap = structural if max_parts is None else min(max_parts, structural)
        cache_key = (alpha, cap)
        if cache_key in self._class_cache:
            return self._class_cache[cache_key]
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
                for labeled in self._block_degree_choices(
                    alpha.beta, len(blocks)
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
                    for center_beta, unlabeled in self._center_and_free_parts(
                        rest, cap - len(blocks)
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
                        out.append((eta, _orderings(parts)))
        out.sort(key=lambda pair: pair[0].sort_key())
        self._class_cache[cache_key] = out
        return out

    def _block_degree_choices(self, beta, blocks):
        """Ordered tuples of `blocks` effective degrees with sum <= beta."""
        out = []

        def rec(remaining, chosen):
            if len(chosen) == blocks:
                out.append(tuple(chosen))
                return
            for d in self.effective_below(remaining):
                rec(remaining - d, chosen + [d])

        rec(beta, [])
        return out

    def _center_and_free_parts(self, budget, max_free):
        """Pairs (center degree, non-increasing tuple of nonzero degrees)
        with center + sum = budget."""
        out = []
        nonzero = [
            d for d in self.effective_below(budget) if not d.is_zero
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

    RAW_EXPANSION_CAP = 500_000

    def degenerations(self, alpha, max_parts=None, cap=None):
        """The raw set of degeneration types of alpha (ordered parts).

        Expanded from the class enumeration; refuses to materialize more
        than `cap` raw splittings (enumeration caps are the finiteness
        guard for large tuples).
        """
        cap = self.RAW_EXPANSION_CAP if cap is None else cap
        classes = self.degeneration_classes(alpha, max_parts=max_parts)
        total = sum(count for _, count in classes)
        if total > cap:
            raise EnumerationError(
                "raw splitting expansion of size %d exceeds the cap %d"
                % (total, cap)
            )
        out = []
        for eta, _count in classes:
            for perm in _distinct_permutations(eta.parts):
                out.append(DegenerationType(
                    eta.center_degree, eta.center_descriptors, perm
                ))
        out.sort(key=DegenerationType.sort_key)
        return out

    # -- numerical helpers ---------------------------------------------

    def boundary_point_count(self, beta, degree_list):
        """Half of (maslov - sum of (deg - 2)); None when negative or
        not an integer."""
        total = beta.maslov - sum(d - 2 for d in degree_list)
        if total % 2 != 0 or total < 0:
            return None
        return total // 2

    def positivity_violations(self, max_area):
        """Effective classes violating the positivity convention
        (positive area with Maslov index 0) within the area bound."""
        return [
            b for b in self.effective_degrees(max_area, include_zero=False)
            if b.maslov == 0
        ]

    def odd_maslov_generators(self):
        return [
            self.generator_names[i]
            for i in range(self.rank) if self.gen_maslov[i] % 2
        ]

    # -- closed lattice ------------------------------------------------

    def closed_degree(self, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.closed_rank:
            raise TargetError("closed coords must have length %d" % self.closed_rank)
        return coords

    def closed_area(self, coords):
        return sum(
            (a * c for a, c in zip(self.closed_areas, coords)), Fraction(0)
        )

    def w2_sign(self, coords):
        """(-1)^(pairing of the orientation datum with B), multiplicative."""
        exponent = sum(
            c for c, s in zip(coords, self.closed_w2) if s == -1
        )
        return -1 if exponent % 2 else 1

    def push_closed(self, coords):
        """Image of a closed class in the relative lattice."""
        return self.degree(tuple(
            sum(self.q_matrix[i][j] * coords[j] for j in range(self.closed_rank))
            for i in range(self.rank)
        ))

    def in_closed_image(self, beta):
        """Whether beta comes from the closed lattice (exact integer
        solvability via Smith normal form)."""
        if self.closed_rank == 0:
            return beta.is_zero
        return linalg.integer_solve(self.q_matrix, list(beta.coords)) is not None

    def effective_closed(self, max_area, include_zero=True):
        """Effective closed classes with area <= max_area, sorted."""
        out = []

        def walk(prefix, budget):
            i = len(prefix)
            if i == self.closed_rank:
                out.append(tuple(prefix))
                return
            c = 0
            while c * self.closed_areas[i] <= budget:
                walk(prefix + [c], budget - c * self.closed_areas[i])
                c += 1

        walk([], Fraction(max_area))
        out.sort()
        if not include_zero:
            out = [b for b in out if any(b)]
        return out

    def closed_preimages(self, beta):
        """Effective closed classes mapping onto beta (area bounded)."""
        return [
            b for b in self.effective_closed(beta.area)
            if self.push_closed(b) == beta
        ]

    def real_splits(self, beta):
        """Ordered pairs of effective degrees summing to beta."""
        return [
            (b, beta - b) for b in self.effective_below(beta)
        ]

    def complex_splits(self, beta):
        """Pairs (relative part, closed class) with part + image = beta."""
        out = []
        for b_closed in self.effective_closed(beta.area):
            rest = beta - self.push_closed(b_closed)
            if rest.is_effective:
                out.append((rest, b_closed))
        out.sort(key=lambda t: (t[0].coords, t[1]))
        return out

    def degree_splits(self, beta, mode):
        if mode == "R":
            return self.real_splits(beta)
        if mode == "C":
            return self.complex_splits(beta)
        raise TargetError("split mode must be 'R' or 'C'")


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


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


def _orderings(parts):
    """Number of distinct ordered arrangements of the parts."""
    total = 1
    for i in range(2, len(parts) + 1):
        total *= i
    counts = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    for c in counts.values():
        f = 1
        for i in range(2, c + 1):
            f *= i
        total //= f
    return total


def _distinct_permutations(parts):
    """Distinct orderings of a tuple of (hashable) parts."""
    if not parts:
        return [()]
    seen = set()
    out = []
    for perm in itertools.permutations(parts):
        if perm not in seen:
            seen.add(perm)
            out.append(perm)
    return out
