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

One generator, `Target._classes_through`, builds the classes of
splittings up to permuting the parts, from a set of centers and a set
of allowed parts; the full list `Target.degeneration_classes` is the
call that allows every center and every predecessor.  Its recursion
works on integer coordinate tuples and builds a `DegenerationType` only
for each class it emits.  The direct class-level enumerator and the raw
expansion into ordered splittings are kept in the test suite as
independent oracles for it.

A `DegreeClass` hashes on its coordinates alone: its area and Maslov
index are linear in them, so sets and dicts of degrees never hash a
Fraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, sub

from . import OpenGWError, linalg


class TargetError(OpenGWError, ValueError):
    """Malformed or unusable target declaration."""


@dataclass(frozen=True, order=True)
class DegreeClass:
    """Element of the relative degree lattice with its linear data.

    Area and Maslov index are linear in the coordinates, so the hash
    reads the coordinates only; equality and order compare all three.
    """

    coords: tuple
    area: Fraction = field(hash=False)
    maslov: int = field(hash=False)

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
        return not any(self.coords)

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

    def degeneration_classes(self, alpha):
        """Degenerations grouped up to permutation of the parts.

        Returns a sorted list of (canonical representative, number of raw
        ordered splittings in the class): the classes through every center
        (degree below alpha's, no points, any of alpha's descriptors)
        whose parts are all predecessors of alpha.
        """
        return self._classes_through(
            alpha,
            [(beta, frozenset(), l)
             for beta in self.effective_below(alpha.beta)
             for l in _subsets(alpha.descriptors)],
            self.predecessors(alpha),
        )

    def _classes_through(self, alpha, centers, parts):
        """The classes of alpha with a given center and given parts.

        centers: (degree, point labels, descriptor labels) triples, the
        empty triple allowed; parts: tuples below alpha.  Returns, in the
        form and order of `degeneration_classes`, the classes that split
        alpha into one of the triples plus a multiset of the given parts:
        each center's point labels become bare point parts, and the rest
        of alpha is split into the given parts, so the work follows the
        output.  Bare point tuples may be among the parts only when no
        center carries point labels; otherwise a class would be listed
        twice.  Every point-free center with every predecessor of alpha
        as a part gives the full class list.

        The recursion runs on integer coordinate tuples: each part's
        coordinates and sort key are read once, a degree is subtracted
        coordinate by coordinate, and a `DegenerationType` is built only
        for an emitted class.  The raw count of a class is n! over the
        factorials of the runs of equal unlabeled parts, the only parts
        that can repeat.
        """
        by_label = {}
        unlabeled = []
        for p in set(parts):
            entry = (p, p.beta.coords, p.sort_key())
            labels = [("p", x) for x in p.points] + [
                ("d", x) for x in p.descriptors
            ]
            for label in labels:
                by_label.setdefault(label, []).append(entry)
            if not labels:
                unlabeled.append(entry)
        point_parts = {}
        for x in alpha.points:
            pt = self.point_tuple(x)
            point_parts[x] = (pt, pt.beta.coords, pt.sort_key())
        out = []

        def emit(center, fixed, free):
            beta, descs, center_key, trivial = center
            if trivial and len(fixed) + len(free) == 1:
                return  # the excluded degenerate splitting
            split = sorted(fixed + [unlabeled[i] for i in free],
                           key=itemgetter(2))
            repeats = math.prod(
                math.factorial(len(list(run)))
                for _, run in itertools.groupby(free)
            )
            out.append((
                center_key + (tuple(key for _, _, key in split),),
                DegenerationType(beta, descs,
                                 tuple(p for p, _, _ in split)),
                math.factorial(len(split)) // repeats,
            ))

        def place_labels(center, rest, pts, descs, fixed):
            # the part holding the smallest unplaced label comes next
            if not pts and not descs:
                add_unlabeled(center, rest, 0, fixed, [])
                return
            label = ("p", min(pts)) if pts else ("d", min(descs))
            for entry in by_label.get(label, ()):
                p, coords, _ = entry
                if not (p.points <= pts and p.descriptors <= descs):
                    continue
                left = tuple(map(sub, rest, coords))
                if min(left) >= 0:
                    fixed.append(entry)
                    place_labels(center, left, pts - p.points,
                                 descs - p.descriptors, fixed)
                    fixed.pop()

        def add_unlabeled(center, rest, start, fixed, free):
            # unlabeled parts as a multiset: indices never decrease
            if not any(rest):
                emit(center, fixed, free)
                return
            for i in range(start, len(unlabeled)):
                left = tuple(map(sub, rest, unlabeled[i][1]))
                if min(left) >= 0:
                    free.append(i)
                    add_unlabeled(center, left, i, fixed, free)
                    free.pop()

        for beta, pts, descs in set(centers):
            if not (pts <= alpha.points and descs <= alpha.descriptors):
                continue
            rest = tuple(map(sub, alpha.beta.coords, beta.coords))
            if min(rest) >= 0:
                center = (beta, descs,
                          (beta.coords, tuple(sorted(descs))),
                          beta.is_zero and not descs)
                place_labels(center, rest, alpha.points - pts,
                             alpha.descriptors - descs,
                             [point_parts[x] for x in pts])
        out.sort(key=itemgetter(0))
        return [(eta, count) for _, eta, count in out]

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


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)
