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

One generator, `Target.classes_through`, yields the classes of
splittings up to permuting the parts, from a set of centers and a set
of allowed parts, in their final order and one center group at a time;
the full list `Target.degeneration_classes` is the call that allows
every center and every predecessor.  It walks the parts in the order
of `_PartIndex`, which states that order and how labels and degrees
are packed, and which the chain sums of `bounding_chain` walk too.  A
`DegenerationType` is built only for each class it emits.  The direct
class-level enumerator and the raw expansion into ordered splittings
are kept in the test suite as independent oracles for it.

`Target.class_counts` is the counting route beside `classes_through`:
it gives the number of classes of the full list and the number of raw
ordered splittings in them without listing any, from a recursion on
the number of labels left and the degree left.

A `DegreeClass` hashes on its coordinates alone: its area and Maslov
index are linear in them, so sets and dicts of degrees never hash a
Fraction.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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

    def label(self):
        """The tuple's name in every table and message:
        coords;points;descriptors, each list comma-joined and sorted, "-"
        when empty."""
        return "%s;%s;%s" % (
            ",".join(str(c) for c in self.beta.coords),
            ",".join(sorted(self.points)) or "-",
            ",".join(sorted(self.descriptors)) or "-",
        )

    def __repr__(self):
        return "(%s)" % self.label()


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

    def sort_key(self):
        return (
            self.center_degree.coords,
            tuple(sorted(self.center_descriptors)),
            tuple(p.sort_key() for p in self.parts),
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
        self._predecessors = {}  # tuple -> its sorted strict predecessors
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

    # -- enumeration ---------------------------------------------------

    def effective_degrees(self, max_area, include_zero=True):
        """All effective degrees with area <= max_area, sorted."""
        if max_area < 0:
            return []
        return [self.degree(c) for c in _within_area(self.gen_areas, max_area)
                if include_zero or any(c)]

    def count_effective_degrees(self, max_area, limit):
        """The number of effective degrees with area <= max_area, zero
        included, counted without listing them; a count over `limit`
        stops at limit + 1."""
        if max_area < 0:
            return 0
        return _count_within_area(self.gen_areas, Fraction(max_area), limit)

    def effective_below(self, beta):
        """Effective degrees d with beta - d effective, sorted."""
        return [self.degree(c) for c in _box(beta.coords)]

    def predecessors(self, alpha):
        """All strict predecessors of alpha with effective degree, sorted.

        Listed once per tuple and kept on the target; each call returns a
        new list.
        """
        preds = self._predecessors.get(alpha)
        if preds is None:
            out = []
            for beta in self.effective_below(alpha.beta):
                for k in _subsets(alpha.points):
                    for l in _subsets(alpha.descriptors):
                        if beta.is_zero and not k and not l:
                            continue
                        cand = ConstraintTuple(beta, k, l)
                        if cand != alpha:
                            out.append(cand)
            out.sort(key=ConstraintTuple.sort_key)
            preds = self._predecessors[alpha] = tuple(out)
        return list(preds)

    def degeneration_classes(self, alpha):
        """Degenerations grouped up to permutation of the parts.

        Returns a sorted list of (canonical representative, number of raw
        ordered splittings in the class): the classes through every center
        (degree below alpha's, no points, any of alpha's descriptors)
        whose parts are all predecessors of alpha.
        """
        return list(self.iter_degeneration_classes(alpha))

    def iter_degeneration_classes(self, alpha):
        """The items of `degeneration_classes(alpha)`, in its order,
        holding the classes of one center group at a time."""
        return self.classes_through(
            alpha,
            [(beta, frozenset(), l)
             for beta in self.effective_below(alpha.beta)
             for l in _subsets(alpha.descriptors)],
            self.predecessors(alpha),
        )

    def class_counts(self, alpha):
        """(number of classes, number of raw ordered splittings) of
        `degeneration_classes(alpha)`, counted without listing them.

        A center is a degree below alpha's with some of alpha's
        descriptors; the other labels are split into labeled parts, each
        with any degree, and the rest of the degree into a multiset of
        nonzero unlabeled parts.  Only the number of labels matters, so
        the centers with m descriptors count C(|descriptors|, m) times.
        The one-part splitting with a trivial center is the one class
        these choices count that the list excludes.
        """
        labels = len(alpha.points) + len(alpha.descriptors)
        n_descs = len(alpha.descriptors)
        counter = _SplitCounter()
        classes = raw = 0
        for beta in _box(alpha.beta.coords):
            rest = tuple(map(sub, alpha.beta.coords, beta))
            for m in range(n_descs + 1):
                c, r = counter.splits(labels - m, rest, 0)
                classes += math.comb(n_descs, m) * c
                raw += math.comb(n_descs, m) * r
        return classes - 1, raw - 1

    def classes_through(self, alpha, centers, parts):
        """The classes of alpha with a given center and given parts.

        centers: (degree, point labels, descriptor labels) triples, the
        empty triple allowed; parts: tuples below alpha.  Yields, in the
        form and order of `degeneration_classes`, the classes that split
        alpha into one of the triples plus a multiset of the given parts:
        each center's point labels become bare point parts, and the rest
        of alpha is split into the given parts, so the work follows the
        output.  Bare point tuples may be among the parts only when no
        center carries point labels; otherwise a class would be listed
        twice.  Every point-free center with every predecessor of alpha
        as a part gives the full class list.  A center or part that
        cannot fit below alpha, with a label alpha lacks or a coordinate
        past alpha's packing, is ignored.

        The centers are grouped by their degree coordinates and sorted
        descriptors, the leading part of the sort key; the groups run in
        key order, and each is sorted on its part keys and yielded before
        the next one is built, so only one group is held at a time.  A
        center's classes are the paths of a walk over a `_PartIndex` of
        alpha from what the center leaves.  The raw count of a class is
        n! over the factorials of the multiplicities of its parts.
        """
        index = _PartIndex(self.rank, [alpha])
        for p in dict.fromkeys(parts):
            index.add(p, (p, p.sort_key()))
        guard = index.guard
        labels, packed = index.pack(alpha.beta, alpha.points,
                                    alpha.descriptors)
        packed += guard
        point_parts = {}
        for x in alpha.points:
            pt = self.point_tuple(x)
            point_parts[x] = (pt, pt.sort_key())
        groups = {}
        for beta, pts, descs in set(centers):
            center = index.pack(beta, pts, descs)
            if center is None:
                continue
            bits, degree = center
            rest = packed - degree
            if rest & guard == guard:
                key = (beta.coords, tuple(sorted(descs)))
                groups.setdefault(key, []).append((
                    beta, descs, [point_parts[x] for x in pts],
                    (labels ^ bits, rest, 0, ())))
        for key in sorted(groups):
            out = []
            for beta, descs, fixed, walk in groups[key]:
                trivial = beta.is_zero and not descs
                stack = [walk]  # (labels left, degree left, index, path)
                while stack:
                    left, rest, least, path = stack.pop()
                    if left or rest != guard:
                        stack += [(lab, deg, i, path + (item,))
                                  for lab, deg, item, i
                                  in index.next_parts(left, rest, least)]
                        continue
                    split = fixed + list(path)
                    if trivial and len(split) == 1:
                        continue  # the excluded degenerate splitting
                    split.sort(key=itemgetter(1))
                    raw = math.factorial(len(split))
                    if len(set(map(id, path))) < len(path):  # parts repeat
                        raw //= math.prod(map(math.factorial, Counter(
                            map(id, path)).values()))
                    out.append((
                        tuple([k for _, k in split]),
                        DegenerationType(beta, descs,
                                         tuple([p for p, _ in split])),
                        raw,
                    ))
            # within a group the part keys order the classes
            out.sort(key=itemgetter(0))
            for _, eta, count in out:
                yield eta, count

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
        """Whether beta comes from the closed lattice: whether its
        coordinates are an integer combination of the q matrix's
        columns."""
        return linalg.in_integer_span(zip(*self.q_matrix), beta.coords)

    def effective_closed(self, max_area):
        """Effective closed classes with area <= max_area, sorted."""
        return _within_area(self.closed_areas, max_area)

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


def _prefixes(areas, budget):
    """Every coordinate tuple p >= 0, one entry per area, with sum of
    p[i] * areas[i] <= budget, in lexicographic order, each with the
    budget it leaves.  The walk raises the last coordinate that still
    fits and sets the ones after it to 0, so it needs no recursion."""
    if budget < 0:
        return
    n = len(areas)
    coords = [0] * n
    left = [budget] * (n + 1)  # left[i]: what coords[:i] leave
    while True:
        yield tuple(coords), left[n]
        i = n - 1
        while i >= 0 and left[i + 1] < areas[i]:
            i -= 1
        if i < 0:
            return
        coords[i] += 1
        left[i + 1:] = [left[i + 1] - areas[i]] * (n - i)
        coords[i + 1:] = [0] * (n - i - 1)


def _within_area(areas, max_area):
    """The coordinate tuples c >= 0, one entry per generator area, with
    sum of c[i] * areas[i] <= max_area, sorted: each prefix of
    `_prefixes` over all areas but the last, extended by every value of
    the last coordinate that fits.  No areas give the one empty tuple."""
    if not areas:
        return [()]
    *head, last = areas
    out = []
    for prefix, budget in _prefixes(head, Fraction(max_area)):
        out += [prefix + (c,) for c in range(budget // last + 1)]
    return out


def _count_within_area(areas, max_area, limit):
    """The number of tuples `_within_area` lists, up to limit + 1.  Each
    prefix over all areas but the last adds the values of the last
    coordinate at once, at least one, so the walk stops after at most
    limit + 1 prefixes."""
    *head, last = areas
    count = 0
    for _, budget in _prefixes(head, max_area):
        count += budget // last + 1
        if count > limit:
            return limit + 1
    return count


# --- the part index -----------------------------------------------------


class _PartIndex:
    """Parts packed for the one canonical walk over a tuple's classes,
    which `Target.classes_through` and the chain sums of `bounding_chain`
    share; the order and the packing are stated here.

    The labels of the tuples served are bits of one integer, points
    first and then descriptors, each kind sorted, so the least label
    left is the lowest bit.  A degree is one integer with a field per
    coordinate, one bit wider than the largest coordinate served; that
    top bit is the field's guard.  A degree left is held with its guards
    set: subtracting a packed degree clears a guard exactly when that
    coordinate does not fit, and otherwise leaves the difference, guards
    set, so the zero degree left is `guard`.  `add` files a part with
    the item its steps hand back, a labeled part under its least label
    bit and an unlabeled one at the next index.  A part with an unknown
    label or a coordinate outside its field fits below no tuple served,
    and is left out.

    `next_parts` steps from (labels left, degree left, least unlabeled
    index) to the fitting parts that hold the least label left and whose
    labels are all left; with no label left, to the fitting unlabeled
    parts at that index or later.  A walk ends at no label and the zero
    degree.  A multiset of parts is a set partition of the labels plus a
    multiset of unlabeled parts, and the walk meets each on exactly one
    path: its labeled parts by least label, the rest by index.
    """

    def __init__(self, rank, tuples):
        points = sorted(set().union(*(t.points for t in tuples)))
        descriptors = sorted(set().union(*(t.descriptors for t in tuples)))
        self.point_bits = {x: 1 << i for i, x in enumerate(points)}
        self.descriptor_bits = {x: 1 << i for i, x
                                in enumerate(descriptors, len(points))}
        self.width = 1 + max((c for t in tuples for c in t.beta.coords),
                             default=0).bit_length()
        self.guard = sum(1 << (self.width * (i + 1) - 1) for i in range(rank))
        self.labeled = {}  # least label bit -> [(label bits, degree, item)]
        self.unlabeled = []  # [(degree, item)], by index

    def pack(self, beta, points, descriptors):
        """(label bits, packed degree with guards clear) of a degree and
        label sets; None when a label is unknown or a coordinate is
        outside its field."""
        try:
            labels = (sum(map(self.point_bits.__getitem__, points))
                      + sum(map(self.descriptor_bits.__getitem__,
                                descriptors)))
        except KeyError:
            return None
        width = self.width
        packed = 0
        for i, c in enumerate(beta.coords):
            if c >> (width - 1):
                return None
            packed += c << (width * i)
        return labels, packed

    def add(self, part, item):
        """File a tuple as a part, with the item its steps hand back."""
        packed = self.pack(part.beta, part.points, part.descriptors)
        if packed is None:
            return
        labels, degree = packed
        if labels:
            self.labeled.setdefault(labels & -labels, []).append(
                (labels, degree, item))
        else:
            self.unlabeled.append((degree, item))

    def next_parts(self, labels, rest, start):
        """The steps from (labels left, degree left with its guards set,
        least unlabeled index): (labels left, degree left, item, least
        unlabeled index) after each part that may come next and fits."""
        guard = self.guard
        if labels:
            return [(labels ^ bits, left, item, 0) for bits, degree, item
                    in self.labeled.get(labels & -labels, ())
                    if bits & labels == bits
                    and (left := rest - degree) & guard == guard]
        return [(0, left, item, i) for i, (degree, item)
                in enumerate(self.unlabeled[start:], start)
                if (left := rest - degree) & guard == guard]


# --- class counting -------------------------------------------------------


def _box(top):
    """The coordinate tuples between zero and top, zero first."""
    return itertools.product(*(range(c + 1) for c in top))


class _SplitCounter:
    """Memoized split counts over integer coordinate tuples.  One is made
    per `Target.class_counts` call, so its tables go with the call."""

    def __init__(self):
        self.memo = {}

    def sequences(self, rest):
        """Entry u: the ordered sequences of u nonzero degrees summing to
        rest."""
        key = ("sequences", rest)
        if key not in self.memo:
            out = [1] if not any(rest) else []
            for part in _box(rest):
                if not any(part):
                    continue
                left = self.sequences(tuple(map(sub, rest, part)))
                out.extend([0] * (len(left) + 1 - len(out)))
                for u, n in enumerate(left, 1):
                    out[u] += n
            self.memo[key] = out
        return self.memo[key]

    def multisets(self, rest, bound):
        """The multisets of nonzero degrees summing to rest whose largest
        part, in coordinate order, is at most bound."""
        key = ("multisets", rest, bound)
        if key not in self.memo:
            self.memo[key] = 1 if not any(rest) else sum(
                self.multisets(tuple(map(sub, rest, part)), part)
                for part in _box(rest) if any(part) and part <= bound
            )
        return self.memo[key]

    def splits(self, labels, rest, placed):
        """(classes, raw count) of the ways to split `labels` labels and
        the degree rest into parts, with `placed` labeled parts already
        made.

        The part holding the smallest label comes first, with any k of
        the others and any degree; once no label is left the rest is a
        multiset of u nonzero unlabeled parts.  A class with j labeled
        and u unlabeled parts stands for (j+u)! / prod(m!) raw
        splittings, m running over the multiplicities of equal unlabeled
        parts; summed over the multisets that is (j+u)!/u! times the
        ordered sequences.
        """
        key = ("splits", labels, rest, placed)
        if key in self.memo:
            return self.memo[key]
        if not labels:
            classes = self.multisets(rest, rest)
            raw = sum(math.perm(placed + u, placed) * n
                      for u, n in enumerate(self.sequences(rest)))
        else:
            classes = raw = 0
            for k in range(labels):
                ways = math.comb(labels - 1, k)
                for degree in _box(rest):
                    c, r = self.splits(labels - 1 - k,
                                       tuple(map(sub, rest, degree)),
                                       placed + 1)
                    classes += ways * c
                    raw += ways * r
        self.memo[key] = classes, raw
        return classes, raw
