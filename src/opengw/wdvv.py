"""Open WDVV residuals, the recursion solver, and structural checks.

The cohomology side is a declared even basis: index 1 is the unit, the
rest carry degrees 2, 4 or 6, with an exact intersection pairing and
its inverse.  Closed invariants are an input table over the closed
degree lattice; open invariants are keyed by (degree, sorted multiset
of basis indices), the boundary-point count being determined by the
dimension formula.

Two quadratic relations tie the tables together, each anchored at
fixed slots of the insertion tuple: a closed-times-open contraction
through the inverse pairing against open-times-open convolutions with
binomial weights.  The solver eliminates unknown brackets in sweeps:
each sweep visits the open unknowns in increasing (area, size, key)
order and solves each from the first relation instance (in instance
order) that, after everything solved so far, involves it alone.  Each
instance's form is built once, in one pass: a build that meets a
product of two unknown brackets is suspended there and resumed where it
stopped once one of them is solved.  Afterwards every instance is
evaluated as a residual that must vanish; inconsistencies are reported
with the offending instance, never averaged away.

A relation form is held in integers: an integer constant and integer
coefficients over one positive integer denominator, reduced once per
form (see `LinForm`).  A value becomes a Fraction only where a bracket
is solved, or where a residual is read off a constant form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import OpenGWError, linalg


UNIT_INDEX = 1

# the value of every absent table entry, shared: a Fraction is immutable
_ZERO = Fraction(0)

# closed-table insertion labels used by the mixed structural check
PD_Y_LABEL = "pd_y"
GAMMA0_LABEL = "gamma0"


class ModelError(OpenGWError, ValueError):
    """Malformed cohomology model or table data."""


class NonlinearEquationError(OpenGWError, RuntimeError):
    """A relation instance turned out quadratic in the unknowns.

    `keys` holds the unknowns of the two factors whose product raised.
    """

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = frozenset(keys)


class CohomologyModel:
    """Declared even cohomology basis with its intersection pairing.

    degrees: per 1-based basis index (degrees[0] is index 1, the unit,
    degree 0).  pairing: the N x N matrix of integrals of products;
    restriction: optional map from relative to absolute indices (defaults
    to the identity); deg2_pairings: for each degree-2 index, the vector
    pairing it with the relative degree lattice; lk_os_star: linking
    values of the dual cycles of degree-4 indices (dimension-2 cycles);
    sphere_index: the distinguished degree-4 class traded by the
    sphere-insertion rule; y_class_nonzero: whether the ambient class of
    the fixed locus is nonzero (kills all k >= 2 counts and the whole
    degree-0 extension).
    """

    def __init__(self, degrees, pairing, restriction=None, deg2_pairings=None,
                 lk_os_star=None, sphere_index=None, y_class_nonzero=False,
                 gamma0_pairing=None):
        self.degrees = tuple(int(d) for d in degrees)
        if not self.degrees or self.degrees[0] != 0:
            raise ModelError("index 1 must be the unit (degree 0)")
        if any(d not in (0, 2, 4, 6) for d in self.degrees):
            raise ModelError("basis degrees must lie in {0, 2, 4, 6}")
        if self.degrees.count(0) != 1:
            raise ModelError("exactly one unit basis element")
        self.size = len(self.degrees)
        self.pairing = linalg.mat(pairing)
        if len(self.pairing) != self.size or any(
            len(r) != self.size for r in self.pairing
        ):
            raise ModelError("pairing must be N x N")
        for i in range(self.size):
            for j in range(self.size):
                if (self.degrees[i] + self.degrees[j] != 6
                        and self.pairing[i][j] != 0):
                    raise ModelError(
                        "pairing entry (%d, %d) must vanish off the "
                        "complementary degrees" % (i + 1, j + 1)
                    )
        inv = linalg.solve(self.pairing, linalg.identity(self.size))
        if inv is None:
            raise ModelError("pairing matrix is singular")
        self.pairing_inv = inv
        if restriction is None:
            restriction = tuple(range(1, self.size + 1))
        self.restriction = tuple(int(i) for i in restriction)
        if len(self.restriction) != self.size:
            raise ModelError("restriction map must cover the basis")
        self.deg2_pairings = {
            int(k): tuple(Fraction(x) for x in v)
            for k, v in (deg2_pairings or {}).items()
        }
        for k in self.deg2_pairings:
            if self.degree_of(k) != 2:
                raise ModelError("lattice pairing declared for a non-degree-2 index")
        self.lk_os_star = {
            int(k): Fraction(v) for k, v in (lk_os_star or {}).items()
        }
        for k, v in self.lk_os_star.items():
            if v != 0 and self.degree_of(k) != 4:
                raise ModelError(
                    "index %d: only dimension-2 dual cycles carry a linking value"
                    % k
                )
        self.sphere_index = None if sphere_index is None else int(sphere_index)
        if self.sphere_index is not None and self.degree_of(self.sphere_index) != 4:
            raise ModelError("the sphere class has degree 4")
        self.y_class_nonzero = bool(y_class_nonzero)
        self.gamma0_pairing = (
            None if gamma0_pairing is None else Fraction(gamma0_pairing)
        )

    def degree_of(self, index):
        if not 1 <= index <= self.size:
            raise ModelError("basis index %r out of range" % (index,))
        return self.degrees[index - 1]

    def restrict(self, index):
        return self.restriction[index - 1]

    def lattice_pairing(self, index, beta):
        vec = self.deg2_pairings.get(index)
        if vec is None:
            raise ModelError("no lattice pairing declared for index %d" % index)
        return sum(
            (a * c for a, c in zip(vec, beta.coords)), Fraction(0)
        )


class ClosedGWTable:
    """Finitely supported closed-invariant table; absent entries vanish."""

    def __init__(self, entries=()):
        self._data = {}
        for coords, insertions, value in entries:
            self.set(coords, insertions, value)

    @staticmethod
    def _key(coords, insertions):
        return (tuple(int(c) for c in coords),
                tuple(sorted(insertions, key=_insertion_sort_key)))

    def set(self, coords, insertions, value):
        self._data[self._key(coords, insertions)] = Fraction(value)

    def value(self, coords, insertions):
        return self._data.get(self._key(coords, insertions), _ZERO)

    def items(self):
        return sorted(self._data.items())


def _insertion_sort_key(ins):
    return (0, ins, "") if isinstance(ins, int) else (1, 0, ins)


class OpenInvariantTable:
    """Open-invariant table keyed by (degree coords, sorted index tuple).

    The boundary-point count of an entry is derived from the dimension
    formula, never stored.  Hard-wired rules resolve unit insertions and
    out-of-range counts to fixed values before the table is consulted.
    """

    def __init__(self, target, model, entries=()):
        self.target = target
        self.model = model
        self._data = {}
        for coords, insertions, value in entries:
            self.set(coords, insertions, value)

    def _key(self, beta, insertions):
        coords = beta.coords if hasattr(beta, "coords") else tuple(beta)
        return (tuple(int(c) for c in coords), tuple(sorted(insertions)))

    def set(self, beta, insertions, value):
        self._data[self._key(beta, insertions)] = Fraction(value)

    def known(self, beta, insertions):
        return self._key(beta, insertions) in self._data

    def entries(self):
        return sorted(self._data.items())

    def boundary_points(self, beta, insertions):
        return self.target.boundary_point_count(
            beta, [self.model.degree_of(i) for i in insertions]
        )

    def resolve_fixed(self, beta, insertions):
        """The hard-wired value of a bracket, or None if it is a free
        table entry.

        Unit insertions: -1 for the single unit at degree zero, else 0.
        A negative or fractional boundary-point count also forces 0.
        """
        insertions = tuple(sorted(insertions))
        if UNIT_INDEX in insertions:
            if beta.is_zero and insertions == (UNIT_INDEX,):
                return Fraction(-1)
            return _ZERO
        if self.boundary_points(beta, insertions) is None:
            return _ZERO
        return None

    def value(self, beta, insertions):
        fixed = self.resolve_fixed(beta, insertions)
        if fixed is not None:
            return fixed
        return self._data.get(self._key(beta, insertions), _ZERO)


# --- partition families -----------------------------------------------------


def anchored_partitions(l, kind="plain", i=None, j=None):
    """Two-sided partitions of {1..l} with 1 on the left side.

    kind selects the family: "plain", "left" (i on the left), "right"
    (j on the right), "both" (i left and j right).
    """
    if l < 1:
        raise ModelError("need at least one index")
    if kind in ("left", "both"):
        if i is None or not 1 <= i <= l:
            raise ModelError("left anchor out of range")
    if kind in ("right", "both"):
        if j is None or not 1 <= j <= l:
            raise ModelError("right anchor out of range")
    if kind == "both" and i == j:
        raise ModelError("anchors must differ")
    out = []
    rest = [x for x in range(2, l + 1)]
    for mask in range(2 ** len(rest)):
        left = (1,) + tuple(
            x for t, x in enumerate(rest) if mask >> t & 1
        )
        right = tuple(x for t, x in enumerate(rest) if not mask >> t & 1)
        if kind in ("left", "both") and i not in left:
            continue
        if kind in ("right", "both") and j not in right:
            continue
        out.append((left, right))
    return out


def binomial(n, m):
    """Binomial coefficient with the out-of-range-vanishes convention,
    which is load-bearing for the relations."""
    if m < 0 or m > n:
        return 0
    out = 1
    for t in range(min(m, n - m)):
        out = out * (n - t) // (t + 1)
    return out


# --- linear forms over the unknown brackets ----------------------------------


@dataclass
class LinForm:
    """Affine expression (const + sum of coeff * unknown(key)) / den.

    const and every coefficient are integers, and den is a positive
    integer shared by all of them.  A finished form is reduced: no
    coefficient is zero and gcd(den, const, coefficients) = 1, so equal
    forms have equal fields.  A form under construction may be
    unreduced; `_pruned` reduces it.
    """

    const: int = 0
    coeffs: dict = field(default_factory=dict)
    den: int = 1

    @property
    def is_constant(self):
        return not self.coeffs

    def substitute(self, values):
        """The reduced form with each unknown in `values` (a map to
        Fractions or ints) replaced by its value; the form itself when
        `values` holds none of its unknowns."""
        coeffs = self.coeffs
        hits = [(v, values[k]) for k, v in coeffs.items() if k in values]
        if not hits:
            return self
        up = lcm(*(value.denominator for _, value in hits))
        const = self.const * up
        for c, value in hits:
            const += c * value.numerator * (up // value.denominator)
        return _reduced(const,
                        {k: v * up for k, v in coeffs.items()
                         if k not in values},
                        self.den * up)


def _constant(value):
    """The constant form of a Fraction or int."""
    return LinForm(value.numerator, {}, value.denominator)


def _reduced(const, coeffs, den):
    """LinForm(const, coeffs, den) divided by the gcd of its integers;
    coeffs holds no zero."""
    g = gcd(den, const, *coeffs.values()) if den != 1 else 1
    if g != 1:
        const //= g
        coeffs = {k: v // g for k, v in coeffs.items()}
        den //= g
    return LinForm(const, coeffs, den)


# --- relation forms -------------------------------------------------------------


def _wdvv_k(target, model, beta, gamma):
    """The relation's own boundary-point count: the dimension count of
    the full tuple minus one; None when fractional."""
    count = target.boundary_point_count(
        beta, [model.degree_of(i) for i in gamma]
    )
    return None if count is None else count - 1


def _resolver_from_table(table):
    def resolve(beta, insertions):
        return _constant(table.value(beta, insertions))
    return resolve


class _FormContext:
    """What every relation form of one (target, model, closed table)
    reads, built on first use and shared by all the builds of a solve.

    Per degree: its complex and real splits.  Per closed class and
    sorted closed-side insertions: the closed brackets contracted with
    the inverse pairing, as (j, numerator, denominator) triples of the
    nonzero coefficients.  Per real split side and sorted insertions:
    the boundary-point count.  Per (gamma, kind, i, j): the insertion
    groups of the anchored partitions, which every degree with that
    gamma shares; the partitions themselves are listed once per (length
    of gamma, kind, i, j) and only read.  The closed table must not
    change while a context built on it is in use.
    """

    def __init__(self, target, model, closed):
        self.target = target
        self.model = model
        self.closed = closed
        self.g_pairs = {
            i: tuple((j, g) for j, g in enumerate(row, 1) if g != 0)
            for i, row in enumerate(model.pairing_inv, 1)
        }
        self._splits = {}
        self._closed_rows = {}
        self._counts = {}
        self._groups = {}
        self._partitions = {}

    def splits(self, beta):
        """(complex splits, real splits) of beta."""
        out = self._splits.get(beta.coords)
        if out is None:
            out = self._splits[beta.coords] = (
                self.target.complex_splits(beta), self.target.real_splits(beta)
            )
        return out

    def closed_row(self, b_coords, closed_ins):
        """sum_i <closed_ins, i>_b g^{ij} as (j, numerator, denominator)
        triples of the nonzero coefficients in increasing j; closed_ins
        is sorted."""
        key = (b_coords, closed_ins)
        row = self._closed_rows.get(key)
        if row is None:
            model = self.model
            restricted = [model.restrict(x) for x in closed_ins]
            acc = {}
            for i, pairs in self.g_pairs.items():
                value = self.closed.value(b_coords,
                                          restricted + [model.restrict(i)])
                if value == 0:
                    continue
                for j, g in pairs:
                    acc[j] = acc.get(j, 0) + value * g
            row = self._closed_rows[key] = tuple(
                (j, c.numerator, c.denominator)
                for j, c in sorted(acc.items()) if c != 0
            )
        return row

    def count(self, beta, insertions):
        """Boundary-point count of the bracket (beta, insertions)."""
        key = (beta.coords, insertions)
        if key not in self._counts:
            self._counts[key] = self.target.boundary_point_count(
                beta, [self.model.degree_of(i) for i in insertions]
            )
        return self._counts[key]

    def groups(self, gamma, kind, i=None, j=None):
        """`_insertion_groups` of gamma's anchored partitions."""
        key = (gamma, kind, i, j)
        out = self._groups.get(key)
        if out is None:
            shape = (len(gamma), kind, i, j)
            partitions = self._partitions.get(shape)
            if partitions is None:
                partitions = self._partitions[shape] = anchored_partitions(
                    *shape)
            out = self._groups[key] = _insertion_groups(gamma, partitions)
        return out


def _insertion_groups(gamma, partitions):
    """The partitions as (sorted left insertions, sorted right
    insertions, multiplicity), in order of first occurrence.  Partitions
    with equal insertion multisets give equal terms, and the first of
    them is where a product of unknowns first fails."""
    groups = {}
    for left, right in partitions:
        key = (tuple(sorted(gamma[x - 1] for x in left)),
               tuple(sorted(gamma[x - 1] for x in right)))
        groups[key] = groups.get(key, 0) + 1
    return [(left, right, m) for (left, right), m in groups.items()]


def _add_scaled(form, term, num, den):
    """form += num / den * term, in place, for integers num and den > 0.

    The form's denominator is raised, to the lcm, only when den times
    the term's denominator does not divide it; zero coefficients are
    pruned and the gcd divided out once the whole form is built.  `term`
    is only read, so a resolver may hand the same `LinForm` to every
    reader of a bracket."""
    den *= term.den
    coeffs = form.coeffs
    if form.den % den:
        up = lcm(form.den, den) // form.den
        form.const *= up
        for key in coeffs:
            coeffs[key] *= up
        form.den *= up
    num *= form.den // den
    if term.const:
        form.const += term.const * num
    for key, value in term.coeffs.items():
        coeffs[key] = coeffs.get(key, 0) + value * num


def _add_mixed(form, ctx, resolve, beta, groups, sign):
    """form += sign * (closed x open contraction through the inverse
    pairing)."""
    for rel_part, b_coords in ctx.splits(beta)[0]:
        for closed_ins, open_ins, mult in groups:
            for j, num, den in ctx.closed_row(b_coords, closed_ins):
                _add_scaled(form,
                            resolve(rel_part, tuple(sorted(open_ins + (j,)))),
                            num * (sign * mult), den)


def _add_open(form, ctx, resolve, beta, segments):
    """form += each segment's open x open convolution with binomial
    weights, as a generator that returns the pruned form.

    A segment (groups, k, shift, sign) adds sign times the convolution
    whose weight is C(k, count(left bracket) - shift) with the
    out-of-range convention; `k` was already reduced per the relation.
    At a product of two unknown brackets the generator yields the
    unknowns of both factors, and when resumed it resolves that same
    product again, so the caller resumes it once it has solved one of
    them.  The resolved brackets are only read, as in `_add_scaled`.
    """
    splits = ctx.splits(beta)[1]
    for groups, k, shift, sign in segments:
        for b1, b2 in splits:
            for left_ins, right_ins, mult in groups:
                count = ctx.count(b1, left_ins)
                if count is None:
                    continue
                weight = binomial(k, count - shift)
                if weight == 0:
                    continue
                v1 = resolve(b1, left_ins)
                v2 = resolve(b2, right_ins)
                while v1.coeffs and v2.coeffs:
                    yield (*v1.coeffs, *v2.coeffs)
                    v1 = resolve(b1, left_ins)
                    v2 = resolve(b2, right_ins)
                if v2.coeffs:
                    v1, v2 = v2, v1
                if v2.const:
                    _add_scaled(form, v1, v2.const * (weight * mult * sign),
                                v2.den)
    return _pruned(form)


def _pruned(form):
    """The built form reduced: zero coefficients dropped, the gcd of
    its integers divided out."""
    return _reduced(form.const,
                    {k: v for k, v in form.coeffs.items() if v},
                    form.den)


def _build1(ctx, resolve, beta, gamma):
    """Start the build of the first relation's form, anchored at slot 2:
    add its closed x open terms and return the `_add_open` generator
    that adds the rest in one pass.  None where the relation does not
    apply: fewer than two entries, or a reduced count k that is not an
    integer >= 1.
    """
    l = len(gamma)
    if l < 2:
        return None
    k = _wdvv_k(ctx.target, ctx.model, beta, gamma)
    if k is None or k < 1:
        return None
    left = ctx.groups(gamma, "left", i=2)
    right = ctx.groups(gamma, "right", j=2)
    form = LinForm()
    _add_mixed(form, ctx, resolve, beta, left, 1)
    return _add_open(form, ctx, resolve, beta,
                     ((left, k - 1, 0, -1), (right, k - 1, 1, 1)))


def _build2(ctx, resolve, beta, gamma):
    """Start the build of the second relation's form, the (2;3)-anchored
    side minus the (3;2) side, as `_build1` does: the closed x open terms
    of both sides first, then the generator of both open sides.  None
    where it does not apply (fewer than three entries, or k not an
    integer >= 0)."""
    l = len(gamma)
    if l < 3:
        return None
    k = _wdvv_k(ctx.target, ctx.model, beta, gamma)
    if k is None or k < 0:
        return None
    form = LinForm()
    segments = []
    for i, j, sign in ((2, 3, 1), (3, 2, -1)):
        both = ctx.groups(gamma, "both", i=i, j=j)
        _add_mixed(form, ctx, resolve, beta, both, sign)
        segments.append((both, k, 0, -sign))
    return _add_open(form, ctx, resolve, beta, segments)


def _first_pass(builder, ctx, resolve, beta, gamma):
    """The form `builder` builds on the `_FormContext` ctx, None where it
    does not apply, or NonlinearEquationError naming the unknowns of the
    first product of two unknown brackets it meets."""
    build = builder(ctx, resolve, beta, gamma)
    if build is None:
        return None
    try:
        keys = next(build)
    except StopIteration as done:
        return done.value
    build.close()
    raise NonlinearEquationError("product of two unknown brackets", keys)


def wdvv1_form(target, model, closed, resolve, beta, gamma):
    """First relation, anchored at slot 2, as a linear form.

    Applies when the tuple has at least two entries and the reduced
    count k is an integer >= 1; returns None otherwise.  Raises
    NonlinearEquationError at the first product of two unknown brackets.
    """
    return _first_pass(_build1, _FormContext(target, model, closed),
                       resolve, beta, gamma)


def wdvv2_form(target, model, closed, resolve, beta, gamma):
    """Second relation: the (2;3)-anchored side minus the (3;2) side.
    Applicability and errors as for `wdvv1_form`."""
    return _first_pass(_build2, _FormContext(target, model, closed),
                       resolve, beta, gamma)


def wdvv1_residual(target, model, closed, open_table, beta, gamma):
    """Numeric residual of the first relation (zero when inapplicable)."""
    form = wdvv1_form(
        target, model, closed, _resolver_from_table(open_table), beta, gamma
    )
    return _ZERO if form is None else Fraction(form.const, form.den)


def wdvv2_residual(target, model, closed, open_table, beta, gamma):
    """Numeric residual of the second relation (zero when inapplicable)."""
    form = wdvv2_form(
        target, model, closed, _resolver_from_table(open_table), beta, gamma
    )
    return _ZERO if form is None else Fraction(form.const, form.den)


# --- the solver ----------------------------------------------------------------


@dataclass(frozen=True)
class RelationInstance:
    relation: int
    beta_coords: tuple
    gamma: tuple

    def sort_key(self):
        return (self.relation, self.beta_coords, len(self.gamma), self.gamma)

    def __repr__(self):
        return "rel%d@%s%r" % (self.relation, self.beta_coords, list(self.gamma))


@dataclass
class SolveResult:
    table: OpenInvariantTable
    solved: list
    unsolved: list
    residuals: list
    nonlinear: list
    # brackets a form read that are neither fixed, seeded nor unknowns
    # (degree zero, outside `unknown_keys`): taken as 0, never solved
    assumed_zero: list

    @property
    def consistent(self):
        return not self.unsolved and all(
            value == 0 for _, value in self.residuals
        )


def relation_instances(target, model, area_bound, max_insertions):
    """All canonical relation instances up to the area bound: sorted
    non-unit insertion tuples; the anchored slots are the leading ones."""
    out = []
    indices = range(2, model.size + 1)
    for beta in target.effective_degrees(area_bound):
        for l in range(2, max_insertions + 1):
            for gamma in itertools.combinations_with_replacement(indices, l):
                k = _wdvv_k(target, model, beta, gamma)
                if k is None:
                    continue
                if k >= 1:
                    out.append(RelationInstance(1, beta.coords, gamma))
                if l >= 3 and k >= 0:
                    out.append(RelationInstance(2, beta.coords, gamma))
    out.sort(key=RelationInstance.sort_key)
    return out


def unknown_keys(target, model, seeds, area_bound, max_insertions):
    """Bracket keys the solver should determine: positive-area degrees
    up to the bound, non-unit insertion multisets with an admissible
    boundary-point count, minus the seeded ones."""
    out = []
    areas = {}
    indices = range(2, model.size + 1)
    for beta in target.effective_degrees(area_bound, include_zero=False):
        areas[beta.coords] = beta.area
        for l in range(0, max_insertions + 1):
            for ins in itertools.combinations_with_replacement(indices, l):
                if seeds.boundary_points(beta, ins) is None:
                    continue
                if seeds.known(beta, ins):
                    continue
                out.append((beta.coords, tuple(ins)))
    out.sort(key=lambda key: (areas[key[0]], len(key[1]), key))
    return out


def solve_wdvv(target, model, closed, seeds, area_bound, max_insertions=3):
    """Determine unknown brackets from the relations, then audit.

    Elimination runs in sweeps.  A sweep visits the still-open unknowns
    in increasing (area, size, key) order; a visited unknown is solved
    from the first instance in `RelationInstance.sort_key` order whose
    form, after substituting every bracket solved so far (earlier in
    the same sweep included), involves it alone with a nonzero
    coefficient.  Sweeps repeat until one solves nothing.  So the
    instance that determines a bracket is the first to isolate it when
    it is visited, not the first that would isolate it by the end; on a
    consistent system both give the same value.

    Each form is built once, in one pass.  The builds start in instance
    order; one that meets a product of two open unknowns is suspended
    there, and once the sweeps have solved an unknown of that product it
    is resumed where it stopped, followed by more sweeps.  When it
    finishes, the brackets solved since it started are substituted into
    its form.  This gives exactly the form of a build from scratch at
    that moment: solved values are only ever added, so a term that read
    a bracket while it was open equals, after the substitution, the term
    a later build reads; and every product before the suspension had a
    known factor when it was met, and keeps it.  For the same reason the
    next product a resumed build stops at is the one a build from
    scratch would stop at.

    Afterwards every instance is evaluated numerically; the residual
    vector of a consistent system is identically zero.  Unknowns no
    instance determines are reported, never guessed; so are the brackets
    the relations read as 0 without solving for them (`assumed_zero`).
    """
    table = OpenInvariantTable(target, model)
    for (coords, ins), value in seeds.entries():
        table.set(coords, ins, value)
    # unknown_keys returns the keys in sweep order
    order = unknown_keys(target, model, seeds, area_bound, max_insertions)
    unknowns = set(order)
    instances = relation_instances(target, model, area_bound, max_insertions)
    solved_values = {}
    solved_log = []

    context = _FormContext(target, model, closed)
    # (coords, insertions) -> the bracket as a LinForm, the same object
    # for every reader: a bracket that is fixed or not an unknown never
    # changes during the solve, and an unknown's open form is replaced
    # by its value when it is solved (`open_probes` finds it)
    brackets, open_probes = {}, {}
    assumed_zero = set()

    def resolve(beta, insertions):
        probe = (beta.coords, insertions)
        term = brackets.get(probe)
        if term is not None:
            return term
        value = table.resolve_fixed(beta, insertions)
        key = table._key(beta, insertions)
        if value is None:
            if key in solved_values:
                value = solved_values[key]
            elif key in unknowns:
                term = brackets[probe] = LinForm(0, {key: 1})
                open_probes.setdefault(key, []).append(probe)
                return term
            else:
                if not table.known(beta, insertions):
                    # neither fixed, nor seeded, nor to be solved
                    assumed_zero.add(key)
                value = table.value(beta, insertions)
        term = brackets[probe] = _constant(value)
        return term

    # forms: instance -> its form with every solved bracket substituted;
    # occurs: open unknown -> instances whose form mentions it;
    # isolating: open unknown -> the first instance whose form involves
    # it alone (such a form keeps isolating it until it is solved, so the
    # minimum never goes stale);
    # blocked: suspended instance -> (unknowns of the product it stopped
    # at, its build)
    forms, occurs, isolating, blocked = {}, {}, {}, {}

    def note_isolating(inst, form):
        if len(form.coeffs) != 1:
            return
        (key,) = form.coeffs
        if (key not in isolating or
                inst.sort_key() < isolating[key].sort_key()):
            isolating[key] = inst

    def solve(key):
        inst = isolating.pop(key)
        form = forms[inst]
        # the denominator cancels
        value = Fraction(-form.const, form.coeffs[key])
        solved_values[key] = value
        solved_log.append((key, inst, value))
        term = _constant(value)
        for probe in open_probes.pop(key, ()):
            brackets[probe] = term
        for other in occurs.pop(key):
            forms[other] = forms[other].substitute({key: value})
            note_isolating(other, forms[other])

    def advance(inst, build):
        """Run a build to the product it stops at, or register its form."""
        if build is None:
            return
        try:
            keys = next(build)
        except StopIteration as done:
            form = done.value
        else:
            blocked[inst] = (keys, build)
            return
        if blocked.pop(inst, None) is not None:
            # resumed: the build pruned the form, and substituting only
            # drops keys
            form = form.substitute(solved_values)
        forms[inst] = form
        for key in form.coeffs:
            occurs.setdefault(key, set()).add(inst)
        note_isolating(inst, form)

    builders = {1: _build1, 2: _build2}
    degree = functools.cache(target.degree)
    # builds start lazily, in instance order; a suspended build stops at
    # the same product until one of its unknowns is solved, so only such
    # builds are resumed
    ready = ((inst, builders[inst.relation](
        context, resolve, degree(inst.beta_coords), inst.gamma))
        for inst in instances)
    while True:
        for inst, build in ready:
            advance(inst, build)
        advanced = True
        while advanced:
            advanced = False
            for key in order:
                if key in isolating:
                    solve(key)
                    advanced = True
        ready = [(inst, build) for inst, (keys, build) in blocked.items()
                 if not solved_values.keys().isdisjoint(keys)]
        if not ready:
            break
    for (coords, ins), value in sorted(solved_values.items()):
        table.set(coords, ins, value)
    residuals = []
    for inst in instances:
        if inst in forms:
            form = forms[inst]
            residuals.append((inst, Fraction(form.const, form.den)
                              if form.is_constant else None))
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


# --- structural checks -----------------------------------------------------------


@dataclass
class CheckOutcome:
    name: str
    passed: list
    failed: list
    untestable: list

    @property
    def ok(self):
        return not self.failed


def check_structure(target, model, open_table, closed_table=None):
    """Entry-by-entry structural audits of a populated open table.

    divisor: a degree-2 insertion multiplies the bracket by its pairing
    with the degree.  sphere: inserting the distinguished degree-4
    class flips the sign of the bracket with one more boundary point.
    mixed: the single-boundary-point brackets against the closed table
    through the ambient-class pairing, with orientation-datum signs.
    vanishing: with a nonzero ambient fixed-locus class, every bracket
    with two or more boundary points vanishes.  Returns one CheckOutcome
    per audit, in that order.
    """
    outcomes = []
    entries = open_table.entries()
    degree = functools.cache(target.degree)
    passed, failed, skipped = [], [], []
    for (coords, ins), value in entries:
        beta = degree(coords)
        for pos, idx in enumerate(ins):
            if model.degree_of(idx) != 2:
                continue
            rest = ins[:pos] + ins[pos + 1:]
            if idx not in model.deg2_pairings:
                skipped.append(((coords, ins), "no pairing for %d" % idx))
                continue
            if not (open_table.known(beta, rest)
                    or open_table.resolve_fixed(beta, rest) is not None):
                skipped.append(((coords, ins), "reduced entry absent"))
                continue
            expect = model.lattice_pairing(idx, beta) * open_table.value(
                beta, rest
            )
            (passed if value == expect else failed).append(
                ((coords, ins), value, expect)
            )
    outcomes.append(CheckOutcome("divisor", passed, failed, skipped))
    passed, failed, skipped = [], [], []
    if model.sphere_index is None:
        skipped.append((None, "no sphere class declared"))
    else:
        s = model.sphere_index
        for (coords, ins), value in entries:
            if s not in ins:
                continue
            beta = degree(coords)
            pos = ins.index(s)
            rest = ins[:pos] + ins[pos + 1:]
            if not (open_table.known(beta, rest)
                    or open_table.resolve_fixed(beta, rest) is not None):
                skipped.append(((coords, ins), "traded entry absent"))
                continue
            expect = -open_table.value(beta, rest)
            (passed if value == expect else failed).append(
                ((coords, ins), value, expect)
            )
    outcomes.append(CheckOutcome("sphere", passed, failed, skipped))
    passed, failed, skipped = [], [], []
    if closed_table is None or model.gamma0_pairing is None:
        skipped.append((None, "no closed table or ambient pairing"))
    else:
        for (coords, ins), value in entries:
            beta = degree(coords)
            if open_table.boundary_points(beta, ins) != 1:
                continue
            rhs = Fraction(0)
            for b in target.closed_preimages(beta):
                closed_ins = [PD_Y_LABEL, GAMMA0_LABEL] + [
                    model.restrict(i) for i in ins
                ]
                rhs -= target.w2_sign(b) * closed_table.value(b, closed_ins)
            lhs = model.gamma0_pairing * value
            (passed if lhs == rhs else failed).append(
                ((coords, ins), lhs, rhs)
            )
    outcomes.append(CheckOutcome("mixed", passed, failed, skipped))
    passed, failed, skipped = [], [], []
    if not model.y_class_nonzero:
        skipped.append((None, "ambient fixed-locus class declared zero"))
    else:
        for (coords, ins), value in entries:
            beta = degree(coords)
            count = open_table.boundary_points(beta, ins)
            if count is None or count < 2:
                continue
            (passed if value == 0 else failed).append(
                ((coords, ins), value, Fraction(0))
            )
    outcomes.append(CheckOutcome("vanishing", passed, failed, skipped))
    return outcomes


# --- the degree-zero extension -----------------------------------------------------


def degree_zero_extension(target, model, welschinger_term, corrections):
    """Value of a zero-boundary-point bracket from supplied linking data.

    corrections: list of (closed coords, linking value of the evaluated
    cycle, coefficient vector over the basis); each contributes, with
    the orientation-datum sign of its closed class, the linking value
    minus the coefficient-weighted linking values of the dual basis
    cycles.  With a nonzero ambient fixed-locus class everything is
    declared zero.
    """
    if model.y_class_nonzero:
        return Fraction(0)
    total = Fraction(welschinger_term)
    for coords, lk_value, lam in corrections:
        lam = [Fraction(x) for x in lam]
        if len(lam) != model.size:
            raise ModelError(
                "coefficient vector must have length %d" % model.size
            )
        term = Fraction(lk_value)
        for j in range(model.size):
            if lam[j] == 0:
                continue
            term -= lam[j] * model.lk_os_star.get(j + 1, Fraction(0))
        total += target.w2_sign(coords) * term
    return total
