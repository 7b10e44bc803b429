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
order) that, after everything solved so far, involves it alone.
Afterwards every instance is evaluated as a residual that must vanish;
inconsistencies are reported with the offending instance, never
averaged away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import OpenGWError, linalg


UNIT_INDEX = 1

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
    degree-0 extension); h2_push_trivial records (unverifiable here) that
    the degree-2 push forward from the fixed locus vanishes.
    """

    def __init__(self, degrees, pairing, restriction=None, deg2_pairings=None,
                 lk_os_star=None, sphere_index=None, y_class_nonzero=False,
                 gamma0_pairing=None, h2_push_trivial=True):
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
        self.h2_push_trivial = bool(h2_push_trivial)

    def degree_of(self, index):
        if not 1 <= index <= self.size:
            raise ModelError("basis index %r out of range" % (index,))
        return self.degrees[index - 1]

    def restrict(self, index):
        return self.restriction[index - 1]

    def g_inv(self, i, j):
        return self.pairing_inv[i - 1][j - 1]

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
        return self._data.get(self._key(coords, insertions), Fraction(0))

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
            return Fraction(0)
        if self.boundary_points(beta, insertions) is None:
            return Fraction(0)
        return None

    def value(self, beta, insertions):
        fixed = self.resolve_fixed(beta, insertions)
        if fixed is not None:
            return fixed
        return self._data.get(self._key(beta, insertions), Fraction(0))


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


def binomial(n, m, out_of_range_zero=True):
    """Binomial coefficient with the out-of-range-vanishes convention.

    The convention is load-bearing for the relations; the toggle exists
    only as a negative control (clamping instead of vanishing).
    """
    if m < 0 or m > n:
        if out_of_range_zero:
            return 0
        m = min(max(m, 0), max(n, 0))
    if n < 0:
        raise ModelError("negative upper binomial argument")
    out = 1
    for t in range(min(m, n - m)):
        out = out * (n - t) // (t + 1)
    return out


# --- linear forms over the unknown brackets ----------------------------------


@dataclass
class LinForm:
    """Affine expression const + sum of coeff * unknown(key)."""

    const: Fraction = Fraction(0)
    coeffs: dict = field(default_factory=dict)

    @property
    def is_constant(self):
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, LinForm):
            coeffs = dict(self.coeffs)
            for k, v in other.coeffs.items():
                coeffs[k] = coeffs.get(k, Fraction(0)) + v
            return LinForm(self.const + other.const,
                           {k: v for k, v in coeffs.items() if v != 0})
        return LinForm(self.const + other, dict(self.coeffs))

    def __sub__(self, other):
        return self + (other * Fraction(-1) if isinstance(other, LinForm)
                       else -other)

    def __mul__(self, other):
        if isinstance(other, LinForm):
            if not self.is_constant and not other.is_constant:
                raise NonlinearEquationError(
                    "product of two unknown brackets",
                    set(self.coeffs) | set(other.coeffs),
                )
            if other.is_constant:
                return self * other.const
            return other * self.const
        scalar = Fraction(other)
        if scalar == 0:
            return LinForm()
        return LinForm(self.const * scalar,
                       {k: v * scalar for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def substitute(self, values):
        const = self.const
        coeffs = {}
        for k, v in self.coeffs.items():
            if k in values:
                const += v * values[k]
            else:
                coeffs[k] = v
        return LinForm(const, coeffs)


# --- residual evaluators ------------------------------------------------------


def _closed_bracket(closed, model, b_coords, indices):
    restricted = tuple(model.restrict(i) for i in indices)
    return closed.value(b_coords, restricted)


def _wdvv_k(target, model, beta, gamma):
    """The relation's own boundary-point count: the dimension count of
    the full tuple minus one; None when fractional."""
    count = target.boundary_point_count(
        beta, [model.degree_of(i) for i in gamma]
    )
    return None if count is None else count - 1


def _resolver_from_table(table):
    def resolve(beta, insertions):
        return LinForm(table.value(beta, insertions))
    return resolve


def _mixed_sum(target, model, closed, resolve, beta, gamma, partitions):
    """Closed x open contraction through the inverse pairing."""
    total = LinForm()
    for rel_part, b_coords in target.complex_splits(beta):
        for left, right in partitions:
            closed_ins = [gamma[x - 1] for x in left]
            open_ins = [gamma[x - 1] for x in right]
            for i in range(1, model.size + 1):
                closed_val = _closed_bracket(
                    closed, model, b_coords, closed_ins + [i]
                )
                if closed_val == 0:
                    continue
                for j in range(1, model.size + 1):
                    g = model.g_inv(i, j)
                    if g == 0:
                        continue
                    open_val = resolve(rel_part, tuple(sorted(open_ins + [j])))
                    total = total + open_val * (closed_val * g)
    return total


def _open_sum(target, model, resolve, beta, gamma, partitions, k, shift,
              bino):
    """Open x open convolution with binomial weights.

    Weight is C(k, count(left bracket) - shift) with the out-of-range
    convention; `k` was already reduced per the relation.
    """
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
            v1 = resolve(b1, left_ins)
            v2 = resolve(b2, right_ins)
            total = total + (v1 * v2) * weight
    return total


def wdvv1_form(target, model, closed, resolve, beta, gamma, bino=binomial):
    """First relation, anchored at slot 2, as a linear form.

    Applies when the tuple has at least two entries and the reduced
    count k is an integer >= 1; returns None otherwise.
    """
    l = len(gamma)
    if l < 2:
        return None
    k = _wdvv_k(target, model, beta, gamma)
    if k is None or k < 1:
        return None
    mixed = _mixed_sum(
        target, model, closed, resolve, beta, gamma,
        anchored_partitions(l, "left", i=2),
    )
    open_left = _open_sum(
        target, model, resolve, beta, gamma,
        anchored_partitions(l, "left", i=2), k - 1, 0, bino,
    )
    open_right = _open_sum(
        target, model, resolve, beta, gamma,
        anchored_partitions(l, "right", j=2), k - 1, 1, bino,
    )
    return mixed - open_left + open_right


def wdvv2_form(target, model, closed, resolve, beta, gamma, bino=binomial):
    """Second relation: the (2;3)-anchored side minus the (3;2) side."""
    l = len(gamma)
    if l < 3:
        return None
    k = _wdvv_k(target, model, beta, gamma)
    if k is None or k < 0:
        return None

    def side(i, j):
        mixed = _mixed_sum(
            target, model, closed, resolve, beta, gamma,
            anchored_partitions(l, "both", i=i, j=j),
        )
        opens = _open_sum(
            target, model, resolve, beta, gamma,
            anchored_partitions(l, "both", i=i, j=j), k, 0, bino,
        )
        return mixed - opens

    return side(2, 3) - side(3, 2)


def _clamped_binomial(n, m, out_of_range_zero=True):
    return binomial(n, m, out_of_range_zero=False)


def wdvv1_residual(target, model, closed, open_table, beta, gamma,
                   binomial_convention=True):
    """Numeric residual of the first relation (zero when inapplicable)."""
    form = wdvv1_form(
        target, model, closed, _resolver_from_table(open_table), beta, gamma,
        bino=binomial if binomial_convention else _clamped_binomial,
    )
    return Fraction(0) if form is None else form.const


def wdvv2_residual(target, model, closed, open_table, beta, gamma,
                   binomial_convention=True):
    """Numeric residual of the second relation (zero when inapplicable)."""
    form = wdvv2_form(
        target, model, closed, _resolver_from_table(open_table), beta, gamma,
        bino=binomial if binomial_convention else _clamped_binomial,
    )
    return Fraction(0) if form is None else form.const


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
                if _wdvv_k(target, model, beta, gamma) is None:
                    continue
                k = _wdvv_k(target, model, beta, gamma)
                if l >= 2 and k >= 1:
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
    indices = range(2, model.size + 1)
    for beta in target.effective_degrees(area_bound, include_zero=False):
        for l in range(0, max_insertions + 1):
            for ins in itertools.combinations_with_replacement(indices, l):
                if seeds.boundary_points(beta, ins) is None:
                    continue
                if seeds.known(beta, ins):
                    continue
                out.append((beta.coords, tuple(ins)))
    out.sort(key=lambda key: (target.degree(key[0]).area, len(key[1]), key))
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
    consistent system both give the same value.  An instance that is
    quadratic in open unknowns is deferred and rebuilt, followed by
    more sweeps, once an unknown of its failing product is solved.

    Afterwards every instance is evaluated numerically; the residual
    vector of a consistent system is identically zero.  Unknowns no
    instance determines are reported, never guessed.
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

    def resolve(beta, insertions):
        fixed = table.resolve_fixed(beta, insertions)
        if fixed is not None:
            return LinForm(fixed)
        key = table._key(beta, insertions)
        if key in solved_values:
            return LinForm(solved_values[key])
        if key in unknowns:
            return LinForm(Fraction(0), {key: Fraction(1)})
        return LinForm(table.value(beta, insertions))

    # forms: instance -> its form with every solved bracket substituted;
    # occurs: open unknown -> instances whose form mentions it;
    # isolating: open unknown -> the first instance whose form involves
    # it alone (such a form keeps isolating it until it is solved, so the
    # minimum never goes stale);
    # blocked: deferred instance -> unknowns of its failing product
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

    # the first failing product of a deferred instance fails again until
    # one of its unknowns is solved, so only such instances are rebuilt
    to_build = instances
    while to_build:
        for inst in to_build:
            builder = wdvv1_form if inst.relation == 1 else wdvv2_form
            try:
                form = builder(target, model, closed, resolve,
                               target.degree(inst.beta_coords), inst.gamma)
            except NonlinearEquationError as exc:
                blocked[inst] = exc.keys
                continue
            blocked.pop(inst, None)
            if form is None:
                continue
            forms[inst] = form
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


def check_structure(target, model, open_table, closed_table=None,
                    checks=("divisor", "sphere", "mixed", "vanishing")):
    """Entry-by-entry structural audits of a populated open table.

    divisor: a degree-2 insertion multiplies the bracket by its pairing
    with the degree.  sphere: inserting the distinguished degree-4
    class flips the sign of the bracket with one more boundary point.
    mixed: the single-boundary-point brackets against the closed table
    through the ambient-class pairing, with orientation-datum signs.
    vanishing: with a nonzero ambient fixed-locus class, every bracket
    with two or more boundary points vanishes.
    """
    outcomes = []
    entries = open_table.entries()
    if "divisor" in checks:
        passed, failed, skipped = [], [], []
        for (coords, ins), value in entries:
            beta = target.degree(coords)
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
    if "sphere" in checks:
        passed, failed, skipped = [], [], []
        if model.sphere_index is None:
            skipped.append((None, "no sphere class declared"))
        else:
            s = model.sphere_index
            for (coords, ins), value in entries:
                if s not in ins:
                    continue
                beta = target.degree(coords)
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
    if "mixed" in checks:
        passed, failed, skipped = [], [], []
        if closed_table is None or model.gamma0_pairing is None:
            skipped.append((None, "no closed table or ambient pairing"))
        else:
            for (coords, ins), value in entries:
                beta = target.degree(coords)
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
    if "vanishing" in checks:
        passed, failed, skipped = [], [], []
        if not model.y_class_nonzero:
            skipped.append((None, "ambient fixed-locus class declared zero"))
        else:
            for (coords, ins), value in entries:
                beta = target.degree(coords)
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
