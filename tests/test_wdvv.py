"""Residual evaluators, the recursion solver, and structural checks."""

import hashlib
import math
import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from opengw import fileio, wdvv
from opengw.lattice import Target
from opengw.wdvv import (
    GAMMA0_LABEL,
    PD_Y_LABEL,
    ClosedGWTable,
    CohomologyModel,
    ModelError,
    NonlinearEquationError,
    OpenInvariantTable,
    anchored_partitions,
    binomial,
    degree_zero_extension,
    relation_instances,
    solve_wdvv,
    unknown_keys,
    wdvv1_form,
    wdvv1_residual,
    wdvv2_form,
    wdvv2_residual,
)

from support import (
    FractionForm,
    clamped_binomial,
    form_product,
    form_scaled,
    form_sum,
    fraction_form,
    linform,
    make_rng,
    reference_solve_wdvv,
    reference_wdvv_form,
    structure_outcome,
)

F = Fraction


def toy_target():
    return Target([("d", 1, 4)], closed_generators=[("L", 2, -1)],
                  q_matrix=[[2]])


def toy_model(**kw):
    return CohomologyModel(
        degrees=(0, 2, 4, 6),
        pairing=[[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        deg2_pairings={2: (F(1, 2),)},
        **kw,
    )


def toy_closed():
    return ClosedGWTable([
        ((0,), (2, 2, 2), 1), ((0,), (1, 2, 3), 1), ((0,), (1, 1, 4), 1),
        ((1,), (4, 4), 1), ((1,), (2, 4, 4), 1), ((1,), (3, 3, 4), 1),
        ((1,), (2, 2, 4, 4), 1), ((1,), (2, 3, 3, 4), 1),
        ((1,), (3, 3, 3, 3), 2),
    ])


PLANTED = {
    ((0,), (2, 2)): F(1), ((0,), (2, 2, 2)): F(0),
    ((1,), ()): F(1), ((1,), (2,)): F(1, 2), ((1,), (2, 2)): F(1, 4),
    ((1,), (2, 2, 2)): F(1, 8), ((1,), (2, 2, 3)): F(1, 4),
    ((1,), (2, 2, 4)): F(-1, 2), ((1,), (2, 3)): F(1, 2),
    ((1,), (2, 3, 3)): F(0), ((1,), (2, 4)): F(-1), ((1,), (3,)): F(1),
    ((1,), (3, 3)): F(0), ((1,), (4,)): F(-2),
    ((2,), ()): F(1, 2), ((2,), (2,)): F(1, 2), ((2,), (2, 2)): F(1, 2),
    ((2,), (2, 2, 2)): F(1, 2), ((2,), (2, 2, 3)): F(1, 4),
    ((2,), (2, 2, 4)): F(0), ((2,), (2, 3)): F(1, 4),
    ((2,), (2, 3, 3)): F(0), ((2,), (2, 3, 4)): F(1, 2),
    ((2,), (2, 4)): F(0), ((2,), (2, 4, 4)): F(1), ((2,), (3,)): F(1, 4),
    ((2,), (3, 3)): F(0), ((2,), (3, 3, 3)): F(0), ((2,), (3, 3, 4)): F(0),
    ((2,), (3, 4)): F(1, 2), ((2,), (4,)): F(0), ((2,), (4, 4)): F(1),
}

SEED_KEYS = [
    ((0,), (2, 2)), ((0,), (2, 2, 2)),
    ((1,), ()), ((1,), (2,)), ((1,), (2, 2)), ((1,), (2, 2, 2)),
    ((1,), (2, 2, 3)), ((1,), (4,)),
    ((2,), ()), ((2,), (2,)), ((2,), (2, 2)), ((2,), (2, 2, 2)),
    ((2,), (2, 2, 3)), ((2,), (2, 2, 4)), ((2,), (2, 3, 3)),
    ((2,), (2, 3, 4)), ((2,), (2, 4, 4)), ((2,), (3, 3, 3)),
    ((2,), (3, 3, 4)),
]


def planted_table(target, model):
    return OpenInvariantTable(
        target, model, [(c, i, v) for (c, i), v in PLANTED.items()]
    )


def seed_table(target, model):
    return OpenInvariantTable(
        target, model, [(c, i, PLANTED[(c, i)]) for (c, i) in SEED_KEYS]
    )


# --- partitions and binomials -------------------------------------------------


def test_partition_family_sizes():
    for l in range(1, 6):
        assert len(anchored_partitions(l)) == 2 ** (l - 1)
    # anchored families by exhaustive filtering
    got = anchored_partitions(3, "both", i=2, j=3)
    assert got == [pair for pair in anchored_partitions(3)
                   if 2 in pair[0] and 3 in pair[1]]
    assert len(got) == 1


def test_partition_intersection_identity():
    for l in (3, 4, 5):
        both = set(anchored_partitions(l, "both", i=2, j=l))
        left = set(anchored_partitions(l, "left", i=2))
        right = set(anchored_partitions(l, "right", j=l))
        assert both == left & right


def test_partition_anchor_validation():
    with pytest.raises(ModelError):
        anchored_partitions(2, "left", i=5)
    with pytest.raises(ModelError):
        anchored_partitions(3, "both", i=2, j=2)


def test_binomial_conventions():
    assert binomial(3, 2) == 3
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert clamped_binomial(3, 4) == 1  # the negative controls' convention
    assert binomial(0, 0) == 1


# --- bracket resolution -------------------------------------------------------


def test_unit_insertion_rules():
    target, model = toy_target(), toy_model()
    table = OpenInvariantTable(target, model)
    zero = target.degree((0,))
    one = target.degree((1,))
    assert table.value(zero, (1,)) == -1
    assert table.value(zero, (1, 2)) == 0
    assert table.value(one, (1,)) == 0
    assert table.value(one, (1, 3)) == 0


def test_negative_count_forces_zero():
    target, model = toy_target(), toy_model()
    table = OpenInvariantTable(target, model, [((1,), (3, 4), 7)])
    # (3, 4) at degree d has count -1: the stored entry is shadowed
    assert table.value(target.degree((1,)), (3, 4)) == 0
    assert table.value(target.degree((1,)), ()) == 0  # absent -> 0


def test_model_validation():
    with pytest.raises(ModelError):
        CohomologyModel(degrees=(2, 2), pairing=[[0, 1], [1, 0]])
    with pytest.raises(ModelError):
        CohomologyModel(degrees=(0, 2), pairing=[[1, 0], [0, 1]])
    with pytest.raises(ModelError):  # singular pairing
        CohomologyModel(degrees=(0, 6), pairing=[[0, 0], [0, 0]])


# --- residuals ------------------------------------------------------------------


def test_residual_zero_tables():
    target, model, closed = toy_target(), toy_model(), ClosedGWTable()
    table = OpenInvariantTable(target, model)
    beta = target.degree((1,))
    assert wdvv1_residual(target, model, closed, table, beta, (2, 2)) == 0
    assert wdvv2_residual(target, model, closed, table, beta, (2, 2, 3)) == 0


def test_residual_hand_instance():
    """Independent direct summation of the first relation on the tuple
    (h, h) at the generator degree: the only contributions are the
    classical triple intersection against the paired bracket and the
    degree-zero pair times the bare bracket."""
    target, model, closed = toy_target(), toy_model(), toy_closed()
    rng = make_rng(42)
    for _ in range(20):
        x3 = F(rng.randint(-6, 6), rng.randint(1, 3))
        s22 = F(rng.randint(-6, 6), rng.randint(1, 3))
        a = F(rng.randint(-6, 6), rng.randint(1, 3))
        table = OpenInvariantTable(target, model, [
            ((0,), (2, 2), s22), ((1,), (), a), ((1,), (3,), x3),
        ])
        got = wdvv1_residual(
            target, model, closed, table, target.degree((1,)), (2, 2)
        )
        # by hand: mixed term <h,h,g*_2>_0 g^{23} <g*_3>_d minus the
        # (0, d) split C(0,0) <h,h>_0 <>_d; every other term vanishes
        assert got == x3 - s22 * a


def test_residual_bilinear_superposition():
    """Perturbing the open table by a delta moves the residual by the
    residual of (closed-part frozen, linear-in-open) plus the purely
    quadratic correction; with the closed table zeroed the map is
    exactly quadratic, checked by polarization."""
    target, model = toy_target(), toy_model()
    closed = toy_closed()
    beta = target.degree((2,))
    gamma = (2, 2, 4)
    base = planted_table(target, model)

    def shifted(key, delta):
        t = planted_table(target, model)
        t.set(key[0], key[1], PLANTED[key] + delta)
        return t

    key = ((1,), (4,))
    r0 = wdvv1_residual(target, model, closed, base, beta, gamma)
    r1 = wdvv1_residual(target, model, closed, shifted(key, 1), beta, gamma)
    r2 = wdvv1_residual(target, model, closed, shifted(key, 2), beta, gamma)
    # quadratic in any single entry: second difference is constant
    r3 = wdvv1_residual(target, model, closed, shifted(key, 3), beta, gamma)
    assert (r3 - r2) - (r2 - r1) == (r2 - r1) - (r1 - r0)


def test_residual_linear_in_closed_table():
    """With the open table frozen, the residual is linear in any single
    closed entry."""
    target, model = toy_target(), toy_model()
    table = planted_table(target, model)
    beta = target.degree((2,))
    gamma = (2, 2, 4)

    def with_closed(value):
        closed = toy_closed()
        closed.set((1,), (2, 2, 4, 4), value)
        return wdvv1_residual(target, model, closed, table, beta, gamma)

    r0, r1, r2 = with_closed(1), with_closed(2), with_closed(3)
    assert r2 - r1 == r1 - r0
    assert r1 != r0  # the perturbed entry genuinely enters


def test_residual_symmetric_beyond_anchors():
    target, model, closed = toy_target(), toy_model(), toy_closed()
    table = planted_table(target, model)
    beta = target.degree((2,))
    # permuting indices past the anchored slots (1, 2 for the first
    # relation; 1, 2, 3 for the second) leaves residuals alone
    a = wdvv1_residual(target, model, closed, table, beta, (2, 2, 3, 4))
    b = wdvv1_residual(target, model, closed, table, beta, (2, 2, 4, 3))
    assert a == b
    a = wdvv2_residual(target, model, closed, table, beta, (2, 3, 4, 2, 3))
    b = wdvv2_residual(target, model, closed, table, beta, (2, 3, 4, 3, 2))
    assert a == b


# --- the solver -------------------------------------------------------------------


def test_planted_table_has_zero_residual_vector():
    target, model, closed = toy_target(), toy_model(), toy_closed()
    table = planted_table(target, model)
    for inst in relation_instances(target, model, 2, 3):
        fn = wdvv1_residual if inst.relation == 1 else wdvv2_residual
        r = fn(target, model, closed, table,
               target.degree(inst.beta_coords), inst.gamma)
        assert r == 0, inst


def test_solver_recovers_planted_table():
    target, model, closed = toy_target(), toy_model(), toy_closed()
    res = solve_wdvv(target, model, closed, seed_table(target, model),
                     area_bound=2, max_insertions=3)
    assert res.unsolved == []
    assert res.nonlinear == []
    assert res.consistent
    assert dict(res.table.entries()) == PLANTED
    assert all(value == 0 for _, value in res.residuals)
    assert len(res.solved) == len(PLANTED) - len(SEED_KEYS)


def test_solver_empty_target_returns_seeds():
    target, model = toy_target(), toy_model()
    seeds = OpenInvariantTable(target, model, [((0,), (2, 2), 5)])
    res = solve_wdvv(target, model, ClosedGWTable(), seeds,
                     area_bound=0, max_insertions=3)
    assert res.unsolved == []
    assert dict(res.table.entries()) == {((0,), (2, 2)): F(5)}


def test_solver_reports_missing_base_case():
    """Dropping a needed seed leaves named unsolved unknowns."""
    target, model, closed = toy_target(), toy_model(), toy_closed()
    partial = OpenInvariantTable(
        target, model,
        [(c, i, PLANTED[(c, i)]) for (c, i) in SEED_KEYS if (c, i) != ((1,), (4,))],
    )
    res = solve_wdvv(target, model, closed, partial, area_bound=2,
                     max_insertions=3)
    assert not res.consistent
    assert ((1,), (4,)) in res.unsolved or res.unsolved


def test_solver_negative_control_perturbation():
    target, model, closed = toy_target(), toy_model(), toy_closed()
    table = planted_table(target, model)
    table.set((1,), (3,), PLANTED[((1,), (3,))] + 1)
    nonzero = []
    for inst in relation_instances(target, model, 2, 3):
        fn = wdvv1_residual if inst.relation == 1 else wdvv2_residual
        r = fn(target, model, closed, table,
               target.degree(inst.beta_coords), inst.gamma)
        if r != 0:
            nonzero.append(inst)
    assert nonzero


def test_wrong_binomial_convention_breaks_residuals(monkeypatch):
    target, model, closed = toy_target(), toy_model(), toy_closed()
    table = planted_table(target, model)
    monkeypatch.setattr(wdvv, "binomial", clamped_binomial)
    broken = []
    for inst in relation_instances(target, model, 2, 3):
        fn = wdvv1_residual if inst.relation == 1 else wdvv2_residual
        r = fn(target, model, closed, table,
               target.degree(inst.beta_coords), inst.gamma)
        if r != 0:
            broken.append(inst)
    assert broken


def test_solver_order_independence():
    """Consistent system: permuting the instance selection order cannot
    change the solved table (solve twice with reversed unknown order by
    seeding in two different orders)."""
    target, model, closed = toy_target(), toy_model(), toy_closed()
    res1 = solve_wdvv(target, model, closed, seed_table(target, model),
                      area_bound=2, max_insertions=3)
    seeds_rev = OpenInvariantTable(
        target, model,
        [(c, i, PLANTED[(c, i)]) for (c, i) in reversed(SEED_KEYS)],
    )
    res2 = solve_wdvv(target, model, closed, seeds_rev, area_bound=2,
                      max_insertions=3)
    assert dict(res1.table.entries()) == dict(res2.table.entries())


# SHA-256 of the toy's full solve result beyond its planted range, taken
# while the indexed solver still agreed result for result with the
# rescan loop it replaced; the (2, 4), (6, 5) and (10, 6) pins were taken
# from the solver that rebuilt a deferred form from scratch
SOLVE_DIGESTS = {
    (2, 4): "e0f12eb8fd33444588c46c0ba6c6c0fd065ebba0c9f5df76bdc2ec9dc682f8a7",
    (4, 4): "002e34f6bc322033ad493f1de6543bf2b43d10df6bf5e35191316fa1471fb735",
    (6, 4): "1535f978f286aa1571b63ad6a7a3ac2a834f7c3312ce8dd4d19998989fffc30a",
    (6, 5): "c675546fdb19357c241f87cd3dc6855b89553aecaf421de91908266581ca61eb",
    (8, 5): "60e6749dc3eafbcd456115c2db3a8fbe388619b4fcd19d2b85b809154eb30894",
    (10, 6): "100b1a2bd429e718aaeacc47eda76fdaa84e8b5e599b70f56a3915b55f3ab010",
}


def bundled_toy():
    """The bundled toy: (target, model, closed table, seed table)."""
    data = os.path.join(os.path.dirname(fileio.__file__), "data")
    bundle = fileio.load_target(os.path.join(data, "toy_target.json"))
    target, model = bundle.target, bundle.model
    closed = fileio.load_closed(os.path.join(data, "toy_closed.json"))
    seeds = fileio.load_seeds(os.path.join(data, "toy_seeds.json"),
                              target, model)
    return target, model, closed, seeds


def solve_digest(result):
    """SHA-256 of table entries, solved log, unsolved keys, residuals and
    nonlinear instances, one line each."""
    lines = ["table %s %s %s" % (c, list(i), v)
             for (c, i), v in result.table.entries()]
    lines += ["solved %s %s %r %s" % (k[0], list(k[1]), inst, v)
              for k, inst, v in result.solved]
    lines += ["unsolved %s %s" % (c, list(i)) for c, i in result.unsolved]
    lines += ["residual %r %s" % (inst, v) for inst, v in result.residuals]
    lines += ["nonlinear %r" % (inst,) for inst in result.nonlinear]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("area_bound, max_insertions", sorted(SOLVE_DIGESTS))
def test_solver_result_pinned_beyond_planted_range(area_bound, max_insertions):
    """The bundled toy beyond its planted range: unsolved brackets, and
    from (6, 4) on instances suspended as nonlinear and resumed later."""
    target, model, closed, seeds = bundled_toy()
    res = solve_wdvv(target, model, closed, seeds, F(area_bound),
                     max_insertions)
    assert solve_digest(res) == SOLVE_DIGESTS[area_bound, max_insertions]
    assert res.unsolved
    assert res.nonlinear or area_bound < 6


def test_nonlinear_error_names_both_factors():
    left = FractionForm(F(0), {"a": F(1)})
    right = FractionForm(F(2), {"b": F(3), "c": F(1)})
    with pytest.raises(NonlinearEquationError) as err:
        form_product(left, right)
    assert err.value.keys == {"a", "b", "c"}


# resumptions of suspended builds that solve_wdvv makes on the toy: as
# many as the rebuilds of a solver that rebuilds a deferred form from
# scratch (214, 457 and 1,239 builds for 127, 239 and 582 instances)
RESUMPTIONS = {(4, 4): 87, (6, 4): 218, (8, 5): 657}


@pytest.mark.parametrize("area_bound, max_insertions", sorted(RESUMPTIONS))
def test_solver_builds_each_form_on_schedule(monkeypatch, area_bound,
                                             max_insertions):
    """Each form is built in one pass: every build starts once, and the
    closed x open contraction runs once for a relation-1 instance and
    once per side for a relation-2 instance, so no prefix of a build is
    evaluated twice; a suspended build is resumed, never restarted."""
    started = Counter()
    mixed = resumed = 0
    add_mixed = wdvv._add_mixed

    def counted_mixed(*args):
        nonlocal mixed
        mixed += 1
        add_mixed(*args)

    def counted(relation, builder):
        def start(ctx, resolve, beta, gamma):
            started[wdvv.RelationInstance(relation, beta.coords, gamma)] += 1
            return resumptions(builder(ctx, resolve, beta, gamma))
        return start

    def resumptions(build):
        nonlocal resumed
        try:
            keys = next(build)
            while True:
                yield keys
                resumed += 1
                keys = next(build)
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(wdvv, "_add_mixed", counted_mixed)
    monkeypatch.setattr(wdvv, "_build1", counted(1, wdvv._build1))
    monkeypatch.setattr(wdvv, "_build2", counted(2, wdvv._build2))
    target, model, closed, seeds = bundled_toy()
    solve_wdvv(target, model, closed, seeds, F(area_bound), max_insertions)
    instances = relation_instances(target, model, F(area_bound),
                                   max_insertions)
    assert started == Counter(instances)
    relations = Counter(inst.relation for inst in instances)
    assert mixed == relations[1] + 2 * relations[2]
    assert resumed == RESUMPTIONS[area_bound, max_insertions]


# no shrink phase: shrinking a failing solve is bounded neither in time
# nor in memory, and the first failing example already names the draw
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.data())
def test_solver_matches_rebuilding_reference_with_seeds_dropped(data):
    """Resuming a suspended build gives what rebuilding it from scratch
    gives: with a random subset of the toy's seeds dropped, the solve
    result and the brackets assumed zero equal the reference's."""
    target, model, closed, seeds = bundled_toy()
    entries = seeds.entries()
    dropped = data.draw(st.sets(st.integers(0, len(entries) - 1)))
    partial = OpenInvariantTable(
        target, model,
        [(c, i, v) for n, ((c, i), v) in enumerate(entries)
         if n not in dropped],
    )
    area_bound, max_insertions = data.draw(
        st.sampled_from([(2, 3), (2, 4), (4, 4), (6, 4), (6, 5)]))
    got = solve_wdvv(target, model, closed, partial, F(area_bound),
                     max_insertions)
    want = reference_solve_wdvv(target, model, closed, partial,
                                F(area_bound), max_insertions)
    assert solve_digest(got) == solve_digest(want)
    assert got.assumed_zero == want.assumed_zero


@pytest.mark.parametrize("area_bound, max_insertions, expected", [
    (2, 3, []),
    (2, 4, [((0,), (2, 2, 2, 2))]),
    (4, 4, [((0,), (2, 2, 2, 2))]),
    (8, 5, [((0,), (2, 2, 2, 2)), ((0,), (2, 2, 2, 2, 2))]),
])
def test_solver_names_brackets_it_assumed_zero(area_bound, max_insertions,
                                               expected):
    """Degree-zero brackets are not unknowns; one a relation reads that
    is not seeded counts as 0, and the result names it."""
    target, model, closed, seeds = bundled_toy()
    res = solve_wdvv(target, model, closed, seeds, F(area_bound),
                     max_insertions)
    assert res.assumed_zero == expected
    for coords, ins in res.assumed_zero:
        assert not seeds.known(target.degree(coords), ins)
        assert res.table.value(target.degree(coords), ins) == 0


# --- the form builders against the defining loops -------------------------------


ORACLE_RUNG = (6, 4)
CONVENTIONS = {"vanishing": binomial, "clamped": clamped_binomial}


def table_resolver(table):
    def resolve(beta, insertions):
        return linform(table.value(beta, insertions))
    return resolve


def partial_resolver(seeds, unknowns, values):
    """The solver's view of the brackets: fixed and seeded values,
    `values` for the unknowns taken as solved, every other unknown open."""
    def resolve(beta, insertions):
        fixed = seeds.resolve_fixed(beta, insertions)
        if fixed is not None:
            return linform(fixed)
        key = (beta.coords, tuple(sorted(insertions)))
        if key in values:
            return linform(values[key])
        if key in unknowns:
            return linform(0, {key: 1})
        return linform(seeds.value(beta, insertions))
    return resolve


def form_outcome(build):
    """A built form read in Fractions, None, or the unknowns named by
    the NonlinearEquationError it raised."""
    try:
        form = build()
    except NonlinearEquationError as exc:
        return "nonlinear", exc.keys
    if form is None:
        return None
    form = fraction_form(form)
    return form.const, form.coeffs


def assert_builders_match_reference(target, model, closed, resolve,
                                    rung=ORACLE_RUNG,
                                    conventions=CONVENTIONS):
    instances = relation_instances(target, model, *rung)
    builders = {1: wdvv1_form, 2: wdvv2_form}
    for name, bino in conventions.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wdvv, "binomial", bino)
            for inst in instances:
                beta = target.degree(inst.beta_coords)
                got = form_outcome(lambda: builders[inst.relation](
                    target, model, closed, resolve, beta, inst.gamma
                ))
                want = form_outcome(lambda: reference_wdvv_form(
                    target, model, closed, resolve, inst.relation, beta,
                    inst.gamma, bino
                ))
                assert got == want, (inst, name)


def test_form_builders_match_reference_on_solved_table():
    target, model, closed, seeds = bundled_toy()
    res = solve_wdvv(target, model, closed, seeds, F(ORACLE_RUNG[0]),
                     ORACLE_RUNG[1])
    assert_builders_match_reference(target, model, closed,
                                    table_resolver(res.table))


def test_form_builders_match_reference_with_every_unknown_open():
    target, model, closed, seeds = bundled_toy()
    unknowns = set(unknown_keys(target, model, seeds, F(ORACLE_RUNG[0]),
                                ORACLE_RUNG[1]))
    assert_builders_match_reference(target, model, closed,
                                    partial_resolver(seeds, unknowns, {}))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.data())
def test_form_builders_match_reference_on_partial_tables(data):
    """Some unknowns taken as solved with drawn values, the rest open."""
    target, model, closed, seeds = bundled_toy()
    unknowns = unknown_keys(target, model, seeds, F(ORACLE_RUNG[0]),
                            ORACLE_RUNG[1])
    drawn = data.draw(st.lists(
        st.none() | st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4),
        min_size=len(unknowns), max_size=len(unknowns),
    ))
    values = {key: v for key, v in zip(unknowns, drawn) if v is not None}
    assert_builders_match_reference(
        target, model, closed,
        partial_resolver(seeds, set(unknowns), values),
    )


# --- the integer forms over coprime denominators ---------------------------------


def is_reduced(form):
    """A finished `LinForm`: positive denominator, no zero coefficient,
    and no common factor of the denominator, constant and coefficients."""
    return (form.den > 0 and all(form.coeffs.values())
            and math.gcd(form.den, form.const, *form.coeffs.values()) == 1)


COPRIME_RUNGS = [(2, 3), (2, 4), (4, 4), (6, 4)]
COPRIME_DENOMINATORS = [3, 5, 7, 9, 11]


# no shrink phase: shrinking a failing solve is bounded neither in time
# nor in memory, and the first failing example already names the draw
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.data())
def test_solver_matches_reference_with_coprime_seed_scales(data):
    """The toy's forms meet only the denominators 1 to 128, all powers
    of 2.  With each seed value multiplied by a drawn p/q, q odd, terms
    over coprime denominators meet, so the integer adds raise a form's
    denominator to an lcm.  The solve, the brackets assumed zero and
    every relation form still equal the Fraction oracle's, and every
    form the solver registers is reduced."""
    target, model, closed, seeds = bundled_toy()
    entries = seeds.entries()
    scales = data.draw(st.lists(
        st.builds(F, st.integers(-12, 12),
                  st.sampled_from(COPRIME_DENOMINATORS)),
        min_size=len(entries), max_size=len(entries)))
    scaled = OpenInvariantTable(
        target, model,
        [(c, i, v * scale) for ((c, i), v), scale in zip(entries, scales)],
    )
    rung = data.draw(st.sampled_from(COPRIME_RUNGS))
    finished = []

    def recorded(method):
        def run(*args):
            form = method(*args)
            finished.append(form)
            return form
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wdvv, "_pruned", recorded(wdvv._pruned))
        patch.setattr(wdvv.LinForm, "substitute",
                      recorded(wdvv.LinForm.substitute))
        got = solve_wdvv(target, model, closed, scaled, F(rung[0]), rung[1])
    want = reference_solve_wdvv(target, model, closed, scaled, F(rung[0]),
                                rung[1])
    assert solve_digest(got) == solve_digest(want)
    assert got.assumed_zero == want.assumed_zero
    assert finished and all(is_reduced(form) for form in finished)
    unknowns = set(unknown_keys(target, model, scaled, F(rung[0]), rung[1]))
    conventions = {"vanishing": binomial}
    assert_builders_match_reference(target, model, closed,
                                    partial_resolver(scaled, unknowns, {}),
                                    rung, conventions)
    assert_builders_match_reference(target, model, closed,
                                    table_resolver(got.table),
                                    rung, conventions)


small_ints = st.integers(-40, 40)
form_keys = st.sampled_from("abcde")
small_fractions = st.builds(F, small_ints,
                            st.sampled_from([1, 2, 3, 4, 6, 7, 9]))
int_forms = st.builds(linform, small_fractions,
                      st.dictionaries(form_keys, small_fractions))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(int_forms, st.dictionaries(form_keys, small_fractions))
def test_substitute_agrees_with_fraction_arithmetic(form, values):
    got = form.substitute(values)
    assert fraction_form(got) == fraction_form(form).substitute(values)
    assert is_reduced(got)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(int_forms, st.lists(st.tuples(int_forms, small_ints,
                                     st.integers(1, 12)), max_size=6))
def test_integer_add_agrees_with_fraction_arithmetic(form, terms):
    """`_add_scaled` raises the denominator to the lcm only when the
    scaled term's denominator does not divide it, and the pruned sum is
    the reduced form of the Fraction sum."""
    want = fraction_form(form)
    work = wdvv.LinForm(form.const, dict(form.coeffs), form.den)
    for term, num, den in terms:
        before = work.den
        wdvv._add_scaled(work, term, num, den)
        step = den * term.den
        assert work.den == (before if before % step == 0
                            else math.lcm(before, step))
        want = form_sum(want, form_scaled(fraction_form(term), F(num, den)))
    got = wdvv._pruned(work)
    assert fraction_form(got) == want
    assert is_reduced(got)


# --- structural checks -----------------------------------------------------------


def test_divisor_check_on_planted_table():
    target, model = toy_target(), toy_model()
    divisor = structure_outcome("divisor", target, model,
                                planted_table(target, model))
    assert divisor.ok
    assert divisor.passed  # nontrivial coverage


def test_divisor_check_with_pairing_three():
    target = toy_target()
    model = CohomologyModel(
        degrees=(0, 2, 4, 6),
        pairing=[[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        deg2_pairings={2: (3,)},
    )
    table = OpenInvariantTable(target, model, [
        ((1,), (3,), F(5)), ((1,), (2, 3), F(15)),  # 3 * 5
    ])
    divisor = structure_outcome("divisor", target, model, table)
    assert divisor.ok and len(divisor.passed) == 1


def test_divisor_check_catches_violation():
    target, model = toy_target(), toy_model()
    table = planted_table(target, model)
    table.set((1,), (2,), F(999))
    divisor = structure_outcome("divisor", target, model, table)
    assert not divisor.ok


def test_sphere_trade_check():
    target = toy_target()
    model = toy_model(sphere_index=3)
    table = OpenInvariantTable(target, model, [
        ((1,), (), F(2)), ((1,), (3,), F(-2)),
        ((2,), (4,), F(5)), ((2,), (3, 4), F(-5)),
    ])
    sphere = structure_outcome("sphere", target, model, table)
    assert sphere.ok and len(sphere.passed) == 2
    table.set((1,), (3,), F(2))
    sphere = structure_outcome("sphere", target, model, table)
    assert not sphere.ok


def test_mixed_check_with_closed_table():
    target = toy_target()
    model = toy_model(gamma0_pairing=F(2))
    # single-boundary-point entries: (d, (3,)) has count 1
    table = OpenInvariantTable(target, model, [((1,), (3,), F(3))])
    closed = ClosedGWTable()
    # q-preimages of d: none (q multiplies by 2), so the right side is 0
    mixed = structure_outcome("mixed", target, model, table, closed)
    assert not mixed.ok  # 2 * 3 != 0
    # (2d, (3, 4)) carries exactly one boundary point
    table = OpenInvariantTable(target, model, [((2,), (3, 4), F(3))])
    closed = ClosedGWTable([
        ((1,), (PD_Y_LABEL, GAMMA0_LABEL, 3, 4), F(6)),
    ])
    # q-preimage of 2d is L with orientation sign -1: rhs = -(-1)*6 = 6
    mixed = structure_outcome("mixed", target, model, table, closed)
    assert mixed.ok and len(mixed.passed) == 1


def test_vanishing_check():
    target = toy_target()
    model = toy_model(y_class_nonzero=True)
    good = OpenInvariantTable(target, model, [
        ((1,), (), F(0)),       # two boundary points: must vanish
        ((1,), (4,), F(7)),     # zero boundary points: unconstrained
    ])
    vanishing = structure_outcome("vanishing", target, model, good)
    assert vanishing.ok and len(vanishing.passed) == 1
    bad = OpenInvariantTable(target, model, [((1,), (), F(1))])
    vanishing = structure_outcome("vanishing", target, model, bad)
    assert not vanishing.ok


def test_vanishing_check_skipped_when_class_zero():
    target, model = toy_target(), toy_model()
    vanishing = structure_outcome("vanishing", target, model,
                                  planted_table(target, model))
    assert vanishing.ok and vanishing.untestable


# --- degree-zero extension ---------------------------------------------------------


def test_degree_zero_extension_values():
    target = toy_target()
    model = toy_model(lk_os_star={3: F(1, 2)})
    # nonzero ambient class kills everything
    dead = toy_model(y_class_nonzero=True)
    assert degree_zero_extension(target, dead, F(5), []) == 0
    # no corrections: the configuration-count term passes through
    assert degree_zero_extension(target, model, F(5), []) == 5
    # a single correction: sign(L) * (lk - lambda_3 * lk(dual cycle))
    got = degree_zero_extension(
        target, model, F(0), [((1,), F(3), (0, 0, F(2), 0))]
    )
    assert got == -1 * (F(3) - F(2) * F(1, 2))
    with pytest.raises(ModelError):
        degree_zero_extension(target, model, F(0), [((1,), F(3), (0, 0))])
