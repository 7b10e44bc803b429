"""Acceptance suite: every criterion at its stated scale.

Each test prints one pass/fail line (visible with -s or in the captured
output); every comparison is exact, and the two timed suites assert
their runtime budgets.
"""

import json
import os
import time
from fractions import Fraction

from opengw import fileio
from opengw.bounding_chain import (
    assemble_boundary,
    branch_decompositions,
    build_chains,
    constant_center_classes,
    decorated_multidisks,
    direct_boundary,
    from_branches,
    invariant_via_degree,
    invariant_via_weights,
    to_branches,
    verify_welschinger_relation,
)
from opengw.cli import RunConfig, run
from opengw.lattice import ConstraintTuple, Target
from opengw.multidisk import (
    DiskAtom,
    LinkingMatrix,
    MultiDisk,
    conjugation_cancellation_check,
    tree_weight_sum,
    tree_weight_sum_enumerated,
)
from opengw.orientation import (
    FACE_G,
    FACE_M,
    association_sign,
    boundary_face_sign,
    flip_sign,
)
from opengw.selfcheck import (
    association_oracle,
    boundary_face_oracle,
    flip_oracle,
)
from opengw.wdvv import (
    OpenInvariantTable,
    check_structure,
    relation_instances,
    solve_wdvv,
    wdvv1_residual,
    wdvv2_residual,
)

from support import dim0_subtuples, make_rng, synthetic_instance

DATA = os.path.join(os.path.dirname(fileio.__file__), "data")


def report(criterion, ok, detail):
    line = "criterion %-28s %s  (%s)" % (criterion, "PASS" if ok else "FAIL",
                                         detail)
    print(line)
    assert ok, line


def test_criterion_1_orientation_oracle():
    """>= 1000 random linear fiber problems, dims <= 6: the three
    closed-form sign rules agree with the determinant oracle."""
    rng = make_rng(2026)
    start = time.monotonic()
    checked = 0
    for _ in range(250):
        prob, observed = boundary_face_oracle(rng, FACE_M, max_dim=6)
        assert observed == boundary_face_sign(
            prob.space_m.dim, prob.space_g.dim, prob.space_x.dim, FACE_M
        )
        checked += 1
    for _ in range(250):
        prob, observed = boundary_face_oracle(rng, FACE_G, max_dim=6)
        assert observed == boundary_face_sign(
            prob.space_m.dim, prob.space_g.dim, prob.space_x.dim, FACE_G
        )
        checked += 1
    for _ in range(250):
        det_signs, observed = flip_oracle(rng, max_dim=4)
        assert observed == flip_sign(*det_signs)
        checked += 1
    for _ in range(250):
        dim_x, codim_h, observed = association_oracle(rng, max_dim=5)
        assert observed == association_sign(dim_x, codim_h)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30, "orientation oracle took %.1fs" % elapsed
    report("1-orientation-oracle", checked >= 1000,
           "%d instances in %.1fs" % (checked, elapsed))


def test_criterion_2_matrix_tree_agreement():
    """Tree-sum via the cofactor determinant equals explicit enumeration
    for all vertex counts up to 7, >= 200 random rational matrices."""
    target = Target([("g", 1, 2)])
    rng = make_rng(2027)
    start = time.monotonic()
    checked = 0
    for m in range(1, 8):
        for _ in range(30):
            loops = ["L%d" % i for i in range(m)]
            links = LinkingMatrix([
                (loops[i], loops[j],
                 Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for i in range(m) for j in range(i + 1, m)
            ])
            for ln in loops:
                links.declare_loop(ln)
            config = MultiDisk(tuple(
                DiskAtom(target.degree((1,)), frozenset(["p%d" % i]),
                         frozenset(), 1, loops[i])
                for i in range(m)
            ))
            assert tree_weight_sum(config, links) == \
                tree_weight_sum_enumerated(config, links)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, "matrix-tree took %.1fs" % elapsed
    report("2-matrix-tree", checked >= 200,
           "%d matrices (all m <= 7) in %.1fs" % (checked, elapsed))


ACCEPTANCE_SHAPES = (
    (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0),
    (1, 0, 1, 0), (1, 1, 1, 0), (2, 0, 0, 1), (1, 1, 0, 1), (2, 1, 0, 1),
)


def _instance(seed):
    rng = make_rng(seed)
    np_, nq, ns, nc = ACCEPTANCE_SHAPES[seed % len(ACCEPTANCE_SHAPES)]
    return synthetic_instance(rng, n_points=max(np_, 1), n_quartic=nq,
                              n_sextic=ns, n_conic=nc)


def test_criterion_3_branch_bijection():
    """Round-trip identity and cardinality match on >= 500 decorated
    configurations (at most 5 disks, nesting depth within 3)."""
    total = 0
    seed = 0
    while total < 500:
        target, table, top = _instance(31000 + seed)
        seed += 1
        for alpha in dim0_subtuples(target, table, top):
            decorated = decorated_multidisks(alpha, table)
            if not decorated:
                continue
            assert all(len(d.config) <= 5 for d in decorated)
            images = [to_branches(d, target) for d in decorated]
            assert len(set(images)) == len(decorated), alpha
            assert set(images) == set(
                branch_decompositions(alpha, table, target)
            ), alpha
            for d, b in zip(decorated, images):
                assert from_branches(b, target) == d
            total += len(decorated)
    report("3-branch-bijection", total >= 500,
           "%d decorated configurations, %d instances" % (total, seed))


def test_criterion_4_boundary_identity():
    """Recursion boundary equals the direct signed multi-disk boundary,
    as multisets, on >= 100 generated targets (<= 4 disks per
    configuration)."""
    instances = 0
    tuples_checked = 0
    for seed in range(100):
        target, table, top = _instance(41000 + seed)
        chains = build_chains(top, table, target, include_self=True)
        for alpha in dim0_subtuples(target, table, top):
            lhs = assemble_boundary(alpha, chains, table, target)
            rhs = direct_boundary(alpha, table, target)
            assert lhs == rhs, (seed, alpha)
            assert all(
                len(c) <= 4 for c in table.multi_disks(alpha)
            )
            tuples_checked += 1
        instances += 1
    report("4-boundary-identity", instances >= 100,
           "%d targets, %d dimension-0 tuples" % (instances, tuples_checked))


def test_criterion_5_sign_relation():
    """The chain-degree invariant carries the (-1)^|K| sign against the
    direct count on every generated instance."""
    pairs = 0
    for seed in range(100):
        target, table, top = _instance(51000 + seed)
        for p in sorted(top.points):
            result = verify_welschinger_relation(top, table, target, point=p)
            assert result.holds, (seed, p)
            pairs += 1
    report("5-sign-relation", pairs >= 100,
           "%d (instance, point) pairs" % pairs)


def test_criterion_6_conjugation_cancellation():
    """Exact zero multi-disk total on >= 100 involution-closed
    instances; the total equals the single-disk signed count."""
    from test_multidisk import involution_setup

    checked = 0
    for seed in range(100):
        rng = make_rng(61000 + seed)
        t, table, involution, tuples = involution_setup(
            rng, n_pairs=rng.choice((1, 2))
        )
        result = conjugation_cancellation_check(tuples, table, involution)
        assert result.multi_disk_total == 0, seed
        assert result.full_total == result.single_disk_total, seed
        checked += 1
    report("6-conjugation-cancellation", checked >= 100,
           "%d involution-closed instances" % checked)


def _toy_wdvv():
    bundle = fileio.load_target(os.path.join(DATA, "toy_target.json"))
    closed = fileio.load_closed(os.path.join(DATA, "toy_closed.json"))
    seeds = fileio.load_seeds(
        os.path.join(DATA, "toy_seeds.json"), bundle.target, bundle.model
    )
    return bundle, closed, seeds


def test_criterion_7_wdvv_fixed_point():
    """The solver reproduces the bundled planted table exactly; every
    relation instance has residual zero; a unit perturbation of one
    planted entry produces a nonzero residual."""
    bundle, closed, seeds = _toy_wdvv()
    target, model = bundle.target, bundle.model
    result = solve_wdvv(target, model, closed, seeds, area_bound=2,
                        max_insertions=3)
    assert result.unsolved == []
    assert result.consistent
    assert all(value == 0 for _, value in result.residuals)
    reference = dict(result.table.entries())
    again = solve_wdvv(target, model, closed, seeds, area_bound=2,
                       max_insertions=3)
    assert dict(again.table.entries()) == reference
    # negative control
    perturbed = OpenInvariantTable(
        target, model, [(c, i, v) for (c, i), v in reference.items()]
    )
    key = result.solved[0][0]
    perturbed.set(key[0], key[1], reference[key] + 1)
    nonzero = 0
    for inst in relation_instances(target, model, 2, 3):
        fn = wdvv1_residual if inst.relation == 1 else wdvv2_residual
        if fn(target, model, closed, perturbed,
              target.degree(inst.beta_coords), inst.gamma) != 0:
            nonzero += 1
    assert nonzero > 0
    report("7-wdvv-fixed-point", True,
           "%d recovered entries, %d residuals zero, control trips %d"
           % (len(result.solved), len(result.residuals), nonzero))


def test_criterion_8_structure_checks():
    """Divisor, sphere-trade and vanishing checks pass on tables planted
    to satisfy them; a deliberately violating table fails vanishing."""
    bundle, closed, seeds = _toy_wdvv()
    target, model = bundle.target, bundle.model
    table = solve_wdvv(target, model, closed, seeds, area_bound=2,
                       max_insertions=3).table
    (divisor,) = check_structure(target, model, table, checks=("divisor",))
    assert divisor.ok and divisor.passed
    from opengw.wdvv import CohomologyModel

    sphere_model = CohomologyModel(
        degrees=(0, 2, 4, 6),
        pairing=[[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        sphere_index=3,
    )
    planted = OpenInvariantTable(target, sphere_model, [
        ((1,), (), Fraction(3)), ((1,), (3,), Fraction(-3)),
        ((2,), (4,), Fraction(2)), ((2,), (3, 4), Fraction(-2)),
    ])
    (sphere,) = check_structure(target, sphere_model, planted,
                                checks=("sphere",))
    assert sphere.ok and len(sphere.passed) == 2
    vanishing_model = CohomologyModel(
        degrees=(0, 2, 4, 6),
        pairing=[[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        y_class_nonzero=True,
    )
    good = OpenInvariantTable(target, vanishing_model, [
        ((1,), (), Fraction(0)), ((1,), (4,), Fraction(5)),
    ])
    (vanishing,) = check_structure(target, vanishing_model, good,
                                   checks=("vanishing",))
    assert vanishing.ok and vanishing.passed
    # negative control: a nonzero two-point bracket must be flagged
    bad = OpenInvariantTable(target, vanishing_model, [
        ((1,), (), Fraction(1)),
    ])
    (broken,) = check_structure(target, vanishing_model, bad,
                                checks=("vanishing",))
    assert not broken.ok
    report("8-structure-checks", True,
           "divisor %d, sphere %d, vanishing %d entries; control trips"
           % (len(divisor.passed), len(sphere.passed), len(vanishing.passed)))


def test_criterion_9_weighted_conventions():
    """Weighted definition equals the degree definition with one fewer
    point wherever point independence holds and no splitting falls in
    the zero-center blind spot; dropping the -1/2 from the weight breaks
    the equality."""
    compared = 0
    skipped = 0
    for seed in range(60):
        target, table, top = _instance(91000 + seed)
        chains = build_chains(top, table, target, include_self=True)
        if constant_center_classes(top, chains, table, target):
            skipped += 1
            continue
        values = {}
        for p in sorted(top.points):
            dropped = ConstraintTuple(
                top.beta, top.points - {p}, top.descriptors
            )
            values[p] = invariant_via_degree(
                dropped, table, target, point=p, chains=chains
            )
        if len(set(values.values())) != 1:
            skipped += 1
            continue
        weighted = invariant_via_weights(top, table, target, chains=chains)
        assert weighted == next(iter(values.values())), seed
        compared += 1
    assert compared >= 30

    def wrong_rule(k):
        return Fraction(1) if k == 0 else Fraction(1, k)

    broken = 0
    for seed in range(20):
        target, table, top = _instance(92000 + seed)
        chains = build_chains(top, table, target, include_self=True)
        if constant_center_classes(top, chains, table, target):
            continue
        p = min(top.points)
        dropped = ConstraintTuple(top.beta, top.points - {p}, top.descriptors)
        degree = invariant_via_degree(dropped, table, target, point=p,
                                      chains=chains)
        if invariant_via_weights(top, table, target, chains=chains,
                                 weight_rule=wrong_rule) != degree:
            broken += 1
    assert broken > 0
    # companion convention control: clamped binomials break residuals
    bundle, closed, seeds = _toy_wdvv()
    table = solve_wdvv(bundle.target, bundle.model, closed, seeds, 2, 3).table
    clamped_broken = sum(
        1 for inst in relation_instances(bundle.target, bundle.model, 2, 3)
        if (wdvv1_residual if inst.relation == 1 else wdvv2_residual)(
            bundle.target, bundle.model, closed, table,
            bundle.target.degree(inst.beta_coords), inst.gamma,
            binomial_convention=False,
        ) != 0
    )
    assert clamped_broken > 0
    report("9-weighted-conventions", True,
           "%d compared, %d gated out; weight control trips %d, "
           "binomial control trips %d"
           % (compared, skipped, broken, clamped_broken))


def test_criterion_10_determinism(tmp_path):
    """Two verify-all runs with the same seed emit identical bytes."""
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        status = run(RunConfig(
            pipeline="verify-all",
            target=os.path.join(DATA, "toy_target.json"),
            atoms=os.path.join(DATA, "toy_atoms.json"),
            closed_gw=os.path.join(DATA, "toy_closed.json"),
            seeds=os.path.join(DATA, "toy_seeds.json"),
            out=str(out),
            seed=11,
        ))
        assert status == 0
        outputs.append({
            p.name: p.read_bytes() for p in out.iterdir()
        })
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0]["checks.json"].decode())
    assert summary["ok"]
    report("10-determinism", True,
           "%d artifacts byte-identical across runs" % len(outputs[0]))
