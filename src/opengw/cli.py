"""Batch front-end: load declarations, run a pipeline, emit tables and a
report.

Pipelines: enumerate (tuples, splittings), welschinger (configuration
counts), bb-recursion (chain boundaries and invariants), wdvv-solve
(recursion solver plus residual audit), verify-all (every applicable
check).  All emitted values are exact-rational strings; identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import OpenGWError, fileio, selfcheck
from .bounding_chain import (
    assemble_boundary,
    build_chains,
    constant_center_classes,
    branch_decompositions,
    decorated_multidisks,
    direct_boundary,
    from_branches,
    invariant_via_degree,
    invariant_via_weights,
    to_branches,
    verify_welschinger_relation,
)
from .lattice import ConstraintTuple
from .multidisk import conjugation_cancellation_check, tree_weight_sum, \
    welschinger_count
from .wdvv import (
    OpenInvariantTable,
    check_structure,
    relation_instances,
    solve_wdvv,
    wdvv1_residual,
    wdvv2_residual,
)

PIPELINES = ("enumerate", "welschinger", "bb-recursion", "wdvv-solve",
             "verify-all")


@dataclass
class RunConfig:
    pipeline: str
    target: str
    atoms: str = None
    closed_gw: str = None
    seeds: str = None
    area_bound: Fraction = Fraction(2)
    cap_trees: int = 7
    cap_insertions: int = 3
    out: str = "out"
    seed: int = 0

    def validate(self):
        if self.pipeline not in PIPELINES:
            raise ValueError("unknown pipeline %r" % (self.pipeline,))
        if self.area_bound <= 0:
            raise ValueError("area bound must be positive")
        if self.cap_trees < 1 or self.cap_insertions < 1:
            raise ValueError("caps must be at least 1")


def _tuple_label(alpha):
    return "%s;%s;%s" % (
        ",".join(str(c) for c in alpha.beta.coords),
        ",".join(sorted(alpha.points)) or "-",
        ",".join(sorted(alpha.descriptors)) or "-",
    )


class Reporter:
    """Collects check results and table rows; writes everything at the
    end so two identical runs emit identical bytes."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.checks = []
        self.tables = {}

    def check(self, name, status, detail=""):
        self.checks.append({"check": name, "status": status, "detail": detail})

    def table(self, name, header, rows):
        self.tables[name] = (header, rows)

    @property
    def failed(self):
        return [c for c in self.checks if c["status"] == "FAIL"]

    def flush(self, config):
        os.makedirs(self.out_dir, exist_ok=True)
        for name, (header, rows) in sorted(self.tables.items()):
            path = os.path.join(self.out_dir, name + ".tsv")
            with open(path, "w") as fh:
                fh.write("\t".join(header) + "\n")
                for row in rows:
                    fh.write("\t".join(str(x) for x in row) + "\n")
        summary = {
            "pipeline": config.pipeline,
            "seed": config.seed,
            "area_bound": str(config.area_bound),
            "checks": self.checks,
            "ok": not self.failed,
        }
        with open(os.path.join(self.out_dir, "checks.json"), "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        lines = ["pipeline: %s" % config.pipeline,
                 "seed: %d" % config.seed, ""]
        for c in self.checks:
            lines.append("[%s] %s%s" % (
                c["status"], c["check"],
                (" -- " + c["detail"]) if c["detail"] else "",
            ))
        lines.append("")
        lines.append("result: %s" % ("ok" if not self.failed else "FAILED"))
        with open(os.path.join(self.out_dir, "report.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")


# --- pipeline pieces ----------------------------------------------------------


def _dim0_worklist(target, tuples):
    """Tuples of interest plus their dimension-0 predecessors."""
    seen = {}
    for top in tuples:
        for alpha in target.predecessors(top) + [top]:
            if target.dimension(alpha) == 0 and not alpha.is_point_tuple():
                seen[alpha] = None
    return sorted(seen, key=ConstraintTuple.sort_key)


def run_enumerate(bundle, atom_bundle, config, rep):
    target = bundle.target
    tuples = atom_bundle.tuples if atom_bundle else []
    rows = []
    class_rows = []
    for alpha in tuples:
        classes = target.degeneration_classes(alpha)
        raw = sum(count for _, count in classes)
        rows.append((
            _tuple_label(alpha), target.dimension(alpha),
            len(target.predecessors(alpha)), len(classes), raw,
            "yes" if target.in_closed_image(alpha.beta) else "no",
        ))
        for eta, count in classes:
            class_rows.append((
                _tuple_label(alpha),
                ",".join(str(c) for c in eta.center_degree.coords),
                ",".join(sorted(eta.center_descriptors)) or "-",
                "|".join(_tuple_label(p) for p in eta.parts) or "-",
                count,
            ))
    rep.table("tuples",
              ("tuple", "dim", "predecessors", "classes", "raw",
               "closed_image"),
              rows)
    rep.table("degeneration_classes",
              ("tuple", "center", "center_descriptors", "parts", "size"),
              class_rows)
    violations = target.positivity_violations(config.area_bound)
    rep.check(
        "positivity-audit", "PASS" if not violations else "FAIL",
        "%d violating classes within area %s"
        % (len(violations), config.area_bound),
    )
    odd = target.odd_maslov_generators()
    rep.check("index-parity-audit", "PASS" if not odd else "FAIL",
              ("odd generators: " + ",".join(odd)) if odd else "all even")


def run_welschinger(bundle, atom_bundle, config, rep):
    target = bundle.target
    table = atom_bundle.table
    config_rows = []
    count_rows = []
    for alpha in _dim0_worklist(target, atom_bundle.tuples):
        configs = table.multi_disks(alpha)
        total = welschinger_count(alpha, configs, table.links, target)
        count_rows.append((_tuple_label(alpha), len(configs), total))
        for cfg in configs:
            config_rows.append((
                _tuple_label(alpha),
                "|".join(a.loop for a in cfg.atoms),
                cfg.sgn(),
                tree_weight_sum(cfg, table.links),
            ))
    rep.table("welschinger", ("tuple", "configurations", "count"), count_rows)
    rep.table("configurations", ("tuple", "loops", "sign", "tree_weight"),
              config_rows)


def run_bb_recursion(bundle, atom_bundle, config, rep):
    """Build, tabulate and evaluate the chains; returns the chain family
    of each top tuple, {top: chains}."""
    target = bundle.target
    table = atom_bundle.table
    chains_by_top = {}
    chain_rows = []
    invariant_rows = []
    for top in atom_bundle.tuples:
        chains = build_chains(top, table, target, include_self=True)
        chains_by_top[top] = chains
        for alpha in sorted(chains, key=ConstraintTuple.sort_key):
            chain = chains[alpha]
            if chain.is_point:
                continue
            for loop, coeff in chain.boundary:
                chain_rows.append((_tuple_label(alpha), loop, coeff))
        if target.dimension(top) == 0:
            weighted = invariant_via_weights(top, table, target, chains=chains)
            invariant_rows.append((_tuple_label(top), "weighted", "-", weighted))
            for p in sorted(top.points):
                dropped = ConstraintTuple(
                    top.beta, top.points - {p}, top.descriptors
                )
                value = invariant_via_degree(
                    dropped, table, target, point=p, chains=chains
                )
                invariant_rows.append(
                    (_tuple_label(dropped), "degree", p, value)
                )
    rep.table("chains", ("tuple", "loop", "coefficient"), chain_rows)
    rep.table("invariants", ("tuple", "kind", "point", "value"),
              invariant_rows)
    return chains_by_top


def _bracket_label(coords, ins):
    return ",".join(str(c) for c in coords), ",".join(str(i) for i in ins) or "-"


def run_wdvv_solve(bundle, closed, seeds, config, rep):
    """Solve, audit and tabulate; returns the SolveResult (None without a
    cohomology model)."""
    target, model = bundle.target, bundle.model
    if model is None:
        rep.check("wdvv-solve", "FAIL", "target declares no cohomology model")
        return None
    result = solve_wdvv(target, model, closed, seeds,
                        area_bound=config.area_bound,
                        max_insertions=config.cap_insertions)
    rows = [
        _bracket_label(coords, ins) + (value,)
        for (coords, ins), value in result.table.entries()
    ]
    rep.table("wdvv_table", ("degree", "insertions", "value"), rows)
    solved_rows = [
        _bracket_label(coords, ins) + (str(inst), value)
        for (coords, ins), inst, value in result.solved
    ]
    rep.table("wdvv_solved", ("degree", "insertions", "instance", "value"),
              solved_rows)
    res_rows = [
        (str(inst), "-" if value is None else value)
        for inst, value in result.residuals
    ]
    rep.table("wdvv_residuals", ("instance", "residual"), res_rows)
    if result.unsolved:
        rep.check(
            "wdvv-solve", "FAIL",
            "undetermined brackets (missing base data): "
            + "; ".join("%s %s" % (c, list(i)) for c, i in result.unsolved),
        )
    elif not result.consistent:
        bad = next((i, v) for i, v in result.residuals if v)
        rep.check("wdvv-solve", "FAIL",
                  "nonzero residual at %s: %s" % bad)
    else:
        rep.check("wdvv-solve", "PASS",
                  "%d solved, %d residual instances all zero"
                  % (len(result.solved), len(result.residuals)))
    structure = check_structure(target, model, result.table, closed)
    for outcome in structure:
        status = "PASS" if outcome.ok else "FAIL"
        if outcome.ok and not outcome.passed:
            status = "SKIP"
        rep.check(
            "structure-" + outcome.name, status,
            "%d checked, %d failed, %d untestable"
            % (len(outcome.passed), len(outcome.failed),
               len(outcome.untestable)),
        )
    return result


def run_verify_all(bundle, atom_bundle, closed, seeds, config, rep):
    target = bundle.target
    rng = random.Random(config.seed)
    ok, detail = selfcheck.orientation_suite(rng, instances=200)
    rep.check("orientation-model-oracle", "PASS" if ok else "FAIL", detail)
    ok, detail = selfcheck.matrix_tree_suite(
        rng, matrices=70, max_vertices=min(config.cap_trees, 6)
    )
    rep.check("matrix-tree-agreement", "PASS" if ok else "FAIL", detail)
    ok, detail = selfcheck.tree_count_suite(max_vertices=config.cap_trees)
    rep.check("tree-count-closed-form", "PASS" if ok else "FAIL", detail)
    run_enumerate(bundle, atom_bundle, config, rep)
    if atom_bundle is not None:
        table = atom_bundle.table
        run_welschinger(bundle, atom_bundle, config, rep)
        chains_by_top = run_bb_recursion(bundle, atom_bundle, config, rep)
        worklist = _dim0_worklist(target, atom_bundle.tuples)
        bad = []
        for top in atom_bundle.tuples:
            chains = chains_by_top[top]
            for alpha in _dim0_worklist(target, [top]):
                if assemble_boundary(alpha, chains, table, target) != \
                        direct_boundary(alpha, table, target):
                    bad.append(alpha)
        rep.check(
            "boundary-recursion-identity", "PASS" if not bad else "FAIL",
            "%d tuples compared" % len(worklist) if not bad
            else "mismatch at " + _tuple_label(bad[0]),
        )
        relation_bad = []
        relation_checked = 0
        for alpha in worklist:
            for p in sorted(alpha.points):
                report = verify_welschinger_relation(
                    alpha, table, target, point=p
                )
                relation_checked += 1
                if not report.holds:
                    relation_bad.append((alpha, p))
        rep.check(
            "welschinger-sign-relation",
            "PASS" if not relation_bad else "FAIL",
            "%d (tuple, point) pairs" % relation_checked if not relation_bad
            else "mismatch at " + _tuple_label(relation_bad[0][0]),
        )
        weighted_bad = []
        weighted_checked = 0
        for top in atom_bundle.tuples:
            if target.dimension(top) != 0 or not top.points:
                continue
            chains = chains_by_top[top]
            if constant_center_classes(top, chains, table, target):
                rep.check(
                    "weighted-degree-comparison", "SKIP",
                    "live zero-center splitting at " + _tuple_label(top),
                )
                break
            values = {}
            for p in sorted(top.points):
                dropped = ConstraintTuple(
                    top.beta, top.points - {p}, top.descriptors
                )
                values[p] = invariant_via_degree(
                    dropped, table, target, point=p, chains=chains
                )
            if len(set(values.values())) != 1:
                rep.check(
                    "weighted-degree-comparison", "SKIP",
                    "point dependence at " + _tuple_label(top),
                )
                break
            weighted_checked += 1
            if invariant_via_weights(top, table, target, chains=chains) != \
                    next(iter(values.values())):
                weighted_bad.append(top)
        else:
            rep.check(
                "weighted-degree-comparison",
                "PASS" if not weighted_bad else "FAIL",
                "%d tuples compared" % weighted_checked if not weighted_bad
                else "mismatch at " + _tuple_label(weighted_bad[0]),
            )
        bij_bad = []
        bij_count = 0
        for alpha in worklist:
            decorated = decorated_multidisks(
                alpha, table, tree_cap=config.cap_trees
            )
            images = [to_branches(d, target) for d in decorated]
            bij_count += len(decorated)
            if len(set(images)) != len(decorated):
                bij_bad.append(alpha)
                continue
            if set(images) != set(branch_decompositions(alpha, table, target)):
                bij_bad.append(alpha)
                continue
            if any(from_branches(b, target) != d
                   for d, b in zip(decorated, images)):
                bij_bad.append(alpha)
        rep.check(
            "branch-bijection", "PASS" if not bij_bad else "FAIL",
            "%d decorated configurations" % bij_count if not bij_bad
            else "mismatch at " + _tuple_label(bij_bad[0]),
        )
        if atom_bundle.involution is not None:
            cancel_bad = []
            for top in atom_bundle.tuples:
                report = conjugation_cancellation_check(
                    [top], table, atom_bundle.involution,
                    tree_cap=config.cap_trees,
                )
                if not report.cancels or \
                        report.full_total != report.single_disk_total:
                    cancel_bad.append(top)
            rep.check(
                "conjugation-cancellation",
                "PASS" if not cancel_bad else "FAIL",
                "%d orbits" % len(atom_bundle.tuples) if not cancel_bad
                else "nonzero at " + _tuple_label(cancel_bad[0]),
            )
        else:
            rep.check("conjugation-cancellation", "SKIP",
                      "no involution declared")
    if closed is not None and seeds is not None and bundle.model is not None:
        result = run_wdvv_solve(bundle, closed, seeds, config, rep)
        # negative control: a unit perturbation of a solved entry must
        # break at least one residual
        if result.consistent and result.solved:
            key = result.solved[0][0]
            perturbed = OpenInvariantTable(
                target, bundle.model,
                [(c, i, v) for (c, i), v in result.table.entries()],
            )
            perturbed.set(key[0], key[1],
                          perturbed.value(target.degree(key[0]), key[1]) + 1)
            nonzero = False
            for inst in relation_instances(
                target, bundle.model, config.area_bound, config.cap_insertions
            ):
                fn = wdvv1_residual if inst.relation == 1 else wdvv2_residual
                if fn(target, bundle.model, closed, perturbed,
                      target.degree(inst.beta_coords), inst.gamma) != 0:
                    nonzero = True
                    break
            rep.check(
                "wdvv-negative-control", "PASS" if nonzero else "FAIL",
                "perturbing %s %s" % (key[0], list(key[1])),
            )
    elif config.pipeline == "verify-all":
        rep.check("wdvv-solve", "SKIP", "no closed table or seeds supplied")


def run(config):
    """Run one pipeline; returns the process exit status."""
    config.validate()
    rep = Reporter(config.out)
    try:
        bundle = fileio.load_target(config.target)
        atom_bundle = (
            fileio.load_atoms(config.atoms, bundle.target)
            if config.atoms else None
        )
        closed = fileio.load_closed(config.closed_gw) if config.closed_gw else None
        seeds = (
            fileio.load_seeds(config.seeds, bundle.target, bundle.model)
            if config.seeds else None
        )
        if config.pipeline == "enumerate":
            run_enumerate(bundle, atom_bundle, config, rep)
        elif config.pipeline == "welschinger":
            if atom_bundle is None:
                print("error: pipeline needs --atoms", file=sys.stderr)
                return 2
            run_welschinger(bundle, atom_bundle, config, rep)
        elif config.pipeline == "bb-recursion":
            if atom_bundle is None:
                print("error: pipeline needs --atoms", file=sys.stderr)
                return 2
            run_bb_recursion(bundle, atom_bundle, config, rep)
        elif config.pipeline == "wdvv-solve":
            if closed is None or seeds is None:
                print("error: pipeline needs --closed-gw and --seeds",
                      file=sys.stderr)
                return 2
            run_wdvv_solve(bundle, closed, seeds, config, rep)
        else:
            run_verify_all(bundle, atom_bundle, closed, seeds, config, rep)
    except OpenGWError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    rep.flush(config)
    failed = rep.failed
    print("%s: %s (%d checks; artifacts in %s)" % (
        config.pipeline, "ok" if not failed else "FAILED", len(rep.checks),
        config.out,
    ))
    for c in failed:
        print("  failed: %s -- %s" % (c["check"], c["detail"]))
    return 0 if not failed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opengw",
        description="Exact disk-count engine over declared combinatorial targets",
    )
    parser.add_argument("--pipeline", required=True, choices=PIPELINES)
    parser.add_argument("--target", required=True,
                        help="target declaration file")
    parser.add_argument("--atoms", help="rigid-disk table file")
    parser.add_argument("--closed-gw", dest="closed_gw",
                        help="closed-invariant table file")
    parser.add_argument("--seeds", help="open-invariant seed file")
    parser.add_argument("--area-bound", dest="area_bound", default="2",
                        help="degree area bound for enumerations (rational)")
    parser.add_argument("--cap-trees", dest="cap_trees", type=int, default=7,
                        help="spanning-tree enumeration cap")
    parser.add_argument("--cap-insertions", dest="cap_insertions", type=int,
                        default=3, help="insertion count cap for the solver")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized property suites")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            pipeline=args.pipeline,
            target=args.target,
            atoms=args.atoms,
            closed_gw=args.closed_gw,
            seeds=args.seeds,
            area_bound=Fraction(args.area_bound),
            cap_trees=args.cap_trees,
            cap_insertions=args.cap_insertions,
            out=args.out,
            seed=args.seed,
        )
        config.validate()
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
