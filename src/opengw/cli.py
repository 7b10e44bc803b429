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
import contextlib
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import OpenGWError, fileio, selfcheck
from .bounding_chain import (
    SplittingKeys,
    branch_bijection_failures,
    build_chains,
    chain_tuples,
    constant_center_classes,
    direct_boundary,
    verify_welschinger_relation,
)
from .multidisk import (
    MAX_TREE_VERTICES,
    ConfigurationError,
    conjugation_cancellation_check,
    welschinger_count,
)
from .wdvv import (
    OpenInvariantTable,
    check_structure,
    solve_wdvv,
    wdvv1_residual,
    wdvv2_residual,
)

PIPELINES = ("enumerate", "welschinger", "bb-recursion", "wdvv-solve",
             "verify-all")
# the RunConfig inputs a pipeline cannot run without
PIPELINE_INPUTS = {
    "welschinger": ("atoms",),
    "bb-recursion": ("atoms",),
    "wdvv-solve": ("closed_gw", "seeds"),
}
# --cap-trees: the most atoms in a configuration whose spanning trees
# verify-all enumerates; a larger configuration is refused before any
# work.  It goes up to the largest tree table the decode holds.  The
# tree-count self-check covers every table up to the default, or up to
# the largest configuration when that is larger
DEFAULT_CAP_TREES = 7
MAX_CAP_TREES = MAX_TREE_VERTICES
# --cap-insertions: the most interior insertions of a bracket or a
# relation instance the open WDVV solver lists.  An anchored family of
# l insertions has 2^(l-1) partitions, so the run time grows about 4x
# per step of 2
DEFAULT_CAP_INSERTIONS = 3
MAX_CAP_INSERTIONS = 12
# the pipelines that read --area-bound, and the most effective degrees
# it may admit: they list every degree within it, so a bound over the
# limit is refused before any work.  The toy has 101 at area 100
AREA_PIPELINES = ("enumerate", "wdvv-solve", "verify-all")
MAX_AREA_DEGREES = 10_000


@dataclass
class RunConfig:
    pipeline: str
    target: str
    atoms: str = None
    closed_gw: str = None
    seeds: str = None
    area_bound: Fraction = Fraction(2)
    cap_trees: int = DEFAULT_CAP_TREES
    cap_insertions: int = DEFAULT_CAP_INSERTIONS
    out: str = "out"
    seed: int = 0

    def validate(self):
        if self.pipeline not in PIPELINES:
            raise ValueError("unknown pipeline %r" % (self.pipeline,))
        if self.area_bound <= 0:
            raise ValueError("--area-bound must be positive, got %s"
                             % self.area_bound)
        for option, cap, limit, kind in (
                ("--cap-trees", self.cap_trees, MAX_CAP_TREES, "tree"),
                ("--cap-insertions", self.cap_insertions, MAX_CAP_INSERTIONS,
                 "insertion")):
            if cap < 1:
                raise ValueError("%s must be at least 1, got %d"
                                 % (option, cap))
            if cap > limit:
                raise ValueError("%s %d exceeds the largest %s cap, %d"
                                 % (option, cap, kind, limit))


class ArtifactError(OpenGWError):
    """An artifact could not be written."""


class AreaBoundError(OpenGWError, ValueError):
    """--area-bound admits more effective degrees than a run may list."""


def _check_area_bound(target, config):
    """Refuse a bound that admits over MAX_AREA_DEGREES effective
    degrees, counting them without listing them."""
    if config.pipeline not in AREA_PIPELINES:
        return
    if target.count_effective_degrees(config.area_bound,
                                      MAX_AREA_DEGREES) > MAX_AREA_DEGREES:
        raise AreaBoundError(
            "--area-bound admits more than %d effective degrees, the limit"
            % MAX_AREA_DEGREES)


@contextlib.contextmanager
def _writing_artifacts():
    try:
        yield
    except OSError as exc:
        raise ArtifactError("cannot write the artifacts: %s" % exc) from exc


class Reporter:
    """Collects check results and writes the tables of a run.

    Each table is written when it is handed over, under a temporary name
    in the output directory, so a large one streams row by row; `flush`
    moves them all into place and writes the check summary and report.
    A run that fails calls `discard`, which removes the tables not yet
    moved, so no artifact that looks complete is left behind.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.checks = []
        self.written = {}  # table name -> temporary path

    def check(self, name, status, detail=""):
        self.checks.append({"check": name, "status": status, "detail": detail})

    def table(self, name, header, rows):
        """Write a table now, consuming the row iterable as it goes."""
        path = os.path.join(self.out_dir, ".%s.tsv.partial" % name)
        with _writing_artifacts():
            os.makedirs(self.out_dir, exist_ok=True)
            self.written[name] = path
            with open(path, "w") as fh:
                fh.write("\t".join(header) + "\n")
                for row in rows:
                    fh.write("\t".join(map(str, row)) + "\n")

    def discard(self):
        """Remove the tables that `flush` has not moved."""
        for path in self.written.values():
            with contextlib.suppress(OSError):
                os.remove(path)
        self.written.clear()

    @property
    def failed(self):
        return [c for c in self.checks if c["status"] == "FAIL"]

    def flush(self, config):
        with _writing_artifacts():
            os.makedirs(self.out_dir, exist_ok=True)
            for name, path in sorted(self.written.items()):
                os.replace(path, os.path.join(self.out_dir, name + ".tsv"))
            self.written.clear()
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


def _tally(rep, name, bad, checked, summary, failure="mismatch at"):
    """FAIL naming the first bad tuple; else PASS with the summary, or
    SKIP with it when `checked`, the count the summary opens with, is 0:
    a check that compared nothing does not pass."""
    if bad:
        rep.check(name, "FAIL", "%s %s" % (failure, bad[0].label()))
    else:
        rep.check(name, "PASS" if checked else "SKIP", summary)


def run_tuples(bundle, atom_bundle, config, rep):
    """Tabulate the tuples with their class counts and audit the target;
    returns {tuple: (classes, raw splittings)}."""
    target = bundle.target
    tuples = atom_bundle.tuples if atom_bundle else []
    counts = {alpha: target.class_counts(alpha) for alpha in tuples}
    rep.table("tuples",
              ("tuple", "dim", "predecessors", "classes", "raw",
               "closed_image"),
              [(alpha.label(), target.dimension(alpha),
                len(target.predecessors(alpha)), *counts[alpha],
                "yes" if target.in_closed_image(alpha.beta) else "no")
               for alpha in tuples])
    violations = target.positivity_violations(config.area_bound)
    rep.check(
        "positivity-audit", "PASS" if not violations else "FAIL",
        "%d violating classes within area %s"
        % (len(violations), config.area_bound),
    )
    odd = target.odd_maslov_generators()
    rep.check("index-parity-audit", "PASS" if not odd else "FAIL",
              ("odd generators: " + ",".join(odd)) if odd else "all even")
    return counts


def run_class_listing(bundle, atom_bundle, counts, rep):
    """Write every degeneration class of the tuples as it is generated,
    and check each tuple's tally of classes and raw splittings against
    its counts."""
    target = bundle.target
    tuples = atom_bundle.tuples if atom_bundle else []
    tallies = []

    def class_rows():
        # rows in the listing's final order, each made as it is written
        for alpha in tuples:
            top = alpha.label()
            # every part is one of these objects: label each once, keyed
            # by identity so that no row hashes a tuple
            preds = target.predecessors(alpha)
            label = {id(p): p.label() for p in preds}
            beta = descs = None
            classes = raw = 0
            for eta, count in target.iter_degeneration_classes(alpha):
                # the classes of one center arrive together
                if (eta.center_degree is not beta
                        or eta.center_descriptors is not descs):
                    beta, descs = eta.center_degree, eta.center_descriptors
                    head = "%s\t%s\t%s" % (
                        top, ",".join(map(str, beta.coords)),
                        ",".join(sorted(descs)) or "-")
                classes += 1
                raw += count
                yield (head,
                       "|".join([label[id(p)] for p in eta.parts]) or "-",
                       count)
            tallies.append((alpha, (classes, raw)))

    rep.table("degeneration_classes",
              ("tuple", "center", "center_descriptors", "parts", "size"),
              class_rows())
    _tally(rep, "class-count-identity",
           [alpha for alpha, tally in tallies if tally != counts[alpha]],
           len(tallies), "%d tuples, %d classes listed"
           % (len(tallies), sum(c for _, (c, _) in tallies)))


def run_enumerate(bundle, atom_bundle, config, rep):
    """The enumerate pipeline: the tuples table, then the class listing
    checked against its counts."""
    counts = run_tuples(bundle, atom_bundle, config, rep)
    run_class_listing(bundle, atom_bundle, counts, rep)


def run_welschinger(bundle, atom_bundle, config, rep):
    """Tabulate the configurations and counts of the chain tuples;
    returns {tuple: Welschinger count}."""
    target = bundle.target
    table = atom_bundle.table
    config_rows = []
    count_rows = []
    counts = {}
    for alpha in chain_tuples(target, atom_bundle.tuples):
        configs = table.multi_disks(alpha)
        weights = table.tree_weights(alpha)
        total = counts[alpha] = welschinger_count(alpha, configs, weights,
                                                  target)
        count_rows.append((alpha.label(), len(configs), total))
        for cfg, weight in zip(configs, weights):
            config_rows.append((
                alpha.label(),
                "|".join(a.loop for a in cfg.atoms),
                cfg.sgn(),
                weight,
            ))
    rep.table("welschinger", ("tuple", "configurations", "count"), count_rows)
    rep.table("configurations", ("tuple", "loops", "sign", "tree_weight"),
              config_rows)
    return counts


def run_bb_recursion(bundle, atom_bundle, config, rep):
    """Build and tabulate the run's one chain family, whose chains carry
    the invariants; returns it."""
    target = bundle.target
    chains = build_chains(atom_bundle.tuples, atom_bundle.table, target)
    chain_rows = [
        (alpha.label(), loop, coeff)
        for alpha, chain in chains.items() for loop, coeff in chain.boundary
    ]
    invariant_rows = []
    for top in atom_bundle.tuples:
        if target.dimension(top) != 0:
            continue
        chain = chains[top]
        invariant_rows.append((top.label(), "weighted", "-", chain.weighted))
        invariant_rows.extend(
            (dropped.label(), "degree", p, degree)
            for p, (dropped, degree) in chain.point_drop_degrees().items()
        )
    rep.table("chains", ("tuple", "loop", "coefficient"), chain_rows)
    rep.table("invariants", ("tuple", "kind", "point", "value"),
              invariant_rows)
    return chains


def _bracket_label(coords, ins):
    return ",".join(str(c) for c in coords), ",".join(str(i) for i in ins) or "-"


def run_wdvv_solve(bundle, closed, seeds, config, rep):
    """Solve, audit and tabulate; returns the SolveResult.  The seeds
    loader has already refused a target without a cohomology model."""
    target, model = bundle.target, bundle.model
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
    rep.table("wdvv_assumed_zero", ("degree", "insertions"),
              [_bracket_label(c, i) for c, i in result.assumed_zero])
    if result.unsolved:
        status, detail = "FAIL", (
            "undetermined brackets (missing base data): "
            + "; ".join("%s %s" % (c, list(i)) for c, i in result.unsolved)
        )
    elif not result.consistent:
        bad = next((i, v) for i, v in result.residuals if v)
        status, detail = "FAIL", "nonzero residual at %s: %s" % bad
    else:
        status, detail = "PASS", (
            "%d solved, %d residual instances all zero"
            % (len(result.solved), len(result.residuals))
        )
    if result.assumed_zero:
        detail += ". Assumed zero, neither seeded nor solved for: " + "; ".join(
            "%s %s" % (c, list(i)) for c, i in result.assumed_zero
        )
    rep.check("wdvv-solve", status, detail)
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
    largest = 0
    if atom_bundle is not None:
        # refuse trees over the cap before any work: the bijection check
        # lists the trees of the chain tuples' configurations
        largest = atom_bundle.table.largest_configuration(
            chain_tuples(target, atom_bundle.tuples))
        if largest > config.cap_trees:
            raise ConfigurationError(
                "tree enumeration capped at %d vertices (asked for %d)"
                % (config.cap_trees, largest))
    rng = random.Random(config.seed)
    ok, detail = selfcheck.orientation_suite(rng)
    rep.check("orientation-model-oracle", "PASS" if ok else "FAIL", detail)
    ok, detail = selfcheck.matrix_tree_suite(rng)
    rep.check("matrix-tree-agreement", "PASS" if ok else "FAIL", detail)
    ok, detail = selfcheck.tree_count_suite(max(DEFAULT_CAP_TREES, largest))
    rep.check("tree-count-closed-form", "PASS" if ok else "FAIL", detail)
    run_tuples(bundle, atom_bundle, config, rep)
    if atom_bundle is not None:
        table = atom_bundle.table
        counts = run_welschinger(bundle, atom_bundle, config, rep)
        chains = run_bb_recursion(bundle, atom_bundle, config, rep)
        # the stored boundary is the recursion side of the identity
        bad = [alpha for alpha, chain in chains.items()
               if dict(chain.boundary) != direct_boundary(alpha, table, target)]
        _tally(rep, "boundary-recursion-identity", bad, len(chains),
               "%d tuples compared" % len(chains))
        relation_bad = []
        relation_checked = 0
        for alpha, chain in chains.items():
            for _point, degree in chain.degrees:
                relation_checked += 1
                if not verify_welschinger_relation(alpha, degree,
                                                   counts[alpha]):
                    relation_bad.append(alpha)
        _tally(rep, "welschinger-sign-relation", relation_bad,
               relation_checked, "%d (tuple, point) pairs" % relation_checked)
        weighted_bad = []
        weighted_checked = 0
        for top in atom_bundle.tuples:
            if target.dimension(top) != 0 or not top.points:
                continue
            if constant_center_classes(top, chains, table, target):
                rep.check(
                    "weighted-degree-comparison", "SKIP",
                    "live zero-center splitting at " + top.label(),
                )
                break
            chain = chains[top]
            degrees = {degree for _point, degree in chain.degrees}
            if len(degrees) != 1:
                rep.check(
                    "weighted-degree-comparison", "SKIP",
                    "point dependence at " + top.label(),
                )
                break
            weighted_checked += 1
            if degrees != {chain.weighted}:
                weighted_bad.append(top)
        else:
            _tally(rep, "weighted-degree-comparison", weighted_bad,
                   weighted_checked, "%d tuples compared" % weighted_checked)
        keys = SplittingKeys(table, chains)
        bijection = {alpha: branch_bijection_failures(alpha, keys)
                     for alpha in chains}
        decorated = sum(count for _, count in bijection.values())
        _tally(rep, "branch-bijection",
               [alpha for alpha, (failed, _) in bijection.items() if failed],
               decorated, "%d decorated configurations" % decorated)
        if atom_bundle.involution is not None:
            # an orbit is every top with the same point and descriptor
            # labels: the involution moves degrees, never labels
            orbits = {}
            for top in atom_bundle.tuples:
                orbits.setdefault((top.points, top.descriptors),
                                  []).append(top)
            cancel_bad = [
                orbit[0] for orbit in orbits.values()
                if not conjugation_cancellation_check(
                    orbit, table, atom_bundle.involution).cancels]
            _tally(rep, "conjugation-cancellation", cancel_bad, len(orbits),
                   "%d orbits" % len(orbits), "nonzero at")
        else:
            rep.check("conjugation-cancellation", "SKIP",
                      "no involution declared")
    if closed is not None and seeds is not None:
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
            for inst, _ in result.residuals:
                fn = wdvv1_residual if inst.relation == 1 else wdvv2_residual
                if fn(target, bundle.model, closed, perturbed,
                      target.degree(inst.beta_coords), inst.gamma) != 0:
                    nonzero = True
                    break
            rep.check(
                "wdvv-negative-control", "PASS" if nonzero else "FAIL",
                "perturbing %s %s" % (key[0], list(key[1])),
            )
    else:
        rep.check("wdvv-solve", "SKIP", "no closed table or seeds supplied")


def run(config):
    """Run one pipeline; returns the process exit status."""
    config.validate()
    rep = Reporter(config.out)
    try:
        return _run_pipeline(config, rep)
    except OpenGWError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        rep.discard()


def _run_pipeline(config, rep):
    """Load the inputs, run the pipeline and write its artifacts."""
    bundle = fileio.load_target(config.target)
    atom_bundle = (
        fileio.load_atoms(config.atoms, bundle.target)
        if config.atoms else None
    )
    closed = (fileio.load_closed(config.closed_gw, bundle.target)
              if config.closed_gw else None)
    seeds = (
        fileio.load_seeds(config.seeds, bundle.target, bundle.model)
        if config.seeds else None
    )
    needs = PIPELINE_INPUTS.get(config.pipeline, ())
    if not all(getattr(config, name) for name in needs):
        print("error: pipeline needs " + " and ".join(
            "--" + name.replace("_", "-") for name in needs
        ), file=sys.stderr)
        return 2
    _check_area_bound(bundle.target, config)
    if config.pipeline == "enumerate":
        run_enumerate(bundle, atom_bundle, config, rep)
    elif config.pipeline == "welschinger":
        run_welschinger(bundle, atom_bundle, config, rep)
    elif config.pipeline == "bb-recursion":
        run_bb_recursion(bundle, atom_bundle, config, rep)
    elif config.pipeline == "wdvv-solve":
        run_wdvv_solve(bundle, closed, seeds, config, rep)
    else:
        run_verify_all(bundle, atom_bundle, closed, seeds, config, rep)
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
    parser.add_argument("--cap-trees", dest="cap_trees", type=int,
                        default=DEFAULT_CAP_TREES,
                        help="largest configuration verify-all enumerates "
                             "spanning trees on")
    parser.add_argument("--cap-insertions", dest="cap_insertions", type=int,
                        default=DEFAULT_CAP_INSERTIONS,
                        help="insertion count cap for the solver")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized property suites")
    return parser


def _area_bound(text):
    """The --area-bound text as a Fraction; a parse error names the
    option."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("--area-bound %r is not a rational number"
                         % (text,)) from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            pipeline=args.pipeline,
            target=args.target,
            atoms=args.atoms,
            closed_gw=args.closed_gw,
            seeds=args.seeds,
            area_bound=_area_bound(args.area_bound),
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
