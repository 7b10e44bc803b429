"""The benchmark's workloads: inputs made from the workload seed, the
operations one pass runs, and the checks each operation's outputs pass.

- verify-toy: `opengw --pipeline verify-all` on the bundled toy data, once
  per CLI `--seed` in a list drawn from the workload seed.
- verify-synth: `verify-all` on a synthetic target and atoms file drawn
  from the workload seed: four points and a quartic, degree 5 (no closed
  table or seeds, so WDVV is skipped).
- wdvv-toy: the wdvv-solve path (solver with its residual audit, then
  `check_structure`) on the bundled toy at a ladder of area bound and
  insertion cap.  The toy inputs are fixed, so the seed changes nothing
  the program sees here.

`prepare` runs in the benchmark's parent process and writes everything a
pass needs into a manifest; `load_inputs`, `run_op` and `check_op` run in
the fresh child process that times the pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

import synth

WORKLOADS = ("verify-toy", "verify-synth", "wdvv-toy")

DATA_DIR = os.path.join("src", "opengw", "data")
TOY = {
    "target": "toy_target.json",
    "atoms": "toy_atoms.json",
    "closed": "toy_closed.json",
    "seeds": "toy_seeds.json",
}

# full size, and the reduced size the benchmark's own tests run.  A full
# pass takes 5-10 s, so that at least four passes fit in one run.
VERIFY_TOY_SEEDS = {"full": 4, "smoke": 1}
# (points, quartics, sextics, conics) of each synthetic instance.  K=4,
# Q=1 spends about 70% of its self time in `lattice` and `bounding_chain`;
# smaller shapes, and any shape with K=2, are bound by the self-check
# oracles instead (perfbench/README.md).
SYNTH_SHAPES = {
    "full": ((4, 1, 0, 0),),
    "smoke": ((2, 1, 0, 0),),
}
WDVV_LADDER = {
    "full": ((2, 3), (4, 4), (6, 4), (8, 5)),
    "smoke": ((2, 3), (4, 4)),
}

# (check, status) that verify-all reports, in order, on these inputs
TOY_STATUSES = (
    ("orientation-model-oracle", "PASS"),
    ("matrix-tree-agreement", "PASS"),
    ("tree-count-closed-form", "PASS"),
    ("positivity-audit", "PASS"),
    ("index-parity-audit", "PASS"),
    ("boundary-recursion-identity", "PASS"),
    ("welschinger-sign-relation", "PASS"),
    ("weighted-degree-comparison", "PASS"),
    ("branch-bijection", "PASS"),
    ("conjugation-cancellation", "PASS"),
    ("wdvv-solve", "PASS"),
    ("structure-divisor", "PASS"),
    ("structure-sphere", "SKIP"),
    ("structure-mixed", "SKIP"),
    ("structure-vanishing", "SKIP"),
    ("wdvv-negative-control", "PASS"),
)
SYNTH_STATUSES = (
    ("orientation-model-oracle", "PASS"),
    ("matrix-tree-agreement", "PASS"),
    ("tree-count-closed-form", "PASS"),
    ("positivity-audit", "PASS"),
    ("index-parity-audit", "PASS"),
    ("boundary-recursion-identity", "PASS"),
    ("welschinger-sign-relation", "PASS"),
    ("weighted-degree-comparison", "SKIP"),
    ("branch-bijection", "PASS"),
    ("conjugation-cancellation", "SKIP"),
    ("wdvv-solve", "SKIP"),
)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _verify_op(name, files, out, cli_seed, statuses):
    argv = ["--pipeline", "verify-all", "--target", files["target"],
            "--atoms", files["atoms"]]
    if "closed" in files:
        argv += ["--closed-gw", files["closed"], "--seeds", files["seeds"]]
    argv += ["--out", out, "--seed", str(cli_seed)]
    return {"kind": "verify", "name": name, "argv": argv, "out": out,
            "statuses": [list(s) for s in statuses]}


def prepare(workload, seed, root, work, size="full"):
    """Write the workload's generated inputs under `work`, a path relative
    to the checkout `root`, and return the manifest a pass runs from.
    Paths in the manifest are relative to `root`."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    os.makedirs(os.path.join(root, work), exist_ok=True)
    toy = {k: os.path.join(DATA_DIR, v) for k, v in TOY.items()}
    out_root = os.path.join(work, "out")
    ops = []
    input_sets = []
    if workload == "verify-toy":
        input_sets.append(toy)
        rng = random.Random(seed)
        for cli_seed in rng.sample(range(1_000_000), VERIFY_TOY_SEEDS[size]):
            ops.append(_verify_op(
                "seed-%d" % cli_seed, toy,
                os.path.join(out_root, "seed-%d" % cli_seed),
                cli_seed, TOY_STATUSES,
            ))
    elif workload == "verify-synth":
        rng = random.Random(seed)
        for shape in SYNTH_SHAPES[size]:
            name = "K%d-Q%d-S%d-C%d" % shape
            target, atoms = synth.synthetic_documents(rng, *shape)
            files = {"target": os.path.join(work, name + "-target.json"),
                     "atoms": os.path.join(work, name + "-atoms.json")}
            synth.write_document(os.path.join(root, files["target"]), target)
            synth.write_document(os.path.join(root, files["atoms"]), atoms)
            input_sets.append(files)
            ops.append(_verify_op(name, files, os.path.join(out_root, name),
                                  0, SYNTH_STATUSES))
    else:
        input_sets.append(toy)
        for area, cap in WDVV_LADDER[size]:
            ops.append({"kind": "wdvv", "name": "area%d-cap%d" % (area, cap),
                        "inputs": 0, "area_bound": area, "cap": cap})
    # generated files are named without the run's work directory, so that
    # the hashes of two runs compare key by key
    hashes = {}
    for files in input_sets:
        for path in files.values():
            key = (os.path.join("generated", os.path.relpath(path, work))
                   if path.startswith(work + os.sep) else path)
            hashes[key] = sha256_file(os.path.join(root, path))
    return {"workload": workload, "seed": seed, "size": size,
            "input_sets": input_sets, "ops": ops, "input_sha256": hashes}


# --- in the child process ----------------------------------------------------------


def load_inputs(manifest):
    """Parse every input set as the CLI would; returns one
    (target bundle, atom bundle, closed table, seed table) per set."""
    from opengw import fileio

    loaded = []
    for files in manifest["input_sets"]:
        bundle = fileio.load_target(files["target"])
        atoms = (fileio.load_atoms(files["atoms"], bundle.target)
                 if "atoms" in files else None)
        closed = fileio.load_closed(files["closed"]) if "closed" in files else None
        seeds = (fileio.load_seeds(files["seeds"], bundle.target, bundle.model)
                 if "seeds" in files else None)
        loaded.append((bundle, atoms, closed, seeds))
    return loaded


def run_op(op, loaded):
    """The timed part of one operation; returns what `check_op` needs."""
    from opengw import cli, wdvv

    if op["kind"] == "verify":
        return cli.main(op["argv"])
    bundle, _atoms, closed, seeds = loaded[op["inputs"]]
    result = wdvv.solve_wdvv(bundle.target, bundle.model, closed, seeds,
                             area_bound=Fraction(op["area_bound"]),
                             max_insertions=op["cap"])
    structure = wdvv.check_structure(bundle.target, bundle.model,
                                     result.table, closed)
    return result, structure


def _dir_digest(path):
    digest = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return digest.hexdigest(), size


def _check_verify(op, rc):
    problems = []
    if rc != 0:
        problems.append("exit status %r" % (rc,))
    try:
        with open(os.path.join(op["out"], "checks.json")) as fh:
            checks = json.load(fh)["checks"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + ["checks.json unreadable: %s" % exc], None, 0
    got = [[c["check"], c["status"]] for c in checks]
    if got != op["statuses"]:
        problems.append("check statuses %r, expected %r" % (got, op["statuses"]))
    digest, size = _dir_digest(op["out"])
    return problems, digest, size


def _wdvv_digest(result, structure):
    lines = ["table %s %s %s" % (c, list(i), v) for (c, i), v in
             result.table.entries()]
    lines += ["solved %s %s %r %s" % (k[0], list(k[1]), inst, v)
              for k, inst, v in result.solved]
    lines += ["unsolved %s %s" % (c, list(i)) for c, i in result.unsolved]
    lines += ["residual %r %s" % (inst, v) for inst, v in result.residuals]
    lines += ["nonlinear %r" % (inst,) for inst in result.nonlinear]
    lines += ["structure %s %d %d %d" % (o.name, len(o.passed), len(o.failed),
                                         len(o.untestable))
              for o in structure]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _check_wdvv(op, outcome, loaded):
    """Checks that hold with or without the known silent-zero defect:
    the solved and unsolved keys partition the unknowns, every solved
    bracket satisfies the instance that determined it exactly, and the
    smallest rung is fully consistent.  Unsolved lists and nonzero
    residuals at larger caps are not pinned."""
    from opengw import wdvv

    result, structure = outcome
    bundle, _atoms, closed, seeds = loaded[op["inputs"]]
    target, model = bundle.target, bundle.model
    problems = []
    unknowns = set(wdvv.unknown_keys(target, model, seeds,
                                     Fraction(op["area_bound"]), op["cap"]))
    solved = [key for key, _inst, _value in result.solved]
    if len(set(solved)) != len(solved):
        problems.append("a bracket was solved twice")
    if set(solved) & set(result.unsolved):
        problems.append("a bracket is both solved and unsolved")
    if set(solved) | set(result.unsolved) != unknowns:
        problems.append("solved and unsolved keys are not the unknowns")
    for (coords, ins), inst, value in result.solved:
        residual = (wdvv.wdvv1_residual if inst.relation == 1
                    else wdvv.wdvv2_residual)
        beta = target.degree(coords)
        if result.table.value(beta, ins) != value:
            problems.append("table disagrees with solved %s %s"
                            % (coords, list(ins)))
        if residual(target, model, closed, result.table,
                    target.degree(inst.beta_coords), inst.gamma) != 0:
            problems.append("nonzero residual of %r, which determined %s %s"
                            % (inst, coords, list(ins)))
    if (op["area_bound"], op["cap"]) == (2, 3):
        if result.unsolved or not result.consistent:
            problems.append("rung (2,3) is not fully consistent")
        if any(value != 0 for _inst, value in result.residuals):
            problems.append("rung (2,3) has a nonzero or open residual")
        if not all(o.ok for o in structure):
            problems.append("rung (2,3) fails a structure check")
    return problems, _wdvv_digest(result, structure), 0


def check_op(op, outcome, loaded):
    """(problems, artifact digest, artifact bytes) of one operation."""
    if op["kind"] == "verify":
        return _check_verify(op, outcome)
    return _check_wdvv(op, outcome, loaded)
