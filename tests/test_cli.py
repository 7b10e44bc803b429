"""File formats and the batch front-end."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opengw import fileio
from opengw.cli import RunConfig, build_parser, main, run

from support import (
    LISTING_SHAPES,
    direct_degeneration_classes,
    instance_documents,
    make_rng,
    synthetic_instance,
)

DATA = os.path.join(os.path.dirname(fileio.__file__), "data")


def toy_paths():
    return {
        "target": os.path.join(DATA, "toy_target.json"),
        "atoms": os.path.join(DATA, "toy_atoms.json"),
        "closed_gw": os.path.join(DATA, "toy_closed.json"),
        "seeds": os.path.join(DATA, "toy_seeds.json"),
    }


# --- file formats ------------------------------------------------------------


def test_load_target_bundle():
    bundle = fileio.load_target(toy_paths()["target"])
    assert bundle.target.rank == 1
    assert bundle.target.gen_maslov == (4,)
    assert bundle.model is not None
    assert bundle.model.size == 4
    assert bundle.model.lattice_pairing(2, bundle.target.degree((2,))) == 1


def test_load_atoms_bundle():
    bundle = fileio.load_target(toy_paths()["target"])
    atoms = fileio.load_atoms(toy_paths()["atoms"], bundle.target)
    assert len(atoms.table.atoms) == 18
    assert atoms.involution is not None
    assert len(atoms.tuples) == 1
    # linking data honors the orientation-reversal rules
    links = atoms.table.links
    assert links.lk("a1", "e1") == -links.lk("a1r", "e1")
    assert links.lk("a1r", "e1r") == links.lk("a1", "e1")


def test_load_seeds_evaluates_degree_zero_extension():
    bundle = fileio.load_target(toy_paths()["target"])
    seeds = fileio.load_seeds(
        toy_paths()["seeds"], bundle.target, bundle.model
    )
    # welschinger 0 plus (lk 3/2 minus 1 * lk of the dual cycle 1/2)
    assert seeds.value(bundle.target.degree((0,)), (2, 2)) == 1


def test_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "opengw-target",\n "version": 1,\n !')
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.load_target(str(bad))
    assert "bad.json:3" in str(err.value)


def test_format_and_version_checked(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"format": "opengw-atoms", "version": 1}))
    with pytest.raises(fileio.FileFormatError):
        fileio.load_target(str(doc))
    doc.write_text(json.dumps({"format": "opengw-target", "version": 99}))
    with pytest.raises(fileio.FileFormatError):
        fileio.load_target(str(doc))


# --- run configuration ----------------------------------------------------------


def test_config_validation():
    cfg = RunConfig(pipeline="verify-all", target="x", area_bound=Fraction(-1))
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = RunConfig(pipeline="nonsense", target="x")
    with pytest.raises(ValueError):
        cfg.validate()


def test_tree_cap_is_bounded(capsys):
    """The tree tables grow as m^(m-2): --cap-trees stops at 9 vertices
    (4.8 million trees) and names the cap when refused."""
    RunConfig(pipeline="verify-all", target="x", cap_trees=9).validate()
    with pytest.raises(ValueError, match="--cap-trees 10 exceeds the "
                                         "largest tree cap, 9"):
        RunConfig(pipeline="verify-all", target="x", cap_trees=10).validate()
    assert main(["--pipeline", "enumerate", "--target", "x",
                 "--cap-trees", "10"]) == 2
    assert "--cap-trees 10" in _assert_one_line_error(capsys)


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args([
        "--pipeline", "wdvv-solve", "--target", "t.json",
        "--closed-gw", "c.json", "--seeds", "s.json",
        "--area-bound", "3/2", "--cap-trees", "5", "--out", "d", "--seed", "9",
    ])
    assert args.pipeline == "wdvv-solve"
    assert args.closed_gw == "c.json"
    assert Fraction(args.area_bound) == Fraction(3, 2)


# --- pipelines -------------------------------------------------------------------


def run_pipeline(tmp_path, pipeline, seed=0, **overrides):
    paths = toy_paths()
    paths.update(overrides)
    cfg = RunConfig(
        pipeline=pipeline,
        target=paths["target"],
        atoms=paths.get("atoms"),
        closed_gw=paths.get("closed_gw"),
        seeds=paths.get("seeds"),
        out=str(tmp_path / "out"),
        seed=seed,
    )
    return run(cfg), cfg


TOY_VERIFY_ALL_SEED_3 = [
    ("orientation-model-oracle", "PASS", "200 instances, 0 failures"),
    ("matrix-tree-agreement", "PASS", "66 matrices, 0 failures"),
    ("tree-count-closed-form", "PASS", "all vertex counts up to 7"),
    ("positivity-audit", "PASS", "0 violating classes within area 2"),
    ("index-parity-audit", "PASS", "all even"),
    ("boundary-recursion-identity", "PASS", "7 tuples compared"),
    ("welschinger-sign-relation", "PASS", "8 (tuple, point) pairs"),
    ("weighted-degree-comparison", "PASS", "1 tuples compared"),
    ("branch-bijection", "PASS", "50 decorated configurations"),
    ("conjugation-cancellation", "PASS", "1 orbits"),
    ("wdvv-solve", "PASS", "13 solved, 18 residual instances all zero"),
    ("structure-divisor", "PASS", "31 checked, 0 failed, 2 untestable"),
    ("structure-sphere", "SKIP", "0 checked, 0 failed, 1 untestable"),
    ("structure-mixed", "SKIP", "0 checked, 0 failed, 1 untestable"),
    ("structure-vanishing", "SKIP", "0 checked, 0 failed, 1 untestable"),
    ("wdvv-negative-control", "PASS", "perturbing (1,) [3]"),
]


def test_verify_all_on_bundled_toy(tmp_path):
    """Every check of the toy run, in order, with its status and detail."""
    status, cfg = run_pipeline(tmp_path, "verify-all", seed=3)
    assert status == 0
    summary = json.loads((tmp_path / "out" / "checks.json").read_text())
    assert summary["ok"]
    assert [
        (c["check"], c["status"], c["detail"]) for c in summary["checks"]
    ] == TOY_VERIFY_ALL_SEED_3


# a wrong variant of each closed-form sign rule: the boundary-face rule
# and the reassociation rule flip their sign when a dimension is odd,
# and the flip rule forgets the target's diffeomorphism
WRONG_SIGN_RULES = {
    "boundary_face_sign": lambda rule: (
        lambda m, g, x, face: -rule(m, g, x, face) if m % 2
        else rule(m, g, x, face)),
    "flip_sign": lambda rule: lambda sm, sg, sx: rule(sm, sg, 1),
    "association_sign": lambda rule: (
        lambda x, c: -rule(x, c) if x % 2 else rule(x, c)),
}


@pytest.mark.parametrize("rule", list(WRONG_SIGN_RULES))
def test_orientation_oracle_catches_a_wrong_sign_rule(tmp_path, monkeypatch,
                                                      rule):
    """Negative control: with one closed-form rule wrong, the suite
    fails with a nonzero count, and the toy verify-all reports
    orientation-model-oracle FAIL and exits nonzero."""
    from opengw import selfcheck

    wrong = WRONG_SIGN_RULES[rule](getattr(selfcheck, rule))
    monkeypatch.setattr(selfcheck, rule, wrong)
    ok, detail = selfcheck.orientation_suite(make_rng(0), instances=200)
    instances, failures = (int(w) for w in detail.split()[::2])
    assert not ok and instances == 200 and failures > 0
    status, cfg = run_pipeline(tmp_path, "verify-all", seed=0)
    assert status == 1
    summary = json.loads((tmp_path / "out" / "checks.json").read_text())
    assert not summary["ok"]
    assert [c["check"] for c in summary["checks"]
            if c["status"] == "FAIL"] == ["orientation-model-oracle"]


# The SHA-256 of every table the toy pipelines write at --seed 0; a
# table's bytes do not depend on the pipeline that writes it.
TOY_TABLE_SHA256 = {
    "chains.tsv":
        "5f24d706c93f3e35569ce2d422c640095419039cfa95246aae6bb860bef97868",
    "configurations.tsv":
        "2609fdac697eaa33ab072506f0d3dc7fd06e382613a14bc5d98a5b9ec7a1d94b",
    "degeneration_classes.tsv":
        "3c8401e56cc7c8f48335671fa1ac6598bd8ef14020dcbee9995aa724b9bfd3de",
    "invariants.tsv":
        "fd168e9439a9a55ce0514f27246a075348168baf771d455d3e5123800500206c",
    "tuples.tsv":
        "1bcd2a753519d0888f30ea772e3eeee2a58a08a9502a631825ee192f808cf70d",
    "wdvv_assumed_zero.tsv":
        "d334cc91234b5e481d23e807fefc0144b81320da4cf939d84a39f0ee3f43a983",
    "wdvv_residuals.tsv":
        "d28cfd3728a6d0957881b9794fe331f66f4e0cd63d38abb02643caf30a9072c1",
    "wdvv_solved.tsv":
        "2da746fc33b3261cabbe83fed8fd27cbaef7d64ee592b137d3e426b6e3dc5441",
    "wdvv_table.tsv":
        "8badf2ad27b5cdd5897a10dbe0d0e33b3d36038ef0fe0dd9c3c240067012fac9",
    "welschinger.tsv":
        "cf2db27198708808d3f07333f26e6dc422a724fc017cb966a67f551cb28b0881",
}
# per pipeline: the SHA-256 of its checks.json and report.txt, and the
# tables it writes
TOY_RUN_SHA256 = {
    "enumerate": (
        "bcaf4f95f912675f3434a58fd6aad23f5a4022d4d73c2993b3899eeddfb75e3c",
        "f883c4dd38e4ce4981a27a156b76010c415f8050c23c4f5f50df3ee6130bb518",
        ("degeneration_classes.tsv", "tuples.tsv"),
    ),
    "welschinger": (
        "23b09264307d10d2ece2b6631492469cba2bce93a98f206a093ddeb57610ae0b",
        "0e9fd7afaa0b52dd03ae16b31609d561d314d76a7ee8b506a4a547f835f4ace8",
        ("configurations.tsv", "welschinger.tsv"),
    ),
    "bb-recursion": (
        "90a2b834bb005d3a6ae18e41aa4826abe8ff41fb09a7b516427c64f1837b3659",
        "6863c17bc6494736268adea2fc10e35ba69fc738a45ea8c5bacf414b29296947",
        ("chains.tsv", "invariants.tsv"),
    ),
    "wdvv-solve": (
        "ae806ea5c3d89e3b41779a74178ec04270f1c08a52570d139cc5aceb1e91b3a1",
        "5d3ad209d669db6b8f55db89979e32c2d898ae53f95fc77fa9590ae452265ebb",
        ("wdvv_assumed_zero.tsv", "wdvv_residuals.tsv", "wdvv_solved.tsv",
         "wdvv_table.tsv"),
    ),
    "verify-all": (
        "92a8e30d9b680102ec97477d5bcbef03541ff3be1cd58e564d0c54d83005e4b3",
        "2fd5b023cf43631fa2de71ab3020894ea42c19198fc2ae51b91d324c7788a405",
        # the class listing belongs to enumerate alone
        tuple(sorted(set(TOY_TABLE_SHA256) - {"degeneration_classes.tsv"})),
    ),
}


@pytest.mark.parametrize("pipeline", list(TOY_RUN_SHA256))
def test_toy_artifacts_are_pinned(tmp_path, pipeline):
    """Every artifact of each pipeline on the toy at --seed 0, byte for
    byte."""
    status, cfg = run_pipeline(tmp_path, pipeline, seed=0)
    assert status == 0
    checks, report, tables = TOY_RUN_SHA256[pipeline]
    expected = {"checks.json": checks, "report.txt": report}
    expected.update((name, TOY_TABLE_SHA256[name]) for name in tables)
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir()
    } == expected


def _count_calls(monkeypatch, names):
    """Count the calls of bounding_chain functions, under both the names
    `bounding_chain` and `cli` bind them to."""
    from opengw import bounding_chain, cli

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(bounding_chain, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounding_chain, name, counted)
        monkeypatch.setattr(cli, name, counted)
    return calls


def test_verify_all_builds_and_evaluates_once_per_run(tmp_path, monkeypatch):
    """verify-all builds one chain family per run and evaluates each
    weighted invariant once, each degree invariant once per (tuple,
    point) pair, each tuple's configuration listing once and each
    configuration's tree weight once; every table and check reuses
    them."""
    from collections import Counter

    from opengw import bounding_chain, multidisk
    from opengw.lattice import ConstraintTuple
    from opengw.multidisk import AtomTable

    calls = _count_calls(monkeypatch,
                         ("build_chains", "invariant_via_weights"))
    degree_pairs = Counter()
    listed = Counter()
    weighed = Counter()
    degree_of = bounding_chain.invariant_via_degree
    list_configurations = AtomTable._list_configurations
    weight_of = multidisk.tree_weight_sum

    def degree(alpha, table, target, point, chains):
        degree_pairs[alpha, point] += 1
        return degree_of(alpha, table, target, point, chains)

    def listing(self, alpha):
        listed[alpha] += 1
        return list_configurations(self, alpha)

    def weight(config, links):
        weighed[config] += 1
        return weight_of(config, links)

    monkeypatch.setattr(bounding_chain, "invariant_via_degree", degree)
    monkeypatch.setattr(AtomTable, "_list_configurations", listing)
    monkeypatch.setattr(multidisk, "tree_weight_sum", weight)
    status, cfg = run_pipeline(tmp_path, "verify-all", seed=3)
    assert status == 0
    bundle = fileio.load_target(toy_paths()["target"])
    atoms = fileio.load_atoms(toy_paths()["atoms"], bundle.target)
    tops = atoms.tuples
    dim0_tops = [t for t in tops if bundle.target.dimension(t) == 0]
    assert dim0_tops
    assert calls == {"build_chains": 1,
                     "invariant_via_weights": len(dim0_tops)}
    worklist = bounding_chain.chain_tuples(bundle.target, tops)
    assert degree_pairs == Counter({
        (ConstraintTuple(a.beta, a.points - {p}, a.descriptors), p): 1
        for a in worklist for p in a.points
    })
    assert set(worklist) <= set(listed)
    assert set(listed.values()) == {1}
    # the matrix-tree self-check weighs configurations of its own loops
    loops = {a.loop for a in atoms.table.atoms}
    table_weights = {c: n for c, n in weighed.items()
                     if {a.loop for a in c.atoms} <= loops}
    assert table_weights == {
        c: 1 for a in listed for c in atoms.table.multi_disks(a)
    }


def test_verify_all_lists_each_chain_once_for_several_tops(tmp_path,
                                                           monkeypatch):
    """Without tuples of interest every atom tuple is a top.  verify-all
    still builds one family, and chains.tsv holds each row the per-top
    families would give exactly once."""
    from opengw.bounding_chain import build_chains
    from opengw.cli import _tuple_label

    target, table, top = synthetic_instance(make_rng(9))
    target_doc, atoms_doc = instance_documents(target, table, top)
    del atoms_doc["tuples_of_interest"]
    paths = {}
    for kind, doc in (("target", target_doc), ("atoms", atoms_doc)):
        paths[kind] = str(tmp_path / (kind + ".json"))
        with open(paths[kind], "w") as handle:
            json.dump(doc, handle)
    tops = fileio.load_atoms(paths["atoms"], target).tuples
    assert len(tops) > 1
    per_top = [
        "%s\t%s\t%s" % (_tuple_label(alpha), loop, coeff)
        for t in tops
        for alpha, chain in build_chains([t], table, target).items()
        for loop, coeff in chain.boundary
    ]
    assert len(set(per_top)) < len(per_top)  # the families overlap
    calls = _count_calls(monkeypatch, ("build_chains",))
    status, cfg = run_pipeline(tmp_path, "verify-all", atoms=paths["atoms"],
                               target=paths["target"], closed_gw=None,
                               seeds=None)
    assert status == 0
    assert calls == {"build_chains": 1}
    rows = (tmp_path / "out" / "chains.tsv").read_text().splitlines()[1:]
    assert len(rows) == len(set(rows))
    assert set(rows) == set(per_top)


def test_verify_all_decorates_each_tuple_once(tmp_path, monkeypatch):
    """The branch-bijection check builds each tuple's decorated
    configurations once, with the run's tree cap, and lists no part's
    configurations to check it."""
    from opengw import bounding_chain, cli

    caps = []
    original = bounding_chain.decorated_multidisks

    def counted(alpha, table, tree_cap=None):
        caps.append(tree_cap)
        return original(alpha, table, tree_cap=tree_cap)

    monkeypatch.setattr(bounding_chain, "decorated_multidisks", counted)
    monkeypatch.setattr(cli, "decorated_multidisks", counted)
    status, cfg = run_pipeline(tmp_path, "verify-all", seed=3)
    assert status == 0
    bundle = fileio.load_target(toy_paths()["target"])
    tops = fileio.load_atoms(toy_paths()["atoms"], bundle.target).tuples
    worklist = bounding_chain.chain_tuples(bundle.target, tops)
    assert caps == [cfg.cap_trees] * len(worklist)


def test_verify_all_deterministic(tmp_path):
    status1, cfg1 = run_pipeline(tmp_path / "a", "verify-all", seed=5)
    status2, cfg2 = run_pipeline(tmp_path / "b", "verify-all", seed=5)
    assert status1 == status2 == 0
    dir1 = tmp_path / "a" / "out"
    dir2 = tmp_path / "b" / "out"
    names1 = sorted(p.name for p in dir1.iterdir())
    assert names1 == sorted(p.name for p in dir2.iterdir())
    for name in names1:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name


def _instance_paths(tmp_path, instance):
    """Input paths of the toy, or of a synthetic instance written under
    tmp_path."""
    if instance == "toy":
        return toy_paths()
    docs = instance_documents(*synthetic_instance(make_rng(9)))
    paths = {}
    for kind, doc in zip(("target", "atoms"), docs):
        paths[kind] = str(tmp_path / (kind + ".json"))
        with open(paths[kind], "w") as handle:
            json.dump(doc, handle)
    return paths


@pytest.mark.parametrize("instance", ["toy", "synthetic"])
def test_verify_all_independent_of_hash_seed(tmp_path, instance):
    """verify-all and enumerate in two processes whose string hashes are
    salted differently (PYTHONHASHSEED 0 and 1) emit the same bytes: no
    artifact, the class listing included, follows set or dict iteration
    order."""
    paths = _instance_paths(tmp_path, instance)
    src = os.path.dirname(os.path.dirname(fileio.__file__))
    for pipeline in ("verify-all", "enumerate"):
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / ("%s-hash-%s" % (pipeline, hash_seed))
            argv = ["--pipeline", pipeline, "--out", str(out)]
            for name, file in paths.items():
                argv += ["--" + name.replace("_", "-"), file]
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run(
                [sys.executable, "-m", "opengw.cli"] + argv,
                env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert ("degeneration_classes.tsv" in outputs[0]) == (
            pipeline == "enumerate")
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("instance", ["toy", "synthetic"])
def test_only_enumerate_lists_the_classes(tmp_path, monkeypatch, instance):
    """verify-all takes the classes and raw columns of tuples.tsv from
    the class counts and lists no class; enumerate lists each tuple's
    classes once, and its listing tallies to the same counts."""
    from collections import Counter

    from opengw.lattice import Target

    # a synthetic instance has no closed table or seeds
    paths = {"closed_gw": None, "seeds": None}
    paths.update(_instance_paths(tmp_path, instance))
    listed = Counter()
    iter_classes = Target.iter_degeneration_classes

    def listing(self, alpha):
        listed[alpha] += 1
        return iter_classes(self, alpha)

    monkeypatch.setattr(Target, "iter_degeneration_classes", listing)
    outputs = {}
    for pipeline in ("verify-all", "enumerate"):
        listed.clear()
        status, cfg = run_pipeline(tmp_path / pipeline, pipeline, **paths)
        assert status == 0
        outputs[pipeline] = listed.copy()
        checks = json.loads((tmp_path / pipeline / "out" / "checks.json")
                            .read_text())["checks"]
        assert ("class-count-identity" in [c["check"] for c in checks]) == (
            pipeline == "enumerate")
    target = fileio.load_target(paths["target"]).target
    tops = fileio.load_atoms(paths["atoms"], target).tuples
    assert outputs["verify-all"] == Counter()
    assert outputs["enumerate"] == Counter(tops)
    assert set(outputs["enumerate"].values()) == {1}
    assert (tmp_path / "verify-all" / "out" / "tuples.tsv").read_bytes() == \
        (tmp_path / "enumerate" / "out" / "tuples.tsv").read_bytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(LISTING_SHAPES))
def test_streamed_listing_matches_the_direct_oracle(seed, shape):
    """The streamed degeneration_classes.tsv holds the rows of the direct
    class oracle in sorted order, and the class generator yields exactly
    the list of Target.degeneration_classes."""
    from opengw.cli import _tuple_label

    target, table, top = synthetic_instance(make_rng(seed), *shape)
    classes = target.degeneration_classes(top)
    assert list(target.iter_degeneration_classes(top)) == classes
    expected = [
        "\t".join((
            _tuple_label(top),
            ",".join(str(c) for c in eta.center_degree.coords),
            ",".join(sorted(eta.center_descriptors)) or "-",
            "|".join(_tuple_label(p) for p in eta.parts) or "-",
            str(count),
        ))
        for eta, count in sorted(direct_degeneration_classes(target, top),
                                 key=lambda item: item[0].sort_key())
    ]
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for kind, doc in zip(("target", "atoms"),
                             instance_documents(target, table, top)):
            paths[kind] = os.path.join(work, kind + ".json")
            with open(paths[kind], "w") as handle:
                json.dump(doc, handle)
        out = os.path.join(work, "out")
        assert run(RunConfig(pipeline="enumerate", out=out, **paths)) == 0
        assert sorted(os.listdir(out)) == [
            "checks.json", "degeneration_classes.tsv", "report.txt",
            "tuples.tsv",
        ]
        with open(os.path.join(out, "degeneration_classes.tsv")) as handle:
            rows = handle.read().splitlines()
    assert rows[0] == "tuple\tcenter\tcenter_descriptors\tparts\tsize"
    assert rows[1:] == expected


def test_enumerate_pipeline_tables(tmp_path):
    status, cfg = run_pipeline(tmp_path, "enumerate")
    assert status == 0
    tuples = (tmp_path / "out" / "tuples.tsv").read_text().splitlines()
    assert tuples[0] == \
        "tuple\tdim\tpredecessors\tclasses\traw\tclosed_image"
    assert tuples[1].endswith("yes")  # degree 2d lies in the closed image
    assert len(tuples) == 2  # one tuple of interest


def test_welschinger_pipeline_values_exact(tmp_path):
    status, cfg = run_pipeline(tmp_path, "welschinger")
    assert status == 0
    rows = (tmp_path / "out" / "welschinger.tsv").read_text().splitlines()[1:]
    values = {r.split("\t")[0]: r.split("\t")[2] for r in rows}
    # doubled atoms with orientation-reversal: full-label totals cancel
    assert values["2;p1,p2;Q1,Q2"] == "0"
    assert values["1;p1;Q1"] == "2"
    for value in values.values():
        Fraction(value)  # every emitted value is an exact rational


def test_bb_recursion_pipeline(tmp_path):
    status, cfg = run_pipeline(tmp_path, "bb-recursion")
    assert status == 0
    chains = (tmp_path / "out" / "chains.tsv").read_text().splitlines()
    assert chains[0] == "tuple\tloop\tcoefficient"
    assert len(chains) > 10


def test_wdvv_solve_pipeline(tmp_path):
    status, cfg = run_pipeline(tmp_path, "wdvv-solve", atoms=None)
    assert status == 0
    table = (tmp_path / "out" / "wdvv_table.tsv").read_text().splitlines()
    assert len(table) == 33  # header + 32 planted entries
    residuals = (tmp_path / "out" / "wdvv_residuals.tsv").read_text()
    for line in residuals.splitlines()[1:]:
        assert line.endswith("\t0")


def test_wdvv_solve_emits_solve_log(tmp_path):
    status, cfg = run_pipeline(tmp_path, "wdvv-solve", atoms=None)
    assert status == 0
    out = tmp_path / "out"
    log = (out / "wdvv_solved.tsv").read_text().splitlines()
    assert log[0] == "degree\tinsertions\tinstance\tvalue"
    summary = json.loads((out / "checks.json").read_text())
    detail = next(c["detail"] for c in summary["checks"]
                  if c["check"] == "wdvv-solve")
    assert len(log) - 1 == int(detail.split()[0])  # "<n> solved, ..."
    table = {}
    for line in (out / "wdvv_table.tsv").read_text().splitlines()[1:]:
        degree, insertions, value = line.split("\t")
        table[degree, insertions] = value
    for line in log[1:]:
        degree, insertions, instance, value = line.split("\t")
        assert instance.startswith("rel")
        assert table[degree, insertions] == value


def test_wdvv_solve_missing_seed_names_unknown(tmp_path):
    doc = json.loads(open(toy_paths()["seeds"]).read())
    doc["entries"] = [
        e for e in doc["entries"]
        if not (e["degree"] == [1] and e["insertions"] == [4])
    ]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    status, cfg = run_pipeline(
        tmp_path, "wdvv-solve", atoms=None, seeds=str(partial)
    )
    assert status == 1
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "undetermined" in report
    assert "(1,) [4]" in report


def test_wdvv_solve_names_brackets_assumed_zero(tmp_path):
    status, cfg = run_pipeline(tmp_path / "a", "wdvv-solve", atoms=None)
    assert status == 0
    path = tmp_path / "a" / "out" / "wdvv_assumed_zero.tsv"
    assert path.read_text() == "degree\tinsertions\n"
    main([
        "--pipeline", "wdvv-solve", "--target", toy_paths()["target"],
        "--closed-gw", toy_paths()["closed_gw"],
        "--seeds", toy_paths()["seeds"], "--area-bound", "2",
        "--cap-insertions", "4", "--out", str(tmp_path / "b"),
    ])
    out = tmp_path / "b"
    assert (out / "wdvv_assumed_zero.tsv").read_text().splitlines() == \
        ["degree\tinsertions", "0\t2,2,2,2"]
    summary = json.loads((out / "checks.json").read_text())
    detail = next(c["detail"] for c in summary["checks"]
                  if c["check"] == "wdvv-solve")
    assert detail.endswith("Assumed zero, neither seeded nor solved for: "
                           "(0,) [2, 2, 2, 2]")


def test_missing_required_input_is_usage_error(tmp_path):
    status, cfg = run_pipeline(tmp_path, "wdvv-solve", closed_gw=None)
    assert status == 2


def test_main_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    status = main([
        "--pipeline", "enumerate", "--target", str(bad),
        "--out", str(tmp_path / "out"),
    ])
    assert status == 2


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_seeds_without_cohomology_model_is_typed_error(tmp_path, capsys):
    doc = json.loads(open(toy_paths()["target"]).read())
    del doc["cohomology"]
    target = tmp_path / "target.json"
    target.write_text(json.dumps(doc))
    bundle = fileio.load_target(str(target))
    with pytest.raises(fileio.FileFormatError, match="cohomology model"):
        fileio.load_seeds(toy_paths()["seeds"], bundle.target, bundle.model)
    status, cfg = run_pipeline(tmp_path, "verify-all", target=str(target))
    assert status == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("pipeline", ["verify-all", "wdvv-solve"])
def test_plain_seeds_without_cohomology_model_is_typed_error(
        tmp_path, capsys, pipeline):
    """Seeds with plain entries only (no beta_zero data) are refused for
    a target without a cohomology model too, in every pipeline."""
    target_doc = json.loads(open(toy_paths()["target"]).read())
    del target_doc["cohomology"]
    seeds_doc = json.loads(open(toy_paths()["seeds"]).read())
    del seeds_doc["beta_zero"]
    assert seeds_doc["entries"]
    paths = {}
    for kind, doc in (("target", target_doc), ("seeds", seeds_doc)):
        paths[kind] = str(tmp_path / (kind + ".json"))
        with open(paths[kind], "w") as handle:
            json.dump(doc, handle)
    status, cfg = run_pipeline(tmp_path, pipeline, **paths)
    assert status == 2
    err = _assert_one_line_error(capsys)
    assert "seeds.json" in err and "cohomology model" in err


@pytest.mark.parametrize("pipeline", ["enumerate", "verify-all"])
def test_out_naming_a_file_is_one_line_error(tmp_path, capsys, pipeline):
    """The first table is written before the other artifacts; failing to
    create --out for it is the same one-line error as in flush."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    paths = toy_paths()
    status = main(["--pipeline", pipeline, "--target", paths["target"],
                   "--atoms", paths["atoms"], "--out", str(afile)])
    assert status == 2
    err = _assert_one_line_error(capsys)
    assert "cannot write the artifacts" in err and "afile" in err
    assert afile.read_text() == "kept\n"


def test_failed_run_leaves_no_class_listing(tmp_path, capsys, monkeypatch):
    """An enumerate run that fails after the class listing is written
    removes it: --out holds no degeneration_classes.tsv, complete-looking
    or not."""
    from opengw import cli
    from opengw.bounding_chain import ChainError

    enumerate_tables = cli.run_enumerate
    written = []

    def enumerate_then_fail(bundle, atom_bundle, config, rep):
        enumerate_tables(bundle, atom_bundle, config, rep)
        written.extend(os.listdir(config.out))
        raise ChainError("forced failure after the listing")

    monkeypatch.setattr(cli, "run_enumerate", enumerate_then_fail)
    status, cfg = run_pipeline(tmp_path, "enumerate", seed=3)
    assert status == 2
    assert "forced failure" in _assert_one_line_error(capsys)
    assert written and "degeneration_classes.tsv" not in written
    assert ".degeneration_classes.tsv.partial" in written
    assert os.listdir(cfg.out) == []


def test_unbounded_atom_loop_is_typed_error(tmp_path, capsys):
    doc = json.loads(open(toy_paths()["atoms"]).read())
    doc["unbounded_loops"] = [doc["atoms"][0]["loop"]]
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps(doc))
    status, cfg = run_pipeline(tmp_path, "welschinger", atoms=str(atoms))
    assert status == 2
    _assert_one_line_error(capsys)


# --- malformed documents -----------------------------------------------------


def _replaced(doc, path, value):
    """A copy of a JSON document with the node at `path` replaced."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("pipeline, kind, path, value", [
    ("enumerate", "target", ("generators", 0, "area"), "1/0"),
    ("enumerate", "target", ("generators", 0, "maslov"), float("inf")),
    ("enumerate", "target", ("cohomology", "deg2_pairings"), [1]),
    ("welschinger", "atoms", ("linking", 0, 2), "1/0"),
    ("wdvv-solve", "closed_gw", ("entries", 0, "value"), "2/0"),
    ("wdvv-solve", "seeds", ("beta_zero", 0), None),
    ("enumerate", "target", ("generators", 0, "maslov"), 4.9),
    ("enumerate", "target", ("descriptors", 0, "codim"), 4.5),
    ("enumerate", "target", ("closed_generators", 0, "w2_sign"), True),
    ("enumerate", "target", ("q_matrix", 0, 0), 2.0),
    ("enumerate", "target", ("cohomology", "degrees", 1), 2.0),
    ("welschinger", "atoms", ("atoms", 0, "sign"), True),
    ("welschinger", "atoms", ("atoms", 0, "degree", 0), 1.0),
    ("welschinger", "atoms", ("involution", "degree_map", 0, 0), 1.5),
    ("welschinger", "atoms", ("tuples_of_interest", 0, "degree", 0), 2.5),
    ("wdvv-solve", "closed_gw", ("entries", 0, "insertions", 0), 2.0),
    ("wdvv-solve", "seeds", ("entries", 0, "insertions", 0), 2.5),
    ("wdvv-solve", "seeds",
     ("beta_zero", 0, "corrections", 0, "closed_degree", 0), False),
    ("enumerate", "target", ("cohomology", "deg2_pairings"),
     {" +2 ": ["1/2"]}),
    ("enumerate", "target", ("cohomology", "lk_os_star"), {"0_3": "1/2"}),
    ("enumerate", "target", ("cohomology", "lk_os_star"), {"+3": "1/2"}),
    ("enumerate", "target", ("cohomology", "y_class_nonzero"), "false"),
    ("enumerate", "target", ("cohomology", "y_class_nonzero"), 0),
    ("enumerate", "target", ("generators", 0, "area"), True),
    ("enumerate", "target", ("generators", 0, "name"), 1),
    ("enumerate", "target", ("descriptors", 0, "id"), 1),
    ("welschinger", "atoms", ("atoms", 0, "points"), [1, 2]),
    ("welschinger", "atoms", ("atoms", 0, "points"), "p1"),
    ("welschinger", "atoms", ("unbounded_loops",), "a1"),
    ("welschinger", "atoms", ("tuples_of_interest", 0, "points"), [1, 2]),
    ("welschinger", "atoms", ("tuples_of_interest", 0, "points"), "p1p2"),
], ids=["area-1/0", "maslov-infinite", "deg2-pairings-list", "linking-1/0",
        "closed-value-2/0", "beta-zero-null", "maslov-4.9", "codim-4.5",
        "w2-sign-true", "q-matrix-float", "cohomology-degree-float",
        "atom-sign-true", "atom-degree-float", "degree-map-1.5",
        "tuple-degree-2.5", "closed-insertion-float", "seed-insertion-2.5",
        "closed-degree-false", "deg2-pairings-key-padded",
        "lk-os-star-key-underscore", "lk-os-star-key-plus",
        "y-class-string", "y-class-zero", "area-true", "generator-name-int",
        "descriptor-id-int", "atom-points-ints", "atom-points-string",
        "unbounded-loops-string", "tuple-points-ints", "tuple-points-string"])
def test_malformed_document_is_one_line_error(tmp_path, capsys, pipeline,
                                              kind, path, value):
    paths = toy_paths()
    doc = json.loads(open(paths[kind]).read())
    paths[kind] = str(tmp_path / "bad.json")
    with open(paths[kind], "w") as handle:
        json.dump(_replaced(doc, path, value), handle)
    argv = ["--pipeline", pipeline, "--out", str(tmp_path / "out")]
    for name, file in paths.items():
        argv += ["--" + name.replace("_", "-"), file]
    assert main(argv) == 2
    assert "bad.json" in _assert_one_line_error(capsys)


def _node_paths(node, path=()):
    """Paths to every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _node_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _node_paths(child, path + (i,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["0", "-3", "1/2", "1/0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def toy_loaders():
    """The toy documents and, per document kind, its loader."""
    paths = toy_paths()
    bundle = fileio.load_target(paths["target"])
    docs = {kind: json.loads(open(path).read()) for kind, path in paths.items()}
    return docs, {
        "target": fileio.load_target,
        "atoms": lambda p: fileio.load_atoms(p, bundle.target),
        "closed_gw": fileio.load_closed,
        "seeds": lambda p: fileio.load_seeds(p, bundle.target, bundle.model),
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_loaders_load_or_raise_file_format_error(toy_loaders, data):
    """Each loader, given a toy document with one node replaced by a
    random JSON value, loads it or raises FileFormatError."""
    docs, loaders = toy_loaders
    kind = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_node_paths(docs[kind]))))
    doc = _replaced(docs[kind], path, data.draw(JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "doc.json")
        with open(file, "w") as handle:
            json.dump(doc, handle)
        try:
            loaders[kind](file)
        except fileio.FileFormatError:
            pass
