"""File formats and the batch front-end."""

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

from support import instance_documents, make_rng, synthetic_instance

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


def test_verify_all_builds_and_evaluates_once_per_top(tmp_path, monkeypatch):
    """verify-all builds each top tuple's chain family once and evaluates
    each weighted invariant once; every check reuses them."""
    from opengw import bounding_chain, cli

    calls = {"build_chains": 0, "invariant_via_weights": 0}
    for name in calls:
        original = getattr(bounding_chain, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounding_chain, name, counted)
        monkeypatch.setattr(cli, name, counted)
    status, cfg = run_pipeline(tmp_path, "verify-all", seed=3)
    assert status == 0
    bundle = fileio.load_target(toy_paths()["target"])
    tops = fileio.load_atoms(toy_paths()["atoms"], bundle.target).tuples
    dim0_tops = [t for t in tops if bundle.target.dimension(t) == 0]
    assert dim0_tops
    assert calls == {"build_chains": len(tops),
                     "invariant_via_weights": len(dim0_tops)}


def test_verify_all_decorates_each_tuple_once(tmp_path, monkeypatch):
    """The branch-bijection check builds one map from tuple to decorated
    configurations, with the run's tree cap, and both sides of every
    tuple's bijection read it."""
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
    worklist = cli._dim0_worklist(bundle.target, tops)
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


@pytest.mark.parametrize("instance", ["toy", "synthetic"])
def test_verify_all_independent_of_hash_seed(tmp_path, instance):
    """verify-all in two processes whose string hashes are salted
    differently (PYTHONHASHSEED 0 and 1) emits the same bytes: no
    artifact follows set or dict iteration order."""
    if instance == "toy":
        paths = toy_paths()
    else:
        docs = instance_documents(*synthetic_instance(make_rng(9)))
        paths = {}
        for kind, doc in zip(("target", "atoms"), docs):
            paths[kind] = str(tmp_path / (kind + ".json"))
            with open(paths[kind], "w") as handle:
                json.dump(doc, handle)
    src = os.path.dirname(os.path.dirname(fileio.__file__))
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / ("hash-" + hash_seed)
        argv = ["--pipeline", "verify-all", "--out", str(out)]
        for name, file in paths.items():
            argv += ["--" + name.replace("_", "-"), file]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "opengw.cli"] + argv,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert "degeneration_classes.tsv" in outputs[0]
    assert outputs[0] == outputs[1]


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
], ids=["area-1/0", "maslov-infinite", "deg2-pairings-list", "linking-1/0",
        "closed-value-2/0", "beta-zero-null", "maslov-4.9", "codim-4.5",
        "w2-sign-true", "q-matrix-float", "cohomology-degree-float",
        "atom-sign-true", "atom-degree-float", "degree-map-1.5",
        "tuple-degree-2.5", "closed-insertion-float", "seed-insertion-2.5",
        "closed-degree-false"])
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
