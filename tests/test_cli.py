"""File formats and the batch front-end."""

import json
import os
from fractions import Fraction

import pytest

from opengw import fileio
from opengw.cli import RunConfig, build_parser, main, run

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
