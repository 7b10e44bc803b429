"""Configurations, linking numbers, tree sums, and the signed count."""

import inspect
import itertools
from fractions import Fraction

import pytest

from opengw.lattice import Target
from opengw.multidisk import (
    MAX_TREE_VERTICES,
    AtomTable,
    ConfigurationError,
    DiskAtom,
    InvolutionData,
    LinkingError,
    LinkingMatrix,
    MultiDisk,
    conjugation_cancellation_check,
    tree_edge_indices,
    tree_weight_sum,
    tree_weight_sum_enumerated,
    welschinger_count,
)
from hypothesis import given, settings, strategies as st

from support import (
    edge_weights,
    linking_number,
    make_rng,
    reference_packed_trees,
    spanning_trees,
    toy_atoms,
    tree_weights,
)


def simple_target():
    return Target([("g", 1, 2)])


def atom(target, coords, pts, loop, sign=1, descs=()):
    return DiskAtom(
        target.degree(coords), frozenset(pts), frozenset(descs), sign, loop
    )


# --- linking matrix --------------------------------------------------------


def test_linking_symmetry_and_variants():
    lk = LinkingMatrix([("a", "b", Fraction(3, 2))])
    assert lk.lk("a", "b") == Fraction(3, 2)
    assert lk.lk("b", "a") == Fraction(3, 2)
    assert linking_number(lk, "a", "b", variant=1) == linking_number(
        lk, "a", "b", variant=3
    )
    assert linking_number(lk, "a", "b", variant=2) == -linking_number(
        lk, "a", "b", variant=1
    )
    assert linking_number(lk, "a", "b", variant=4) == -Fraction(3, 2)


def test_linking_rejects_self_and_unbounded():
    lk = LinkingMatrix([("a", "b", 1)], unbounded=["c"])
    lk.declare_loop("c")
    with pytest.raises(LinkingError):
        lk.lk("a", "a")
    with pytest.raises(LinkingError):
        lk.lk("a", "c")


def test_missing_pairs_default_to_zero_but_unknown_loops_fail():
    lk = LinkingMatrix([("a", "b", 1)])
    lk.declare_loop("d")
    assert lk.lk("a", "d") == 0
    with pytest.raises(LinkingError):
        lk.lk("a", "zz")


# --- spanning trees --------------------------------------------------------


def test_spanning_tree_counts_match_cayley():
    for m in range(1, 8):
        trees = spanning_trees(m)
        assert len(trees) == (1 if m == 1 else m ** (m - 2))
        assert len(set(trees)) == len(trees)


def test_spanning_trees_cross_checked_by_filter():
    """Independent generator: filter (m-1)-subsets of edges for
    connectedness."""
    for m in range(1, 6):
        all_edges = list(itertools.combinations(range(m), 2))
        expect = set()
        for subset in itertools.combinations(all_edges, m - 1):
            # union-find connectivity
            parent = list(range(m))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for a, b in subset:
                ra, rb = find(a), find(b)
                if ra == rb:
                    acyclic = False
                    break
                parent[ra] = rb
            if acyclic:
                expect.add(frozenset(subset))
        assert set(spanning_trees(m)) == expect


# SHA-256 of the packed tree table per vertex count: the tree order and
# the edge indices that every stored decorated tree refers to
PACKED_TREES_SHA256 = {
    2: "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    3: "44248ac999e14bb7bcea91fd9089b090e0aebda07b5fec810c36a1b9588662a5",
    4: "127e64dca9949dd1cb8f4d88c0b726171590494a484a3d7d4386a08e75a9d590",
    5: "7699f8ef0e1cf7cf7533185a7bb417cbd5ba3e562845f665e25dc9daa3694799",
    6: "a083770386ef808709988648c8904582f2ace928f54937dd401ab541ef6044b5",
    7: "239050441a94d0beb8cb43c14233de0b7768dec8a4e345926cd2cb3bd945fa97",
    8: "f829fce87167aebad15051d7b72b15647baefd045a3145b3b6c7c0e29b35518e",
}


def test_packed_tree_table_bytes_are_pinned():
    import hashlib

    from opengw.multidisk import _packed_trees

    for m, digest in PACKED_TREES_SHA256.items():
        packed = _packed_trees(m)
        assert len(packed) == (m - 1) * m ** (m - 2)
        assert hashlib.sha256(packed).hexdigest() == digest, m


def test_lane_decode_matches_the_per_sequence_decode():
    """The tree table decoded in byte lanes, a block of sequences at a
    time, equals the table decoded one Pruefer sequence at a time."""
    from opengw.multidisk import _packed_trees

    for m in range(2, 9):
        assert _packed_trees(m) == reference_packed_trees(m), m


def test_tree_table_past_the_lane_limit_is_refused(monkeypatch):
    """Lanes hold the trees of at most MAX_TREE_VERTICES vertices, the
    largest tree cap; past it the table is refused, naming the limit,
    before any decode."""
    from opengw import cli, multidisk

    assert cli.MAX_CAP_TREES == MAX_TREE_VERTICES == 9

    def no_decode(*args):
        raise AssertionError("decoded past the limit")

    monkeypatch.setattr(multidisk, "_edge_index_table", no_decode)
    monkeypatch.setattr(multidisk, "_translated", no_decode)
    for m in (MAX_TREE_VERTICES + 1, 23):
        with pytest.raises(ConfigurationError,
                           match="limit of %d vertices" % MAX_TREE_VERTICES):
            tree_edge_indices(m)


def test_tree_edge_indices_need_a_vertex():
    """The tree table refuses an empty vertex set and takes no cap: the
    tree cap is a run policy that verify-all checks before any work."""
    for m in (0, -1):
        with pytest.raises(ConfigurationError, match="at least one vertex"):
            tree_edge_indices(m)
    assert list(tree_edge_indices(1)) == [()]
    assert list(inspect.signature(tree_edge_indices).parameters) == ["m"]


# --- tree weight sums -------------------------------------------------------


def config_of(target, loops, signs=None):
    signs = signs or [1] * len(loops)
    pts = [frozenset([chr(ord("p") + i)]) for i in range(len(loops))]
    return MultiDisk(tuple(
        DiskAtom(target.degree((1,)), pts[i], frozenset(), signs[i], loop)
        for i, loop in enumerate(loops)
    ))


def test_tree_weight_single_atom():
    t = simple_target()
    cfg = config_of(t, ["a"])
    lk = LinkingMatrix([])
    lk.declare_loop("a")
    assert tree_weight_sum(1, edge_weights(cfg, lk)) == 1
    assert tree_weight_sum_enumerated(1, edge_weights(cfg, lk)) == 1


def test_tree_weight_two_atoms():
    t = simple_target()
    cfg = config_of(t, ["a", "b"])
    lk = LinkingMatrix([("a", "b", Fraction(-7, 3))])
    assert tree_weight_sum(2, edge_weights(cfg, lk)) == Fraction(-7, 3)
    assert tree_weight_sum_enumerated(2, edge_weights(cfg, lk)) \
        == Fraction(-7, 3)


def test_tree_weight_three_atoms_closed_form():
    t = simple_target()
    cfg = config_of(t, ["a", "b", "c"])
    a, b, c = Fraction(2), Fraction(-1, 2), Fraction(5)
    lk = LinkingMatrix([("a", "b", a), ("a", "c", b), ("b", "c", c)])
    expect = a * b + a * c + b * c
    assert tree_weight_sum(3, edge_weights(cfg, lk)) == expect
    assert tree_weight_sum_enumerated(3, edge_weights(cfg, lk)) == expect


def test_matrix_tree_agrees_with_enumeration_random():
    t = simple_target()
    rng = make_rng(77)
    for m in range(1, 8):
        for _ in range(10):
            loops = ["L%d" % i for i in range(m)]
            entries = [
                (loops[i], loops[j], Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for i in range(m) for j in range(i + 1, m)
            ]
            lk = LinkingMatrix(entries)
            for ln in loops:
                lk.declare_loop(ln)
            weights = edge_weights(config_of(t, loops), lk)
            assert tree_weight_sum(m, weights) \
                == tree_weight_sum_enumerated(m, weights)


# The SHA-256 of `_matrix_tree_stream()`.  It pins the linking matrices
# the matrix-tree suite draws (through the cofactor sum of each), the
# suite's return and the random stream it leaves behind, which
# verify-all's later checks never read but a reordered draw would move.
# Computed before the suite's draws and both tree routes went to integers.
MATRIX_TREE_STREAM_SHA256 = (
    "bdfbf854f8ff02c3df0a1d5f1e87588eb06bc0a05bef8f3ff7a9ddc62e87510e")


def _matrix_tree_stream(monkeypatch, seeds=(0, 1, 2)):
    """Per seed: the tuple of `tree_weight_sum` values the suite
    compares (11 weight lists per vertex count up to 6), its return,
    then the next rng.random()."""
    from opengw import multidisk, selfcheck

    real = multidisk.tree_weight_sum
    seen = []
    monkeypatch.setattr(multidisk, "tree_weight_sum",
                        lambda m, weights: seen.append(
                            real(m, weights)) or seen[-1])
    records = []
    for seed in seeds:
        rng = make_rng(seed)
        result = selfcheck.matrix_tree_suite(rng)
        records.append((tuple(seen), result, rng.random()))
        seen.clear()
    return records


def test_matrix_tree_stream_is_pinned(monkeypatch):
    import hashlib

    records = _matrix_tree_stream(monkeypatch)
    assert [len(values) for values, _, _ in records] == [66] * 3
    assert all(result == (True, "66 matrices, 0 failures")
               for _, result, _ in records)
    assert hashlib.sha256(repr(records).encode()).hexdigest() \
        == MATRIX_TREE_STREAM_SHA256


# --- configurations and the signed count ------------------------------------


def test_multidisk_requires_distinct_loops():
    t = simple_target()
    a1 = atom(t, (1,), ["p"], "a")
    a2 = atom(t, (1,), ["q"], "a")
    with pytest.raises(ConfigurationError):
        MultiDisk((a1, a2))


def test_multidisk_unordered_semantics():
    t = simple_target()
    a1 = atom(t, (1,), ["p"], "a")
    a2 = atom(t, (1,), ["q"], "b")
    assert MultiDisk((a1, a2)) == MultiDisk((a2, a1))


def test_validate_against_catches_bad_partitions():
    t = simple_target()
    alpha = t.constraint_tuple((2,), points=["p", "q"])
    good = MultiDisk((atom(t, (1,), ["p"], "a"), atom(t, (1,), ["q"], "b")))
    good.validate_against(alpha)
    short = MultiDisk((atom(t, (1,), ["p"], "a"),))
    with pytest.raises(ConfigurationError):
        short.validate_against(alpha)
    wrong_degree = MultiDisk(
        (atom(t, (2,), ["p"], "a"), atom(t, (1,), ["q"], "b"))
    )
    with pytest.raises(ConfigurationError):
        wrong_degree.validate_against(alpha)


def test_welschinger_count_empty_and_single():
    t = simple_target()
    alpha = t.constraint_tuple((1,), points=["p"])
    lk = LinkingMatrix([])
    assert welschinger_count(alpha, [], [], t) == 0
    lk.declare_loop("a")
    plus = MultiDisk((atom(t, (1,), ["p"], "a"),))
    assert welschinger_count(alpha, [plus], tree_weights([plus], lk), t) == 1


def test_welschinger_count_two_atom_example():
    t = simple_target()
    alpha = t.constraint_tuple((2,), points=["p", "q"])
    cfg = MultiDisk((atom(t, (1,), ["p"], "a"), atom(t, (1,), ["q"], "b")))
    lk = LinkingMatrix([("a", "b", -2)])
    assert welschinger_count(alpha, [cfg], tree_weights([cfg], lk), t) == -2


def test_welschinger_count_hand_enumerated_instance():
    # one single disk of sign -1 plus two two-disk configurations
    t = simple_target()
    alpha = t.constraint_tuple((2,), points=["p", "q"])
    table = AtomTable(
        t,
        [
            atom(t, (2,), ["p", "q"], "c", sign=-1),
            atom(t, (1,), ["p"], "a1"),
            atom(t, (1,), ["p"], "a2", sign=-1),
            atom(t, (1,), ["q"], "b1"),
        ],
        LinkingMatrix([
            ("a1", "b1", Fraction(3)),
            ("a2", "b1", Fraction(1, 2)),
        ]),
    )
    configs = table.multi_disks(alpha)
    assert len(configs) == 3
    # by hand: -1 + (+1)(3) + (-1)(1/2)
    assert welschinger_count(alpha, configs, tree_weights(configs, table.links),
                             t) == Fraction(3, 2)


def test_welschinger_zero_when_dimension_nonzero():
    t = simple_target()
    alpha = t.constraint_tuple((2,), points=["p"])  # dimension 2
    cfg = MultiDisk((atom(t, (2,), ["p"], "c"),))
    lk = LinkingMatrix([])
    lk.declare_loop("c")
    assert welschinger_count(alpha, [cfg], tree_weights([cfg], lk), t) == 0


def test_welschinger_invariant_under_config_order():
    t = simple_target()
    alpha = t.constraint_tuple((2,), points=["p", "q"])
    a = MultiDisk((atom(t, (1,), ["p"], "a"), atom(t, (1,), ["q"], "b")))
    b = MultiDisk((atom(t, (2,), ["p", "q"], "c"),))
    lk = LinkingMatrix([("a", "b", 5)])
    lk.declare_loop("c")
    assert welschinger_count(alpha, [a, b], tree_weights([a, b], lk), t) == \
        welschinger_count(alpha, [b, a], tree_weights([b, a], lk), t)


def test_welschinger_additive_over_config_blocks():
    # the count is a sum over configurations, so any split of the
    # configuration set decomposes it
    t = simple_target()
    alpha = t.constraint_tuple((2,), points=["p", "q"])
    lk = LinkingMatrix([("a", "b", 5), ("x", "y", -3)])
    block1 = [MultiDisk((atom(t, (1,), ["p"], "a"), atom(t, (1,), ["q"], "b")))]
    block2 = [
        MultiDisk((atom(t, (1,), ["p"], "x"), atom(t, (1,), ["q"], "y"))),
        MultiDisk((atom(t, (2,), ["p", "q"], "z", sign=-1),)),
    ]
    lk.declare_loop("z")
    total = welschinger_count(alpha, block1 + block2,
                              tree_weights(block1 + block2, lk), t)
    assert total == welschinger_count(alpha, block1, tree_weights(block1, lk),
                                      t) + \
        welschinger_count(alpha, block2, tree_weights(block2, lk), t)


def test_welschinger_invariant_under_loop_relabeling():
    t = simple_target()
    alpha = t.constraint_tuple((2,), points=["p", "q"])
    cfg = MultiDisk((atom(t, (1,), ["p"], "a"), atom(t, (1,), ["q"], "b")))
    lk = LinkingMatrix([("a", "b", Fraction(7, 3))])
    relabeled = MultiDisk(
        (atom(t, (1,), ["p"], "zz"), atom(t, (1,), ["q"], "ww"))
    )
    lk2 = LinkingMatrix([("zz", "ww", Fraction(7, 3))])
    assert welschinger_count(alpha, [cfg], tree_weights([cfg], lk), t) == \
        welschinger_count(alpha, [relabeled], tree_weights([relabeled], lk2), t)


def test_multi_disks_enumeration():
    t = simple_target()
    table = AtomTable(
        t,
        [
            atom(t, (1,), ["p"], "a1"),
            atom(t, (1,), ["p"], "a2"),
            atom(t, (1,), ["q"], "b1"),
            atom(t, (2,), ["p", "q"], "c1"),
        ],
        LinkingMatrix([]),
    )
    alpha = t.constraint_tuple((2,), points=["p", "q"])
    configs = table.multi_disks(alpha)
    keys = {tuple(a.loop for a in c.atoms) for c in configs}
    assert keys == {("a1", "b1"), ("a2", "b1"), ("c1",)}
    # single disks of a sub-tuple
    sub = t.constraint_tuple((1,), points=["p"])
    assert [a.loop for a in table.single_disks(sub)] == ["a1", "a2"]


def test_atom_table_keeps_configurations_and_tree_weights():
    """multi_disks lists a tuple once and hands out copies; tree_weights
    gives the matrix-tree sum of each configuration in that order, and
    the count over them equals the count over freshly evaluated sums."""
    target, bundle = toy_atoms()
    table = bundle.table
    for alpha in table.tuples() + list(bundle.tuples):
        configs = table.multi_disks(alpha)
        again = table.multi_disks(alpha)
        assert configs == again and configs is not again
        configs.clear()
        assert table.multi_disks(alpha) == again
        weights = table.tree_weights(alpha)
        assert weights is table.tree_weights(alpha)
        assert list(weights) == tree_weights(again, table.links)
        assert welschinger_count(alpha, again, weights, target) == \
            welschinger_count(alpha, again, tree_weights(again, table.links),
                              target)


def test_atom_table_rejects_wrong_dimension_and_zero_degree():
    t = simple_target()
    with pytest.raises(ConfigurationError):
        AtomTable(t, [atom(t, (2,), ["p"], "x")], LinkingMatrix([]))
    with pytest.raises(ConfigurationError):
        AtomTable(
            t,
            [DiskAtom(t.degree((0,)), frozenset(["p"]), frozenset(), 1, "z")],
            LinkingMatrix([]),
        )


# --- conjugation cancellation ------------------------------------------------


def involution_setup(rng, n_pairs=2, extra_points=("p", "q")):
    """Rank-2 swap-involution target with a flip-closed atom table."""
    t = Target([("u", 1, 2), ("v", 1, 2)])
    inv_map = ((0, 1), (1, 0))
    atoms = []
    partner = {}
    # per point label, one conjugate pair of single disks
    for i, p in enumerate(extra_points):
        for j in range(n_pairs):
            base = "%s%d" % (p, j)
            sign = rng.choice((1, -1))
            atoms.append(DiskAtom(t.degree((1, 0)), frozenset([p]),
                                  frozenset(), sign, base + "+"))
            atoms.append(DiskAtom(t.degree((0, 1)), frozenset([p]),
                                  frozenset(), sign, base + "-"))
            partner[base + "+"] = base + "-"
            partner[base + "-"] = base + "+"
    loops = sorted(partner)
    entries = []
    seen = set()
    for a in loops:
        for b in loops:
            if a >= b or (a, b) in seen:
                continue
            if partner[a] == b:
                continue  # a loop never links its own reversal
            base = Fraction(rng.randint(-3, 3))
            quads = [
                (a, b, base),
                (partner[a], b, -base),
                (a, partner[b], -base),
                (partner[a], partner[b], base),
            ]
            for x, y, v in quads:
                key = (min(x, y), max(x, y))
                if key not in seen:
                    seen.add(key)
                    entries.append((x, y, v))
            seen.add((min(a, b), max(a, b)))
    table = AtomTable(t, atoms, LinkingMatrix(entries))
    involution = InvolutionData(inv_map, partner)
    tuples = [
        t.constraint_tuple((2 - i, i), points=list(extra_points))
        for i in range(3)
    ]
    return t, table, involution, tuples


def test_cancellation_all_single_disks():
    rng = make_rng(1)
    t, table, involution, _ = involution_setup(rng)
    tuples = [
        t.constraint_tuple((1, 0), points=["p"]),
        t.constraint_tuple((0, 1), points=["p"]),
    ]
    assert all(len(config) == 1
               for alpha in tuples for config in table.multi_disks(alpha))
    report = conjugation_cancellation_check(tuples, table, involution)
    assert report.multi_disk_total == 0


def test_cancellation_two_atom_flip_pair():
    rng = make_rng(2)
    t, table, involution, tuples = involution_setup(rng, n_pairs=1)
    report = conjugation_cancellation_check(tuples, table, involution)
    assert report.cancels
    assert report.full_total == report.single_disk_total


def test_cancellation_randomized_instances():
    for seed in range(8):
        rng = make_rng(1000 + seed)
        t, table, involution, tuples = involution_setup(
            rng, n_pairs=rng.choice((1, 2))
        )
        report = conjugation_cancellation_check(tuples, table, involution)
        assert report.multi_disk_total == 0
        assert report.full_total == report.single_disk_total


def test_cancellation_rejects_non_closed_input():
    rng = make_rng(3)
    t, table, involution, tuples = involution_setup(rng, n_pairs=1)
    # drop one conjugate degree from the orbit
    with pytest.raises(ConfigurationError):
        conjugation_cancellation_check(tuples[:1], table, involution)


def _cancellation_by_tree_loop(tuples, table):
    """(multi-disk total, vertex valences met) by the plain loop over
    (configuration, spanning tree) pairs."""
    total = Fraction(0)
    valences = set()
    for t in tuples:
        for config in table.multi_disks(t):
            if len(config) == 1:
                continue
            atoms = config.atoms
            for tree in spanning_trees(len(config)):
                prod = Fraction(1)
                deg = [0] * len(config)
                for a, b in tree:
                    prod = prod * table.links.lk(atoms[a].loop, atoms[b].loop)
                    deg[a] += 1
                    deg[b] += 1
                total = total + (prod if config.sgn() > 0 else -prod)
                valences.update(deg)
    return total, valences


def test_cancellation_report_matches_the_per_tree_loop():
    """The report's multi-disk total, read off the table's matrix-tree
    sums, equals the plain per-tree loop on the toy and on three-point
    orbits (three-disk configurations, valence-2 vertices)."""
    target, bundle = toy_atoms()
    cases = [([top], bundle.table, bundle.involution)
             for top in bundle.tuples]
    for seed in range(4):
        t, table, involution, _ = involution_setup(
            make_rng(2000 + seed), n_pairs=1 + seed % 2,
            extra_points=("p", "q", "r"),
        )
        orbit = [t.constraint_tuple((3 - i, i), points=["p", "q", "r"])
                 for i in range(4)]
        cases.append((orbit, table, involution))
    valences_seen = set()
    for tuples, table, involution in cases:
        report = conjugation_cancellation_check(tuples, table, involution)
        total, valences = _cancellation_by_tree_loop(tuples, table)
        assert report.multi_disk_total == total
        valences_seen.update(valences)
    assert valences_seen == {1, 2}
