"""Degree lattice, constraint tuples, and degeneration enumeration."""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from opengw.lattice import (
    ConstraintTuple,
    DegenerationType,
    Target,
    TargetError,
    _count_within_area,
    _within_area,
)

from support import (
    LISTING_SHAPES,
    benchmark_synth,
    class_key,
    direct_degeneration_classes,
    distinct_permutations,
    make_rng,
    orderings,
    parts_that_cannot_fit,
    point_labels,
    precedes,
    raw_degenerations,
    synthetic_instance,
    toy_atoms,
)


def rank1(maslov=2, descriptors=()):
    return Target([("g", 1, maslov)], descriptors=descriptors)


def rank2():
    return Target(
        [("a", 1, 2), ("b", 1, 2)],
        descriptors=[("G2", 2), ("G4", 4), ("G6", 6)],
    )


# --- degrees and tuples ---------------------------------------------------


def test_degree_linearity():
    t = rank2()
    x = t.degree((2, 1))
    y = t.degree((0, 3))
    assert (x + y).area == x.area + y.area
    assert (x + y).maslov == x.maslov + y.maslov
    assert (x - y).coords == (2, -2)


def test_positive_cone_membership():
    t = rank2()
    assert t.degree((0, 0)).in_positive_cone()
    assert t.degree((1, 0)).in_positive_cone()
    assert not t.degree((-1, 0)).in_positive_cone()
    # positive area despite a negative coordinate still qualifies
    assert t.degree((2, -1)).in_positive_cone()


def test_degree_class_hashes_on_coordinates():
    """Equal coordinates hash equal across targets, while equality still
    reads the area and the Maslov index."""
    x = rank1().degree((2,))
    y = Target([("g", 3, 2)]).degree((2,))
    assert x.area != y.area
    assert hash(x) == hash(y)
    assert x != y
    assert len({x, y}) == 2
    assert x == rank1().degree((2,)) and hash(x) == hash(rank1().degree((2,)))


def test_empty_tuple_rejected():
    t = rank1()
    with pytest.raises(TargetError):
        t.constraint_tuple((0,))


def test_descriptor_codim_validation():
    with pytest.raises(TargetError):
        Target([("g", 1, 2)], descriptors=[("odd", 3)])
    with pytest.raises(TargetError):
        Target([("g", 1, 2)], descriptors=[("big", 8)])


def test_area_gap_required():
    with pytest.raises(TargetError):
        Target([("g", 0, 2)])


# --- dimension ------------------------------------------------------------


def test_dimension_direct_values():
    t = rank2()
    pt = t.constraint_tuple((0, 0), points=["p"])
    assert t.dimension(pt) == -2
    two_points = t.constraint_tuple((1, 1), points=["p", "q"])  # maslov 4
    assert t.dimension(two_points) == 0
    two_surfaces = t.constraint_tuple((1, 1), descriptors=["G4", "G6"])
    # 4 - (4-2) - (6-2) = -2
    assert t.dimension(two_surfaces) == -2
    t4 = Target([("g", 1, 4)], descriptors=[("A", 4), ("B", 4)])
    alpha = t4.constraint_tuple((1,), descriptors=["A", "B"])
    assert t4.dimension(alpha) == 0


def test_dimension_parity_even_for_even_maslov():
    t = rank2()
    rng = make_rng(5)
    for _ in range(50):
        beta = t.degree((rng.randint(0, 3), rng.randint(0, 3)))
        pts = frozenset("pqr"[: rng.randint(0, 3)])
        dsc = frozenset(d for d in ("G2", "G4", "G6") if rng.random() < 0.4)
        if beta.is_zero and not pts and not dsc:
            continue
        alpha = t.constraint_tuple(beta, pts, dsc)
        assert t.dimension(alpha) % 2 == 0


# --- partial order --------------------------------------------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2),
                                 Fraction(3, 2)]), min_size=1, max_size=3),
       st.fractions(-1, 12, max_denominator=4), st.integers(0, 60))
def test_effective_degrees_are_counted_without_listing(areas, bound, limit):
    """count_effective_degrees is the length of the listing, capped at
    limit + 1."""
    t = Target([("g%d" % i, a, 2) for i, a in enumerate(areas)])
    listed = len(t.effective_degrees(bound))
    assert t.count_effective_degrees(bound, limit) == min(listed, limit + 1)


def test_area_walks_leave_no_cyclic_garbage():
    """Listing and counting the coordinate tuples within an area leave
    nothing for the cyclic collector, and the listing is every tuple
    within the area in lexicographic order; no areas give the one empty
    tuple."""
    areas = (Fraction(1), Fraction(3, 2))
    gc.collect()
    gc.disable()
    try:
        listed = _within_area(areas, 6)
        listing_garbage = gc.collect()
        counted = _count_within_area(areas, Fraction(6), 100)
        counting_garbage = gc.collect()
    finally:
        gc.enable()
    assert (listing_garbage, counting_garbage) == (0, 0)
    assert listed == [c for c in itertools.product(range(7), range(5))
                      if c[0] * areas[0] + c[1] * areas[1] <= 6]
    assert counted == len(listed) == 19
    assert _within_area((), 3) == [()]


def test_precedes_reflexive_and_examples():
    t = rank1()
    alpha = t.constraint_tuple((2,), points=["p", "q"], descriptors=[])
    assert precedes(alpha, alpha)
    assert not precedes(alpha, alpha, strict=True)
    minimal = t.point_tuple("p")
    assert precedes(minimal, alpha, strict=True)


def test_precedes_negative_area_difference():
    t = rank1()
    small = t.constraint_tuple((1,), points=["p"])
    big = t.constraint_tuple((2,), points=["p"])
    assert not precedes(big, small)


def test_precedes_is_partial_order():
    t = rank2()
    rng = make_rng(12)
    pool = []
    for _ in range(30):
        beta = t.degree((rng.randint(0, 2), rng.randint(0, 2)))
        pts = frozenset(p for p in "pq" if rng.random() < 0.5)
        dsc = frozenset(d for d in ("G2", "G4") if rng.random() < 0.5)
        if beta.is_zero and not pts and not dsc:
            continue
        pool.append(t.constraint_tuple(beta, pts, dsc))
    for a, b, c in itertools.product(pool, repeat=3):
        if precedes(a, b) and precedes(b, a):
            assert a == b
        if precedes(a, b) and precedes(b, c):
            assert precedes(a, c)


# --- predecessors ---------------------------------------------------------


def test_predecessors_of_minimal_tuple_empty():
    t = rank1()
    assert t.predecessors(t.point_tuple("p")) == []
    gamma_only = Target([("g", 1, 2)], descriptors=[("G", 4)])
    assert gamma_only.predecessors(
        gamma_only.constraint_tuple((0,), descriptors=["G"])
    ) == []


def test_predecessors_rank1_count():
    t = rank1()
    alpha = t.constraint_tuple((2,), points=["p"])
    preds = t.predecessors(alpha)
    assert len(preds) == 4
    keys = {(p.beta.coords, tuple(sorted(p.points))) for p in preds}
    assert keys == {((0,), ("p",)), ((1,), ()), ((1,), ("p",)), ((2,), ())}


def test_predecessors_against_box_oracle():
    """Independent oracle: scan a coordinate box and filter with the
    precedes predicate directly."""
    t = rank2()
    alpha = t.constraint_tuple((1, 2), points=["p"], descriptors=["G4"])
    got = set(t.predecessors(alpha))
    box = itertools.product(range(3), range(4))
    expect = set()
    for coords in box:
        beta = t.degree(coords)
        for k in ([], ["p"]):
            for l in ([], ["G4"]):
                if beta.is_zero and not k and not l:
                    continue
                cand = t.constraint_tuple(beta, k, l)
                if precedes(cand, alpha, strict=True) and (
                    cand.beta.is_effective
                    and (alpha.beta - cand.beta).is_effective
                ):
                    expect.add(cand)
    assert got == expect


def test_predecessor_count_monotone():
    t = rank1()
    small = t.constraint_tuple((1,), points=["p"])
    large = t.constraint_tuple((2,), points=["p", "q"])
    assert precedes(small, large)
    assert len(t.predecessors(small)) <= len(t.predecessors(large))


# --- degenerations --------------------------------------------------------
#
# The raw expansion and the direct class enumerator are the test oracles in
# `support`; `Target.degeneration_classes` is compared with them.


def test_degenerations_of_point_tuple_empty():
    t = rank1()
    assert raw_degenerations(t, t.point_tuple("p")) == []


def test_degenerations_of_single_descriptor():
    t = Target([("g", 1, 2)], descriptors=[("G", 4)])
    alpha = t.constraint_tuple((0,), descriptors=["G"])
    etas = raw_degenerations(t, alpha)
    assert len(etas) == 1
    eta = etas[0]
    assert eta.center_degree.is_zero
    assert eta.part_count == 0
    assert eta.center_descriptors == frozenset(["G"])


def test_degenerate_splitting_excluded_at_type_level():
    t = rank1()
    with pytest.raises(TargetError):
        DegenerationType(
            t.zero_degree(), frozenset(),
            (t.constraint_tuple((1,), points=["p"]),),
        )


def test_degenerations_match_nested_oracle():
    """Independent recursive generator: distribute each label over the
    slots one at a time, then split the degree; compare as sets."""
    t = rank1()
    alpha = t.constraint_tuple((1,), points=["p"], descriptors=[])
    got = raw_degenerations(t, alpha)

    expect = set()
    beta_vals = [t.degree((i,)) for i in range(2)]
    for k in range(0, 4):
        for p_slot in itertools.product(range(k), repeat=1):
            for split in itertools.product(beta_vals, repeat=k + 1):
                total = split[0]
                for b in split[1:]:
                    total = total + b
                if total != alpha.beta:
                    continue
                center, parts_beta = split[0], split[1:]
                if center.is_zero and k == 1:
                    continue
                parts = []
                bad = False
                for i in range(k):
                    pts = frozenset(["p"]) if p_slot[0] == i else frozenset()
                    if parts_beta[i].is_zero and not pts:
                        bad = True
                        break
                    parts.append(ConstraintTuple(parts_beta[i], pts, frozenset()))
                if bad:
                    continue
                expect.add(DegenerationType(center, frozenset(), tuple(parts)))
    assert set(got) == expect


def test_degeneration_parts_strictly_precede():
    t = rank2()
    alpha = t.constraint_tuple((1, 1), points=["p"], descriptors=["G4"])
    etas = raw_degenerations(t, alpha)
    assert etas
    for eta in etas:
        for part in eta.parts:
            assert precedes(part, alpha, strict=True)


def test_degenerations_equivariant_under_relabeling():
    t = rank1()
    a1 = t.constraint_tuple((1,), points=["p"], descriptors=[])
    a2 = t.constraint_tuple((1,), points=["z"], descriptors=[])

    def relabel(eta):
        parts = tuple(
            ConstraintTuple(
                p.beta,
                frozenset("z" if x == "p" else x for x in p.points),
                p.descriptors,
            )
            for p in eta.parts
        )
        return DegenerationType(eta.center_degree, eta.center_descriptors, parts)

    assert ({relabel(e) for e in raw_degenerations(t, a1)}
            == set(raw_degenerations(t, a2)))


def test_raw_expansion_cap_refused():
    t = rank2()
    alpha = t.constraint_tuple((2, 2), points=["p", "q"], descriptors=["G4"])
    with pytest.raises(ValueError, match="exceeds the cap 10"):
        raw_degenerations(t, alpha, cap=10)


def test_degeneration_classes_group_permutations():
    t = rank2()
    alpha = t.constraint_tuple((1, 1), points=["p", "q"])
    raw = raw_degenerations(t, alpha)
    classes = t.degeneration_classes(alpha)
    assert sum(count for _, count in classes) == len(raw)
    for rep, count in classes:
        members = [e for e in raw if class_key(e) == class_key(rep)]
        assert len(members) == count


def test_predecessors_are_listed_once_per_tuple(monkeypatch):
    """The target keeps each tuple's predecessor list and hands out
    copies, so a caller that changes its list changes nothing else."""
    t = rank2()
    alpha = t.constraint_tuple((2, 1), points=["p", "q"], descriptors=["G4"])
    first = t.predecessors(alpha)
    monkeypatch.setattr(t, "effective_below", None)  # no second listing
    again = t.predecessors(alpha)
    assert again == first and again is not first
    first.clear()
    assert t.predecessors(alpha) == again


def test_classes_through_filters_the_full_list():
    """The output-sensitive class generator against the full class list
    filtered by center and parts, with random center and part sets;
    unlabeled, repeated and zero-degree parts included.  Centers and
    parts that cannot fit below the tuple, by a label it lacks or a
    coordinate past its packing, change nothing."""
    rng = make_rng(31)
    t = rank2()
    tuples = [
        t.constraint_tuple((2, 1), points=["p", "q"], descriptors=["G4"]),
        t.constraint_tuple((2, 2), points=["p"]),
        t.constraint_tuple((1, 1), descriptors=["G2", "G6"]),
    ]
    repeated = 0
    for alpha in tuples:
        full = direct_degeneration_classes(t, alpha)

        def center(eta):
            return (eta.center_degree, point_labels(eta),
                    eta.center_descriptors)

        def slots(eta):
            return [p for p in eta.parts if not p.is_point_tuple()]

        centers = sorted({center(eta) for eta, _ in full},
                         key=lambda c: (c[0].coords, sorted(c[1]), sorted(c[2])))
        parts = sorted({p for eta, _ in full for p in slots(eta)},
                       key=ConstraintTuple.sort_key)
        assert list(t.classes_through(alpha, centers, parts)) == full
        unfit = parts_that_cannot_fit(t, alpha)
        unfit_centers = [(p.beta, p.points, p.descriptors) for p in unfit]
        assert list(t.classes_through(alpha, centers + unfit_centers,
                                      parts + unfit)) == full
        for _ in range(15):
            some_centers = rng.sample(centers, rng.randint(1, len(centers)))
            some_parts = set(rng.sample(parts, rng.randint(0, len(parts))))
            some_centers += unfit_centers
            some_parts |= set(unfit)
            expect = [
                (eta, n) for eta, n in full
                if center(eta) in some_centers
                and all(p in some_parts for p in slots(eta))
            ]
            assert list(t.classes_through(alpha, some_centers,
                                          some_parts)) == expect
            repeated += sum(
                1 for eta, _ in expect if len(set(slots(eta))) < len(slots(eta))
            )
    assert repeated


AREAS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2))


@st.composite
def targets_and_tuples(draw):
    """A rank 1-2 target with distinct generator areas and descriptors of
    mixed codimension, and a tuple with up to 3 points and 4 labels."""
    rank = draw(st.integers(1, 2))
    areas = draw(st.lists(st.sampled_from(AREAS), min_size=rank,
                          max_size=rank, unique=True))
    codims = draw(st.lists(st.sampled_from((2, 4, 6)), max_size=3))
    target = Target(
        [("g%d" % i, a, 2) for i, a in enumerate(areas)],
        descriptors=[("D%d" % i, c) for i, c in enumerate(codims)],
    )
    coords = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)
                  .filter(lambda c: sum(c) <= 3))
    points = ["p%d" % i for i in range(draw(st.integers(0, 3)))]
    descs = draw(st.lists(st.sampled_from(sorted(target.descriptors)),
                          unique=True, max_size=4 - len(points))
                 if target.descriptors else st.just([]))
    assume(any(coords) or points or descs)
    return target, target.constraint_tuple(coords, points, descs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(targets_and_tuples())
def test_degeneration_classes_match_direct_oracle(case):
    """The generator's full list against the direct enumerator, entry for
    entry: representatives, raw counts and order."""
    target, alpha = case
    assert (target.degeneration_classes(alpha)
            == direct_degeneration_classes(target, alpha))


def test_degeneration_classes_with_repeated_unlabeled_parts():
    """A degree-5 tuple, where an unlabeled part repeats up to five
    times, against the direct enumerator, raw counts included."""
    t = rank1(descriptors=[("Q", 4)])
    alpha = t.constraint_tuple((5,), points=["p", "q"], descriptors=["Q"])
    classes = t.degeneration_classes(alpha)
    assert classes == direct_degeneration_classes(t, alpha)
    unlabeled = t.constraint_tuple((1,))
    assert max(eta.parts.count(unlabeled) for eta, _ in classes) == 5
    assert sum(1 for eta, _ in classes
               if max(map(eta.parts.count, eta.parts), default=0) >= 3) > 10


def test_distinct_permutations_walk_the_multiset():
    """Algorithm L yields each distinct ordering exactly once."""
    t = rank1()
    a = t.point_tuple("p")
    b = t.constraint_tuple((1,))
    c = t.constraint_tuple((2,), points=["q"])
    for parts in [(), (a,), (b, b), (a, b, b), (b, a, b, c, b),
                  (c, b, c, a, b, b)]:
        perms = distinct_permutations(parts)
        assert set(perms) == set(itertools.permutations(parts)), parts
        assert len(perms) == orderings(parts), parts


def test_dimension_additive_over_degenerations():
    """Audited identity: dim(alpha) equals the dimension of the center
    part (with no boundary points) plus the part dimensions, with no
    further correction."""
    t = rank2()
    alpha = t.constraint_tuple((1, 1), points=["p"], descriptors=["G4"])
    etas = raw_degenerations(t, alpha)
    assert etas
    for eta in etas:
        center_part = (
            t.constraint_tuple(eta.center_degree, (), eta.center_descriptors)
            if not (eta.center_degree.is_zero and not eta.center_descriptors)
            else None
        )
        center_dim = t.dimension(center_part) if center_part else 0
        total = center_dim + sum(t.dimension(p) for p in eta.parts)
        assert total == t.dimension(alpha)


# --- class counts ---------------------------------------------------------
# `Target.class_counts` counts what the listing lists; the listing's tally
# is the second route.


def listing_tally(target, alpha):
    """(classes, raw splittings) of the listing, counted one by one."""
    classes = raw = 0
    for _eta, count in target.iter_degeneration_classes(alpha):
        classes += 1
        raw += count
    return classes, raw


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(LISTING_SHAPES))
def test_class_counts_match_the_listing_on_synthetic_instances(seed, shape):
    target, _table, top = synthetic_instance(make_rng(seed), *shape)
    assert target.class_counts(top) == listing_tally(target, top)


# the rank-2 lattice of the swap-involution instances, with a quartic and
# a sextic
INVOLUTION_TARGET = Target([("u", 1, 2), ("v", 1, 2)],
                           descriptors=[("Q", 4), ("S", 6)])


@st.composite
def involution_tuples(draw):
    """A tuple of the rank-2 target with up to two points and any of its
    descriptors."""
    coords = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    points = ["p", "q"][:draw(st.integers(0, 2))]
    descs = draw(st.sets(st.sampled_from(("Q", "S"))))
    assume(any(coords) or points or descs)
    return INVOLUTION_TARGET.constraint_tuple(coords, points, descs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(involution_tuples())
@example(INVOLUTION_TARGET.constraint_tuple((2, 1), ["p", "q"], ["Q", "S"]))
def test_class_counts_match_the_listing_on_rank2_targets(alpha):
    assert (INVOLUTION_TARGET.class_counts(alpha)
            == listing_tally(INVOLUTION_TARGET, alpha))


def test_class_counts_include_the_zero_part_class():
    """A point-free tuple splits into its whole self as the center and no
    part, one class of one raw splitting."""
    alpha = INVOLUTION_TARGET.constraint_tuple((1, 1), (), ["Q", "S"])
    classes = INVOLUTION_TARGET.degeneration_classes(alpha)
    assert [count for eta, count in classes if not eta.parts] == [1]
    assert INVOLUTION_TARGET.class_counts(alpha) == (
        len(classes), sum(count for _, count in classes))


# (points, quartics) of the seed-41 benchmark instances -> class counts
BENCHMARK_CLASS_COUNTS = {
    (4, 1): (12392, 2395391),
    (5, 1): (124880, 127415679),
    (5, 2): (1606146, 8476327935),
}


def test_class_counts_on_the_benchmark_rungs(tmp_path):
    """The toy and the seed-41 instances of perfbench/synth.py.  The two
    K=5 rungs are counted only: their listings hold 124,880 and
    1,606,146 classes."""
    from opengw import fileio

    target, atoms = toy_atoms()
    (top,) = atoms.tuples
    assert target.class_counts(top) == listing_tally(target, top) \
        == (331, 4079)
    synth = benchmark_synth()
    for (points, quartics), expected in BENCHMARK_CLASS_COUNTS.items():
        paths = {}
        docs = synth.synthetic_documents(random.Random(41), points, quartics)
        for kind, doc in zip(("target", "atoms"), docs):
            paths[kind] = str(tmp_path / ("%s-%d-%d.json"
                                          % (kind, points, quartics)))
            synth.write_document(paths[kind], doc)
        target = fileio.load_target(paths["target"]).target
        (top,) = fileio.load_atoms(paths["atoms"], target).tuples
        assert target.class_counts(top) == expected
        if points == 4:
            assert listing_tally(target, top) == expected


# --- numerical helpers ----------------------------------------------------


def test_boundary_point_count_values():
    t = Target([("g", 1, 4)])
    beta = t.degree((1,))
    assert t.boundary_point_count(beta, [4, 4]) == 0
    beta2 = Target([("g", 1, 2)]).degree((1,))
    assert t.boundary_point_count(beta2, [6]) is None  # negative
    odd = Target([("g", 1, 3)])
    assert odd.boundary_point_count(odd.degree((1,)), []) is None  # parity
    assert odd.odd_maslov_generators() == ["g"]
    assert rank1().odd_maslov_generators() == []


def test_positivity_audit():
    good = rank2()
    assert good.positivity_violations(3) == []
    bad = Target([("g", 1, 0)])
    assert bad.positivity_violations(2) != []


# --- closed lattice -------------------------------------------------------


def closed_target():
    return Target(
        [("g", 1, 4)],
        closed_generators=[("L", 2, -1)],
        q_matrix=[[2]],
    )


def test_closed_area_consistency_enforced():
    with pytest.raises(TargetError):
        Target([("g", 1, 4)], closed_generators=[("L", 3, 1)], q_matrix=[[2]])


def test_w2_sign_multiplicative():
    t = closed_target()
    assert t.w2_sign((0,)) == 1
    assert t.w2_sign((1,)) == -1
    assert t.w2_sign((2,)) == 1
    assert t.w2_sign((3,)) == -1


def test_closed_image_membership():
    t = closed_target()
    assert t.in_closed_image(t.degree((2,)))
    assert not t.in_closed_image(t.degree((1,)))
    assert t.in_closed_image(t.degree((0,)))


def test_closed_preimages():
    t = closed_target()
    assert t.closed_preimages(t.degree((2,))) == [(1,)]
    assert t.closed_preimages(t.degree((1,))) == []
    assert t.closed_preimages(t.degree((4,))) == [(2,)]


def test_real_splits():
    t = rank1()
    zero = t.constraint_tuple((1,), points=["p"]).beta - t.degree((1,))
    assert t.real_splits(zero) == [(t.degree((0,)), t.degree((0,)))]
    splits = t.real_splits(t.degree((2,)))
    assert [(a.coords, b.coords) for a, b in splits] == [
        ((0,), (2,)), ((1,), (1,)), ((2,), (0,)),
    ]


def test_complex_splits():
    t = closed_target()
    splits = t.complex_splits(t.degree((2,)))
    assert [(a.coords, b) for a, b in splits] == [((0,), (1,)), ((2,), (0,))]
    # trivial closed preimage: only B = 0 pairs
    t0 = rank1()
    assert t0.complex_splits(t0.degree((1,))) == [(t0.degree((1,)), ())]
