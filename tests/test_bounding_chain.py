"""Boundary recursion, invariants, and the branch bijection."""

import contextlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opengw import bounding_chain
from opengw.bounding_chain import (
    BoundingChain,
    _chain_linking,
    ChainError,
    Decorated,
    assemble_chain,
    branch_bijection_failures,
    build_chains,
    chain_tuples,
    constant_center_classes,
    direct_boundary,
    splitting_weight,
    verify_welschinger_relation,
)
from opengw.lattice import ConstraintTuple, DegenerationType, Target
from opengw.multidisk import (
    AtomTable,
    DiskAtom,
    LinkingMatrix,
    tree_edge_indices,
)

from support import (
    branch_decompositions,
    configuration_count,
    cut_decorated,
    decomposition_form,
    decorated_multidisks,
    dim0_subtuples,
    from_branches,
    loop_decorated_multidisks,
    make_rng,
    parts_that_cannot_fit,
    point_labels,
    predecessor_parts,
    reference_branch_bijection_failures,
    reference_boundary,
    reference_census,
    reference_class_terms,
    reference_degree_invariant,
    reference_linked_pairs,
    reference_weighted_invariant,
    splitting_keys,
    splitting_of,
    synthetic_instance,
    toy_atoms,
    tree_cut,
)


def small_instance():
    """The worked two-level example: top tuple (2g, {p, q})."""
    t = Target([("g", 1, 2)])
    atoms = [
        DiskAtom(t.degree((1,)), frozenset(["p"]), frozenset(), 1, "a1"),
        DiskAtom(t.degree((1,)), frozenset(["p"]), frozenset(), -1, "a2"),
        DiskAtom(t.degree((1,)), frozenset(["q"]), frozenset(), 1, "b1"),
        DiskAtom(t.degree((2,)), frozenset(["p", "q"]), frozenset(), 1, "c1"),
        DiskAtom(t.degree((2,)), frozenset(["p", "q"]), frozenset(), -1, "c2"),
    ]
    entries = [
        ("a1", "b1", Fraction(2)),
        ("a2", "b1", Fraction(-1, 2)),
        ("a1", "a2", Fraction(1)),
        ("a1", "c1", Fraction(3)), ("a1", "c2", Fraction(1)),
        ("a2", "c1", Fraction(-1)), ("a2", "c2", Fraction(2)),
        ("b1", "c1", Fraction(1)), ("b1", "c2", Fraction(-2)),
    ]
    table = AtomTable(t, atoms, LinkingMatrix(entries))
    top = t.constraint_tuple((2,), ["p", "q"])
    return t, table, top


# --- chains and assembly ----------------------------------------------------


def test_assemble_empty_for_descriptor_only_minimal_tuple():
    t = Target([("g", 1, 2)], descriptors=[("C", 2)])
    alpha = t.constraint_tuple((0,), descriptors=["C"])
    assert t.dimension(alpha) == 0
    table = AtomTable(t, [], LinkingMatrix([]))
    assert assemble_chain(alpha, {}, table, t).boundary == ()


def test_assemble_requires_dimension_zero():
    t, table, top = small_instance()
    bad = t.constraint_tuple((2,), ["p"])
    with pytest.raises(ChainError):
        assemble_chain(bad, {}, table, t)


def test_assemble_single_level():
    """One point, degree g: the boundary is -sgn on each disk loop."""
    t, table, _ = small_instance()
    alpha = t.constraint_tuple((1,), ["p"])
    got = assemble_chain(alpha, build_chains([alpha], table, t), table, t)
    assert dict(got.boundary) == {"a1": Fraction(-1), "a2": Fraction(1)}


def test_assemble_two_level_hand_computation():
    """Worked example: boundary of the top tuple with one point removed
    feeds the linking products of the next level."""
    t, table, top = small_instance()
    chains = build_chains([top], table, t)
    got = dict(assemble_chain(top, chains, table, t).boundary)
    # class with two point parts: +sgn(c) on c-loops
    # classes with one point part and one chain part:
    #   -sgn(a) * lk(a, boundary(g,{q})) on a-loops, and symmetrically
    # boundary(g,{q}) = {b1: -1}; boundary(g,{p}) = {a1: -1, a2: +1}
    expect = {
        "c1": Fraction(1),
        "c2": Fraction(-1),
        "a1": Fraction(1) * Fraction(2),       # -(+1) * (-lk(a1,b1))
        "a2": Fraction(-1) * Fraction(-1, 2),  # -(-1) * (-lk(a2,b1))
        "b1": Fraction(2) - Fraction(-1, 2),   # -(+1)*(-(lk(b1,a1)) + ...)
    }
    # spell the b1 side out: -sgn(b1) * [lk(b1,a1)*(-1) + lk(b1,a2)*(+1)]
    expect["b1"] = -(Fraction(2) * Fraction(-1) + Fraction(-1, 2) * Fraction(1))
    assert got == expect


def test_flagship_boundary_identity_small_instance():
    t, table, top = small_instance()
    chains = build_chains([top], table, t)
    for alpha in dim0_subtuples(t, table, top):
        lhs = dict(chains[alpha].boundary)
        rhs = direct_boundary(alpha, table, t)
        assert lhs == rhs, alpha


INSTANCE_SHAPES = (
    (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0),
    (1, 0, 1, 0), (1, 1, 1, 0), (2, 0, 0, 1), (1, 1, 0, 1),
    (2, 1, 0, 1),
)


def test_flagship_boundary_identity_randomized():
    """Recursion side equals the direct multi-disk side on every
    dimension-0 tuple of random instances."""
    for seed in range(25):
        rng = make_rng(5000 + seed)
        np_, nq, ns, nc = INSTANCE_SHAPES[seed % len(INSTANCE_SHAPES)]
        target, table, top = synthetic_instance(
            rng, n_points=np_, n_quartic=nq, n_sextic=ns, n_conic=nc,
        )
        chains = build_chains([top], table, target)
        for alpha in dim0_subtuples(target, table, top):
            lhs = dict(chains[alpha].boundary)
            rhs = direct_boundary(alpha, table, target)
            assert lhs == rhs, (seed, alpha)


def _unsigned_classes(point_parts):
    """The class sign with its (-1)^(point parts) dropped: flipped for an
    odd number of point parts."""
    return 1


def _point_parity(eta):
    """(-1)^(point parts), the factor `_unsigned_classes` moves a class
    by."""
    return -1 if len(point_labels(eta)) % 2 else 1


def test_sign_toggle_moves_class_terms_by_predicted_sign(monkeypatch):
    """Dropping the class sign while the top chain is assembled moves
    each class term of its boundary by (-1)^(point parts): the flipped
    boundary is the listing oracle's terms, each times that factor.  On
    the worked example (two point parts or one, against one slot) and
    on a random instance with classes of both parities."""
    instances = [small_instance(), synthetic_instance(
        make_rng(16000), n_points=1, n_quartic=1
    )]
    odd = 0
    for t, table, top in instances:
        chains = build_chains([top], table, t)
        terms = reference_class_terms(top, chains, table, t)
        assert dict(chains[top].boundary) == reference_boundary(terms)
        moved = [(eta, {loop: _point_parity(eta) * v
                        for loop, v in contrib.items()})
                 for eta, contrib in terms]
        odd += sum(_point_parity(eta) < 0 for eta, _ in terms)
        with monkeypatch.context() as patch:
            patch.setattr(bounding_chain, "_class_sign", _unsigned_classes)
            flipped = assemble_chain(top, chains, table, t)
        assert dict(flipped.boundary) == reference_boundary(moved)
        assert flipped.boundary != chains[top].boundary
    assert odd


def test_class_sign_flip_breaks_the_boundary_identity(monkeypatch):
    """Negative control: with the class sign flipped for odd numbers of
    point parts while the family is built, the recursion side differs from
    the direct multi-disk side on some tuple of some random instance, so
    the identity above sees the sign."""
    monkeypatch.setattr(bounding_chain, "_class_sign", _unsigned_classes)
    broken = 0
    for seed in range(len(INSTANCE_SHAPES)):
        rng = make_rng(5000 + seed)
        np_, nq, ns, nc = INSTANCE_SHAPES[seed]
        target, table, top = synthetic_instance(
            rng, n_points=np_, n_quartic=nq, n_sextic=ns, n_conic=nc,
        )
        chains = build_chains([top], table, target)
        if any(dict(chains[alpha].boundary)
               != direct_boundary(alpha, table, target)
               for alpha in dim0_subtuples(target, table, top)):
            broken += 1
    assert broken > 0


def test_one_family_serves_several_tops():
    """The family of several tops is keyed by `chain_tuples` and holds
    every chain of each top's own family, with the same boundary and
    invariants; each stored chain is the assembly against the family
    itself."""
    target, table, top = synthetic_instance(make_rng(5003), n_points=2,
                                            n_quartic=1)
    tops = table.tuples()
    assert len(tops) > 1
    chains = build_chains(tops, table, target)
    assert list(chains) == chain_tuples(target, tops)
    assert all(not alpha.is_point_tuple() and target.dimension(alpha) == 0
               for alpha in chains)
    covered = set()
    for t in tops:
        own = build_chains([t], table, target)
        assert all(chains[alpha] == chain for alpha, chain in own.items())
        covered.update(own)
    assert covered == set(chains)
    for alpha, chain in chains.items():
        assert chain == assemble_chain(alpha, chains, table, target)


def test_missing_predecessor_chain_raises():
    """Nothing is silently zero: a family without the chain of a
    dimension-0 predecessor is refused, not read as an empty chain."""
    t, table, top = small_instance()
    chains = build_chains([top], table, t)
    del chains[t.constraint_tuple((1,), ["q"])]
    with pytest.raises(ChainError, match="missing predecessor chain"):
        assemble_chain(top, chains, table, t)


# --- linking a loop with a chain ------------------------------------------


def test_chain_linking_values():
    """lk of a loop against a chain's boundary, extended linearly, and
    kept on the chain once summed."""
    t, table, _ = small_instance()
    alpha_q = t.constraint_tuple((1,), ["q"])
    chains = build_chains([t.constraint_tuple((2,), ["p", "q"])], table, t)
    # boundary(g, {q}) = {b1: -1} against lk(a1, b1) = 2
    assert _chain_linking("a1", chains[alpha_q], table.links) == -2
    assert chains[alpha_q]._linking["a1"] == -2
    # boundary {b1: 1, a2: 2} against lk(a1, b1) = 2 and lk(a1, a2) = 1
    fake = BoundingChain(alpha_q, (("a2", Fraction(2)), ("b1", Fraction(1))),
                         (), Fraction(0))
    assert _chain_linking("a1", fake, table.links) == 4
    # an empty boundary links with nothing
    empty = BoundingChain(alpha_q, (), (), Fraction(0))
    assert _chain_linking("a1", empty, table.links) == 0


def test_chain_linking_missing_linking_data():
    t, table, _ = small_instance()
    alpha_q = t.constraint_tuple((1,), ["q"])
    fake = BoundingChain(alpha_q, (("zz", Fraction(1)),), (), Fraction(0))
    from opengw.multidisk import LinkingError

    with pytest.raises(LinkingError):
        _chain_linking("a1", fake, table.links)


@pytest.mark.parametrize("rank", [1, 2])
def test_each_loop_is_linked_with_each_chain_once(monkeypatch, rank):
    """build_chains sums the linking number of a (loop, chain) pair once,
    however many classes link that loop with that chain: the pairs asked
    for repeat, but the linking numbers read are one pass over the
    boundary of each chain per pair kept."""
    link = bounding_chain._chain_linking
    uses = []

    def counted(loop, chain, links):
        uses.append((loop, chain.alpha))
        return link(loop, chain, links)

    monkeypatch.setattr(bounding_chain, "_chain_linking", counted)
    target, table, top = synthetic_instance(make_rng(3), n_points=3,
                                            rank=rank)
    lk = table.links.lk
    reads = []

    def read(a, b):
        reads.append((a, b))
        return lk(a, b)

    monkeypatch.setattr(table.links, "lk", read)
    chains = build_chains([top], table, target)
    kept = [(loop, alpha) for alpha, chain in chains.items()
            for loop in chain._linking]
    assert set(kept) == set(uses) and len(kept) == len(set(uses)) < len(uses)
    assert len(reads) == sum(len(chains[alpha].boundary)
                             for _, alpha in kept)


# --- invariants ----------------------------------------------------------------


def test_invariant_degree_empty_splittings():
    """A chain tuple without rigid disks has no class: its degree
    invariant through its point and its weighted invariant are 0, as the
    separate walk through the extra point finds."""
    t = Target([("g", 1, 2)], descriptors=[("C", 2)])
    table = AtomTable(t, [], LinkingMatrix([]))
    alpha = t.constraint_tuple((1,), ["p"], ["C"])  # dimension 0
    chains = build_chains([alpha], table, t)
    assert chains[alpha].degrees == (("p", 0),)
    assert chains[alpha].weighted == 0
    dropped = t.constraint_tuple((1,), descriptors=["C"])  # dimension 2
    assert reference_degree_invariant(dropped, table, t, "p", chains) == 0


def test_welschinger_relation_small_instance():
    t, table, top = small_instance()
    chains = build_chains([top], table, t)
    total = configuration_count(top, table, t)
    _dropped, degree = chains[top].point_drop_degrees()[min(top.points)]
    assert verify_welschinger_relation(top, degree, total)
    # spot value: even |K| so the two sides agree on the nose
    assert len(top.points) % 2 == 0
    assert degree == total


def test_welschinger_relation_randomized():
    for seed in range(20):
        rng = make_rng(9000 + seed)
        np_, nq, ns, nc = INSTANCE_SHAPES[seed % len(INSTANCE_SHAPES)]
        target, table, top = synthetic_instance(
            rng, n_points=max(np_, 1), n_quartic=nq, n_sextic=ns, n_conic=nc,
        )
        chains = build_chains([top], table, target)
        total = configuration_count(top, table, target)
        drops = chains[top].point_drop_degrees()
        assert sorted(drops) == sorted(top.points)
        for point, (_dropped, degree) in drops.items():
            assert verify_welschinger_relation(top, degree, total), (seed, point)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(INSTANCE_SHAPES))
def test_sign_relation_on_every_chain_tuple_and_point(seed, shape):
    """For every tuple of the chain family and every point of it, the
    degree invariant the chain carries is (-1)^|K| times the tuple's
    configuration count."""
    target, table, top = synthetic_instance(make_rng(seed), *shape)
    chains = build_chains([top], table, target)
    for alpha, chain in chains.items():
        total = configuration_count(alpha, table, target)
        drops = chain.point_drop_degrees()
        assert list(drops) == sorted(alpha.points)
        for p, (dropped, degree) in drops.items():
            assert dropped == ConstraintTuple(
                alpha.beta, alpha.points - {p}, alpha.descriptors)
            assert verify_welschinger_relation(alpha, degree, total), (alpha, p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(INSTANCE_SHAPES))
def test_every_chain_boundary_is_the_direct_boundary(seed, shape):
    """The recursion's boundary of every chain of the family equals the
    multi-disk side."""
    target, table, top = synthetic_instance(make_rng(seed), *shape)
    chains = build_chains([top], table, target)
    assert list(chains) == chain_tuples(target, [top])
    for alpha, chain in chains.items():
        assert dict(chain.boundary) == direct_boundary(alpha, table,
                                                       target), alpha


def test_weighted_invariant_matches_degree_invariant():
    """Weighted-splitting definition against the degree definition with
    one point dropped, on instances with a single point constraint
    (point independence is then automatic).  Instances with a live
    zero-center splitting are excluded: their honest value involves
    chain-interior intersections the model does not carry."""
    checked = 0
    for seed in range(15):
        rng = make_rng(12000 + seed)
        target, table, top = synthetic_instance(
            rng, n_points=1, n_quartic=rng.choice((0, 1)),
            n_sextic=rng.choice((0, 1)),
        )
        chains = build_chains([top], table, target)
        if constant_center_classes(top, chains, table, target):
            continue
        checked += 1
        p = next(iter(top.points))
        dropped = target.constraint_tuple(
            top.beta, top.points - {p}, top.descriptors
        )
        degree = reference_degree_invariant(dropped, table, target, p,
                                            chains)
        assert chains[top].weighted == degree, seed
    assert checked >= 10


def test_constant_center_detector_flags_triple_intersection_case():
    """The known blind spot: a point part chain, two descriptor chains,
    degrees summing to the whole tuple, leaves a live zero-center
    splitting of three branches."""
    rng = make_rng(12014)
    target, table, top = synthetic_instance(
        rng, n_points=1, n_quartic=1, n_sextic=1,
    )
    chains = build_chains([top], table, target)
    live = constant_center_classes(top, chains, table, target)
    assert live
    assert all(eta.center_degree.is_zero for eta, _ in live)
    assert all(eta.part_count >= 3 for eta, _ in live)


def test_weighted_invariant_point_independence_gate():
    """With two points: check independence first, then the equality."""
    checked = 0
    for seed in range(25):
        rng = make_rng(13000 + seed)
        target, table, top = synthetic_instance(rng, n_points=2, n_quartic=0)
        chains = build_chains([top], table, target)
        if constant_center_classes(top, chains, table, target):
            continue
        values = {}
        for p in sorted(top.points):
            dropped = target.constraint_tuple(
                top.beta, top.points - {p}, top.descriptors
            )
            values[p] = reference_degree_invariant(
                dropped, table, target, p, chains
            )
        if len(set(values.values())) != 1:
            continue  # point-dependent instance: hypothesis fails, skip
        checked += 1
        assert chains[top].weighted == next(iter(values.values())), seed
    assert checked >= 3


CHAIN_SHAPES = INSTANCE_SHAPES + ((3, 0, 0, 0), (3, 0, 0, 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(CHAIN_SHAPES), rank=st.sampled_from((1, 2)))
def test_chain_invariants_match_the_separate_walks(seed, shape, rank):
    """Every chain of the family, read off its one class walk, equals
    the listing oracle, which walks the full class list on its own: per
    (tuple, loop) in its boundary, per point in its degree invariants
    (through the point as an extra constraint), and in its weighted
    invariant.  Both lattice ranks."""
    target, table, top = synthetic_instance(make_rng(seed), *shape,
                                            rank=rank)
    chains = build_chains([top], table, target)
    for alpha, chain in chains.items():
        assert dict(chain.boundary) == reference_boundary(
            reference_class_terms(alpha, chains, table, target)), alpha
        assert [p for p, _ in chain.degrees] == sorted(alpha.points)
        for p, degree in chain.degrees:
            dropped = ConstraintTuple(alpha.beta, alpha.points - {p},
                                      alpha.descriptors)
            assert degree == reference_degree_invariant(
                dropped, table, target, p, chains), (alpha, p)
        assert chain.weighted == reference_weighted_invariant(
            alpha, table, target, chains), alpha


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(CHAIN_SHAPES), rank=st.sampled_from((1, 2)))
def test_chain_assembly_links_exactly_the_class_pairs(seed, shape, rank):
    """The class sums ask for lk(loop, chain) on exactly the (center
    disk, slot chain) pairs of the classes that exist, zero-valued
    classes included (`reference_linked_pairs`): per tuple when its
    chain is assembled alone, and over the family when `build_chains`
    shares one memo.  So no lk is read on a branch that has no class,
    and none is skipped after a zero one, and a loop without linking
    data raises exactly where a class needs it.  Both lattice ranks."""
    target, table, top = synthetic_instance(make_rng(seed), *shape,
                                            rank=rank)
    link = bounding_chain._chain_linking
    uses = set()

    def counted(loop, chain, links):
        uses.add((loop, chain.alpha))
        return link(loop, chain, links)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounding_chain, "_chain_linking", counted)
        chains = build_chains([top], table, target)
        family = set(uses)
        expected = set()
        for alpha, chain in chains.items():
            pairs = reference_linked_pairs(alpha, chains, table, target)
            uses.clear()
            assert assemble_chain(alpha, chains, table, target) == chain
            assert uses == pairs, alpha
            expected |= pairs
    assert family == expected


@pytest.mark.parametrize("rank", [1, 2])
def test_class_sums_stay_inside_one_family(rank):
    """Two atom tables over one target, with the same loops and other
    linking numbers, each get their own chains, equal to the listing
    oracle: no class sum of one family is read by the other.  Each chain
    assembled alone equals its family's, and a family without the chain
    of a live predecessor is still refused."""
    target, table, top = synthetic_instance(make_rng(16001), n_points=3,
                                            n_quartic=1, rank=rank)
    loops = sorted(a.loop for a in table.atoms)
    other = AtomTable(target, table.atoms, LinkingMatrix([
        (a, b, 2 * table.links.lk(a, b) + 1)
        for a, b in itertools.combinations(loops, 2)]))
    families = [build_chains([top], t, target) for t in (table, other)]
    assert families[0] != families[1]
    for t, chains in zip((table, other), families):
        for alpha, chain in chains.items():
            assert dict(chain.boundary) == reference_boundary(
                reference_class_terms(alpha, chains, t, target)), alpha
            assert assemble_chain(alpha, chains, t, target) == chain
    chains = families[0]
    live = next(alpha for alpha in target.predecessors(top)
                if alpha in chains and chains[alpha].boundary)
    del chains[live]
    with pytest.raises(ChainError, match="missing predecessor chain"):
        assemble_chain(top, chains, table, target)


@pytest.mark.parametrize("rank", [1, 2])
def test_chains_that_cannot_fit_are_ignored(rank):
    """A chain in `chains` whose tuple fits below no class of alpha, by a
    label alpha lacks or a coordinate past alpha's packing, changes
    nothing: each tuple's chain, assembled alone with such chains beside
    its predecessors', is its family's chain.  Their boundaries are on
    the table's loops, so a chain read by mistake would be linked."""
    target, table, top = synthetic_instance(make_rng(16002), n_points=2,
                                            n_quartic=1, rank=rank)
    chains = build_chains([top], table, target)
    loops = sorted(a.loop for a in table.atoms)[:2]
    for alpha, chain in chains.items():
        extra = dict(chains)
        for part in parts_that_cannot_fit(target, alpha):
            extra[part] = BoundingChain(
                part, tuple((loop, Fraction(1)) for loop in loops), (),
                Fraction(0))
        assert assemble_chain(alpha, extra, table, target) == chain, alpha


def maslov_zero_instance(rng):
    """A rank-2 target whose second generator h has Maslov index 0, so
    that a tuple of degree b * h without labels has dimension 0 and a
    class can carry it as a part more than once.  Each dimension-0 tuple
    below the top (2g + 3h, {p, q}) gets 0 to 2 rigid disks with random
    signs.  A family of this target cannot be built: the class of 2h
    with center h and slot h links a disk of h with its own loop.  So the
    chains are drawn instead, each a random boundary on four loops e0-e3
    that bound no disk, for every dimension-0, non-point tuple below the
    top.  Every loop pair gets a small random rational linking number.
    Returns (target, atom table, top, chains)."""
    t = Target([("g", 1, 2), ("h", 1, 0)])
    top = t.constraint_tuple((2, 3), ["p", "q"])
    atoms = []
    for a, b in itertools.product(range(3), range(4)):
        for points in itertools.combinations(("p", "q"), a):
            for _ in range(rng.choice((0, 1, 1, 2)) if a or b else 0):
                atoms.append(DiskAtom(t.degree((a, b)), frozenset(points),
                                      frozenset(), rng.choice((1, -1)),
                                      "x%d" % len(atoms)))
    ends = ["e%d" % i for i in range(4)]
    loops = [atom.loop for atom in atoms] + ends
    links = LinkingMatrix([
        (x, y, Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        for x, y in itertools.combinations(loops, 2)])
    table = AtomTable(t, atoms, links)
    chains = {}
    for alpha in dim0_subtuples(t, table, top):
        boundary = tuple(sorted(
            (e, Fraction(rng.randint(-2, 2))) for e in rng.sample(ends, 2)))
        chains[alpha] = BoundingChain(
            alpha, tuple(x for x in boundary if x[1]), (), Fraction(0))
    return t, table, top, chains


def test_repeated_unlabeled_parts_match_the_listing(monkeypatch):
    """Unlabeled parts, repeats included, on drawn chains: each tuple's
    chain, assembled alone over the drawn chains of its predecessors,
    has the listing oracle's boundary, degree invariants and weighted
    invariant, and asks lk for exactly the class pairs.  Some class
    with one unlabeled part twice adds to a boundary."""
    link = bounding_chain._chain_linking
    uses = set()

    def counted(loop, chain, links):
        uses.add((loop, chain.alpha))
        return link(loop, chain, links)

    monkeypatch.setattr(bounding_chain, "_chain_linking", counted)
    repeated = 0
    for seed in range(4):
        target, table, top, chains = maslov_zero_instance(
            make_rng(17000 + seed))
        for alpha in chains:
            uses.clear()
            chain = assemble_chain(alpha, chains, table, target)
            assert uses == reference_linked_pairs(alpha, chains, table,
                                                  target), alpha
            terms = reference_class_terms(alpha, chains, table, target)
            assert dict(chain.boundary) == reference_boundary(terms), alpha
            for p, degree in chain.degrees:
                dropped = ConstraintTuple(alpha.beta, alpha.points - {p},
                                          alpha.descriptors)
                assert degree == reference_degree_invariant(
                    dropped, table, target, p, chains), (alpha, p)
            assert chain.weighted == reference_weighted_invariant(
                alpha, table, target, chains), alpha
            repeated += sum(1 for eta, _ in terms
                            if len(set(eta.parts)) < len(eta.parts))
    assert repeated


def test_weighted_invariant_forwards_sign_toggles(monkeypatch):
    """Flipping the class sign for odd numbers of point parts while the
    top chain is assembled moves each class term of its weighted sum,
    and of its degree invariant, by (-1)^(point parts).  The separate
    walk through the extra point then disagrees by a sign: the one-walk
    reading of the degree rests on the sign flipping with the point
    parts."""
    rng = make_rng(16000)
    target, table, top = synthetic_instance(rng, n_points=1, n_quartic=1)
    chains = build_chains([top], table, target)
    (p,) = top.points
    unmoved = moved = degree = Fraction(0)
    for eta, contrib in reference_class_terms(top, chains, table, target):
        k = eta.part_count
        factor = _point_parity(eta)
        term = splitting_weight(k) * max(k, 1) * sum(contrib.values())
        unmoved += term
        moved += factor * term
        if p in point_labels(eta):
            degree += factor * sum(contrib.values())
    # the classes through the point carry weight here, so the flip is
    # visible
    assert moved != unmoved and degree != 0
    monkeypatch.setattr(bounding_chain, "_class_sign", _unsigned_classes)
    # the top's own walk under the flipped sign, over the unflipped family
    flipped = assemble_chain(top, chains, table, target)
    assert flipped.degrees == ((p, degree),)
    assert flipped.weighted == moved + Fraction(1, 2) * degree
    dropped = target.constraint_tuple(top.beta, (), top.descriptors)
    assert reference_degree_invariant(dropped, table, target, p,
                                      chains) == -degree


def test_splitting_weight_values():
    assert splitting_weight(0) == 1
    assert splitting_weight(1) == Fraction(1, 2)
    assert splitting_weight(2) == 0  # two-part splittings drop
    assert splitting_weight(3) == Fraction(-1, 6)


def test_wrong_weight_rule_breaks_the_match(monkeypatch):
    """Negative control: dropping the -1/2 from the splitting weight
    while the family is built must break the equality on some
    instance."""

    def wrong_rule(k):
        return Fraction(1) if k == 0 else Fraction(1, k)

    monkeypatch.setattr(bounding_chain, "splitting_weight", wrong_rule)
    broken = 0
    for seed in range(10):
        rng = make_rng(14000 + seed)
        target, table, top = synthetic_instance(rng, n_points=1, n_quartic=0)
        chains = build_chains([top], table, target)
        p = next(iter(top.points))
        dropped = target.constraint_tuple(
            top.beta, top.points - {p}, top.descriptors
        )
        degree = reference_degree_invariant(dropped, table, target, p,
                                            chains)
        if chains[top].weighted != degree:
            broken += 1
    assert broken > 0


# --- decorated configurations and the bijection ------------------------------


def test_to_branches_single_atom():
    t, table, top = small_instance()
    alpha = t.constraint_tuple((1,), ["p"])
    dmds = decorated_multidisks(alpha, table)
    assert len(dmds) == 2  # two atoms, trivial tree, center forced
    keys = splitting_keys(table, top)
    b = cut_decorated(dmds[0], keys)
    assert b.branches == ()
    eta = splitting_of(b.key, keys)
    assert eta.part_count == 1  # the single point part
    assert point_labels(eta) == frozenset(["p"])


def test_to_branches_two_atoms():
    t, table, top = small_instance()
    dmds = [
        d for d in decorated_multidisks(top, table)
        if len(d.config) == 2
    ]
    assert dmds
    keys = splitting_keys(table, top)
    for d in dmds:
        b = cut_decorated(d, keys)
        assert len(b.branches) == 1
        pid, _, sub = b.branches[0]
        assert len(sub.config) == 1
        assert (keys.parts[pid].points
                | point_labels(splitting_of(b.key, keys))) == top.points


def test_branch_round_trip_small():
    t, table, top = small_instance()
    keys = splitting_keys(table, top)
    for alpha in dim0_subtuples(t, table, top):
        for d in decorated_multidisks(alpha, table):
            assert from_branches(cut_decorated(d, keys)) == d


def test_bijection_cardinality_small():
    t, table, top = small_instance()
    keys = splitting_keys(table, top)
    for alpha in dim0_subtuples(t, table, top):
        dmds = decorated_multidisks(alpha, table)
        images = {decomposition_form(cut_decorated(d, keys), keys)
                  for d in dmds}
        assert len(images) == len(dmds)
        assert images == set(branch_decompositions(alpha, table, t))


def test_bijection_randomized():
    """Both lattice ranks: the images are distinct, equal the enumerated
    decompositions, and re-glue to their decorated configurations."""
    for rank, seed in itertools.product((1, 2), range(10)):
        rng = make_rng(15000 + seed)
        target, table, top = synthetic_instance(
            rng, n_points=2, n_quartic=rng.choice((0, 1)), rank=rank
        )
        keys = splitting_keys(table, top)
        for alpha in dim0_subtuples(target, table, top):
            dmds = decorated_multidisks(alpha, table)
            images = [cut_decorated(d, keys) for d in dmds]
            assert len(set(images)) == len(dmds), (rank, seed, alpha)
            assert {decomposition_form(b, keys) for b in images} == set(
                branch_decompositions(alpha, table, target)
            ), (rank, seed, alpha)
            for d, b in zip(dmds, images):
                assert from_branches(b) == d


def test_branch_decompositions_take_a_decorated_map(monkeypatch):
    """Given one map from tuple to decorated configurations, the branch
    side enumerates no configurations and gives the same output."""
    target, bundle = toy_atoms()
    instances = [(target, bundle.table, top) for top in bundle.tuples]
    instances.append(synthetic_instance(make_rng(16001), n_points=3))
    calls = [0]
    original = AtomTable.multi_disks

    def counted(self, alpha):
        calls[0] += 1
        return original(self, alpha)

    monkeypatch.setattr(AtomTable, "multi_disks", counted)
    compared = 0
    for target, table, top in instances:
        worklist = dim0_subtuples(target, table, top)
        decorated = {a: loop_decorated_multidisks(a, table) for a in worklist}
        assert calls[0] == len(worklist)
        for alpha in worklist:
            calls[0] = 0
            with_map = branch_decompositions(alpha, table, target,
                                             decorated=decorated)
            assert calls[0] == 0
            assert with_map == branch_decompositions(alpha, table, target)
            compared += bool(with_map)
        calls[0] = 0
    assert compared >= 10


def unlabeled_atom_instance():
    """Generators a (area 1, Maslov 2) and b (area 1, Maslov 0); atoms
    L0 = (a; p0), L1 = (b), L2 = (b); the tuple (1,2; p0).  L1 and L2
    carry no label, so a slot assignment can reuse one of them."""
    t = Target([("a", 1, 2), ("b", 1, 0)])
    atoms = [
        DiskAtom(t.degree((1, 0)), frozenset(["p0"]), frozenset(), 1, "L0"),
        DiskAtom(t.degree((0, 1)), frozenset(), frozenset(), 1, "L1"),
        DiskAtom(t.degree((0, 1)), frozenset(), frozenset(), -1, "L2"),
    ]
    entries = [("L0", "L1", 1), ("L0", "L2", 2), ("L1", "L2", -1)]
    table = AtomTable(t, atoms, LinkingMatrix(entries))
    return t, table, t.constraint_tuple((1, 2), ["p0"])


def test_branch_decompositions_keep_atoms_disjoint():
    """Without the disjointness filter the oracle lists 17
    decompositions here, 8 of them with an atom used twice."""
    t, table, alpha = unlabeled_atom_instance()
    decorated = decorated_multidisks(alpha, table)
    assert len(decorated) == 9
    oracle = branch_decompositions(alpha, table, t)
    assert len(oracle) == 9
    keys = splitting_keys(table, alpha)
    assert {decomposition_form(cut_decorated(d, keys), keys)
            for d in decorated} == set(oracle)


def test_branch_count_refuses_an_unlabeled_atom():
    t, table, alpha = unlabeled_atom_instance()
    with pytest.raises(ChainError, match="'L1'"):
        branch_bijection_failures(alpha, splitting_keys(table, alpha))


def test_branch_check_lists_no_part(monkeypatch):
    """The check reads the parts from the atom table and walks no tree
    list of its own: once the census of each size is built, it passes on
    every tuple with the tree enumeration unavailable, and counts as
    many decorated configurations as the listing holds."""
    target, table, top = synthetic_instance(make_rng(16002), n_points=3)
    worklist = dim0_subtuples(target, table, top)
    by_tuple = {a: decorated_multidisks(a, table) for a in worklist}
    for alpha in worklist:
        branch_bijection_failures(alpha, splitting_keys(table, top))

    def refused(*args, **kwargs):
        raise AssertionError("a tree list was walked")

    monkeypatch.setattr(bounding_chain, "tree_edge_indices", refused)
    for alpha in worklist:
        assert branch_bijection_failures(alpha, splitting_keys(table, top)) \
            == ((), len(by_tuple[alpha])), alpha
    assert sum(map(len, by_tuple.values())) > len(by_tuple[top]) > 0


def bell(n):
    """The Bell number B(n), by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


@pytest.mark.parametrize("m", range(1, 8))
def test_census_buckets_match_the_closed_forms(m):
    """At every center: Bell(m - 1) buckets, one per vertex partition;
    each holds prod |B|^(|B| - 1) trees, a rooted tree on every block,
    and the counts sum to the m^(m - 2) trees of the table.  Every
    verdict is true, and each bucket keeps its first tree's cut."""
    census = bounding_chain._census(m)
    assert len(census) == m
    for c, buckets in enumerate(census):
        assert len(buckets) == bell(m - 1)
        assert len({cut[0] for _, _, cut in buckets}) == len(buckets)
        for count, tree, cut in buckets:
            blocks, _, reglued, in_table = cut
            assert cut == tree_cut(m, c, tree)
            assert count == math.prod(
                block.bit_count() ** (block.bit_count() - 1)
                for block in blocks)
            assert reglued and in_table, (m, c, tree)
        assert sum(count for count, *_ in buckets) \
            == (m ** (m - 2) if m > 1 else 1)


@pytest.mark.parametrize("m", range(1, 8))
def test_census_matches_the_per_tree_reference(m):
    """The census from one rooted walk per tree equals the census that
    cuts every tree at every center by its own walk out from that
    center: the same buckets in the same order, with the same counts,
    first trees, cuts and both verdicts."""
    assert bounding_chain._census(m) == reference_census(m)


def constant_cut(first):
    """A cut that sends every configuration to the image of the one
    decorated configuration `first`, keyed by the keys it is given."""
    cut = bounding_chain.to_branches

    def constant(config, c, at_c, keys):
        config, c, tree = first
        return cut(config, c, tree_cut(len(config), c, tree), keys)
    return constant


def reversed_parts_cut(original):
    """A cut whose splitting key lists its part ids in reverse order."""
    def reversed_parts(config, c, at_c, keys):
        cut = original(config, c, at_c, keys)
        coords, descriptors, ids = cut.key
        return cut._replace(key=(coords, descriptors, ids[::-1]))
    return reversed_parts


def lossy_table(table, alpha):
    """A table patch that drops the first configuration of alpha only;
    every other tuple, alpha's parts included, keeps its list."""
    original = table.multi_disks

    def multi_disks(beta):
        configs = original(beta)
        return configs[1:] if beta == alpha else configs
    return multi_disks


def census_victim(m):
    """(m, c, tree) of the first tree on m vertices that is not the
    first tree of its census bucket, or None."""
    for c, buckets in enumerate(bounding_chain._census(m)):
        firsts = {tree for _, tree, _ in buckets}
        for tree in tree_edge_indices(m):
            if tree not in firsts:
                return m, c, tree
    return None


def broken_reglue_cuts(original, victim):
    """`_tree_cuts` that, for the victim (m, c, tree) only, moves the
    local root of the first branch of two or more vertices at c to the
    next vertex of its block.  The local subtree is untouched, so it
    stays in the tree table; re-gluing no longer gives the tree back."""
    def tree_cuts(m, tree):
        cuts = original(m, tree)
        if (m, tree) != victim[::2]:
            return cuts
        c = victim[1]
        blocks, branches, _, in_table = cuts[c]
        k = next(i for i, block in enumerate(blocks)
                 if block.bit_count() > 1)
        root, sub_tree = branches[k]
        branches = list(branches)
        branches[k] = ((root + 1) % blocks[k].bit_count(), sub_tree)
        cuts = list(cuts)
        cuts[c] = (blocks, tuple(branches),
                   bounding_chain._glue(m, c, blocks, branches) == tree,
                   in_table)
        return cuts
    return tree_cuts


@contextlib.contextmanager
def patched_cuts(tree_cuts):
    """`_tree_cuts` replaced, with the census rebuilt from it inside and
    from the original after."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounding_chain, "_tree_cuts", tree_cuts)
        bounding_chain._census.cache_clear()
        try:
            yield
        finally:
            bounding_chain._census.cache_clear()


def test_each_bijection_step_catches_what_the_others_miss(monkeypatch):
    """Four broken variants, each failing exactly one step: a cut that
    sends every configuration to one valid image (not injective), a cut
    whose splitting lists its parts out of canonical order (off the
    quotient side, though it still round-trips), a table that loses one
    configuration of the tuple (not onto), and a tree cut whose re-glue
    is wrong for one tree that is not the first of its census bucket,
    where the round trip never runs: only the census verdict of step 1
    sees it."""
    t, table, top = small_instance()
    count = len(decorated_multidisks(top, table))
    assert branch_bijection_failures(top, splitting_keys(table, top)) \
        == ((), count)
    original = bounding_chain.to_branches
    first = decorated_multidisks(top, table)[0]

    monkeypatch.setattr(bounding_chain, "to_branches", constant_cut(first))
    assert branch_bijection_failures(top, splitting_keys(table, top)) \
        == ((1,), count)

    monkeypatch.setattr(bounding_chain, "to_branches",
                        reversed_parts_cut(original))
    assert branch_bijection_failures(top, splitting_keys(table, top)) \
        == ((2,), count)
    monkeypatch.undo()
    monkeypatch.setattr(table, "multi_disks", lossy_table(table, top))
    assert branch_bijection_failures(top,
                                     splitting_keys(table, top))[0] == (3,)
    monkeypatch.undo()

    target, table, top = synthetic_instance(make_rng(16002), n_points=3)
    victim = census_victim(max(map(len, table.multi_disks(top))))
    assert victim is not None
    config = next(c for c in table.multi_disks(top) if len(c) == victim[0])
    d = Decorated(config, victim[1], victim[2])
    assert branch_bijection_failures(top, splitting_keys(table, top))[0] == ()
    with patched_cuts(broken_reglue_cuts(bounding_chain._tree_cuts,
                                         victim)):
        assert from_branches(cut_decorated(d, splitting_keys(table, top))) != d
        assert branch_bijection_failures(
            top, splitting_keys(table, top))[0] == (1,)
    assert branch_bijection_failures(top, splitting_keys(table, top))[0] == ()


@pytest.mark.parametrize("verdict, step", [("reglued", 1), ("in_table", 2)])
def test_census_verdicts_reach_their_steps(verdict, step):
    """A cut verdict that is false for one tree, not the first of its
    census bucket, at one center fails exactly its step: only the census
    sees it."""
    target, table, top = synthetic_instance(make_rng(16002), n_points=3)
    victim = census_victim(max(map(len, table.multi_disks(top))))
    original = bounding_chain._tree_cuts
    place = {"reglued": 2, "in_table": 3}[verdict]  # in a `_tree_cuts` cut

    def tree_cuts(m, tree):
        cuts = original(m, tree)
        if (m, tree) == victim[::2]:
            c = victim[1]
            cuts[c] = cuts[c][:place] + (False,) + cuts[c][place + 1:]
        return cuts

    with patched_cuts(tree_cuts):
        assert branch_bijection_failures(
            top, splitting_keys(table, top))[0] == (step,)


def test_bijection_cuts_once_per_group(monkeypatch):
    """The cut, the re-glue and the class lookup run once per group
    (configuration, center, census bucket): m * Bell(m - 1) times for a
    configuration of m disks, fewer than its m^(m - 1) decorated forms."""
    target, table, top = synthetic_instance(make_rng(16002), n_points=3)
    sizes = [len(config) for config in table.multi_disks(top)]
    calls = []
    original = bounding_chain.to_branches

    def counted(config, c, cut, keys):
        calls.append((config, c, cut[0]))
        return original(config, c, cut, keys)

    monkeypatch.setattr(bounding_chain, "to_branches", counted)
    failed, decorated = branch_bijection_failures(top,
                                                  splitting_keys(table, top))
    assert failed == ()
    assert len(calls) == len(set(calls)) \
        == sum(m * bell(m - 1) for m in sizes) < decorated
    assert decorated == sum(m ** (m - 1) for m in sizes)


@pytest.mark.parametrize("m", range(1, 7))
def test_every_cut_shape_reglues_into_the_tree_table(m):
    """Every (m, c, tree) with m up to 6: the blocks partition the other
    vertices, re-gluing gives the tree back, and every local subtree is
    a tree of the table."""
    count = 0
    for tree in tree_edge_indices(m):
        for c in range(m):
            blocks, _, reglued, in_table = tree_cut(m, c, tree)
            assert sorted(v for block in blocks for v in range(m)
                          if block >> v & 1) \
                == [v for v in range(m) if v != c]
            assert reglued and in_table, (m, c, tree)
            count += 1
    assert count == m ** (m - 1)


BRANCH_SHAPES = ((1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (1, 1, 0, 0),
                 (2, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (2, 0, 0, 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(BRANCH_SHAPES))
def test_branch_count_and_images_match_the_oracle(seed, shape):
    """The decorated configurations are as many as the enumerated
    decompositions, the packed images map one-to-one onto them, and the
    check, with its class-level count, passes and counts as many."""
    target, table, top = synthetic_instance(make_rng(seed), *shape)
    worklist = dim0_subtuples(target, table, top)
    by_tuple = {a: decorated_multidisks(a, table) for a in worklist}
    loop_by_tuple = {a: loop_decorated_multidisks(a, table)
                     for a in worklist}
    for alpha in worklist:
        oracle = branch_decompositions(alpha, table, target,
                                       decorated=loop_by_tuple)
        assert len(by_tuple[alpha]) == len(oracle), alpha
        keys = splitting_keys(table, top)
        images = [decomposition_form(cut_decorated(d, keys), keys)
                  for d in by_tuple[alpha]]
        assert len(set(images)) == len(images), alpha
        assert set(images) == set(oracle), alpha
        assert branch_bijection_failures(alpha, splitting_keys(table, top)) \
            == ((), len(oracle)), alpha


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(BRANCH_SHAPES),
       rank=st.sampled_from((1, 2)))
def test_check_matches_the_per_configuration_reference(seed, shape, rank):
    """On every tuple, the check and the reference that lists, cuts,
    re-glues and classifies each decorated configuration on its own fail
    the same steps and count the same: on the intact code, and under
    each broken variant of
    `test_each_bijection_step_catches_what_the_others_miss`.  Both
    lattice ranks are drawn."""
    target, table, top = synthetic_instance(make_rng(seed), *shape,
                                            rank=rank)
    original_cut = bounding_chain.to_branches
    original_cuts = bounding_chain._tree_cuts
    for alpha in dim0_subtuples(target, table, top):
        decorated = decorated_multidisks(alpha, table)

        def both():
            return (branch_bijection_failures(alpha,
                                              splitting_keys(table, top)),
                    reference_branch_bijection_failures(alpha, table,
                                                        target))

        assert both() == (((), len(decorated)),) * 2, alpha
        if not decorated:
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(table, "multi_disks", lossy_table(table, alpha))
            check, reference = both()
        assert check == reference and check[0] == (3,), alpha
        variants = [
            ("to_branches", constant_cut(decorated[0]),
             (1,) if len(decorated) > 1 else ()),
            ("to_branches", reversed_parts_cut(original_cut), None),
        ]
        for name, patched, expected in variants:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bounding_chain, name, patched)
                check, reference = both()
            assert check == reference, (alpha, name)
            assert expected is None or check[0] == expected, (alpha, name)
        victim = census_victim(max(map(len, table.multi_disks(alpha))))
        if victim is not None:
            with patched_cuts(broken_reglue_cuts(original_cuts, victim)):
                check, reference = both()
            assert check == reference and check[0] == (1,), alpha


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(BRANCH_SHAPES),
       rank=st.sampled_from((1, 2)))
def test_family_parts_are_the_predecessor_parts(seed, shape, rank):
    """The parts the keys filter from the chain family of the top are,
    for every tuple of the family, its dimension-0, non-point
    predecessors with configurations, in the same order."""
    target, table, top = synthetic_instance(make_rng(seed), *shape,
                                            rank=rank)
    keys = splitting_keys(table, top)
    family = chain_tuples(target, [top])
    assert keys.family == frozenset(family)
    for alpha in family:
        assert keys.parts_below(alpha) \
            == predecessor_parts(alpha, table, target), alpha


def test_bijection_check_lists_no_predecessor(monkeypatch):
    """With the keys built, the check of every family tuple runs with
    the predecessor listing unavailable and gives what it gives with
    it."""
    instances = [small_instance()]
    instances += [synthetic_instance(make_rng(16100 + seed), n_points=3,
                                     rank=rank)
                  for seed, rank in ((0, 1), (1, 2))]
    checked = 0
    for target, table, top in instances:
        family = chain_tuples(target, [top])
        expected = {alpha: branch_bijection_failures(
            alpha, splitting_keys(table, top))
            for alpha in family}
        keys = splitting_keys(table, top)

        def refused(self, alpha):
            raise AssertionError("predecessors of %r were listed" % (alpha,))

        with monkeypatch.context() as mp:
            mp.setattr(Target, "predecessors", refused)
            for alpha in family:
                assert branch_bijection_failures(alpha, keys) \
                    == expected[alpha], alpha
                checked += expected[alpha][1]
        assert all(failed == () for failed, _ in expected.values())
    assert checked > 0


def test_tuple_outside_the_family_is_refused():
    """Keys built for the family of a smaller tuple refuse the top, whose
    parts that family may lack, rather than count fewer parts."""
    target, table, top = synthetic_instance(make_rng(16002), n_points=3)
    below = next(alpha for alpha in chain_tuples(target, [top])
                 if alpha != top and predecessor_parts(alpha, table, target))
    keys = splitting_keys(table, below)
    assert branch_bijection_failures(below, keys)[0] == ()
    with pytest.raises(ChainError, match="not in the chain family"):
        branch_bijection_failures(top, keys)
    with pytest.raises(ChainError, match="not in the chain family"):
        branch_bijection_failures(top, splitting_keys(table))


def round_trip_verdicts(alpha, table, keys, extra=()):
    """Per group (configuration, center, census bucket) of alpha, and per
    decorated configuration in `extra`: (the integer round trip of the
    check, `_reglue` on the configuration's loop places, equals (c,
    tree); from_branches(cut) == (config, c, tree)).  The cuts and the
    census are read from the module when called."""
    groups = [(config, c, tree, cut)
              for config in table.multi_disks(alpha)
              for c, buckets in enumerate(
                  bounding_chain._census(len(config)))
              for _, tree, cut in buckets]
    groups += [(config, c, tree, tree_cut(len(config), c, tree))
               for config, c, tree in extra]
    verdicts = []
    masks = {}  # per configuration, as the check keeps them
    for config, c, tree, at_c in groups:
        index = {a.loop: k for k, a in enumerate(config.atoms)}
        cut = bounding_chain.to_branches(config, c, at_c, keys)
        glued = bounding_chain._reglue(cut, index,
                                       masks.setdefault(config, {}))
        verdicts.append((glued == (c, tree),
                         from_branches(cut) == (config, c, tree)))
    return verdicts


def round_trips_agree(target, table, top):
    """Group by group, over the chain family of top, the check's integer
    round trip gives the verdict of from_branches on the intact code,
    under a cut that sends every configuration to one image, and under a
    tree cut whose re-glue is wrong for one tree, cut on its own.
    Returns the variants that met a configuration."""
    keys = splitting_keys(table, top)
    met = set()
    for alpha in chain_tuples(target, [top]):
        decorated = decorated_multidisks(alpha, table)
        if not decorated:
            continue
        verdicts = round_trip_verdicts(alpha, table, keys)
        assert all(ours and theirs for ours, theirs in verdicts), alpha
        # the first decorated configuration's tree is the first of its
        # bucket, so exactly one group is its own image
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounding_chain, "to_branches",
                       constant_cut(decorated[0]))
            verdicts = round_trip_verdicts(alpha, table, keys)
        assert all(ours == theirs for ours, theirs in verdicts), alpha
        assert sum(ours for ours, _ in verdicts) == 1, alpha
        met.add("constant")
        victim = census_victim(max(map(len, table.multi_disks(alpha))))
        if victim is None:
            continue
        config = next(config for config in table.multi_disks(alpha)
                      if len(config) == victim[0])
        with patched_cuts(broken_reglue_cuts(bounding_chain._tree_cuts,
                                             victim)):
            verdicts = round_trip_verdicts(
                alpha, table, keys, [(config,) + victim[1:]])
        assert all(ours == theirs for ours, theirs in verdicts), alpha
        assert verdicts[-1] == (False, False), alpha
        met.add("reglue")
    return met


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(BRANCH_SHAPES),
       rank=st.sampled_from((1, 2)))
def test_integer_round_trip_agrees_with_from_branches(seed, shape, rank):
    """`round_trips_agree` on drawn instances of both lattice ranks."""
    round_trips_agree(*synthetic_instance(make_rng(seed), *shape,
                                          rank=rank))


def test_integer_round_trip_meets_every_variant():
    """`round_trips_agree` on an instance whose configurations reach
    four disks, where both broken variants are met."""
    assert round_trips_agree(*synthetic_instance(make_rng(16002),
                                                 n_points=3)) \
        == {"constant", "reglue"}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(BRANCH_SHAPES),
       rank=st.sampled_from((1, 2)))
def test_class_keys_are_equal_exactly_when_the_classes_are(seed, shape,
                                                            rank):
    """Over every dimension-0 tuple of a drawn instance, the classes of
    `classes_through` (table tuples and the empty center as centers,
    every dimension-0 predecessor as a part) get equal `SplittingKeys`
    keys exactly when they are equal, and each key reads back as its
    class.  The check with the keys shared across the tuples agrees with
    the per-configuration reference on each tuple."""
    target, table, top = synthetic_instance(make_rng(seed), *shape,
                                            rank=rank)
    keys = splitting_keys(table, top)
    centers = bounding_chain._center_triples(table) + [
        (target.zero_degree(), frozenset(), frozenset())]
    by_key = {}
    for alpha in dim0_subtuples(target, table, top):
        parts = [p for p in target.predecessors(alpha)
                 if target.dimension(p) == 0 and not p.is_point_tuple()]
        for eta, _count in target.classes_through(alpha, centers, parts):
            by_key.setdefault(keys.class_key(eta), set()).add(eta)
        assert branch_bijection_failures(alpha, keys) \
            == reference_branch_bijection_failures(alpha, table, target), \
            alpha
    for key, etas in by_key.items():
        assert etas == {splitting_of(key, keys)}, key


def test_class_keys_tell_the_generators_apart():
    """Rank 2: a part of degree (1, 0) and one of degree (0, 1), with the
    same labels and centers of the other degree, key two classes."""
    t = Target([("g", 1, 2), ("h", Fraction(3, 2), 2)])
    keys = splitting_keys(AtomTable(t, [], LinkingMatrix([])))
    etas = [
        DegenerationType(t.degree(center), frozenset(), tuple(sorted(
            [t.constraint_tuple(part, ["p"]), t.point_tuple("q")],
            key=ConstraintTuple.sort_key)))
        for center, part in (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    ]
    assert etas[0] != etas[1]
    assert keys.class_key(etas[0]) != keys.class_key(etas[1])
    assert [splitting_of(keys.class_key(eta), keys) for eta in etas] == etas
