"""Live-class generation against the full class list.

`Target.classes_through` with the table's tuples as centers and the
live chains as parts (the classes chain assembly sums over),
`constant_center_classes`, the class-level count of branch
decompositions and the enumerated quotient side
`support.branch_decompositions` build only the degeneration classes
that can contribute.  The oracles below apply the same filters to the
full class list of the direct enumerator in `support` instead, and the
routes must agree class by class on the toy, on a benchmark-sized
synthetic instance and on random synthetic instances.  The chains'
values must equal the listing oracle `support.reference_class_terms`,
which evaluates each class of the full list on its own.
"""

import itertools
import os
import random
from collections import Counter

from opengw import fileio
from opengw.bounding_chain import (
    _center_triples,
    _live_parts,
    branch_bijection_failures,
    build_chains,
    constant_center_classes,
    splitting_weight,
)
from opengw.lattice import ConstraintTuple

from support import (
    BranchDecomposition,
    benchmark_synth,
    branch_decompositions,
    center_tuple,
    chain_slots,
    dim0_subtuples,
    full_class_list,
    loop_decorated_multidisks,
    make_rng,
    point_labels,
    reference_boundary,
    reference_class_terms,
    splitting_keys,
    synthetic_instance,
)

DATA = os.path.join(os.path.dirname(fileio.__file__), "data")


# --- oracles: filters over the full class list -------------------------------


def _full_slot_chains(eta, chains):
    out = []
    for i in chain_slots(eta):
        chain = chains.get(eta.parts[i])
        if chain is None or not chain.boundary:
            return None
        out.append(chain)
    return out


def full_chain_classes(alpha, chains, table, classes):
    """The classes a chain's sums meet: a table tuple as center, and
    every non-point part a chain with nonempty boundary."""
    centers = set(table.tuples())
    return [
        (eta, count) for eta, count in classes(alpha)
        if center_tuple(eta) in centers
        and _full_slot_chains(eta, chains) is not None
    ]


def full_constant_center_classes(alpha, chains, classes):
    return [
        (eta, count) for eta, count in classes(alpha)
        if eta.center_degree.is_zero
        and not eta.center_descriptors and not point_labels(eta)
        and splitting_weight(eta.part_count) != 0
        and _full_slot_chains(eta, chains) is not None
    ]


def full_branch_decompositions(alpha, table, classes):
    decorated = {}
    out = set()
    for eta, _count in classes(alpha):
        center = center_tuple(eta)
        if center is None:
            continue
        slot_parts = [eta.parts[i] for i in chain_slots(eta)]
        for part in slot_parts:
            if part not in decorated:
                decorated[part] = loop_decorated_multidisks(part, table)
        slot_dmds = [decorated[part] for part in slot_parts]
        for center_atom in table.single_disks(center):
            for assignment in itertools.product(*slot_dmds):
                loops = [center_atom.loop] + [
                    a.loop for d in assignment for a in d.config.atoms
                ]
                if len(set(loops)) != len(loops):
                    continue
                branches = sorted(
                    zip(slot_parts, assignment),
                    key=lambda pb: (pb[0].sort_key(), pb[1].sort_key()),
                )
                out.add(BranchDecomposition(eta, center_atom, tuple(branches)))
    return sorted(out, key=BranchDecomposition.sort_key)


# --- the comparison ---------------------------------------------------------------


def assert_live_routes_match(target, table, top, label):
    """Compare every live-class consumer with its full-list oracle on the
    dimension-0 tuples below top: the classes each chain's sums meet,
    and the chain's boundary and degree invariants against the class
    terms of the listing oracle, through each point for the degrees.
    Returns how many items each route produced, so that callers can
    check the comparison was not vacuous."""
    chains = build_chains([top], table, target)

    def classes(alpha):
        return full_class_list(target, alpha)

    seen = Counter()
    worklist = dim0_subtuples(target, table, top)
    for alpha in worklist:
        walked = list(target.classes_through(
            alpha, _center_triples(table), _live_parts(alpha, chains, target)))
        assert walked == full_chain_classes(alpha, chains, table, classes), \
            (label, alpha)
        chain = chains[alpha]
        terms = reference_class_terms(alpha, chains, table, target)
        assert dict(chain.boundary) == reference_boundary(terms), \
            (label, alpha)
        constant = constant_center_classes(alpha, chains, table, target)
        assert constant == full_constant_center_classes(
            alpha, chains, classes
        ), (label, alpha)
        decompositions = branch_decompositions(alpha, table, target)
        assert decompositions == full_branch_decompositions(
            alpha, table, classes
        ), (label, alpha)
        assert branch_bijection_failures(alpha, splitting_keys(table, top)) \
            == ((), len(decompositions)), (label, alpha)
        seen["terms"] += len(terms)
        seen["constant"] += len(constant)
        seen["branches"] += len(decompositions)
        for p, degree in chain.degrees:
            dropped = ConstraintTuple(
                alpha.beta, alpha.points - {p}, alpha.descriptors
            )
            terms = reference_class_terms(dropped, chains, table, target, p)
            assert degree == -sum(sum(contribution.values())
                                  for _, contribution in terms), \
                (label, alpha, p)
            seen["extra-point terms"] += len(terms)
    return seen


def test_live_classes_match_full_list_on_toy():
    bundle = fileio.load_target(os.path.join(DATA, "toy_target.json"))
    atoms = fileio.load_atoms(os.path.join(DATA, "toy_atoms.json"),
                              bundle.target)
    assert atoms.tuples
    for top in atoms.tuples:
        seen = assert_live_routes_match(bundle.target, atoms.table, top, top)
        assert seen["terms"] and seen["branches"]


def test_live_classes_match_full_list_on_benchmark_instance(tmp_path):
    """The seed-7 instance of the verify-synth benchmark workload: four
    points and a quartic, degree 5."""
    synth = benchmark_synth()
    target_doc, atoms_doc = synth.synthetic_documents(random.Random(7), 4, 1)
    paths = {}
    for name, doc in (("target", target_doc), ("atoms", atoms_doc)):
        paths[name] = str(tmp_path / (name + ".json"))
        synth.write_document(paths[name], doc)
    bundle = fileio.load_target(paths["target"])
    atoms = fileio.load_atoms(paths["atoms"], bundle.target)
    (top,) = atoms.tuples
    seen = assert_live_routes_match(bundle.target, atoms.table, top, "synth-7")
    assert seen["terms"] and seen["extra-point terms"] and seen["branches"]


LIVE_SHAPES = (
    (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0),
    (1, 0, 1, 0), (2, 0, 1, 0), (1, 1, 1, 0), (1, 0, 0, 1), (2, 0, 0, 1),
    (1, 1, 0, 1), (2, 1, 0, 1), (1, 0, 1, 1),
)


def _randomized_routes_match(draws, base, rank):
    seen = Counter()
    for seed in range(draws):
        rng = make_rng(base + seed)
        shape = LIVE_SHAPES[seed % len(LIVE_SHAPES)]
        target, table, top = synthetic_instance(rng, *shape, rank=rank)
        seen += assert_live_routes_match(target, table, top,
                                         (rank, seed, shape))
    assert all(seen[k] for k in (
        "terms", "extra-point terms", "constant", "branches"
    ))


def test_live_classes_match_full_list_randomized():
    """65 draws over 13 shapes, conics and sextics included."""
    _randomized_routes_match(65, 21000, rank=1)


def test_live_classes_match_full_list_randomized_rank2():
    """39 draws over the same 13 shapes on a rank-2 lattice, whose
    degrees split between two generators."""
    _randomized_routes_match(39, 22000, rank=2)
