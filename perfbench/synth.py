"""Synthetic verify-all inputs, written as opengw-target / opengw-atoms
documents.

A copy of the synthetic-instance generator the test suite uses, owned by
the benchmark so that reshaping the tests cannot change the benchmark's
inputs.  A rank-1 lattice with Maslov index 2 per generator step; every
sub-tuple of the top tuple that can carry rigid disks gets atoms with
random signs, and every loop pair a small random rational linking
number.  Only the declared files are produced: the program receives
nothing but the generated inputs.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


def synthetic_documents(rng, n_points=2, n_quartic=1, n_sextic=0, n_conic=0,
                        atom_choices=(1,), lk_range=3):
    """Return (target document, atoms document) for one instance.

    `atom_choices` is the multiset the number of atoms per sub-tuple is
    drawn from; the benchmark keeps it fixed so that every seed yields the
    same amount of enumeration work and only signs and linking numbers vary.
    """
    points = ["p%d" % i for i in range(n_points)]
    descs = (
        [("Q%d" % i, 4) for i in range(n_quartic)]
        + [("S%d" % i, 6) for i in range(n_sextic)]
        + [("C%d" % i, 2) for i in range(n_conic)]
    )
    codim = dict(descs)
    desc_names = [name for name, _ in descs]

    def degree_for(k_set, l_set):
        # dimension 0 forces the degree: 2n = 2|K| + sum(codim - 2)
        total = 2 * len(k_set) + sum(codim[d] - 2 for d in l_set)
        return None if total % 2 else total // 2

    atoms = []
    counter = itertools.count()
    for k_mask in range(2 ** len(points)):
        k_set = [p for i, p in enumerate(points) if k_mask >> i & 1]
        for l_mask in range(2 ** len(desc_names)):
            l_set = [d for i, d in enumerate(desc_names) if l_mask >> i & 1]
            n = degree_for(k_set, l_set)
            if n is None or n == 0:
                continue
            for _ in range(rng.choice(atom_choices)):
                atoms.append({
                    "degree": [n], "points": k_set, "descriptors": l_set,
                    "sign": rng.choice((1, -1)), "loop": "L%d" % next(counter),
                })
    loops = [a["loop"] for a in atoms]
    linking = [
        [a, b, str(Fraction(rng.randint(-lk_range, lk_range),
                            rng.randint(1, 2)))]
        for a, b in itertools.combinations(loops, 2)
    ]
    top_n = len(points) + sum((codim[d] - 2) // 2 for d in desc_names)
    target = {
        "format": "opengw-target", "version": 1,
        "generators": [{"name": "g", "area": "1", "maslov": 2}],
        "descriptors": [{"id": name, "codim": c} for name, c in descs],
    }
    atoms_doc = {
        "format": "opengw-atoms", "version": 1,
        "atoms": atoms,
        "linking": linking,
        "tuples_of_interest": [
            {"degree": [top_n], "points": points, "descriptors": desc_names},
        ],
    }
    return target, atoms_doc


def write_document(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
