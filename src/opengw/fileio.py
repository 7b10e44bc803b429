"""Declarative input files: versioned JSON documents, exact rationals as
"p/q" strings.

Four document kinds, matched by their "format" field:

- opengw-target: lattice generators, descriptor table, closed lattice,
  degree map between them, and the cohomology model.
- opengw-atoms: rigid-disk table, linking matrix, optional involution
  data, and the tuples the pipelines should work on.
- opengw-closed: closed-invariant entries.
- opengw-seeds: open-invariant seed entries plus the raw data of the
  zero-degree extension (evaluated into seeds at load time).

Parse failures carry file, line and column.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import OpenGWError
from .lattice import Target
from .multidisk import AtomTable, DiskAtom, InvolutionData, LinkingMatrix
from .wdvv import (
    UNIT_INDEX,
    ClosedGWTable,
    CohomologyModel,
    OpenInvariantTable,
    degree_zero_extension,
)

FORMAT_VERSION = 1


class FileFormatError(OpenGWError, ValueError):
    """Unusable input document."""


def _rational(value):
    """A JSON integer or a "p/q" string; a boolean is refused, not read
    as 0 or 1."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise FileFormatError(
                "rational %r has a zero denominator" % (value,)
            ) from exc
    raise FileFormatError("rationals must be integers or 'p/q' strings, got %r"
                          % (value,))


def _integer(value):
    """A JSON integer; a float, a boolean or a string is refused, never
    truncated or coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FileFormatError("expected an integer, got %r" % (value,))


def _boolean(value):
    """A JSON boolean; "false" or 0 is refused rather than coerced."""
    if isinstance(value, bool):
        return value
    raise FileFormatError("expected true or false, got %r" % (value,))


def _label(value):
    """A label (a point, descriptor, generator or loop id): a JSON
    string."""
    if isinstance(value, str):
        return value
    raise FileFormatError("expected a string label, got %r" % (value,))


def _labels(value):
    """A JSON list of labels; a string is refused rather than split into
    its characters."""
    if not isinstance(value, list):
        raise FileFormatError("expected a list of labels, got %r" % (value,))
    return [_label(x) for x in value]


def _index(key):
    """An object key naming an index: an optional minus sign and ASCII
    digits only, so " +2 " or "0_3" is refused rather than read as 2 or
    3."""
    if not re.fullmatch(r"-?[0-9]+", key):
        raise FileFormatError("expected an integer index key, got %r" % (key,))
    return int(key)


def _vector(values, read, rank, entry):
    """A JSON list of values, each read by `read`; with `rank`, one per
    lattice generator, so another length is refused, not truncated."""
    if rank is not None and (not isinstance(values, list)
                             or len(values) != rank):
        raise FileFormatError("%s: expected %d values, one per lattice "
                              "generator, got %r" % (entry, rank, values))
    return [read(x) for x in values]


def _degree(values, rank, entry):
    """A degree: a `_vector` of integers, one per lattice generator with
    `rank`; a negative coordinate, outside the effective cone, is
    refused."""
    coords = _vector(values, _integer, rank, entry)
    if any(c < 0 for c in coords):
        raise FileFormatError("%s: degree %r has a negative coordinate, "
                              "outside the effective cone" % (entry, values))
    return coords


def _set_once(table, seen, entry, coords, insertions, value):
    """Set one bracket of a closed or seed table.  `seen` maps the key of
    each bracket set so far to (its entry, its value): an identical
    repeat is accepted, a repeat with another value is refused, naming
    both entries."""
    key = table._key(coords, insertions)
    if key in seen and seen[key][1] != value:
        first, earlier = seen[key]
        raise FileFormatError(
            "%s and %s: conflicting entries for degree %s, insertions %s: "
            "%s and %s" % (first, entry, list(key[0]), list(key[1]),
                           earlier, value))
    seen[key] = (entry, value)
    table.set(coords, insertions, value)


def _seed(table, seen, entry, coords, insertions, value):
    """Set one seed bracket with `_set_once`, refusing a bracket the
    solve would not read: an insertion outside the cohomology basis,
    or a bracket whose value is hard-wired (one with a unit insertion,
    or whose boundary-point count is negative or fractional)."""
    size = table.model.size
    bad = next((i for i in insertions if not 1 <= i <= size), None)
    if bad is not None:
        raise FileFormatError("%s: insertion %d is outside the cohomology "
                              "basis 1..%d" % (entry, bad, size))
    fixed = table.resolve_fixed(table.target.degree(coords), insertions)
    if fixed is not None:
        rule = ("it has a unit insertion" if UNIT_INDEX in insertions
                else "its boundary-point count is negative or fractional")
        raise FileFormatError(
            "%s: the bracket of degree %s, insertions %s is hard-wired to "
            "%s, as %s; it cannot be seeded" % (entry, coords, insertions,
                                                fixed, rule))
    _set_once(table, seen, entry, coords, insertions, value)


@contextmanager
def _malformed_as_format_error(path):
    """Report what a document of the wrong shape raises inside a loader
    (a missing key, a list where an object belongs, a bad or infinite
    value) as a FileFormatError naming the file."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise FileFormatError("%s: %s" % (path, exc)) from exc


def _load_document(path, expected_format):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise FileFormatError("%s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            "%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError("%s: not UTF-8 text: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise FileFormatError("%s: JSON nested too deeply" % path) from exc
    if not isinstance(doc, dict):
        raise FileFormatError("%s: top level must be an object" % path)
    if doc.get("format") != expected_format:
        raise FileFormatError(
            "%s: expected format %r, found %r"
            % (path, expected_format, doc.get("format"))
        )
    if doc.get("version") != FORMAT_VERSION:
        raise FileFormatError(
            "%s: unsupported version %r" % (path, doc.get("version"))
        )
    return doc


@dataclass
class TargetBundle:
    target: Target
    model: object  # CohomologyModel or None


def load_target(path):
    doc = _load_document(path, "opengw-target")
    with _malformed_as_format_error(path):
        generators = [
            (_label(g["name"]), _rational(g["area"]), _integer(g["maslov"]))
            for g in doc["generators"]
        ]
        descriptors = [
            (_label(d["id"]), _integer(d["codim"]))
            for d in doc.get("descriptors", [])
        ]
        closed = [
            (_label(c["name"]), _rational(c["area"]), _integer(c["w2_sign"]))
            for c in doc.get("closed_generators", [])
        ]
        q_matrix = doc.get("q_matrix")
        if q_matrix is not None:
            q_matrix = [[_integer(x) for x in row] for row in q_matrix]
        target = Target(generators, descriptors, closed, q_matrix)
        model = None
        if "cohomology" in doc:
            c = doc["cohomology"]
            model = CohomologyModel(
                degrees=[_integer(d) for d in c["degrees"]],
                pairing=[[_rational(x) for x in row] for row in c["pairing"]],
                restriction=(
                    [_integer(i) for i in c["restriction"]]
                    if c.get("restriction") is not None else None
                ),
                deg2_pairings={
                    _index(k): _vector(v, _rational, target.rank,
                                       "deg2_pairings[%s]" % k)
                    for k, v in c.get("deg2_pairings", {}).items()
                },
                lk_os_star={
                    _index(k): _rational(v)
                    for k, v in c.get("lk_os_star", {}).items()
                },
                sphere_index=(
                    _integer(c["sphere_index"])
                    if c.get("sphere_index") is not None else None
                ),
                y_class_nonzero=_boolean(c.get("y_class_nonzero", False)),
                gamma0_pairing=(
                    _rational(c["gamma0_pairing"])
                    if c.get("gamma0_pairing") is not None else None
                ),
            )
        return TargetBundle(target, model)


@dataclass
class AtomBundle:
    table: AtomTable
    involution: object  # InvolutionData or None
    tuples: list


def load_atoms(path, target):
    doc = _load_document(path, "opengw-atoms")
    with _malformed_as_format_error(path):
        atoms = [
            DiskAtom(
                target.degree(_degree(a["degree"], target.rank,
                                      "atoms[%d].degree" % n)),
                frozenset(_labels(a.get("points", []))),
                frozenset(_labels(a.get("descriptors", []))),
                _integer(a["sign"]),
                _label(a["loop"]),
            )
            for n, a in enumerate(doc.get("atoms", []))
        ]
        links = LinkingMatrix(
            [(_label(a), _label(b), _rational(v))
             for a, b, v in doc.get("linking", [])],
            unbounded=_labels(doc.get("unbounded_loops", [])),
        )
        table = AtomTable(target, atoms, links)
        involution = None
        if doc.get("involution"):
            inv = doc["involution"]
            involution = InvolutionData(
                tuple(tuple(_integer(x) for x in row)
                      for row in inv["degree_map"]),
                {_label(a): _label(b) for a, b in inv["loop_pairs"].items()},
            )
            involution.validate(target)
        tuples = [
            target.constraint_tuple(
                _degree(t["degree"], target.rank,
                        "tuples_of_interest[%d].degree" % n),
                _labels(t.get("points", [])), _labels(t.get("descriptors", [])),
            )
            for n, t in enumerate(doc.get("tuples_of_interest", []))
        ]
        if not tuples:
            tuples = table.tuples()
        return AtomBundle(table, involution, tuples)


def load_closed(path, target=None):
    """Closed-invariant table; `target` checks each degree's closed rank."""
    doc = _load_document(path, "opengw-closed")
    rank = None if target is None else target.closed_rank
    with _malformed_as_format_error(path):
        table = ClosedGWTable()
        seen = {}
        for n, e in enumerate(doc.get("entries", [])):
            insertions = [
                i if isinstance(i, str) else _integer(i)
                for i in e["insertions"]
            ]
            _set_once(table, seen, "entries[%d]" % n,
                      _degree(e["degree"], rank, "entries[%d].degree" % n),
                      insertions, _rational(e["value"]))
        return table


def load_seeds(path, target, model):
    """Seed table: plain entries plus evaluated zero-degree data.  Seeds
    feed only the solver, which needs the target's cohomology model.
    Each is a bracket the solve reads (see `_seed`), and a bracket
    seeded twice has one value."""
    doc = _load_document(path, "opengw-seeds")
    if model is None:
        raise FileFormatError(
            "%s: seeds need a target with a cohomology model" % path
        )
    with _malformed_as_format_error(path):
        table = OpenInvariantTable(target, model)
        seen = {}
        for n, e in enumerate(doc.get("entries", [])):
            _seed(table, seen, "entries[%d]" % n,
                  _degree(e["degree"], target.rank, "entries[%d].degree" % n),
                  [_integer(i) for i in e["insertions"]],
                  _rational(e["value"]))
        for n, e in enumerate(doc.get("beta_zero", [])):
            corrections = [
                (
                    tuple(_degree(c["closed_degree"], target.closed_rank,
                                  "beta_zero[%d].corrections[%d]"
                                  ".closed_degree" % (n, k))),
                    _rational(c["lk"]),
                    [_rational(x) for x in c["lambda"]],
                )
                for k, c in enumerate(e.get("corrections", []))
            ]
            value = degree_zero_extension(
                target, model, _rational(e.get("welschinger", 0)), corrections
            )
            _seed(table, seen, "beta_zero[%d]" % n,
                  _degree(e["degree"], target.rank,
                          "beta_zero[%d].degree" % n),
                  [_integer(i) for i in e["insertions"]], value)
        return table
