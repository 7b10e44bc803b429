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
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import OpenGWError
from .lattice import Target
from .multidisk import AtomTable, DiskAtom, InvolutionData, LinkingMatrix
from .wdvv import (
    ClosedGWTable,
    CohomologyModel,
    OpenInvariantTable,
    degree_zero_extension,
)

FORMAT_VERSION = 1


class FileFormatError(OpenGWError, ValueError):
    """Unusable input document."""


def _rational(value):
    if isinstance(value, (str, int)):
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


def rational_str(value):
    return str(Fraction(value))


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
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise FileFormatError("%s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            "%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
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
            (g["name"], _rational(g["area"]), _integer(g["maslov"]))
            for g in doc["generators"]
        ]
        descriptors = [
            (d["id"], _integer(d["codim"])) for d in doc.get("descriptors", [])
        ]
        closed = [
            (c["name"], _rational(c["area"]), _integer(c["w2_sign"]))
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
                    int(k): [_rational(x) for x in v]
                    for k, v in c.get("deg2_pairings", {}).items()
                },
                lk_os_star={
                    int(k): _rational(v)
                    for k, v in c.get("lk_os_star", {}).items()
                },
                sphere_index=(
                    _integer(c["sphere_index"])
                    if c.get("sphere_index") is not None else None
                ),
                y_class_nonzero=c.get("y_class_nonzero", False),
                gamma0_pairing=(
                    _rational(c["gamma0_pairing"])
                    if c.get("gamma0_pairing") is not None else None
                ),
                h2_push_trivial=c.get("h2_push_trivial", True),
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
                target.degree([_integer(x) for x in a["degree"]]),
                frozenset(a.get("points", [])),
                frozenset(a.get("descriptors", [])),
                _integer(a["sign"]),
                a["loop"],
            )
            for a in doc.get("atoms", [])
        ]
        links = LinkingMatrix(
            [(a, b, _rational(v)) for a, b, v in doc.get("linking", [])],
            unbounded=doc.get("unbounded_loops", []),
        )
        table = AtomTable(target, atoms, links)
        involution = None
        if doc.get("involution"):
            inv = doc["involution"]
            involution = InvolutionData(
                tuple(tuple(_integer(x) for x in row)
                      for row in inv["degree_map"]),
                dict(inv["loop_pairs"]),
            )
            involution.validate(target)
        tuples = [
            target.constraint_tuple(
                [_integer(x) for x in t["degree"]], t.get("points", []),
                t.get("descriptors", []),
            )
            for t in doc.get("tuples_of_interest", [])
        ]
        if not tuples:
            tuples = table.tuples()
        return AtomBundle(table, involution, tuples)


def load_closed(path):
    doc = _load_document(path, "opengw-closed")
    with _malformed_as_format_error(path):
        table = ClosedGWTable()
        for e in doc.get("entries", []):
            insertions = [
                i if isinstance(i, str) else _integer(i)
                for i in e["insertions"]
            ]
            table.set([_integer(x) for x in e["degree"]], insertions,
                      _rational(e["value"]))
        return table


def load_seeds(path, target, model):
    """Seed table: plain entries plus evaluated zero-degree data."""
    doc = _load_document(path, "opengw-seeds")
    with _malformed_as_format_error(path):
        table = OpenInvariantTable(target, model)
        for e in doc.get("entries", []):
            table.set([_integer(x) for x in e["degree"]],
                      [_integer(i) for i in e["insertions"]],
                      _rational(e["value"]))
        beta_zero = doc.get("beta_zero", [])
        if beta_zero and model is None:
            raise FileFormatError(
                "beta_zero entries need a target with a cohomology model"
            )
        for e in beta_zero:
            corrections = [
                (
                    tuple(_integer(x) for x in c["closed_degree"]),
                    _rational(c["lk"]),
                    [_rational(x) for x in c["lambda"]],
                )
                for c in e.get("corrections", [])
            ]
            value = degree_zero_extension(
                target, model, _rational(e.get("welschinger", 0)), corrections
            )
            table.set([_integer(x) for x in e["degree"]],
                      [_integer(i) for i in e["insertions"]], value)
        return table
