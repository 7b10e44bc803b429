"""Sign calculus for oriented exact sequences and fiber products.

An orientation is a sign relative to the standard basis of Q^n, so every
convention below reduces to the sign of an explicit determinant.  The
three closed-form sign rules (boundary faces, diffeomorphism flips,
reassociation) are cross-checked against this determinant model by the
test suite.

Conventions.  A short exact sequence 0 -> V' -> V -> V'' -> 0 of oriented
spaces is orientation-compatible when an oriented basis of V' followed by
a split image of an oriented basis of V'' is an oriented basis of V.
Boundaries are oriented outward-normal-LAST: a basis of T(bd M) is
positive when appending the outward normal gives a positive basis of TM.
The fiber product M x_X G of maps f: M -> X, g: G -> X is cut out of
M x G as the kernel of (v, w) |-> dg(w) - df(v), and is oriented so that

    0 -> T(fiber) -> T(M x G) -> TX -> 0

is orientation-compatible, with the product orientation in the middle.
Any complement of the fiber that the combined map carries isomorphically
onto TX splits this sequence; the sign is read off the transpose of the
combined map, whose columns span the orthogonal complement of the fiber
(see `fiber_orientation_sign`).  Only transverse problems are oriented;
a non-surjective combined map is a hard error, never a sign 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import OpenGWError, linalg


class TransversalityError(OpenGWError, ValueError):
    """The combined map dg - df is not surjective."""


class OrientationError(OpenGWError, ValueError):
    """Malformed orientation data (dimension or spanning failure)."""


@dataclass(frozen=True)
class OrientedSpace:
    """Q^dim with a sign relative to the standard basis.

    Zero-dimensional spaces still carry a sign: a plus point or a minus
    point.  Those signed points are the base case of all the moduli
    bookkeeping downstream.
    """

    dim: int
    sign: int = 1

    def __post_init__(self):
        if self.dim < 0:
            raise OrientationError("negative dimension")
        if self.sign not in (1, -1):
            raise OrientationError("orientation sign must be +1 or -1")


@dataclass(frozen=True)
class LinearFiberProblem:
    """Oriented linear data for a fiber product M x_X G.

    df and dg are exact-rational matrices Q^{dim M} -> Q^{dim X} and
    Q^{dim G} -> Q^{dim X}, kept as tuples of rows of the int or Fraction
    entries given; the three orientation signs are relative to standard
    bases.  The combined map is scaled to integer rows and row-reduced
    once per problem; transversality, the kernel and every
    orientation sign are read from that one elimination.
    """

    df: tuple
    dg: tuple
    space_m: OrientedSpace
    space_g: OrientedSpace
    space_x: OrientedSpace

    @staticmethod
    def build(df_rows, dg_rows, dim_m, dim_g, dim_x, sign_m=1, sign_g=1, sign_x=1):
        df = tuple([linalg._exact(tuple(row)) for row in df_rows])
        dg = tuple([linalg._exact(tuple(row)) for row in dg_rows])
        if len(df) != dim_x or any(len(r) != dim_m for r in df):
            raise OrientationError("df has the wrong shape")
        if len(dg) != dim_x or any(len(r) != dim_g for r in dg):
            raise OrientationError("dg has the wrong shape")
        return LinearFiberProblem(
            df, dg,
            OrientedSpace(dim_m, sign_m),
            OrientedSpace(dim_g, sign_g),
            OrientedSpace(dim_x, sign_x),
        )

    @property
    def fiber_dim(self):
        return self.space_m.dim + self.space_g.dim - self.space_x.dim

    @cached_property
    def surjective(self):
        """Whether the combined map is onto Q^{dim X}, i.e. whether the
        problem is transverse."""
        return len(self._echelon[1]) == self.space_x.dim

    def kernel(self):
        """An integer basis of ker(dg - df), as fiber_dim column vectors
        (all of Q^{dim M + dim G} when X is a point).

        Read off the problem's one elimination by `linalg._int_kernel`:
        one primitive vector per free column, positive there and zero at
        the other free columns.  The lists are fresh on every call.
        """
        m, pivots = self._echelon
        n = self.space_m.dim + self.space_g.dim
        return linalg._int_kernel(m, pivots, n)

    @cached_property
    def _int_rows(self):
        """The combined map (v, w) |-> dg(w) - df(v), each row scaled to
        integers by the positive lcm of its denominators: read straight
        off df and dg, with the numerators of df negated as integers."""
        rows = []
        for f, g in zip(self.df, self.dg):
            d = math.lcm(*[x.denominator for x in f],
                         *[x.denominator for x in g])
            if d == 1:
                rows.append([-x.numerator for x in f]
                            + [x.numerator for x in g])
            else:
                rows.append([-x.numerator * (d // x.denominator) for x in f]
                            + [x.numerator * (d // x.denominator) for x in g])
        return rows

    @cached_property
    def _echelon(self):
        """(integer rows, pivot columns) of the combined map, row-reduced
        fraction-free once per problem."""
        return linalg._int_echelon(self._int_rows)


def fiber_orientation_sign(prob, candidate_basis):
    """Sign of `candidate_basis` against the fiber product orientation.

    candidate_basis: columns spanning ker(dg - df) inside Q^{dim M + dim G},
    with int or Fraction entries.  Returns +1 when the candidate is
    positively oriented for the fiber product orientation of prob, else
    -1.

    With A the combined map and J any right inverse of it, the columns
    of J split the defining sequence, so the orientation is the sign of
    det[cand | J].  The sign is read off det[cand | A^T] instead, which
    needs no inverse: over Q the rows of A span the orthogonal
    complement of ker A, and A^T = J (A A^T) + (columns in ker A), so
    det[cand | A^T] = det[cand | J] det(A A^T).  A A^T is the Gram
    matrix of the independent rows of A, so its determinant is
    positive.  For the same reason det[cand | A^T] is nonzero exactly
    when a candidate inside ker A has full rank, so one determinant also
    decides whether it spans the kernel.

    Everything runs in integers.  Each row of A (the problem's cached
    integer rows) and each candidate column is multiplied by the
    positive lcm of its denominators.  Multiplying a column of
    [cand | A^T] by a positive number multiplies its determinant by
    that number, so the sign is unchanged; nor does it change whether
    A cand vanishes.  Both the in-kernel test and the Bareiss
    determinant are taken on those integers, and only the determinant's
    sign is read.
    """
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    if d < 0:
        raise TransversalityError("fiber dimension would be negative")
    if not prob.surjective:
        raise TransversalityError("combined map dg - df is not surjective")
    cols = []
    if d:
        if len(candidate_basis) != n or any(len(r) != d for r in candidate_basis):
            raise OrientationError("candidate basis has the wrong shape")
        cols = linalg._int_rows(zip(*candidate_basis))
    rows = prob._int_rows
    if any(sum(map(mul, row, col)) for row in rows for col in cols):
        if len(linalg._int_echelon(cols)[1]) != d:
            raise OrientationError("candidate does not span the kernel")
        raise OrientationError("candidate does not lie in the kernel")
    # rows of the transpose of [cand | A^T]; Bareiss overwrites them
    dd = linalg._det_bareiss([list(v) for v in cols + rows])
    if dd == 0:
        raise OrientationError("candidate does not span the kernel")
    sign = 1 if dd > 0 else -1
    return sign * prob.space_m.sign * prob.space_g.sign * prob.space_x.sign


FACE_M = "M"
FACE_G = "G"


def boundary_face_sign(dim_m, dim_g, dim_x, face):
    """Closed-form sign relating a boundary face of a fiber product to
    the fiber product of the boundary.

    The face coming from bd(M) carries (-1)^{dim X} * (-1)^{dim G}; the
    face coming from bd(G) carries (-1)^{dim X}.  (The bd(G)-face rule is
    pinned empirically by the determinant oracle in the test suite; see
    that suite for the model computation.)
    """
    if min(dim_m, dim_g, dim_x) < 0:
        raise OrientationError("negative dimension")
    if face == FACE_M:
        if dim_m < 1:
            raise OrientationError("M has no boundary in dimension 0")
        return -1 if (dim_x + dim_g) % 2 else 1
    if face == FACE_G:
        if dim_g < 1:
            raise OrientationError("G has no boundary in dimension 0")
        return -1 if dim_x % 2 else 1
    raise OrientationError("face must be %r or %r" % (FACE_M, FACE_G))


def flip_sign(sign_m, sign_g, sign_x):
    """Sign of the fiber-product diffeomorphism induced by commuting
    diffeomorphisms of the three factors: the product of their signs."""
    for s in (sign_m, sign_g, sign_x):
        if s not in (1, -1):
            raise OrientationError("diffeomorphism signs must be +1 or -1")
    return sign_m * sign_g * sign_x


def association_sign(dim_x, codim_h):
    """Sign relating the two ways of forming an iterated fiber product
    over X and then Y: (-1)^{dim X * codim h}."""
    if dim_x < 0:
        raise OrientationError("negative dimension")
    return -1 if (dim_x * codim_h) % 2 else 1
