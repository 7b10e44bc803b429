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
Only transverse problems are oriented; a non-surjective combined map is
a hard error, never a sign 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

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
    Q^{dim G} -> Q^{dim X}; the three orientation signs are relative to
    standard bases.
    """

    df: tuple
    dg: tuple
    space_m: OrientedSpace
    space_g: OrientedSpace
    space_x: OrientedSpace

    @staticmethod
    def build(df_rows, dg_rows, dim_m, dim_g, dim_x, sign_m=1, sign_g=1, sign_x=1):
        df = [tuple(Fraction(x) for x in row) for row in df_rows]
        dg = [tuple(Fraction(x) for x in row) for row in dg_rows]
        if len(df) != dim_x or any(len(r) != dim_m for r in df):
            raise OrientationError("df has the wrong shape")
        if len(dg) != dim_x or any(len(r) != dim_g for r in dg):
            raise OrientationError("dg has the wrong shape")
        return LinearFiberProblem(
            tuple(df),
            tuple(dg),
            OrientedSpace(dim_m, sign_m),
            OrientedSpace(dim_g, sign_g),
            OrientedSpace(dim_x, sign_x),
        )

    @property
    def fiber_dim(self):
        return self.space_m.dim + self.space_g.dim - self.space_x.dim

    def combined_map(self):
        """The matrix of (v, w) |-> dg(w) - df(v) on Q^{dim M + dim G}.

        Built once per problem; every call returns the same rows, which
        callers must not mutate.
        """
        return self._combined

    @cached_property
    def _combined(self):
        dim_x = self.space_x.dim
        dim_m = self.space_m.dim
        dim_g = self.space_g.dim
        rows = []
        for i in range(dim_x):
            neg = [-Fraction(x) for x in (self.df[i] if self.df else [])]
            pos = [Fraction(x) for x in (self.dg[i] if self.dg else [])]
            if len(neg) != dim_m or len(pos) != dim_g:
                raise OrientationError("map rows do not match declared dims")
            rows.append(neg + pos)
        return rows


def exact_sequence_sign(sub, total, quotient, splitting, inclusion=None):
    """Sign of the sequence 0 -> sub -> total -> quotient -> 0.

    `splitting` maps the quotient into the total (columns = images of the
    quotient's standard basis) and must be a genuine complement of the
    included sub; `inclusion` defaults to the embedding onto the first
    dim(sub) coordinates.  Returns +1 when sub-basis followed by split
    quotient-basis is an oriented basis of the total, else -1; the result
    does not depend on the choice of splitting.
    """
    if sub.dim + quotient.dim != total.dim:
        raise OrientationError(
            "dimension mismatch: %d + %d != %d" % (sub.dim, quotient.dim, total.dim)
        )
    n = total.dim
    canonical = inclusion is None
    if canonical:
        inclusion = [[Fraction(int(i == j)) for j in range(sub.dim)] for i in range(n)]
    else:
        inclusion = linalg.mat(inclusion)
        if len(inclusion) != n or (inclusion and len(inclusion[0]) != sub.dim):
            raise OrientationError("inclusion has the wrong shape")
    split = linalg.mat(splitting) if quotient.dim else [[] for _ in range(n)]
    if quotient.dim and (len(split) != n or len(split[0]) != quotient.dim):
        raise OrientationError("splitting has the wrong shape")
    if canonical and quotient.dim:
        # canonical projection drops the first dim(sub) coordinates;
        # a splitting must invert it exactly
        for i in range(quotient.dim):
            for j in range(quotient.dim):
                if split[sub.dim + i][j] != (1 if i == j else 0):
                    raise OrientationError(
                        "not a splitting: projection o splitting != identity"
                    )
    assembled = [list(inclusion[i]) + list(split[i] if split else []) for i in range(n)]
    d = linalg.det(assembled) if n else Fraction(1)
    if d == 0:
        raise OrientationError("splitting does not complement the included sub")
    sign = 1 if d > 0 else -1
    return sign * sub.sign * quotient.sign * total.sign


def fiber_orientation_sign(prob, candidate_basis):
    """Sign of `candidate_basis` against the fiber product orientation.

    candidate_basis: columns spanning ker(dg - df) inside Q^{dim M + dim G}.
    Returns +1 when the candidate is positively oriented for the fiber
    product orientation of prob, else -1.
    """
    combined = prob.combined_map()
    dim_x = prob.space_x.dim
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    if d < 0:
        raise TransversalityError("fiber dimension would be negative")
    if dim_x and linalg.rank(combined) != dim_x:
        raise TransversalityError("combined map dg - df is not surjective")
    cand = linalg.mat(candidate_basis) if d else [[] for _ in range(n)]
    if d:
        if len(cand) != n or len(cand[0]) != d:
            raise OrientationError("candidate basis has the wrong shape")
        if linalg.rank(cand) != d:
            raise OrientationError("candidate does not span the kernel")
        if dim_x and not linalg.product_is_zero(combined, cand):
            raise OrientationError("candidate does not lie in the kernel")
    if dim_x:
        j = linalg.right_inverse(combined)
        if j is None:
            raise TransversalityError("combined map dg - df is not surjective")
        assembled = [list(cand[i] if d else []) + list(j[i]) for i in range(n)]
    else:
        assembled = cand
    dd = linalg.det(assembled) if n else Fraction(1)
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
