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
onto TX splits this sequence; the sign is that of the candidate basis
followed by the transpose of the combined map, whose columns span the
orthogonal complement of the fiber.  A basis of the fiber is one list of
vectors, the form `LinearFiberProblem.kernel` returns and
`fiber_orientation_sign` takes ([] for a rigid fiber).  The sign is read
off the Gauss-Jordan elimination a problem takes once, when it is built,
and a fiber_dim x fiber_dim determinant of the candidate's entries at
the free columns (see `fiber_orientation_sign`).  For the problem's own
`kernel()` basis that determinant is positive, so
`LinearFiberProblem.kernel_sign` reads the sign off the elimination
alone; both share `_elimination_sign`.
Only transverse problems are oriented; a non-surjective combined map is
a hard error, never a sign 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    bases.  `build` scales the combined map (v, w) |-> dg(w) - df(v) to
    integer rows and row-reduces them, fraction-free, once per problem;
    transversality, the kernel and every orientation sign are read from
    that one elimination, each sign with a fiber_dim x fiber_dim
    determinant of the candidate, and the sign of the problem's own
    kernel basis (`kernel_sign`) with none.  The rows and the
    elimination are derived from df and dg, so they take no part in
    comparisons.
    """

    df: tuple
    dg: tuple
    space_m: OrientedSpace
    space_g: OrientedSpace
    space_x: OrientedSpace
    # the combined map, each row of df and dg scaled as one to integers
    # by the positive lcm of its denominators and the df part negated
    _int_rows: list = field(compare=False, repr=False)
    # (integer rows, pivot columns, sign of the elimination) of
    # `linalg._int_echelon` on _int_rows
    _echelon: tuple = field(compare=False, repr=False)

    @staticmethod
    def build(df_rows, dg_rows, dim_m, dim_g, dim_x, sign_m=1, sign_g=1, sign_x=1):
        df = tuple(map(tuple, df_rows))
        dg = tuple(map(tuple, dg_rows))
        if len(df) != dim_x or any(len(r) != dim_m for r in df):
            raise OrientationError("df has the wrong shape")
        if len(dg) != dim_x or any(len(r) != dim_g for r in dg):
            raise OrientationError("dg has the wrong shape")
        rows = []
        for f, g in zip(df, dg):
            # the one type check of the entries: an inexact one (a
            # float, a bool) is refused with TypeError
            ints = linalg._integer_scaled(f + g)[0]
            ints[:dim_m] = [-x for x in ints[:dim_m]]
            rows.append(ints)
        return LinearFiberProblem(
            df, dg,
            OrientedSpace(dim_m, sign_m),
            OrientedSpace(dim_g, sign_g),
            OrientedSpace(dim_x, sign_x),
            rows, linalg._int_echelon(rows),
        )

    @property
    def fiber_dim(self):
        return self.space_m.dim + self.space_g.dim - self.space_x.dim

    @property
    def surjective(self):
        """Whether the combined map is onto Q^{dim X}, i.e. whether the
        problem is transverse."""
        return len(self._echelon[1]) == self.space_x.dim

    def kernel(self):
        """An integer basis of ker(dg - df): fiber_dim vectors of length
        dim M + dim G, the candidate form of `fiber_orientation_sign`
        (the standard basis when X is a point).

        Read off the problem's one elimination by `linalg._int_kernel`:
        one primitive vector per free column, positive there and zero at
        the other free columns.  The lists are fresh on every call.
        """
        m, pivots, _ = self._echelon
        n = self.space_m.dim + self.space_g.dim
        return linalg._int_kernel(m, pivots, n)

    def kernel_sign(self):
        """The orientation sign of the problem's own `kernel()` basis:
        `fiber_orientation_sign(self, self.kernel())`, read off the one
        elimination alone, with no candidate built or checked.  That
        basis is positive at its own free column and zero at the others,
        so its C_F is a positive diagonal and the sign is the
        elimination factor of `fiber_orientation_sign`.  Refuses what
        that function refuses for any candidate: a negative fiber
        dimension or a combined map that is not surjective.
        """
        return _elimination_sign(self)


def fiber_orientation_sign(prob, candidate):
    """Sign of `candidate` against the fiber product orientation.

    candidate: a basis of ker(dg - df) inside Q^{dim M + dim G}, with
    int or Fraction entries, as d vectors of length n, d = fiber_dim and
    n = dim M + dim G: the form `LinearFiberProblem.kernel` returns.  A
    rigid fiber takes [].  Any other shape is refused.  Returns +1 when
    the candidate is positively oriented for the fiber product
    orientation of prob, else -1.

    Write C for the n x d matrix whose columns are the candidate's
    vectors.  With A the combined map and J any right inverse of it, the columns
    of J split the defining sequence, so the orientation is the sign of
    det[C | J].  That is the sign of det[C | A^T], which needs no
    inverse: over Q the rows of A span the orthogonal complement of
    ker A, and A^T = J (A A^T) + (columns in ker A), so
    det[C | A^T] = det[C | J] det(A A^T), and A A^T is the Gram
    matrix of the independent rows of A, with positive determinant.

    The sign of det[C | A^T] is read off the problem's one
    elimination.  Write R = E A for the
    Gauss-Jordan form of A from `linalg._int_echelon` (E invertible,
    with the sign of det E returned beside R), P for its pivot columns
    in increasing order, p_i for its pivot entries and F for its free
    columns.  Once A C = 0 has been checked,

        sign det[C | A^T] = sign det E * prod_i sign p_i
                            * (-1)^#{(p, f) in P x F : f > p}
                            * sign det C_F,

    with C_F the rows of C at F.  Proof: [C | A^T] = [C | R^T] times
    the block diagonal of I and E^-T, so the two determinants differ by
    the factor 1 / det E.  Moving the rows at F ahead of those at P, in
    order, takes #{(p, f) : f > p} transpositions and gives
    [[C_F, R_F^T], [C_P, D]], where R_F holds the columns of R at F
    and D = diag(p_i) those at P, since R is reduced.  Its determinant
    is det D det(C_F - R_F^T D^-1 C_P).  A C = 0 means R C = 0, that is
    R_F C_F + D C_P = 0, so C_P = -D^-1 R_F C_F and the complement is
    (I + G^T G) C_F with G = D^-1 R_F, whose first factor has positive
    determinant.  So det C_F decides the sign, and it vanishes exactly
    when a candidate inside ker A fails to span it.

    Everything runs in integers.  A is taken as the problem's integer
    rows, each row of dg - df times the positive lcm of its
    denominators, and each candidate vector is multiplied likewise.
    Either scaling multiplies det[C | A^T] by a positive number and
    keeps whether A C vanishes.  The in-kernel test is taken on those
    integers, and det C_F is a Bareiss determinant of size d.  Every
    other factor, with the space signs and the refusals of a problem
    without a fiber orientation, is `_elimination_sign`.  For the basis
    `LinearFiberProblem.kernel` returns, C_F is a positive diagonal, so
    its sign is that factor alone: `LinearFiberProblem.kernel_sign`
    reads it there, with no candidate to check.
    """
    n = prob.space_m.dim + prob.space_g.dim
    d = prob.fiber_dim
    sign = _elimination_sign(prob)
    if len(candidate) != d or any(len(v) != n for v in candidate):
        raise OrientationError("candidate basis has the wrong shape")
    cols = linalg._int_rows(candidate)
    if any(sum(map(mul, row, col)) for row in prob._int_rows for col in cols):
        if len(linalg._int_echelon(cols)[1]) != d:
            raise OrientationError("candidate does not span the kernel")
        raise OrientationError("candidate does not lie in the kernel")
    free = [c for c in range(n) if c not in prob._echelon[1]]
    det = linalg._det_bareiss([[col[f] for f in free] for col in cols])
    if det == 0:
        raise OrientationError("candidate does not span the kernel")
    return -sign if det < 0 else sign


def _elimination_sign(prob):
    """Every factor of the orientation sign but sign det C_F: sign det E
    * prod_i sign p_i * (-1)^#{(p, f) in P x F : f > p} times the three
    space signs, in the notation of `fiber_orientation_sign`.  Refuses a
    problem that has no fiber orientation: a negative fiber dimension or
    a combined map that is not surjective."""
    d = prob.fiber_dim
    if d < 0:
        raise TransversalityError("fiber dimension would be negative")
    if not prob.surjective:
        raise TransversalityError("combined map dg - df is not surjective")
    m, pivots, sign = prob._echelon
    r = len(pivots)
    # #{(p, f) : f > p} is r d + r (r - 1) / 2 - sum(pivots), as the
    # i-th pivot p has n - 1 - p columns after it, r - 1 - i of them
    # pivots; it and the negative pivots each flip the sign
    flips = (r * d + r * (r - 1) // 2 + sum(pivots)
             + sum(row[p] < 0 for row, p in zip(m, pivots)))
    if flips % 2:
        sign = -sign
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
