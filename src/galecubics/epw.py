"""EPW membership, residual conics and the line correspondence.

A covector on the six-space (a pair ``(e, f)`` of coordinate triples, up to
scale) cuts out a hyperplane; the degeneracy condition is that an
admissible subspace meets the third wedge power of that hyperplane.  The
rank formulation used throughout: contraction with the covector kills
exactly that wedge power, so membership at one point is a kernel
computation on a 15 x 10 matrix.  That matrix is linear in the covector,
so along a pencil its values at the two base points give it everywhere,
and the monic gcd of its size-10 minors (the determinant divisor, of
degree 6) vanishes exactly at the membership points of the pencil.  When
the matrix at the second point has full rank, constant row and column
operations bring the pencil to the form [tI + A1 | A2], and the divisor is
the characteristic polynomial of a matrix of size at most 10: one rref
gives both the degree and the points.  Otherwise a unimodular elimination
over k[t] computes it.

On the cubic side, a point ``(e, f)`` with nonzero ``e`` spans a plane
``Mf + e L_i = 0`` containing the line ``Mf = L_i = 0``; the conic residual
to that line in the plane section of the cubic degenerates exactly over
membership points, and splitting it into its two lines inverts, pointwise,
the correspondence between the degeneracy locus and lines on the cubic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .exterior import (GRADE2_PAIRS, GRADE3_TRIPLES, GRADE4_QUADS,
                       ExteriorElement, frame_coordinates,
                       from_frame_coordinates, lex3_coordinates)
from .fields import Element, Field, PrimeField
from .gale import NonSyzygeticEquation, multiplier_columns
from .lagrangian import RhoLagrangianData
from .linalg import Matrix, sparse_echelon
from .poly import (MultiPoly, PolyRing, _trim, monomials_of_degree,
                   scalar_multiple, univariate_divmod, univariate_from_coeffs,
                   univariate_mul, univariate_sub)


@dataclass(frozen=True)
class EPWPoint:
    """A nonzero covector (e, f), stored projectively: the first nonzero of
    the six coordinates is scaled to one."""

    field: Field
    coords: Tuple[Element, ...]

    @classmethod
    def make(cls, field: Field, coords: Sequence[Element]) -> "EPWPoint":
        vec = list(coords)
        if len(vec) != 6:
            raise ValueError("need six coordinates (e followed by f)")
        lead = next((c for c in vec if not field.is_zero(c)), None)
        if lead is None:
            raise ValueError("zero covector")
        inv = field.inv(lead)
        return cls(field, tuple(field.mul(inv, c) for c in vec))

    @property
    def e_part(self) -> Tuple[Element, ...]:
        return self.coords[:3]

    @property
    def f_part(self) -> Tuple[Element, ...]:
        return self.coords[3:]

    def same_point(self, other: "EPWPoint") -> bool:
        return self.coords == other.coords


@dataclass
class ProjectiveSubspace:
    """Linear subspace of a projective space, by row-reduced defining forms."""

    field: Field
    variables: Tuple[str, ...]
    forms: Matrix            # k x n, row-reduced, rows independent

    @classmethod
    def from_forms(cls, field: Field, variables: Sequence[str],
                   rows: Sequence[Sequence[Element]]) -> "ProjectiveSubspace":
        mat = Matrix(field, [list(r) for r in rows])
        reduced = mat.row_space()
        return cls(field, tuple(variables), reduced)

    @classmethod
    def from_points(cls, field: Field, variables: Sequence[str],
                    points: Sequence[Sequence[Element]]) -> "ProjectiveSubspace":
        span = Matrix.from_columns(field, [list(p) for p in points])
        forms = span.transpose().kernel_basis().transpose()
        return cls.from_forms(field, variables, forms.data)

    def codim(self) -> int:
        return self.forms.rows

    def projective_dim(self) -> int:
        return len(self.variables) - self.forms.rows - 1

    def parametrization(self) -> Matrix:
        """Columns spanning the solution space."""
        return self.forms.kernel_basis()

    def contains_point(self, point: Sequence[Element]) -> bool:
        k = self.field
        return all(k.is_zero(v) for v in self.forms.apply_to_vector(list(point)))

    def contains(self, other: "ProjectiveSubspace") -> bool:
        return other.forms.vstack(self.forms).rank() == other.forms.rows

    def same_subspace(self, other: "ProjectiveSubspace") -> bool:
        return self.forms == other.forms

    def apply_point_map(self, m: Matrix) -> "ProjectiveSubspace":
        pts = self.parametrization()
        moved = m * pts
        return ProjectiveSubspace.from_points(
            self.field, self.variables, [moved.column(j) for j in range(moved.cols)])


# -- membership ---------------------------------------------------------------

def contraction_matrix(data: RhoLagrangianData, covector: Sequence[Element]) -> Matrix:
    """15 x 10 matrix of the contraction restricted to the subspace, over
    the grade-2 wedge basis; its kernel is the intersection with the third
    wedge power of the covector's hyperplane."""
    field = data.field
    cols = []
    for j in range(data.matrix.cols):
        elem = from_frame_coordinates(field, data.matrix.column(j))
        contracted = elem.contract(list(covector))
        cols.append(contracted.coordinates(GRADE2_PAIRS))
    return Matrix.from_columns(field, cols)


def epw_contains(data: RhoLagrangianData, p: EPWPoint) -> Tuple[bool, int]:
    """(membership, dim of the intersection with the hyperplane wedge)."""
    mat = contraction_matrix(data, p.coords)
    nullity = 10 - mat.rank()
    return nullity >= 1, nullity


def epw_line_degree(data: RhoLagrangianData, p0: EPWPoint, p1: EPWPoint,
                    var: str = "t") -> MultiPoly:
    """The determinant divisor of the contraction matrix along the pencil
    p0 + t*p1: the monic gcd of its 10x10 minors, degree 6 for generic
    inputs (lower when p1 itself is a membership point, the missing roots
    sitting at t = infinity), and the zero polynomial when the whole pencil
    lies in the degeneracy locus.

    It is computed exactly.  When p1 is not a member, constant unimodular
    operations (which keep the gcd of the maximal minors) turn the pencil
    into [tI + A1 | A2]; in a Kalman decomposition of (A1, A2) the
    uncontrollable block splits off as a factor det(tI + Au), and by the
    PBH test the controllable part has full rank at every t, so its minors
    have gcd 1.  When p1 is a member (or the pencil lies in the locus), a
    unimodular elimination over k[t] computes the divisor instead."""
    return univariate_from_coeffs(data.field, var,
                                  _determinant_divisor_on_pencil(data, p0, p1))


def _determinant_divisor_on_pencil(data: RhoLagrangianData, p0: EPWPoint,
                                   p1: EPWPoint) -> List[Element]:
    """Monic gcd of all maximal minors of the (transposed, 10 x 15)
    contraction matrix C(t) = C(p0) + t*C(p1) along the pencil, low degree
    first, ``[]`` when it is zero.  The contraction is linear in the
    covector, so its values at the two points are the coefficients.

    One rref of [C(p1)^T | C(p0)^T] gives P with P C(p1)^T in reduced form.
    If C(p1)^T has rank 10, with pivot columns S and the others N, then
    P C(t)^T has the columns tI + A1 on S, A1 = (P C(p0)^T)_S, and
    subtracting the S columns times R_N = (P C(p1)^T)_N leaves the constant
    A2 = (P C(p0)^T)_N - A1 R_N on N.  Both steps are constant and
    invertible, so the divisor is that of [tI + A1 | A2]:
    * a basis change putting the smallest A1-invariant subspace K that
      holds the columns of A2 first gives the block triangular
      [[tI + F11, F12, G1], [0, tI + Au, 0]], Au the map A1 induces on
      k^10 / K (Kalman decomposition);
    * every nonzero maximal minor uses all of the columns of tI + Au, so
      the divisor is det(tI + Au) times that of [tI + F11 | G1];
    * (F11, G1) is controllable, so [tI + F11 | G1] has full rank at every
      t of the algebraic closure (PBH test) and its minors have gcd 1.
    If C(p1)^T has rank below 10 (p1 is a member, roots at t = infinity,
    or the whole pencil lies in the locus), the k[t] elimination
    :func:`_divisor_by_elimination` runs instead."""
    if p0.same_point(p1):
        raise ValueError("coincident points do not span a pencil")
    field = data.field
    c0 = contraction_matrix(data, p0.coords).transpose()
    c1 = contraction_matrix(data, p1.coords).transpose()
    red, pivots = Matrix(field, [r1 + r0 for r1, r0 in zip(c1.data, c0.data)]).rref()
    if len(pivots) < 10 or pivots[-1] >= 15:
        return _divisor_by_elimination(field, c0, c1)
    rows = red.data
    free = [j for j in range(15) if j not in pivots]
    a1 = Matrix(field, [[row[15 + s] for s in pivots] for row in rows])
    r_n = Matrix(field, [[row[j] for j in free] for row in rows])
    a2 = Matrix(field, [[row[15 + j] for j in free] for row in rows]) - a1 * r_n
    # K, grown from the columns of A2 until A1 maps it into itself
    a1t = a1.transpose()
    krylov = a2.transpose().row_space()
    while True:
        grown = krylov.vstack(krylov * a1t).row_space()
        if grown.rows == krylov.rows:
            break
        krylov = grown
    # A1 on k^10 / K, in the basis of unit vectors off the pivots of K
    heads = [next(c for c, x in enumerate(row) if not field.is_zero(x))
             for row in krylov.data]
    rest = [j for j in range(10) if j not in heads]
    columns = []
    for j in rest:
        v = a1.column(j)
        for head, row in zip(heads, krylov.data):
            f = v[head]
            if not field.is_zero(f):
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
        columns.append([field.neg(v[i]) for i in rest])
    return Matrix(field, [[col[i] for col in columns] for i in range(len(rest))],
                  len(rest)).charpoly()


def _divisor_by_elimination(field: Field, c0: Matrix, c1: Matrix) -> List[Element]:
    """The determinant divisor of the 10 x 15 pencil c0 + t*c1 by
    unimodular elimination over the univariate polynomial ring: diagonalise
    with division-with-remainder pivots; the product of the pivots is the
    divisor.  Runs when c1 has rank below 10, and is the test oracle of the
    constant reduction."""
    entries = [[_trim(field, [a, b]) for a, b in zip(row0, row1)]
               for row0, row1 in zip(c0.data, c1.data)]
    rows, cols = 10, 15
    divisor = [field.one()]
    for step in range(rows):
        while True:
            pivot = None
            for i in range(step, rows):
                for j in range(step, cols):
                    if entries[i][j] and (pivot is None
                                          or len(entries[i][j]) < len(
                                              entries[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                return []   # rank below 10 along the whole pencil
            pi, pj = pivot
            entries[step], entries[pi] = entries[pi], entries[step]
            for row in entries:
                row[step], row[pj] = row[pj], row[step]
            head = entries[step][step]
            clean = True
            for i in range(step + 1, rows):
                if not entries[i][step]:
                    continue
                q, _ = univariate_divmod(field, entries[i][step], head)
                for j in range(step, cols):
                    entries[i][j] = univariate_sub(
                        field, entries[i][j],
                        univariate_mul(field, q, entries[step][j]))
                if entries[i][step]:
                    clean = False
            for j in range(step + 1, cols):
                if not entries[step][j]:
                    continue
                q, _ = univariate_divmod(field, entries[step][j], head)
                for i in range(step, rows):
                    entries[i][j] = univariate_sub(
                        field, entries[i][j],
                        univariate_mul(field, q, entries[i][step]))
                if entries[step][j]:
                    clean = False
            if clean:
                break
        divisor = univariate_mul(field, divisor, entries[step][step])
    lead = divisor[-1]
    inv = field.inv(lead)
    return [field.mul(inv, c) for c in divisor]


def epw_points_on_line(data: RhoLagrangianData, p0: EPWPoint, p1: EPWPoint,
                       ) -> List[Tuple[Optional[Element], EPWPoint]]:
    """Membership points of the pencil p0 + t*p1 over a prime field, with
    their parameters: the roots t in GF(p) of :func:`epw_line_degree` in
    ascending order (every t when it is zero), then ``(None, p1)`` when p1
    itself is a member.  The rank drops at t0 exactly when every maximal
    minor vanishes there, that is when t - t0 divides their gcd."""
    field = data.field
    if not isinstance(field, PrimeField):
        raise ValueError("scanning requires a prime field")
    divisor = _determinant_divisor_on_pencil(data, p0, p1)[::-1]
    out = []
    for t in field.elements():
        value = field.zero()
        for c in divisor:
            value = field.add(field.mul(value, t), c)
        if field.is_zero(value):
            out.append((t, EPWPoint.make(field, [field.add(a, field.mul(t, b))
                                                 for a, b in zip(p0.coords, p1.coords)])))
    if epw_contains(data, p1)[0]:
        out.append((None, p1))
    return out


def rho_plane_condition(data: RhoLagrangianData, v3: Matrix) -> Tuple[bool, int]:
    """Dimension of the intersection of the subspace with (wedge^2 V3) ^ V6,
    and whether it reaches four.  ``v3`` has the three spanning vectors of
    V3 as columns."""
    if v3.rows != 6 or v3.cols != 3 or v3.rank() != 3:
        raise ValueError("V3 must be given by three independent columns")
    field = data.field
    vecs = [ExteriorElement.vector(field, v3.column(j)) for j in range(3)]
    spanning = []
    for a in range(3):
        for b in range(a + 1, 3):
            omega = vecs[a].wedge(vecs[b])
            for k in range(6):
                basis_vec = ExteriorElement.basis(field, (k,))
                spanning.append(frame_coordinates(omega.wedge(basis_vec)))
    w = Matrix.from_columns(field, spanning)
    rank_w = w.rank()
    combined = data.matrix.hstack(w)
    dim = data.matrix.cols + rank_w - combined.rank()
    return dim >= 4, dim


def sigma_plane_point(field: Field, f: Sequence[Element]) -> EPWPoint:
    """A point of the coordinate plane of covectors vanishing on E."""
    return EPWPoint.make(field, [field.zero()] * 3 + list(f))


def sigma_prime_plane_point(field: Field, e: Sequence[Element]) -> EPWPoint:
    return EPWPoint.make(field, list(e) + [field.zero()] * 3)


def sigma_planes_disjoint(field: Field) -> bool:
    """The two coordinate planes have no common projective point: their
    combined row-reduced systems already cut out the whole space."""
    rows = []
    for i in range(3):
        row = [field.zero()] * 6
        row[i] = field.one()
        rows.append(row)
    sigma = ProjectiveSubspace.from_forms(field, tuple("XYZUVW"), rows)
    rows2 = []
    for i in range(3, 6):
        row = [field.zero()] * 6
        row[i] = field.one()
        rows2.append(row)
    sigma_prime = ProjectiveSubspace.from_forms(field, tuple("XYZUVW"), rows2)
    return sigma.forms.vstack(sigma_prime.forms).rank() == 6


# -- planes, lines and conics on the cubic ------------------------------------

@dataclass
class PiGamma:
    pi: ProjectiveSubspace
    gamma: ProjectiveSubspace
    pi_is_plane: bool
    gamma_is_line: bool

    def generic(self) -> bool:
        return self.pi_is_plane and self.gamma_is_line


def fano_tuple(eq: NonSyzygeticEquation, i: int) -> NonSyzygeticEquation:
    """Presentation used by the plane/line/conic constructions for L_i.

    For a plus tuple, the tuple itself.  A minus tuple sits on the other
    block of its Lagrangian pair, where the matrix entries fill the
    transposed slots, so its geometry uses the transposed matrix (the cubic
    is unchanged) with the minus sign folded into L_i, and the membership
    covector swaps its two triples (see :func:`conic_covector`)."""
    if eq.sign == 1:
        return eq
    rows = eq.plus_normalized(i).coeffs.data
    return NonSyzygeticEquation(
        eq.field, eq.variables,
        Matrix(eq.field, [rows[3 * (k % 3) + k // 3] for k in range(9)]
               + rows[9:]), 1)


def pi_gamma(eq: NonSyzygeticEquation, i: int, p: EPWPoint) -> PiGamma:
    """The linear subspaces cut out by Mf + e L_i and by (Mf, L_i)."""
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    field = eq.field
    if all(field.is_zero(c) for c in p.e_part):
        raise ValueError("e = 0: the plane of the construction degenerates")
    plus = fano_tuple(eq, i)
    l_i = plus.coeffs.data[8 + i]
    gamma_rows = plus.m_product(p.f_part).data
    pi_rows = [[field.add(a, field.mul(e, b)) for a, b in zip(row, l_i)]
               for row, e in zip(gamma_rows, p.e_part)]
    gamma_rows.append(l_i)
    pi = ProjectiveSubspace.from_forms(field, eq.variables, pi_rows)
    gamma = ProjectiveSubspace.from_forms(field, eq.variables, gamma_rows)
    return PiGamma(pi, gamma, pi.codim() == 3, gamma.codim() == 4)


@dataclass
class ResidualConic:
    """The conic residual to the distinguished line in the plane section.

    ``matrix`` is symmetric 3x3 in the plane coordinates fixed by
    ``parametrization`` (columns = points of the plane); ``line_form`` is
    the equation of the line inside those coordinates."""

    field: Field
    parametrization: Matrix
    line_form: MultiPoly
    quadric: MultiPoly
    matrix: Matrix

    def det(self) -> Element:
        return self.matrix.det()

    def rank(self) -> int:
        return self.matrix.rank()

    def singular_point_in_plane(self) -> Optional[List[Element]]:
        ker = self.matrix.kernel_basis()
        if ker.cols == 0:
            return None
        return ker.column(0)

    def singular_point_in_ambient(self) -> Optional[List[Element]]:
        pt = self.singular_point_in_plane()
        if pt is None:
            return None
        return self.parametrization.apply_to_vector(pt)


PLANE_VARIABLES = ("s0", "s1", "s2")


def residual_conic(eq: NonSyzygeticEquation, i: int, p: EPWPoint) -> ResidualConic:
    """Exact division of the restricted cubic by the line equation."""
    field = eq.field
    if field.characteristic == 2:
        raise ValueError("conic matrices need characteristic != 2")
    pg = pi_gamma(eq, i, p)
    if not pg.generic():
        raise ValueError("degenerate configuration: plane or line has wrong "
                         "dimension")
    plus = fano_tuple(eq, i)
    n = pg.pi.parametrization()          # 6 x 3
    restricted = plus.cubic_polynomial().linear_substitution(n, PLANE_VARIABLES)
    ell = plus.l_forms[i - 1].linear_substitution(n, PLANE_VARIABLES)
    if ell.is_zero():
        raise ValueError("L_i vanishes on the plane")
    quadric, remainder = restricted.divmod_linear(ell)
    if not remainder.is_zero():
        raise ValueError("internal inconsistency: the line is not contained "
                         "in the plane section")
    half = field.inv(field.from_int(2))
    mat = Matrix.zero(field, 3, 3)
    for mono, c in quadric.terms.items():
        idx = [k for k, e_ in enumerate(mono) for _ in range(e_)]
        a, b = idx[0], idx[1]
        if a == b:
            mat.data[a][a] = c
        else:
            mat.data[a][b] = field.mul(c, half)
            mat.data[b][a] = field.mul(c, half)
    return ResidualConic(field, n, ell, quadric, mat)


def conic_covector(eq: NonSyzygeticEquation, p: EPWPoint) -> EPWPoint:
    """Covector whose hyperplane tests membership for the conic at p.

    For a plus tuple this is (e, f) itself; for a minus tuple the
    construction sits on the other block of the pair, so the two coordinate
    triples change places."""
    if eq.sign == 1:
        return p
    return EPWPoint.make(eq.field, list(p.f_part) + list(p.e_part))


@dataclass
class ConicSplit:
    conic: ResidualConic
    singular_point: Optional[List[Element]]
    lines: Optional[Tuple[ProjectiveSubspace, ProjectiveSubspace]]
    discriminant: Optional[Element]


def epw_to_lines(eq: NonSyzygeticEquation, i: int, p: EPWPoint,
                 expect_on_sextic: bool = True) -> ConicSplit:
    """Split the residual conic at a membership point into its two lines
    (when the needed square root exists in the field)."""
    field = eq.field
    conic = residual_conic(eq, i, p)
    rank = conic.rank()
    if rank == 3:
        if expect_on_sextic:
            raise ValueError("inconsistency: the conic at a membership point "
                             "has full rank")
        return ConicSplit(conic, None, None, None)
    n = conic.parametrization
    if rank == 1:
        # double line: the quadric is c * (v.s)^2 with v a nonzero row
        row = next(r for r in conic.matrix.data
                   if any(not field.is_zero(x) for x in r))
        line = _plane_line_to_ambient(eq, n, row)
        return ConicSplit(conic, conic.singular_point_in_ambient(),
                          (line, line), field.zero())
    # rank 2: restrict to a complement of the kernel and factor the binary form
    kernel = conic.matrix.kernel_basis().column(0)
    basis = [kernel]
    for cand in range(3):
        unit = [field.zero()] * 3
        unit[cand] = field.one()
        trial = Matrix.from_columns(field, basis + [unit])
        if trial.rank() == len(basis) + 1:
            basis.append(unit)
        if len(basis) == 3:
            break
    u, w = basis[1], basis[2]
    quad = lambda x: _eval_sym(field, conic.matrix, x, x)
    bil = lambda x, y: _eval_sym(field, conic.matrix, x, y)
    a = quad(u)
    b = field.mul(field.from_int(2), bil(u, w))
    c = quad(w)
    disc = field.sub(field.mul(b, b),
                     field.mul(field.from_int(4), field.mul(a, c)))
    root = field.sqrt(disc)
    if root is None:
        return ConicSplit(conic, conic.singular_point_in_ambient(), None, disc)
    # a x^2 + b x y + c y^2 = a (x - r1 y)(x - r2 y) (or degenerate in a)
    directions = []
    if field.is_zero(a):
        directions.append((field.one(), field.zero()))       # y = 0 branch
        if field.is_zero(b):
            directions.append((field.one(), field.zero()))
        else:
            directions.append((field.neg(field.div(c, b)), field.one()))
    else:
        inv2a = field.inv(field.mul(field.from_int(2), a))
        for sgn in (root, field.neg(root)):
            r = field.mul(field.add(field.neg(b), sgn), inv2a)
            directions.append((r, field.one()))
    lines = []
    for (x, y) in directions:
        direction = [field.add(field.mul(x, uu), field.mul(y, ww))
                     for uu, ww in zip(u, w)]
        pt1 = n.apply_to_vector(kernel)
        pt2 = n.apply_to_vector(direction)
        lines.append(ProjectiveSubspace.from_points(field, eq.variables,
                                                    [pt1, pt2]))
    return ConicSplit(conic, conic.singular_point_in_ambient(),
                      (lines[0], lines[1]), disc)


def _eval_sym(field: Field, m: Matrix, x: Sequence[Element], y: Sequence[Element]) -> Element:
    acc = field.zero()
    for i in range(3):
        for j in range(3):
            acc = field.add(acc, field.mul(m.data[i][j], field.mul(x[i], y[j])))
    return acc


def _plane_line_to_ambient(eq: NonSyzygeticEquation, n: Matrix,
                           form_row: Sequence[Element]) -> ProjectiveSubspace:
    field = eq.field
    # points of the plane where form_row vanishes
    ker = Matrix(field, [list(form_row)]).kernel_basis()
    pts = [n.apply_to_vector(ker.column(j)) for j in range(ker.cols)]
    return ProjectiveSubspace.from_points(field, eq.variables, pts)


class LineCorrespondenceError(ValueError):
    pass


def line_to_epw(eq: NonSyzygeticEquation, i: int,
                line: ProjectiveSubspace) -> EPWPoint:
    """Recover the membership point from a line on the cubic.

    The line must meet the hyperplane L_i = 0 in a single point where M has
    rank exactly two; the kernel there gives f, the span of the line with
    the associated coordinate line gives the plane, and the plane determines
    e uniquely.  Each precondition failure is reported by name."""
    field = eq.field
    plus = fano_tuple(eq, i)
    if line.projective_dim() != 1:
        raise LineCorrespondenceError("input subspace is not a line")
    pts = line.parametrization()
    if pts.cols != 2:
        raise LineCorrespondenceError("input subspace is not a line")
    p0, p1 = pts.column(0), pts.column(1)
    cubic = plus.cubic_polynomial()
    for s, t in ((1, 0), (0, 1), (1, 1), (1, 2)):
        pt = [field.add(field.mul(field.from_int(s), a),
                        field.mul(field.from_int(t), b)) for a, b in zip(p0, p1)]
        if not field.is_zero(cubic.evaluate(pt)):
            raise LineCorrespondenceError("line is not contained in the cubic")
    l_i = plus.l_forms[i - 1]
    v0 = l_i.evaluate(p0)
    v1 = l_i.evaluate(p1)
    if field.is_zero(v0) and field.is_zero(v1):
        raise LineCorrespondenceError("line lies inside the hyperplane L_i = 0")
    # point with L_i = 0: v0 * 1 + t * v1 = 0 along p0 + t p1
    if field.is_zero(v1):
        meet = p1
    else:
        t = field.neg(field.div(v0, v1))
        meet = [field.add(a, field.mul(t, b)) for a, b in zip(p0, p1)]
    values = plus.coeffs.apply_to_vector(meet)
    m_at = Matrix(field, [values[3 * r:3 * r + 3] for r in range(3)])
    rank = m_at.rank()
    if rank == 3:
        raise LineCorrespondenceError("matrix has full rank at the meeting "
                                      "point; no kernel direction")
    if rank <= 1:
        raise LineCorrespondenceError("matrix rank at most one at the meeting "
                                      "point; kernel direction not unique")
    f = m_at.kernel_basis().column(0)
    mf = plus.m_product(f).data
    gamma_rows = mf + [l_i.linear_coefficients()]
    gamma = ProjectiveSubspace.from_forms(field, eq.variables, gamma_rows)
    if gamma.codim() != 4:
        raise LineCorrespondenceError("associated coordinate line degenerates")
    gpts = gamma.parametrization()
    span_pts = [gpts.column(j) for j in range(gpts.cols)] + [p0, p1]
    span = Matrix.from_columns(field, span_pts)
    if span.rank() != 3:
        raise LineCorrespondenceError("line and coordinate line do not span "
                                      "a plane")
    plane = ProjectiveSubspace.from_points(field, eq.variables, span_pts)
    n = plane.parametrization()
    ell = l_i.linear_substitution(n, PLANE_VARIABLES)
    if ell.is_zero():
        raise LineCorrespondenceError("L_i vanishes on the spanned plane")
    e = []
    for row in mf:
        form = MultiPoly.linear_form(field, eq.variables, row)
        restricted = form.linear_substitution(n, PLANE_VARIABLES)
        if restricted.is_zero():
            e.append(field.zero())
            continue
        ratio = scalar_multiple(restricted, ell)
        if ratio is None:
            raise LineCorrespondenceError("plane is not in the expected pencil")
        e.append(field.neg(ratio))
    return EPWPoint.make(field, e + list(f))


# -- decomposable vectors ------------------------------------------------------

AVARS = tuple(f"a{i}" for i in range(10))


@dataclass
class DecomposableVectorReport:
    """Outcome of the no-decomposable-vectors test.

    The sampling method is a necessary condition only (no sampled
    decomposable vector lies in the subspace); the elimination method
    certifies, over the algebraic closure, that the subspace meets the cone
    of decomposable vectors in the origin alone."""

    method: str
    found_decomposable: bool
    certified_none: bool
    detail: str

    def passed(self) -> bool:
        return not self.found_decomposable


def decomposability_quadrics(data: RhoLagrangianData) -> List[MultiPoly]:
    """Quadratic equations, in coordinates on the subspace, of its
    intersection with the cone of decomposable grade-3 vectors: the
    coefficients of (contraction of x by a grade-2 covector) wedge x."""
    field = data.field
    ring = PolyRing(field, AVARS)
    cols_lex = [lex3_coordinates(from_frame_coordinates(field,
                                                        data.matrix.column(j)))
                for j in range(10)]
    terms = {}
    for idx, triple in enumerate(GRADE3_TRIPLES):
        form = MultiPoly.linear_form(field, AVARS,
                                     [cols_lex[j][idx] for j in range(10)])
        if not form.is_zero():
            terms[triple] = form
    x = ExteriorElement(ring, 3, terms)
    quadrics: List[MultiPoly] = []
    seen = set()
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            cov_i = [MultiPoly.constant(field, AVARS,
                                        field.one() if k == i else field.zero())
                     for k in range(6)]
            cov_j = [MultiPoly.constant(field, AVARS,
                                        field.one() if k == j else field.zero())
                     for k in range(6)]
            y = x.contract(cov_j).contract(cov_i)
            z = y.wedge(x)
            for quad in GRADE4_QUADS:
                q = z.terms.get(quad)
                if q is None or q.is_zero():
                    continue
                key = frozenset(q.terms.items())
                neg = frozenset((-q).terms.items())
                if key in seen or neg in seen:
                    continue
                seen.add(key)
                quadrics.append(q)
    return quadrics


def random_decomposable(field: Field, rng: random.Random):
    """Frame coordinates of a random product of three vectors."""
    while True:
        vs = [ExteriorElement.vector(field, [field.random(rng)
                                             for _ in range(6)])
              for _ in range(3)]
        w = vs[0].wedge(vs[1]).wedge(vs[2])
        if not w.is_zero():
            return frame_coordinates(w)


def decomposable_vector_check(data: RhoLagrangianData,
                              rng: Optional[random.Random] = None,
                              samples: int = 200,
                              method: str = "sampling",
                              max_degree: int = 5,
                              ) -> DecomposableVectorReport:
    """Test whether the subspace contains decomposable vectors.

    ``sampling`` (the default) draws random decomposable vectors and flags
    any that land in the subspace;  ``elimination`` restricts the
    decomposability quadrics to the subspace and certifies the cone is
    zero-dimensional (prime fields only)."""
    field = data.field
    if method == "sampling":
        rng = rng or random.Random(0)
        for _ in range(samples):
            w = random_decomposable(field, rng)
            extended = data.matrix.hstack(Matrix.from_columns(field, [w]))
            if extended.rank() == data.matrix.cols:
                return DecomposableVectorReport(
                    method, True, False, "sampled decomposable vector lies in "
                                         "the subspace")
        return DecomposableVectorReport(
            method, False, False,
            f"none of {samples} sampled decomposable vectors lies in the subspace")
    if method == "elimination":
        if not isinstance(field, PrimeField):
            raise ValueError("elimination certification runs over prime fields")
        quadrics = decomposability_quadrics(data)
        # the cone is the origin alone as soon as the ideal contains every
        # monomial of some degree; the graded pieces are checked by exact
        # rank computations.  Observed saturation degree is five, so the
        # default is exhaustive but costly (minutes); lower max_degree gives
        # a cheaper inconclusive run
        codim = None
        for degree in range(3, max_degree + 1):
            target = monomials_of_degree(10, degree)
            columns, _ = multiplier_columns(10, [(q, degree - 2) for q in quadrics])
            rank = len(sparse_echelon(field, columns, len(target)))
            codim = len(target) - rank
            if codim == 0:
                return DecomposableVectorReport(
                    method, False, True,
                    f"{len(quadrics)} quadrics saturate degree {degree}: "
                    f"the cone is the origin alone")
        return DecomposableVectorReport(
            method, False, False,
            f"inconclusive: degree-{max_degree} piece has codimension {codim}")
    raise ValueError("method must be 'sampling' or 'elimination'")


# -- harvesting ---------------------------------------------------------------

@dataclass
class HarvestedPoint:
    point: EPWPoint
    nullity: int


def harvest_epw_points(eq: NonSyzygeticEquation, i: int,
                       data: RhoLagrangianData, rng: random.Random,
                       count: int, max_lines: int = 400) -> List[HarvestedPoint]:
    """Membership points found by scanning random pencils over a prime
    field.  Only points usable by the conic construction are kept: both
    coordinate triples nonzero, the plane a plane, the line a line."""
    field = eq.field
    if not isinstance(field, PrimeField):
        raise ValueError("harvesting scans a prime field")
    found: List[HarvestedPoint] = []
    seen = set()
    for _ in range(max_lines):
        if len(found) >= count:
            break
        p0 = EPWPoint.make(field, [field.random(rng) for _ in range(6)])
        p1 = EPWPoint.make(field, [field.random(rng) for _ in range(6)])
        if p0.same_point(p1):
            continue
        for _t, pt in epw_points_on_line(data, p0, p1):
            if pt.coords in seen:
                continue
            seen.add(pt.coords)
            # the block swap is an involution, so the same map converts raw
            # membership covectors to conic-construction labels
            geom_pt = conic_covector(eq, pt)
            if all(field.is_zero(c) for c in geom_pt.e_part):
                continue
            if all(field.is_zero(c) for c in geom_pt.f_part):
                continue
            if not pi_gamma(eq, i, geom_pt).generic():
                continue
            nullity = epw_contains(data, pt)[1]
            found.append(HarvestedPoint(geom_pt, nullity))
            if len(found) >= count:
                break
    return found
