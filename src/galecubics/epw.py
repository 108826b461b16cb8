"""EPW membership, residual conics and the line correspondence.

A covector on the six-space (a pair ``(e, f)`` of coordinate triples, up to
scale) cuts out a hyperplane; the degeneracy condition is that an
admissible subspace meets the third wedge power of that hyperplane.  The
rank formulation used throughout: contraction with the covector kills
exactly that wedge power, so membership at one point is a kernel
computation on a 15 x 10 matrix, a fixed sign pattern applied to the
subspace's frame coordinates.  That matrix is linear in the covector, so
along a pencil its values at the two base points give it everywhere, and
the monic gcd of its size-10 minors (the determinant divisor, of degree 6)
vanishes exactly at the membership points of the pencil.  When the matrix
at the second point has full rank, constant row and column operations
bring the pencil to the form [tI + A1 | A2], and the divisor is the
characteristic polynomial of a matrix of size at most 10: one rref gives
both the degree and the points.  Otherwise the pencil is re-based at a
point that is not a member, and over GF(2) to GF(5) there may be none.

On the cubic side, a point ``(e, f)`` with nonzero ``e`` spans a plane
``Mf + e L_i = 0`` containing the line ``Mf = L_i = 0``; the conic residual
to that line in the plane section of the cubic degenerates exactly over
membership points, and splitting it into its two lines inverts, pointwise,
the correspondence between the degeneracy locus and lines on the cubic.
The cubic is pulled back onto the plane in one substitution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .exterior import (CONTRACTION_ROWS, GRADE3_TRIPLES, GRADE4_QUADS,
                       ExteriorElement, frame_coordinates,
                       from_frame_coordinates, lex3_coordinates)
from .fields import Element, Field, PrimeField, RationalField, is_prime, require
from .gale import NonSyzygeticEquation, multiplier_columns
from .groebner import buchberger, is_zero_dim_cone
from .invariants import LEX3_VARIABLES
from .lagrangian import RhoLagrangianData
from .linalg import Matrix, sparse_echelon
from .poly import (MultiPoly, PolyRing, Substitution, monomials_of_degree,
                   scalar_multiple, univariate_from_coeffs)


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
    """15 x 10 matrix of the contraction with the covector restricted to
    the subspace, rows indexed by the grade-2 pairs; its kernel is the
    intersection with the third wedge power of the covector's hyperplane.
    Row r is the sum of ``sign * c_k`` times row a of ``data.matrix`` over
    the entries ``(a, k, sign)`` of ``CONTRACTION_ROWS[r]``."""
    field = data.field
    src = data.matrix.data
    if isinstance(field, PrimeField):
        p = field.p
        out = []
        for (a0, k0, s0), (a1, k1, s1), (a2, k2, s2), (a3, k3, s3) in CONTRACTION_ROWS:
            c0, c1, c2, c3 = (s0 * covector[k0], s1 * covector[k1],
                              s2 * covector[k2], s3 * covector[k3])
            out.append([(c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3) % p
                        for x0, x1, x2, x3 in zip(src[a0], src[a1], src[a2], src[a3])])
        return Matrix(field, out)
    add, mul, zero = field.add, field.mul, field.zero()
    out = []
    for terms in CONTRACTION_ROWS:
        acc = [zero] * data.matrix.cols
        for a, k, sign in terms:
            c = covector[k] if sign > 0 else field.neg(covector[k])
            acc = [add(x, mul(c, y)) for x, y in zip(acc, src[a])]
        out.append(acc)
    return Matrix(field, out)


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

    It is computed exactly, by constant unimodular operations (which keep
    the gcd of the maximal minors) on the pencil re-based at a point that is
    not a member (:func:`_determinant_divisor_on_pencil`).  A ``ValueError``
    says when no point tried is one, which only happens over GF(2) to GF(5)."""
    divisor = _determinant_divisor_on_pencil(data, p0, p1)
    if divisor is None:
        raise ValueError(f"every point of the pencil tried over "
                         f"{data.field.descriptor} is a member: undecided")
    return univariate_from_coeffs(data.field, var, divisor)


def _determinant_divisor_on_pencil(data: RhoLagrangianData, p0: EPWPoint,
                                   p1: EPWPoint) -> Optional[List[Element]]:
    """Monic gcd of all maximal minors of the contraction matrix
    C(t) = C(p0) + t*C(p1) along the pencil, low degree first, ``[]`` when
    it is zero and ``None`` when it is undecided.

    As a form in (s, t) at s*p0 + t*p1 it is the EPW sextic on the line:
    degree 6 or zero, vanishing exactly at the members.  For the distinct
    c in ``from_int(0..6)``, the first non-member q = p1 + c*p0 gives the
    divisor d_c of p0 + u*q (:func:`_constant_reduction`), where s*p0 + t*p1
    sits at (s - c*t, t); so the divisor is d_c, homogenised, at
    (1 - c*t, t), made monic.  A nonzero sextic has at most six zeros, so
    seven members make it zero.  With fewer values (characteristic 2, 3, 5)
    p0 is tried too, through the swapped pencil p1 + u*p0, whose divisor is
    reversed; if it is a member as well, the divisor is undecided."""
    if p0.same_point(p1):
        raise ValueError("coincident points do not span a pencil")
    field = data.field
    shifts = list(dict.fromkeys(field.from_int(c) for c in range(7)))
    trials = [(p0, p1, c) for c in shifts]
    if len(shifts) < 7:
        trials.append((p1, p0, field.zero()))
    for base, other, c in trials:
        second = [field.add(b, field.mul(c, a))
                  for a, b in zip(base.coords, other.coords)]
        divisor = _constant_reduction(field, contraction_matrix(data, base.coords),
                                      contraction_matrix(data, second))
        if divisor is None:
            continue
        rebased = []        # d_c at (1 - c*t, t), by Horner in 1 - c*t
        for d in divisor:
            rebased = [field.sub(x, field.mul(c, y))
                       for x, y in zip(rebased + [d], [field.zero()] + rebased)]
        if base is p1:
            rebased.reverse()
        while field.is_zero(rebased[-1]):
            rebased.pop()
        inv = field.inv(rebased[-1])
        return [field.mul(inv, x) for x in rebased]
    return [] if len(shifts) == 7 else None


def _constant_reduction(field: Field, c0: Matrix, c1: Matrix) -> Optional[List[Element]]:
    """Monic divisor (low degree first) of the pencil C(u) = c0 + u*c1 of
    contraction matrices when c1 has rank 10, else ``None``.

    One rref of [c1^T | c0^T] gives P with P c1^T in reduced form, pivot
    columns S and the others N.  Then P C(u)^T has the columns
    uI + A1 on S, A1 = (P c0^T)_S, and subtracting the S columns times
    R_N = (P c1^T)_N leaves the constant A2 = (P c0^T)_N - A1 R_N on N.
    Both steps are constant and invertible, so the divisor is that of
    [uI + A1 | A2]:
    * a basis change putting the smallest A1-invariant subspace K that
      holds the columns of A2 first gives the block triangular
      [[uI + F11, F12, G1], [0, uI + Au, 0]], Au the map A1 induces on
      k^10 / K (Kalman decomposition);
    * every nonzero maximal minor uses all of the columns of uI + Au, so
      the divisor is det(uI + Au) times that of [uI + F11 | G1];
    * (F11, G1) is controllable, so [uI + F11 | G1] has full rank at every
      u of the algebraic closure (PBH test) and its minors have gcd 1."""
    red, pivots = Matrix(field, [r1 + r0 for r1, r0 in zip(
        c1.transpose().data, c0.transpose().data)]).rref()
    if len(pivots) < 10 or pivots[-1] >= 15:
        return None
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


def epw_points_on_line(data: RhoLagrangianData, p0: EPWPoint, p1: EPWPoint,
                       ) -> List[Tuple[Optional[Element], EPWPoint]]:
    """Membership points of the pencil p0 + t*p1 over a prime field, with
    their parameters: the roots t in GF(p) of :func:`epw_line_degree` in
    ascending order (every t when it is zero), then ``(None, p1)`` when p1
    itself is a member.  The rank drops at t0 exactly when every maximal
    minor vanishes there, that is when t - t0 divides their gcd.  When the
    divisor is undecided, every point of the pencil over GF(p) is a member,
    so it is listed like the zero divisor."""
    field = data.field
    require(field, "the pencil scan", prime=True)
    divisor = _determinant_divisor_on_pencil(data, p0, p1) or []
    p = field.p
    out = []
    for t in field.elements():
        value = 0
        for c in reversed(divisor):
            value = (value * t + c) % p
        if not value:
            out.append((t, EPWPoint.make(field, [field.add(a, field.mul(t, b))
                                                 for a, b in zip(p0.coords, p1.coords)])))
    # the divisor is a sextic form: its degree in t drops exactly when it
    # vanishes at t = infinity, that is at p1
    if len(divisor) < 7:
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
    unit = Matrix.identity(field, 6).data
    sigma = ProjectiveSubspace.from_forms(field, tuple("XYZUVW"), unit[:3])
    sigma_prime = ProjectiveSubspace.from_forms(field, tuple("XYZUVW"), unit[3:])
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
    require(field, "the residual conic", exclude=(2,))
    pg = pi_gamma(eq, i, p)
    if not pg.generic():
        raise ValueError("degenerate configuration: plane or line has wrong "
                         "dimension")
    plus = fano_tuple(eq, i)
    n = pg.pi.parametrization()          # 6 x 3
    restricted = plus.cubic_polynomial(n, PLANE_VARIABLES)
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
    for s, t in ((1, 0), (0, 1), (1, 1), (1, 2)):
        pt = [field.add(field.mul(field.from_int(s), a),
                        field.mul(field.from_int(t), b)) for a, b in zip(p0, p1)]
        if not field.is_zero(plus.cubic_value(pt)):
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
    restrict = Substitution.linear(field, plane.parametrization().data,
                                   PLANE_VARIABLES).pull_back
    ell = restrict(l_i)
    if ell.is_zero():
        raise LineCorrespondenceError("L_i vanishes on the spanned plane")
    e = []
    for row in mf:
        restricted = restrict(MultiPoly.linear_form(field, eq.variables, row))
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

    Both methods certify, over the algebraic closure, that the subspace
    meets the cone of decomposable vectors in the origin alone
    (``certified_none``), or say why they could not."""

    method: str
    found_decomposable: bool
    certified_none: bool
    detail: str

    def passed(self) -> bool:
        return not self.found_decomposable


def _first_up_to_sign(polys):
    """The nonzero ones of ``polys``, each unless it or its negative came
    earlier."""
    seen = set()
    for q in polys:
        if q is None or q.is_zero() or frozenset(q.terms.items()) in seen:
            continue
        seen.add(frozenset(q.terms.items()))
        seen.add(frozenset((-q).terms.items()))
        yield q


@lru_cache(maxsize=None)
def _universal_decomposability_quadrics(field: Field) -> Tuple[MultiPoly, ...]:
    """The grade-4 coefficients of (contraction of x by e_j* then e_i*)
    wedge x, i != j, for the generic grade-3 vector x with lex3 coordinates
    ``y0..y19``: 45 up to sign, in first-occurrence order."""
    ring = PolyRing(field, LEX3_VARIABLES)
    x = ExteriorElement(ring, 3, {
        triple: MultiPoly.variable(field, LEX3_VARIABLES, idx)
        for idx, triple in enumerate(GRADE3_TRIPLES)})
    unit = [[MultiPoly.constant(field, LEX3_VARIABLES,
                                field.one() if k == i else field.zero())
             for k in range(6)] for i in range(6)]
    wedges = [x.contract(unit[j]).contract(unit[i]).wedge(x)
              for i in range(6) for j in range(6) if i != j]
    return tuple(_first_up_to_sign(z.terms.get(quad) for z in wedges
                                   for quad in GRADE4_QUADS))


def decomposability_quadrics(data: RhoLagrangianData) -> List[MultiPoly]:
    """Quadratic equations, in coordinates ``a0..a9`` on the subspace, of
    its intersection with the cone of decomposable grade-3 vectors: the
    coefficients of (contraction of x by a grade-2 covector) wedge x,
    pulled back from the lex3 coordinates along the spanning columns, the
    first of each pair equal up to sign kept."""
    field = data.field
    cols_lex = Matrix.from_columns(field, [
        lex3_coordinates(from_frame_coordinates(field, data.matrix.column(j)))
        for j in range(10)])                                      # 20 x 10
    return list(_first_up_to_sign(map(
        Substitution.linear(field, cols_lex.data, AVARS).pull_back,
        _universal_decomposability_quadrics(field))))


def _groebner_prime(quadrics: Sequence[MultiPoly]) -> int:
    """The first prime from 101 on that divides no denominator of the
    (rational) coefficients."""
    dens = [c.denominator for q in quadrics for c in q.terms.values()]
    p = 101
    while not is_prime(p) or any(d % p == 0 for d in dens):
        p += 1
    return p


def decomposable_vector_check(data: RhoLagrangianData,
                              method: str = "groebner",
                              max_degree: int = 5,
                              ) -> DecomposableVectorReport:
    """Test whether the subspace contains decomposable vectors.

    ``groebner`` (the default) computes a Groebner basis of the
    decomposability quadrics restricted to the subspace and tests whether
    their cone is the origin alone: over a prime field this decides the
    question over the algebraic closure; over the rationals the quadrics are
    reduced at a prime dividing no denominator, named in ``detail``, and a
    cone that is not the origin alone there gives "inconclusive".
    ``elimination`` (prime fields only) checks whether the graded pieces of
    the ideal fill every monomial of some degree up to ``max_degree``, by
    exact sparse ranks."""
    field = data.field
    if method == "groebner":
        quadrics = decomposability_quadrics(data)
        where = ""
        if isinstance(field, RationalField):
            # zero-dimensional mod p means that the ideal mod p holds every
            # monomial of some degree D, i.e. the degree-D Macaulay matrix of
            # the quadrics has full rank mod p; its entries have no p in a
            # denominator, so some maximal minor is a p-adic unit, hence
            # nonzero, and the matrix has full rank over the rationals too
            p = _groebner_prime(quadrics)
            prime = PrimeField(p)
            quadrics = [MultiPoly(prime, AVARS, {
                m: c.numerator * pow(c.denominator, -1, p) % p
                for m, c in q.terms.items()}) for q in quadrics]
            where = f" mod {p}"
        gb = buchberger(quadrics)
        if is_zero_dim_cone(gb):
            return DecomposableVectorReport(
                method, False, True,
                f"{len(quadrics)} quadrics{where}: a {len(gb.generators)}-element "
                f"Groebner basis cuts out the origin alone")
        if where:
            return DecomposableVectorReport(
                method, False, False,
                f"inconclusive: the {len(quadrics)} quadrics{where} cut out "
                f"more than the origin")
        return DecomposableVectorReport(
            method, True, False,
            f"{len(quadrics)} quadrics cut out more than the origin: the "
            f"subspace holds decomposable vectors over the algebraic closure")
    if method == "elimination":
        require(field, "the elimination certificate", prime=True)
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
    raise ValueError("method must be 'groebner' or 'elimination'")


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
    require(field, "harvesting", prime=True)
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
