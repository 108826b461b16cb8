"""Lagrangian construction data for pairs of Gale dual cubics.

A 10-dimensional subspace ``A`` of the grade-3 part of the exterior algebra
(in frame coordinates, so that the first ten coordinates are the ``U_E``
block and the last ten the ``U_F`` block) is *admissible* here when the
wedge pairing vanishes on it and it meets both blocks in dimension four.

From an equation tuple and a choice of one of the three L forms one builds
such a subspace through the normalised 12x6 coefficient matrices ``Qhat``
and ``Phat``; conversely, an adapted basis of an admissible subspace,
normalised so that the symmetric part of the pairing is hyperbolic on the
two extra directions, produces a pair of Gale dual equation tuples again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .exterior import induced_grade3_matrix
from .fields import Element, Field
from .gale import NonSyzygeticEquation, gale_dual
from .linalg import Matrix, same_column_span


class LagrangianValidationError(ValueError):
    def __init__(self, failures: List[str]):
        self.failures = failures
        super().__init__("; ".join(failures))


def canonical_columns(m: Matrix) -> Matrix:
    """Canonical (RREF-of-transpose) basis of the column span."""
    return m.transpose().row_space().transpose()


@dataclass
class RhoLagrangianData:
    """Validated 10-dimensional Lagrangian with 4-dimensional block slices.

    ``matrix`` is 20x10 in frame coordinates; ``a_e`` and ``a_f`` are
    canonical bases (20x4) of the intersections with the two blocks.
    """

    field: Field
    matrix: Matrix
    a_e: Matrix
    a_f: Matrix

    def same_subspace(self, other: "RhoLagrangianData") -> bool:
        return same_column_span(self.matrix, other.matrix)


def symplectic_blocks(candidate: Matrix) -> Tuple[Matrix, Matrix]:
    top = candidate.submatrix(range(10), range(candidate.cols))
    bottom = candidate.submatrix(range(10, 20), range(candidate.cols))
    return top, bottom


def validate(field: Field, candidate: Matrix) -> RhoLagrangianData:
    """Check dimension 10, the Lagrangian condition and both block slices
    of dimension 4; every failed condition is reported by name."""
    failures = []
    if candidate.rows != 20:
        raise LagrangianValidationError(["matrix must have 20 rows (frame coordinates)"])
    span = canonical_columns(candidate)
    if span.cols != 10:
        raise LagrangianValidationError(
            [f"dimension: expected 10, got {span.cols}"])
    top, bottom = symplectic_blocks(span)
    pairing = (top.transpose() * bottom).data    # entries canonical in every field
    if any(pairing[i][j] != pairing[j][i]
           for i in range(10) for j in range(i + 1, 10)):
        failures.append("lagrangian: wedge pairing does not vanish on the subspace")
    a_e_coords = bottom.kernel_basis()
    a_f_coords = top.kernel_basis()
    if a_e_coords.cols != 4:
        failures.append(f"rho-dimension-E: expected 4, got {a_e_coords.cols}")
    if a_f_coords.cols != 4:
        failures.append(f"rho-dimension-F: expected 4, got {a_f_coords.cols}")
    if failures:
        raise LagrangianValidationError(failures)
    a_e = canonical_columns(span * a_e_coords)
    a_f = canonical_columns(span * a_f_coords)
    return RhoLagrangianData(field, span, a_e, a_f)


@dataclass
class QPPresentation:
    """Adapted presentation of an admissible subspace.

    The 20x10 matrix ``vstack(q, p)`` has column blocks of sizes (4,4,1,1):
    a basis of ``A_F``, a basis of ``A_E``, and two extra directions with
    the symmetric pairing normalised to the hyperbolic form.  ``qhat`` and
    ``phat`` are the induced 12x6 coefficient matrices, and when the
    presentation came from an equation tuple, ``normalized_eq`` /
    ``normalized_dual`` are that tuple and its dual rewritten in the
    normalising coordinates ``g`` / ``h``.  ``qtp()`` is computed once
    and shared by ``alpha()`` and ``sigma()``.
    """

    field: Field
    q: Matrix
    p: Matrix
    qhat: Matrix
    phat: Matrix
    g: Optional[Matrix] = None
    h: Optional[Matrix] = None
    normalized_eq: Optional[NonSyzygeticEquation] = None
    normalized_dual: Optional[NonSyzygeticEquation] = None
    _qtp: Optional[Matrix] = dataclasses.field(default=None, init=False,
                                               repr=False, compare=False)

    def adapted_basis(self) -> Matrix:
        return self.q.vstack(self.p)

    def qtp(self) -> Matrix:
        """``Q^t P``, computed on the first call and reused after it: both
        ``alpha`` and ``sigma`` are read off it.  ``q`` and ``p`` are not
        meant to change once the presentation is built."""
        if self._qtp is None:
            self._qtp = self.q.transpose() * self.p
        return self._qtp

    def alpha(self) -> Matrix:
        qtp = self.qtp()
        return _halve(qtp - qtp.transpose())

    def sigma(self) -> Matrix:
        qtp = self.qtp()
        return _halve(qtp + qtp.transpose())


def _halve(m: Matrix) -> Matrix:
    k = m.field
    half = k.inv(k.from_int(2))
    return m.scale(half)


def sigma_normal_form(field: Field) -> Matrix:
    """Zero except for entries -1 at positions (8,9) and (9,8)."""
    m = Matrix.zero(field, 10, 10)
    neg = field.neg(field.one())
    m.data[8][9] = neg
    m.data[9][8] = neg
    return m


class SplittingError(ValueError):
    pass


def _trailing_normalizer(field: Field, row_a: Sequence[Element],
                         row_b: Sequence[Element]) -> Matrix:
    """Invertible 6x6 R with fifth row row_a and sixth row row_b, completed
    by standard basis rows away from the pivot columns; returns R^{-1}."""
    two = Matrix(field, [list(row_a), list(row_b)])
    _, pivots = two.rref()
    if len(pivots) != 2:
        raise SplittingError(
            "degenerate L-form configuration: trailing forms are dependent")
    free = [c for c in range(6) if c not in pivots][:4]
    rows = []
    for c in free:
        row = [field.zero()] * 6
        row[c] = field.one()
        rows.append(row)
    rows.append(list(row_a))
    rows.append(list(row_b))
    return Matrix(field, rows).inverse()


def lagrangian_from_gale(eq: NonSyzygeticEquation, i: int,
                         ) -> Tuple[RhoLagrangianData, QPPresentation]:
    """Build the admissible subspace attached to an equation tuple and the
    choice of L_i, together with its normalised Qhat/Phat presentation.

    The subspace belongs to the ordered Gale dual pair (plus tuple, minus
    tuple): a plus input sits on the Qhat side with its dual on the Phat
    side, a minus input the other way round.  This orientation is what makes
    the subspace independent of which member of the pair it is computed
    from.
    """
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    field = eq.field
    if eq.sign == 1:
        plus_side, minus_side = eq, eq.dual
    else:
        plus_side, minus_side = eq.dual, eq
    perm = [i - 1] + [j for j in (0, 1, 2) if j != i - 1]
    plus_perm = plus_side.permute_l_forms(perm)
    minus_perm = minus_side.permute_l_forms(perm)

    g = _trailing_normalizer(field, *plus_perm.coeffs.data[10:])
    normalized_eq = plus_perm.change_coordinates(g)
    h = _trailing_normalizer(field, *minus_perm.coeffs.data[10:])
    normalized_dual = minus_perm.change_coordinates(h)

    qhat = normalized_eq.coeffs      # 12x6
    phat = normalized_dual.coeffs    # 12x6
    if not (qhat.transpose() * phat).is_zero():
        raise SplittingError("internal inconsistency: Qhat^t Phat != 0")

    q2 = qhat.submatrix(range(10), range(4))
    q4 = qhat.submatrix(range(10), [4])
    q3 = qhat.submatrix(range(10), [5])
    p1 = phat.submatrix(range(10), range(4))
    p3 = phat.submatrix(range(10), [4])
    p4 = phat.submatrix(range(10), [5])
    zero4 = Matrix.zero(field, 10, 4)
    q = zero4.hstack(q2).hstack(q3).hstack(q4)
    p = p1.hstack(Matrix.zero(field, 10, 4)).hstack(p3).hstack(p4)

    presentation = QPPresentation(field, q, p, qhat, phat, g=g, h=h,
                                  normalized_eq=normalized_eq,
                                  normalized_dual=normalized_dual)
    data = validate(field, presentation.adapted_basis())
    return data, presentation


def _sigma_value(field: Field, u: Sequence[Element], v: Sequence[Element]) -> Element:
    """Symmetric part of the pairing of two vectors in frame coordinates."""
    acc = field.zero()
    for a in range(10):
        acc = field.add(acc, field.mul(u[a], v[10 + a]))
        acc = field.add(acc, field.mul(v[a], u[10 + a]))
    return field.mul(acc, field.inv(field.from_int(2)))


def adapted_presentation(data: RhoLagrangianData) -> QPPresentation:
    """Deterministic adapted basis of an admissible subspace: canonical
    bases of A_F and A_E, two complementary directions drawn from the
    subspace's canonical columns, then the hyperbolic normalisation
    (Q3,Q4)^t(P3,P4) = [[0,-1],[-1,0]]."""
    field = data.field
    base = data.a_f.hstack(data.a_e)          # 20x8
    extra: List[List[Element]] = []
    work = base
    for j in range(data.matrix.cols):
        if work.cols == 10:
            break
        cand = data.matrix.column(j)
        trial = work.hstack(Matrix.from_columns(field, [cand]))
        if trial.rank() == work.cols + 1:
            work = trial
            extra.append(cand)
    if len(extra) != 2:
        raise SplittingError(
            "splitting failure: no directions outside A_E + A_F")
    v1, v2 = extra
    s33 = _sigma_value(field, v1, v1)
    s34 = _sigma_value(field, v1, v2)
    s44 = _sigma_value(field, v2, v2)
    det = field.sub(field.mul(s33, s44), field.mul(s34, s34))
    if field.is_zero(det):
        raise SplittingError("normalization failure: symmetric form degenerates "
                             "on the complement")
    # isotropic vector for s33 x^2 + 2 s34 xy + s44 y^2
    if field.is_zero(s33):
        iso = (field.one(), field.zero())
    elif field.is_zero(s44):
        iso = (field.zero(), field.one())
    else:
        disc = field.sub(field.mul(s34, s34), field.mul(s33, s44))
        root = field.sqrt(disc)
        if root is None:
            raise SplittingError("normalization failure: the symmetric form is "
                                 "not hyperbolic over the coefficient field")
        iso = (field.div(field.sub(root, s34), s33), field.one())
    w1 = [field.add(field.mul(iso[0], a), field.mul(iso[1], b))
          for a, b in zip(v1, v2)]
    # partner with pairing -1 against w1
    for cand in (v1, v2):
        c = _sigma_value(field, w1, cand)
        if not field.is_zero(c):
            scale = field.neg(field.inv(c))
            w2 = [field.mul(scale, x) for x in cand]
            break
    else:  # pragma: no cover - excluded by det != 0
        raise SplittingError("normalization failure: isotropic direction is "
                             "in the radical")
    t = field.mul(_sigma_value(field, w2, w2), field.inv(field.from_int(2)))
    w2 = [field.add(x, field.mul(t, y)) for x, y in zip(w2, w1)]
    cols = [data.a_f.column(j) for j in range(4)]
    cols += [data.a_e.column(j) for j in range(4)]
    cols += [w1, w2]
    basis = Matrix.from_columns(field, cols)
    q, p = symplectic_blocks(basis)
    qhat, phat = _hats_from_blocks(field, q, p)
    pres = QPPresentation(field, q, p, qhat, phat)
    if pres.sigma() != sigma_normal_form(field):
        raise SplittingError("normalization failure: sigma did not reach its "
                             "normal form")
    if not (qhat.transpose() * phat).is_zero():
        raise SplittingError("normalization failure: Qhat^t Phat != 0")
    return pres


def _hats_from_blocks(field: Field, q: Matrix, p: Matrix) -> Tuple[Matrix, Matrix]:
    q2 = q.submatrix(range(10), range(4, 8))
    q3 = q.submatrix(range(10), [8])
    q4 = q.submatrix(range(10), [9])
    p1 = p.submatrix(range(10), range(4))
    p3 = p.submatrix(range(10), [8])
    p4 = p.submatrix(range(10), [9])
    tail = Matrix(field, [
        [field.zero()] * 4 + [field.one(), field.zero()],
        [field.zero()] * 4 + [field.zero(), field.one()],
    ])
    qhat = q2.hstack(q4).hstack(q3).vstack(tail)
    phat = p1.hstack(p3).hstack(p4).vstack(tail)
    return qhat, phat


def equations_from_hats(field: Field, qhat: Matrix, phat: Matrix,
                        variables=("X0", "X1", "X2", "X3", "X4", "X5"),
                        ) -> Tuple[NonSyzygeticEquation, NonSyzygeticEquation]:
    """Read a plus tuple off Qhat's rows and a minus tuple off Phat's rows."""
    from .gale import dual_variable_names
    dual_vars = dual_variable_names(variables)

    return (NonSyzygeticEquation(field, tuple(variables), qhat, 1),
            NonSyzygeticEquation(field, dual_vars, phat, -1))


def gale_from_lagrangian(data: RhoLagrangianData,
                         ) -> Tuple[NonSyzygeticEquation, NonSyzygeticEquation,
                                    QPPresentation]:
    """Recover a Gale dual pair from an admissible subspace.  The plus tuple
    comes from Qhat, the minus tuple from Phat, and Qhat^t Phat = 0 exactly."""
    pres = adapted_presentation(data)
    eq_plus, eq_minus = equations_from_hats(data.field, pres.qhat, pres.phat)
    return eq_plus, eq_minus, pres


def swap_ef_matrix(m: Matrix) -> Matrix:
    """The columns of ``m`` (frame coordinates) under the involution
    e_i <-> f_i: the product with its grade-3 action."""
    k = m.field
    swap = [[k.one() if j == (i + 3) % 6 else k.zero() for j in range(6)]
            for i in range(6)]
    return induced_grade3_matrix(k, swap, coords="frame") * m


def swap_ef(field: Field, coords: Sequence[Element]) -> List[Element]:
    """Frame coordinates of the image under the involution e_i <-> f_i."""
    return swap_ef_matrix(Matrix.from_columns(field, [coords])).column(0)
