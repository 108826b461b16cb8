"""The hat-basis frame on the grade-3 space and its invariant polynomials.

Polynomials on the 20-dimensional grade-3 space are written in the
``y0..y19`` coordinates dual to the block-lex wedge basis.  The frame
provides the twenty linear forms ``(M_E, L_E, M_F, L_F)`` in these
coordinates; out of them come the invariant quadric ``sigma``, the two big
cubic hypersurfaces, and the cone projections that recover a Gale dual pair
from an admissible subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Tuple

from .exterior import (ExteriorElement, frame_covector, induced_grade3_matrix,
                       lex3_coordinates, from_frame_coordinates)
from .fields import Element, Field
from .gale import NonSyzygeticEquation
from .lagrangian import (QPPresentation, RhoLagrangianData, adapted_presentation,
                         equations_from_hats)
from .linalg import Matrix
from .poly import DET3_TERMS, MultiPoly, cubic_from_terms, scalar_multiple

LEX3_VARIABLES: Tuple[str, ...] = tuple(f"y{i}" for i in range(20))
PROJECTED_VARIABLES: Tuple[str, ...] = tuple(f"X{i}" for i in range(10))


@dataclass
class CoordinateFrame:
    """The twenty frame functionals as linear forms in the y coordinates,
    ordered (M_E, L_E, M_F, L_F) with matrix entries lexicographic."""

    field: Field
    functionals: List[MultiPoly]

    def evaluation_matrix(self) -> Matrix:
        """20x20 matrix of the functionals on the block-lex wedge basis."""
        return Matrix(self.field,
                      [f.linear_coefficients() for f in self.functionals])

    def evaluate(self, k: int, element) -> Element:
        """Value of the k-th functional (0-based) on a grade-3 element."""
        return self.functionals[k].evaluate(lex3_coordinates(element))

    def m_e(self) -> List[List[MultiPoly]]:
        return [[self.functionals[3 * i + j] for j in range(3)] for i in range(3)]

    def m_f(self) -> List[List[MultiPoly]]:
        return [[self.functionals[10 + 3 * i + j] for j in range(3)] for i in range(3)]

    def det_m(self, start: int) -> MultiPoly:
        """det M_E (``start`` 0) or det M_F (``start`` 10): det(u0..u8) pulled back."""
        return cubic_from_terms(self.field, 9, DET3_TERMS).subs(
            self.functionals[start:start + 9])

    def l_e(self) -> MultiPoly:
        return self.functionals[9]

    def l_f(self) -> MultiPoly:
        return self.functionals[19]


def lex3_form(elem: ExteriorElement) -> MultiPoly:
    """A grade-3 element as the linear form in ``y0..y19`` with its lex3
    coordinates as coefficients."""
    return MultiPoly.linear_form(elem.field, LEX3_VARIABLES,
                                 lex3_coordinates(elem))


def build_frame(field: Field) -> CoordinateFrame:
    return CoordinateFrame(field, [lex3_form(frame_covector(field, k))
                                   for k in range(20)])


def sigma_quadric(field: Field, frame: Optional[CoordinateFrame] = None) -> MultiPoly:
    """sum_i u_i * uhat_i as a 20-variable quadric, built on ``frame``;
    without one, the quadric of :func:`generator_candidates`."""
    if frame is None:
        return generator_candidates(field)["sigma"]
    acc = MultiPoly.zero(field, LEX3_VARIABLES)
    for i in range(10):
        acc = acc + frame.functionals[i] * frame.functionals[10 + i]
    return acc


def trace_plus_product(field: Field, frame: CoordinateFrame) -> MultiPoly:
    """tr(M_E M_F^t) + L_E L_F, assembled by actual matrix multiplication."""
    me, mf = frame.m_e(), frame.m_f()
    acc = MultiPoly.zero(field, LEX3_VARIABLES)
    for i in range(3):
        for j in range(3):
            acc = acc + me[i][j] * mf[i][j]
    return acc + frame.l_e() * frame.l_f()


@lru_cache(maxsize=None)
def generator_candidates(field: Field) -> Mapping[str, MultiPoly]:
    """The six candidates whose scalars :func:`invariance_report` observes,
    built on one frame once per field, read-only and shared by every caller
    (so no polynomial in it may be modified in place)."""
    frame = build_frame(field)
    l_e, l_f = frame.l_e(), frame.l_f()
    return MappingProxyType({
        "L_E": l_e,
        "L_F": l_f,
        "trace": trace_plus_product(field, frame) - l_e * l_f,
        "det_M_E": frame.det_m(0),
        "det_M_F": frame.det_m(10),
        "sigma": sigma_quadric(field, frame),
    })


def big_cubics(field: Field) -> Tuple[MultiPoly, MultiPoly]:
    """The cubics 2 det M_E - sigma L_E and 2 det M_F + sigma L_F."""
    c = generator_candidates(field)
    two = field.from_int(2)
    return (c["det_M_E"].scale(two) - c["sigma"] * c["L_E"],
            c["det_M_F"].scale(two) + c["sigma"] * c["L_F"])


def block_diagonal6(field: Field, g: Sequence[Sequence[Element]],
                    h: Sequence[Sequence[Element]]) -> List[List[Element]]:
    z = [field.zero()] * 3
    return [list(row) + z for row in g] + [z + list(row) for row in h]


@dataclass
class InvarianceReport:
    scalars: dict
    invariant: dict

    def all_invariant(self) -> bool:
        return all(self.invariant.values())


def invariance_report(field: Field, g: Sequence[Sequence[Element]],
                      h: Sequence[Sequence[Element]]) -> InvarianceReport:
    """Observed scalar of each candidate generator under the induced action
    of (g, h); a scalar of one means the polynomial is fixed."""
    action = induced_grade3_matrix(field, block_diagonal6(field, g, h),
                                   coords="lex3")
    images = [MultiPoly.linear_form(field, LEX3_VARIABLES, row)
              for row in action.data]
    scalars = {name: scalar_multiple(poly.subs(images), poly)
               for name, poly in generator_candidates(field).items()}
    one = field.one()
    return InvarianceReport(scalars, {name: c == one for name, c in scalars.items()})


def generator_invariance(field: Field, g: Sequence[Sequence[Element]],
                         h: Sequence[Sequence[Element]]) -> InvarianceReport:
    """Invariance of the five degree-<=3 generators under a unimodular pair;
    non-unimodular input is rejected (use invariance_report to observe the
    determinant twist instead)."""
    for name, m in (("g", g), ("h", h)):
        if Matrix(field, [list(r) for r in m]).det() != field.one():
            raise ValueError(f"{name} is not unimodular")
    return invariance_report(field, g, h)


@dataclass
class ProjectionReport:
    cone_e_ok: bool
    cone_f_ok: bool
    restriction_e_matches: bool
    restriction_f_matches: bool

    def ok(self) -> bool:
        return (self.cone_e_ok and self.cone_f_ok
                and self.restriction_e_matches and self.restriction_f_matches)


def project_cubics(data: RhoLagrangianData,
                   presentation: Optional[QPPresentation] = None,
                   ) -> Tuple[NonSyzygeticEquation, NonSyzygeticEquation,
                              ProjectionReport]:
    """Restrict the big cubics to an admissible subspace in an adapted basis.

    Verifies that each restriction is a cone over the expected vertex (the
    E-side restriction must not involve the A_F coordinates X0..X3 and vice
    versa) and that it equals twice the cubic of the corresponding normal
    form tuple.  Returns the pair (plus tuple in X4..X9 with the last two
    coordinates swapped, minus tuple in X0..X3, X8, X9), which is Gale dual.
    """
    field = data.field
    pres = presentation or adapted_presentation(data)
    basis = pres.adapted_basis()
    cols_lex = [lex3_coordinates(from_frame_coordinates(field, basis.column(j)))
                for j in range(10)]
    restriction = Matrix.from_columns(field, cols_lex)     # 20 x 10
    xt_e, xt_f = big_cubics(field)
    restricted_e = xt_e.linear_substitution(restriction, PROJECTED_VARIABLES)
    restricted_f = xt_f.linear_substitution(restriction, PROJECTED_VARIABLES)
    cone_e_ok = all(restricted_e.degree_in(i) == 0 for i in range(4))
    cone_f_ok = all(restricted_f.degree_in(i) == 0 for i in range(4, 8))

    vars_e = ("X4", "X5", "X6", "X7", "X8", "X9")
    vars_f = ("X0", "X1", "X2", "X3", "X8", "X9")
    eq_plus, eq_minus = equations_from_hats(field, pres.qhat, pres.phat,
                                            variables=vars_e)
    eq_minus = NonSyzygeticEquation(field, vars_f, eq_minus.coeffs,
                                    eq_minus.sign)

    two = field.from_int(2)
    # eq_plus carries the involution swapping X8 and X9; undo it for the
    # comparison with the raw restriction.
    swap = list(range(10))
    swap[8], swap[9] = 9, 8
    expected_e = eq_plus.cubic_polynomial(
        coordinate_embedding(field, vars_e), PROJECTED_VARIABLES
    ).permute_variables(swap)
    expected_f = eq_minus.cubic_polynomial(
        coordinate_embedding(field, vars_f), PROJECTED_VARIABLES)
    report = ProjectionReport(
        cone_e_ok, cone_f_ok,
        restricted_e == expected_e.scale(two),
        restricted_f == expected_f.scale(two),
    )
    return eq_plus, eq_minus, report


def coordinate_embedding(field: Field, names: Sequence[str]) -> Matrix:
    """The 0/1 rows sending each of ``names`` to its coordinate among
    X0..X9 (a substitution matrix for :meth:`MultiPoly.linear_substitution`)."""
    return Matrix.identity(field, 10).submatrix(
        [PROJECTED_VARIABLES.index(v) for v in names], range(10))
