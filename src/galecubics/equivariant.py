"""Group actions on the construction and the alternating-group family.

Generators act on the six-space block-diagonally (preserving the E/F
splitting); their grade-3 action is always recomputed columnwise from the
6x6 matrices, never keyed in.  Action matrices on the ten projected
coordinates follow the column convention: a matrix D sends the column
vector of variables to D times itself, so polynomials transform by
substituting the transpose.

The family of cubic pairs with a faithful alternating-group action is
built from its five parameters exactly as displayed in the source
construction; the hard-coded ten-by-ten generator matrices are checked on
the fly against the action induced from the 6x6 generators (a transcription
check, not an input) and the recorded invariance scalars are asserted to be
one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .epw import (EPWPoint, ProjectiveSubspace, harvest_epw_points,
                  line_to_epw, epw_to_lines, residual_conic,
                  LineCorrespondenceError)
from .exterior import induced_grade3_matrix
from .fields import Element, Field, PrimeField
from .gale import NonSyzygeticEquation, composition_is_zero
from .lagrangian import (QPPresentation, RhoLagrangianData, _hats_from_blocks,
                         validate)
from .linalg import Matrix, same_column_span
from .poly import scalar_multiple
from .invariants import PROJECTED_VARIABLES, coordinate_embedding


def is_block_diagonal(field: Field, g6: Matrix) -> bool:
    for i in range(3):
        for j in range(3):
            if not field.is_zero(g6.data[i][3 + j]):
                return False
            if not field.is_zero(g6.data[3 + i][j]):
                return False
    return True


def induced_lambda3(field: Field, g6: Matrix) -> Matrix:
    """Frame-coordinate matrix of the grade-3 action of a block-diagonal
    6x6 matrix, computed as wedges of the images of the basis vectors."""
    if g6.rows != 6 or g6.cols != 6:
        raise ValueError("need a 6x6 matrix")
    if not is_block_diagonal(field, g6):
        raise ValueError("matrix does not preserve the E/F splitting")
    return induced_grade3_matrix(field, g6.data, coords="frame")


@dataclass
class GroupActionData:
    """Block-diagonal 6x6 generators with their derived grade-3 matrices and,
    optionally, 10x10 matrices acting on the projected coordinates."""

    field: Field
    generators6: List[Matrix]
    induced20: List[Matrix]
    variable_action10: Optional[List[Matrix]] = None

    @classmethod
    def from_generators(cls, field: Field, generators6: Sequence[Matrix],
                        variable_action10: Optional[Sequence[Matrix]] = None,
                        ) -> "GroupActionData":
        induced = [induced_lambda3(field, g) for g in generators6]
        return cls(field, list(generators6), induced,
                   list(variable_action10) if variable_action10 else None)

    def covector_matrices(self) -> List[Matrix]:
        """Action on covector coordinates: inverse transpose blockwise."""
        return [g.inverse().transpose() for g in self.generators6]


def is_g_lagrangian(data: RhoLagrangianData, act: GroupActionData) -> bool:
    """Each induced generator maps the subspace into itself."""
    for t in act.induced20:
        if not same_column_span(t * data.matrix, data.matrix):
            return False
    return True


def solve_action_on_columns(basis: Matrix, induced: Matrix) -> Matrix:
    """The matrix R with induced * basis = basis * R (basis of full column
    rank); the grade-3 action written in the adapted column basis."""
    field = basis.field
    moved = induced * basis
    cols = []
    for j in range(moved.cols):
        sol = basis.solve(moved.column(j))
        if sol is None:
            raise ValueError("column image leaves the subspace")
        cols.append(sol)
    return Matrix.from_columns(field, cols)


def observed_cubic_scalar(eq: NonSyzygeticEquation, d10: Matrix,
                          ) -> Optional[Element]:
    """Scalar c with F(D X) = c F(X) for the cubic of a six-variable tuple
    embedded in the ten projected coordinates; None when not proportional.
    F(D X) substitutes each variable by the corresponding row of D^t."""
    embedded = eq.cubic_polynomial().linear_substitution(
        coordinate_embedding(eq.field, eq.variables), PROJECTED_VARIABLES)
    moved = embedded.linear_substitution(d10.transpose(), PROJECTED_VARIABLES)
    return scalar_multiple(moved, embedded)


# -- the alternating-group family ---------------------------------------------

V_GENERATORS = (
    ((1, 0, 0), (0, -1, 0), (0, 0, -1)),
    ((-1, 0, 0), (0, 1, 0), (0, 0, -1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
)


@dataclass
class A4FamilyParams:
    """Five free parameters of the family plus the chosen primitive cube
    root of unity; lam sits in a denominator and must be nonzero."""

    field: Field
    alpha: Element
    beta: Element
    gamma: Element
    delta: Element
    lam: Element
    xi: Element

    def __post_init__(self):
        if self.field.is_zero(self.lam):
            raise ValueError("lam must be nonzero (it appears in 1/(3 lam))")
        k = self.field
        xi2 = k.mul(self.xi, self.xi)
        if not k.is_zero(k.add(k.add(xi2, self.xi), k.one())):
            raise ValueError("xi is not a primitive cube root of unity")

    @classmethod
    def standard(cls, field: Field, values: Sequence[int] = (1, 2, 1, 1, 1),
                 ) -> "A4FamilyParams":
        xi = field.cube_root_of_unity()
        a, b, c, d, l = (field.from_int(v) for v in values)
        return cls(field, a, b, c, d, l, xi)


@dataclass
class A4Family:
    params: A4FamilyParams
    eq_e: NonSyzygeticEquation
    eq_f: NonSyzygeticEquation
    lagrangian: RhoLagrangianData
    presentation: QPPresentation
    action: GroupActionData
    invariance_scalars: Dict[str, List[Element]]


VARS_E = ("X4", "X5", "X6", "X7", "X8", "X9")
VARS_F = ("X0", "X1", "X2", "X3", "X8", "X9")


def _lin(field: Field, variables, **coeffs) -> List[Element]:
    """Coefficient row of the linear form sum c * name."""
    vec = [field.zero()] * len(variables)
    for name, c in coeffs.items():
        vec[variables.index(name)] = c
    return vec


def a4_family_equations(params: A4FamilyParams,
                        ) -> Tuple[NonSyzygeticEquation, NonSyzygeticEquation]:
    """The two displayed equation tuples of the family."""
    k = params.field
    a, b, g, d, l, xi = (params.alpha, params.beta, params.gamma,
                         params.delta, params.lam, params.xi)
    xi2 = k.mul(xi, xi)
    lxi, lxi2 = k.mul(l, xi), k.mul(l, xi2)
    m_e = [
        [_lin(k, VARS_E, X7=d, X8=l, X9=l), _lin(k, VARS_E, X4=b), _lin(k, VARS_E, X6=a)],
        [_lin(k, VARS_E, X4=a), _lin(k, VARS_E, X7=d, X8=lxi, X9=lxi2), _lin(k, VARS_E, X5=b)],
        [_lin(k, VARS_E, X6=b), _lin(k, VARS_E, X5=a), _lin(k, VARS_E, X7=d, X8=lxi2, X9=lxi)],
    ]
    # the last two L forms are listed crossed: the plus member of a dual pair
    # carries the involution swapping the two distinguished coordinates, and
    # this ordering makes the slotwise composition with the minus tuple zero
    l_e = [_lin(k, VARS_E, X7=g), _lin(k, VARS_E, X9=k.one()), _lin(k, VARS_E, X8=k.one())]
    eq_e = NonSyzygeticEquation.from_coefficients(k, sum(m_e, []) + l_e, 1,
                                                  VARS_E)

    c = k.neg(k.inv(k.mul(k.from_int(3), l)))   # -(1/(3 lam))
    cxi, cxi2 = k.mul(c, xi), k.mul(c, xi2)
    ng, na = k.neg(g), k.neg(a)
    m_f = [
        [_lin(k, VARS_F, X3=ng, X8=c, X9=c), _lin(k, VARS_F, X0=na), _lin(k, VARS_F, X2=b)],
        [_lin(k, VARS_F, X0=b), _lin(k, VARS_F, X3=ng, X8=cxi, X9=cxi2), _lin(k, VARS_F, X1=na)],
        [_lin(k, VARS_F, X2=na), _lin(k, VARS_F, X1=b), _lin(k, VARS_F, X3=ng, X8=cxi2, X9=cxi)],
    ]
    l_f = [_lin(k, VARS_F, X3=k.mul(k.from_int(3), d)),
           _lin(k, VARS_F, X8=k.one()), _lin(k, VARS_F, X9=k.one())]
    eq_f = NonSyzygeticEquation.from_coefficients(k, sum(m_f, []) + l_f, -1,
                                                  VARS_F)
    return eq_e, eq_f


def a4_action_matrices(params: A4FamilyParams) -> List[Matrix]:
    """The three 10x10 matrices acting on the projected coordinate column."""
    k = params.field
    z, o = k.zero(), k.one()
    neg = k.neg(o)
    xi, xi2 = params.xi, k.mul(params.xi, params.xi)

    def diag(vals):
        return Matrix(k, [[vals[i] if i == j else z for j in range(10)]
                          for i in range(10)])

    d1 = diag([neg, o, neg, o, neg, o, neg, o, o, o])
    d2 = diag([neg, neg, o, o, neg, neg, o, o, o, o])
    rows = [[z] * 10 for _ in range(10)]
    for (r, c) in ((0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)):
        rows[r][c] = o
    rows[3][3] = o
    rows[7][7] = o
    rows[8][8] = xi2
    rows[9][9] = xi
    return [d1, d2, Matrix(k, rows)]


def a4_lagrangian_matrix(eq_e: NonSyzygeticEquation,
                         eq_f: NonSyzygeticEquation) -> Matrix:
    """20x10 frame-coordinate matrix of the family's subspace, with columns
    indexed by the ten projected coordinates: the two tuples' form rows fill
    the two frame blocks."""
    k = eq_e.field

    def embed_rows(eq):
        first10 = eq.coeffs.submatrix(range(10), range(6))
        return first10 * coordinate_embedding(k, eq.variables)

    return embed_rows(eq_e).vstack(embed_rows(eq_f))


def a4_family(params: A4FamilyParams) -> A4Family:
    """Equation pair, subspace, group data and recorded invariance scalars.

    Raises when any of the internal consistency checks fails: admissibility
    of the subspace, stability under the induced action, agreement of the
    hard-coded matrices with the induced ones, or a non-unit invariance
    scalar."""
    k = params.field
    eq_e, eq_f = a4_family_equations(params)
    if not composition_is_zero(eq_e, eq_f):
        raise AssertionError("family tuples are not Gale dual")
    raw = a4_lagrangian_matrix(eq_e, eq_f)
    data = validate(k, raw)
    q = Matrix(k, raw.data[:10])
    p = Matrix(k, raw.data[10:])
    qhat, phat = _hats_from_blocks(k, q, p)
    presentation = QPPresentation(k, q, p, qhat, phat)

    gens6 = []
    for g in V_GENERATORS:
        z = k.zero()
        rows = [[z] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                rows[i][j] = k.from_int(g[i][j])
                rows[3 + i][3 + j] = k.from_int(g[i][j])
        gens6.append(Matrix(k, rows))
    displayed = a4_action_matrices(params)
    action = GroupActionData.from_generators(k, gens6, displayed)

    # transcription check: the grade-3 action written in the family's column
    # basis must be the inverse transpose of the displayed variable matrices
    for induced, d10 in zip(action.induced20, displayed):
        rho = solve_action_on_columns(raw, induced)
        if rho != d10.inverse().transpose():
            raise AssertionError("displayed action matrix disagrees with the "
                                 "induced one")

    scalars: Dict[str, List[Element]] = {"E": [], "F": []}
    for d10 in displayed:
        for tag, eq in (("E", eq_e), ("F", eq_f)):
            c = observed_cubic_scalar(eq, d10)
            if c is None:
                raise AssertionError("family cubic is not even projectively "
                                     "invariant")
            scalars[tag].append(c)
    for tag in scalars:
        if any(c != k.one() for c in scalars[tag]):
            raise AssertionError("invariance scalar differs from one")
    return A4Family(params, eq_e, eq_f, data, presentation, action, scalars)


def a4_relations_hold(action: GroupActionData) -> bool:
    """a^2 = b^2 = (ab)^2 = c^3 = 1, c a c^-1 = b, c b c^-1 = a b (with the
    3-cycle taken in whichever of its two orientations realises the
    conjugation relations), plus closure: the generators span a group of
    order twelve.  Checked on the 6x6 generators and on the displayed
    variable matrices."""

    def check(a, b, c):
        field = a.field
        ident = Matrix.identity(field, a.rows)
        if not ((a * a) == ident and (b * b) == ident
                and (a * b * a * b) == ident and (c * c * c) == ident):
            return False
        for cyc in (c, c.inverse()):
            ci = cyc.inverse()
            if (cyc * a * ci) == b and (cyc * b * ci) == (a * b):
                break
        else:
            return False
        return _generated_order((a, b, c), ident) == 12

    a6, b6, c6 = action.generators6
    ok = check(a6, b6, c6)
    if action.variable_action10 is not None:
        a10, b10, c10 = action.variable_action10
        ok = ok and check(a10, b10, c10)
    return ok


def _generated_order(gens: Sequence[Matrix], ident: Matrix) -> int:
    seen = {ident}
    frontier = [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            nxt = m * g
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
        if len(seen) > 60:
            break
    return len(seen)


# -- pointwise equivariance of the line correspondence ------------------------

@dataclass
class EquivarianceReport:
    points_tested: int
    membership_commutes: int
    lines_commute: int
    roundtrip_commutes: int
    failures: List[str]

    def all_commute(self) -> bool:
        return (not self.failures and self.points_tested > 0
                and self.membership_commutes == self.points_tested
                and self.roundtrip_commutes > 0)


def variable_subblock(d10: Matrix, variables: Sequence[str]) -> Matrix:
    """Restriction of a 10x10 variable matrix to six of the coordinates
    (valid because the action preserves the relevant blocks)."""
    field = d10.field
    idx = [PROJECTED_VARIABLES.index(v) for v in variables]
    outside = [i for i in range(10) if i not in idx]
    for r in idx:
        for c in outside:
            if not field.is_zero(d10.data[r][c]) or not field.is_zero(d10.data[c][r]):
                raise ValueError("action does not preserve the coordinate block")
    return d10.submatrix(idx, idx)


def equivariance_probe(eq: NonSyzygeticEquation, i: int,
                       data: RhoLagrangianData,
                       point_maps: Sequence[Matrix],
                       covector_maps: Sequence[Matrix],
                       rng: random.Random,
                       samples: int = 10) -> EquivarianceReport:
    """For harvested membership points and each generator: the conic stays
    singular at the transformed point, the two conic lines map to the two
    conic lines, and recovering the point from a transformed line matches
    transforming the recovered point."""
    field = eq.field
    if not isinstance(field, PrimeField):
        raise ValueError("probing scans a prime field")
    points = harvest_epw_points(eq, i, data, rng, samples)
    if not points:
        return EquivarianceReport(0, 0, 0, 0, ["no usable membership points found"])
    membership = lines_ok = roundtrip = 0
    failures: List[str] = []
    tested = 0
    for hp in points:
        p = hp.point
        tested += 1
        point_fail = False
        for gi, (pmap, cmap) in enumerate(zip(point_maps, covector_maps)):
            gp = EPWPoint.make(field, cmap.apply_to_vector(list(p.coords)))
            try:
                conic_moved = residual_conic(eq, i, gp)
            except ValueError as exc:
                failures.append(f"generator {gi}: conic at moved point: {exc}")
                point_fail = True
                continue
            if not field.is_zero(conic_moved.det()):
                failures.append(f"generator {gi}: moved point left the "
                                f"degeneracy locus")
                point_fail = True
                continue
            split_here = epw_to_lines(eq, i, p)
            if split_here.lines is None:
                continue
            split_there = epw_to_lines(eq, i, gp)
            if split_there.lines is None:
                failures.append(f"generator {gi}: splitting not stable")
                point_fail = True
                continue
            moved = [ln.apply_point_map(pmap) for ln in split_here.lines]
            targets = list(split_there.lines)
            if not _same_line_sets(moved, targets):
                failures.append(f"generator {gi}: conic lines do not commute")
                point_fail = True
                continue
            lines_ok += 1
            try:
                back = line_to_epw(eq, i, moved[0])
            except LineCorrespondenceError as exc:
                failures.append(f"generator {gi}: recovery failed: {exc}")
                point_fail = True
                continue
            if back.same_point(gp):
                roundtrip += 1
            else:
                failures.append(f"generator {gi}: recovered point mismatch")
                point_fail = True
        if not point_fail:
            membership += 1
    return EquivarianceReport(tested, membership, lines_ok, roundtrip, failures)


def _same_line_sets(a: List[ProjectiveSubspace], b: List[ProjectiveSubspace]) -> bool:
    if len(a) != len(b):
        return False
    return ((a[0].same_subspace(b[0]) and a[1].same_subspace(b[1]))
            or (a[0].same_subspace(b[1]) and a[1].same_subspace(b[0])))


def a4_point_and_covector_maps(family: A4Family, side: str = "E",
                               ) -> Tuple[List[Matrix], List[Matrix]]:
    """Point maps on the chosen cubic's coordinates and covector maps on the
    (e, f) parameters, per generator."""
    variables = VARS_E if side == "E" else VARS_F
    points = []
    for d10 in family.action.variable_action10:
        # points transform contravariantly to the variable column action
        points.append(variable_subblock(d10.inverse().transpose(), variables))
    covectors = family.action.covector_matrices()
    return points, covectors
