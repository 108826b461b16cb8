"""Determinant-plus-product cubic equations and the Gale duality transform.

A cubic fourfold of the class studied here has an equation
``det(M) + sign * L1*L2*L3 = 0`` with ``M`` a 3x3 matrix of linear forms in
six variables and ``L1, L2, L3`` further linear forms.  A tuple is stored as
its twelve coefficient rows (one 12x6 matrix, forms in the order M11, ...,
M33, L1, L2, L3) plus the sign.  The transpose of that matrix is the 6x12
coefficient map; the rows of its kernel are the coefficient rows of the
dual tuple, in dual variables and with the opposite sign.  The composition
of the two coefficient maps is exactly zero, and applying the transform
twice returns to the original row space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .fields import Element, Field
from .linalg import Matrix, det_cofactor, sparse_echelon
from .poly import DET3_TERMS, MultiPoly, cubic_from_terms, monomials_of_degree

DEFAULT_VARIABLES = ("X0", "X1", "X2", "X3", "X4", "X5")


def dual_variable_names(variables: Sequence[str]) -> Tuple[str, ...]:
    if all(v.endswith("'") for v in variables):
        return tuple(v[:-1] for v in variables)
    return tuple(v + "'" for v in variables)


def _negate_l(coeffs: Matrix, i: int = 1) -> Matrix:
    """The coefficient rows with row 8 + i (the form L_i) negated."""
    k = coeffs.field
    rows = list(coeffs.data)
    rows[8 + i] = [k.neg(x) for x in rows[8 + i]]
    return Matrix(k, rows)


@dataclass(frozen=True)
class NonSyzygeticEquation:
    """The tuple (M, L1, L2, L3, sign) encoding det M + sign*L1*L2*L3 = 0.

    ``coeffs`` is 12x6: row k holds the coefficients, in the six
    ``variables``, of form k in the order M11, ..., M33, L1, L2, L3.
    ``sign`` is +1 or -1.  ``m`` and ``l_forms`` are read-only views of the
    rows as linear forms.
    """

    field: Field
    variables: Tuple[str, ...]
    coeffs: Matrix
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.variables) != 6:
            raise ValueError("need six variables")
        if (self.coeffs.rows, self.coeffs.cols) != (12, 6):
            raise ValueError("need twelve coefficient rows of length six")

    @classmethod
    def from_coefficients(cls, field: Field, rows: Sequence[Sequence[Element]],
                          sign: int,
                          variables: Sequence[str] = DEFAULT_VARIABLES,
                          ) -> "NonSyzygeticEquation":
        """Build from the twelve coefficient vectors (each of length six)."""
        return cls(field, tuple(variables), Matrix(field, rows), sign)

    @cached_property
    def _forms(self) -> Tuple[MultiPoly, ...]:
        return tuple(MultiPoly.linear_form(self.field, self.variables, row)
                     for row in self.coeffs.data)

    @cached_property
    def dual(self) -> "NonSyzygeticEquation":
        """The Gale dual tuple (:func:`gale_dual`), computed once."""
        return gale_dual(self)

    @property
    def m(self) -> Tuple[Tuple[MultiPoly, ...], ...]:
        """The 3x3 matrix of linear forms."""
        f = self._forms
        return (f[0:3], f[3:6], f[6:9])

    @property
    def l_forms(self) -> Tuple[MultiPoly, ...]:
        return self._forms[9:]

    def coefficient_matrix(self) -> Matrix:
        """6x12 matrix whose j-th column is the coefficient vector of the
        j-th form, M entries ordered lexicographically."""
        return self.coeffs.transpose()

    def m_product(self, v: Sequence[Element], left: bool = False) -> Matrix:
        """Coefficient rows (3x6) of the three forms ``M v``, or of
        ``v^t M`` when ``left``: one product with the M block."""
        k = self.field
        z = k.zero()
        w = [[z] * 9 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                if left:
                    w[b][3 * a + b] = v[a]
                else:
                    w[a][3 * a + b] = v[b]
        return Matrix(k, w) * self.coeffs.submatrix(range(9), range(6))

    def is_valid(self) -> bool:
        """At least two of L1, L2, L3 linearly independent (diagnostic)."""
        return self.coeffs.submatrix(range(9, 12), range(6)).rank() >= 2

    def cubic_polynomial(self, a: Optional[Matrix] = None,
                         variables: Optional[Sequence[str]] = None) -> MultiPoly:
        """det M + sign*L1*L2*L3, the pull-back of det(u0..u8) + sign*u9*u10*u11
        along the coefficient rows.  With a 6 x m matrix ``a`` and m target
        ``variables``, the cubic restricted along x = a*y instead: one
        pull-back along ``coeffs * a``, equal to
        ``cubic_polynomial().linear_substitution(a, variables)``."""
        universal = cubic_from_terms(self.field, 12,
                                     DET3_TERMS + ((self.sign, 9, 10, 11),))
        if a is None:
            return universal.linear_substitution(self.coeffs, self.variables)
        return universal.linear_substitution(self.coeffs * a, variables)

    def cubic_value(self, point: Sequence[Element]) -> Element:
        """The cubic at a point, through the values of the twelve forms:
        det M(x) + sign*L1(x)*L2(x)*L3(x)."""
        k = self.field
        v = self.coeffs.apply_to_vector(point)
        prod = k.mul(k.mul(v[9], v[10]), v[11])
        det = det_cofactor(k, [v[0:3], v[3:6], v[6:9]])
        return k.add(det, prod) if self.sign == 1 else k.sub(det, prod)

    def plus_normalized(self, i: int = 1) -> "NonSyzygeticEquation":
        """Equivalent tuple with sign +1 (folds a minus sign into L_i)."""
        if self.sign == 1:
            return self
        return NonSyzygeticEquation(self.field, self.variables,
                                    _negate_l(self.coeffs, i), 1)

    def permute_l_forms(self, perm: Sequence[int]) -> "NonSyzygeticEquation":
        rows = self.coeffs.data
        return NonSyzygeticEquation(
            self.field, self.variables,
            Matrix(self.field, rows[:9] + [rows[9 + perm[i]] for i in range(3)]),
            self.sign)

    def change_coordinates(self, g: Matrix,
                           variables: Optional[Sequence[str]] = None,
                           ) -> "NonSyzygeticEquation":
        """Substitute x -> g*x (columns of g are the new basis vectors),
        i.e. each form's coefficient row is multiplied by g on the right:
        one 12x6 * 6x6 product."""
        names = tuple(variables) if variables is not None else self.variables
        return NonSyzygeticEquation(self.field, names, self.coeffs * g,
                                    self.sign)

    @classmethod
    def random(cls, field: Field, rng, variables: Sequence[str] = DEFAULT_VARIABLES,
               require_rank6: bool = True) -> "NonSyzygeticEquation":
        """Random tuple; resamples until the coefficient map has rank 6."""
        while True:
            rows = [[field.random(rng) for _ in range(6)] for _ in range(12)]
            eq = cls.from_coefficients(field, rows, rng.choice((1, -1)),
                                       variables)
            if not require_rank6 or eq.coefficient_matrix().rank() == 6:
                return eq


class DegenerateTupleError(ValueError):
    pass


def gale_dual(eq: NonSyzygeticEquation) -> NonSyzygeticEquation:
    """The Gale dual tuple: the kernel rows of the coefficient map are its
    coefficient rows, in dual variables, with the opposite sign.

    Applied to a minus tuple, the first dual L form is negated internally so
    that the transform stays an involution on plus-normalised presentations.
    """
    kernel = eq.plus_normalized().coefficient_matrix().kernel_basis()
    if kernel.cols != 6:                 # 12x6 and canonical when rank 6
        raise DegenerateTupleError("degenerate tuple: kernel dimension exceeds 6")
    if eq.sign == -1:
        kernel = _negate_l(kernel)
    return NonSyzygeticEquation(eq.field, dual_variable_names(eq.variables),
                                kernel, -eq.sign)


def composition_is_zero(eq: NonSyzygeticEquation,
                        dual: NonSyzygeticEquation) -> bool:
    """Exact check that the coefficient maps annihilate each other:
    C * K = 0 with C the 6x12 coefficient matrix of ``eq`` and K the
    12x6 coefficient rows of ``dual``.  The internal L1 sign flip for minus
    tuples makes this hold for raw matrices on both sides."""
    return (eq.coefficient_matrix() * dual.coeffs).is_zero()


# -- multiplier systems -------------------------------------------------------

def multiplier_columns(nvars: int, factors: Sequence[Tuple[MultiPoly, int]],
                       ) -> Tuple[List[Dict[tuple, Element]], List[Tuple[int, tuple]]]:
    """Sparse columns, keyed by exponent vector, of the map taking
    homogeneous ``h_k`` of the prescribed degrees to ``sum_k factor_k *
    h_k``: one column ``factor_k * mono`` per unknown coefficient, ordered
    factor-major, monomial-minor, with the layout ``(k, mono)`` of each.
    Shifting by one monomial is injective, so no two terms meet."""
    columns: List[Dict[tuple, Element]] = []
    layout: List[Tuple[int, tuple]] = []
    for k_idx, (f, deg) in enumerate(factors):
        for mono in monomials_of_degree(nvars, deg):
            columns.append({tuple(a + b for a, b in zip(fm, mono)): fc
                            for fm, fc in f.terms.items()})
            layout.append((k_idx, mono))
    return columns, layout


def solve_multiplier_system(field: Field, variables: Sequence[str],
                            target: MultiPoly,
                            factors: Sequence[Tuple[MultiPoly, int]],
                            ) -> Optional[List[MultiPoly]]:
    """Solve ``target = sum_k factor_k * h_k`` for unknown homogeneous
    polynomials ``h_k`` of the prescribed degrees, by exact elimination.

    Columns are ordered factor-major, monomial-minor, so solutions are
    reproducible.  Returns the multipliers, or None when unsolvable.
    """
    columns, layout = multiplier_columns(len(variables), factors)
    sol = solve_sparse_combination(field, columns, dict(target.terms))
    if sol is None:
        return None
    multipliers = [MultiPoly.zero(field, variables) for _ in factors]
    for (k_idx, mono), c in zip(layout, sol):
        if not field.is_zero(c):
            multipliers[k_idx] = multipliers[k_idx] + MultiPoly(
                field, variables, {mono: c})
    # independent verification by re-expansion
    acc = MultiPoly.zero(field, variables)
    for (f, _), h in zip(factors, multipliers):
        acc = acc + f * h
    if acc != target:
        return None
    return multipliers


def solve_sparse_combination(field: Field, columns: Sequence[Dict[tuple, Element]],
                             target: Dict[tuple, Element],
                             ) -> Optional[List[Element]]:
    """Exact solution of sum_j z_j * col_j = target over sparse columns keyed
    by arbitrary hashable row labels, with the free unknowns set to zero;
    None when the system is inconsistent.

    Each row label is one equation, a sparse row keyed by unknown index
    with the target at key ``n``; ``sparse_echelon`` pivots exactly the
    unknowns whose column is independent of the earlier ones, and a pivot
    at ``n`` is the equation 0 = c.  Back-substitution then gives the one
    solution supported on the pivot columns, which no elimination order
    changes."""
    n = len(columns)
    equations: Dict[Hashable, Dict[int, Element]] = {}
    for j, col in enumerate(columns):
        for label, c in col.items():
            equations.setdefault(label, {})[j] = c
    for label, c in target.items():
        equations.setdefault(label, {})[n] = c
    pivots = sparse_echelon(field, equations.values())
    if n in pivots:
        return None
    sol = [field.zero()] * n
    for p in sorted(pivots, reverse=True):
        val = field.zero()
        for j, c in pivots[p].items():
            if j == n:
                val = field.add(val, c)
            elif j != p:
                val = field.sub(val, field.mul(c, sol[j]))
        sol[p] = val
    return sol


@dataclass
class ScrollCertificate:
    minors: List[MultiPoly]
    linear_multipliers: List[MultiPoly]
    quadric_multiplier: MultiPoly


def scroll_membership(eq: NonSyzygeticEquation, i: int,
                      rowpair: Sequence[Sequence[Element]],
                      ) -> Optional[ScrollCertificate]:
    """Decide whether the cubic lies in the ideal of the scroll cut out by
    the 2x2 minors of two generalised rows of M together with L_i.

    ``rowpair`` is a 2x3 coefficient matrix; the generalised rows are the
    corresponding combinations of the rows of M.  Returns the multipliers
    (cubic = sum minor_k * ell_k + L_i * q) on success, None on failure.
    """
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    if len(rowpair) != 2 or any(len(r) != 3 for r in rowpair):
        raise ValueError("rowpair must be 2x3")
    if Matrix(eq.field, [list(r) for r in rowpair]).rank() != 2:
        raise ValueError("generalised rows are linearly dependent")
    field = eq.field
    rows = [[MultiPoly.linear_form(field, eq.variables, c)
             for c in eq.m_product(v, left=True).data] for v in rowpair]
    minors = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        minors.append(rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a])
    l_i = eq.l_forms[i - 1]
    factors = [(mq, 1) for mq in minors] + [(l_i, 2)]
    sol = solve_multiplier_system(field, eq.variables, eq.cubic_polynomial(), factors)
    if sol is None:
        return None
    return ScrollCertificate(minors, sol[:3], sol[3])


def scroll_point(eq: NonSyzygeticEquation, i: int,
                 rowpair: Sequence[Sequence[Element]], rng) -> Optional[List[Element]]:
    """A point on the scroll: solve s*g1 + t*g2 = 0 together with L_i = 0 for
    a random pencil member (s:t); the solution line consists of scroll points."""
    field = eq.field
    while True:
        s, t = field.random(rng), field.random(rng)
        if field.is_zero(s) and field.is_zero(t):
            continue
        v = [field.add(field.mul(s, a), field.mul(t, b))
             for a, b in zip(rowpair[0], rowpair[1])]
        mat = eq.m_product(v, left=True).vstack(
            eq.coeffs.submatrix([8 + i], range(6)))
        ker = mat.kernel_basis()
        if ker.cols == 0:
            return None
        return ker.column(0)
