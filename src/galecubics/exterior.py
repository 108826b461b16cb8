"""Exterior algebra of a fixed six-dimensional space.

The ordered basis is ``e1, e2, e3, f1, f2, f3`` (indices 0..5); ``E`` is the
span of the first three, ``F`` of the last three.  Grade-p elements carry
coefficients on strictly increasing index tuples.  The same representation
serves vectors and covectors: the pairing of dual wedge bases is
coefficientwise on index tuples, with identical permutation signs on both
sides.

Two coordinate systems on the 20-dimensional grade-3 piece are used
throughout the package:

* ``lex3`` coordinates: index triples sorted so that the 10 triples with at
  least two E-indices (the summand ``U_E``) come first, the 10 with at most
  one E-index (``U_F``) last, lexicographically within each block.
* ``frame`` coordinates: the hat-basis functionals, in the order
  ``(M_E, L_E, M_F, L_F)``.  Each functional is supported on a single index
  triple up to sign, so the conversion is a signed permutation.  In frame
  coordinates the wedge pairing of grade-3 elements is the standard
  symplectic form, which is what the Lagrangian normal forms require.

The grade-6 orientation is ``L_E ^ L_F`` with ``L_E = e1^e2^e3`` and
``L_F = -f1^f2^f3``; note the sign, so the orientation equals *minus* the
plain wedge of the six basis vectors.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Element, Field, PrimeField, RationalField
from .linalg import Matrix, _integer_row

DIM = 6
BASIS_NAMES = ("e1", "e2", "e3", "f1", "f2", "f3")

IndexTuple = Tuple[int, ...]


def sort_indices(indices: Sequence[int]) -> Optional[Tuple[IndexTuple, int]]:
    """Sort with the permutation sign; None when an index repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return tuple(idx), sign


def _grade3_triples() -> List[IndexTuple]:
    all_triples = list(combinations(range(DIM), 3))
    u_e = [t for t in all_triples if sum(1 for i in t if i < 3) >= 2]
    u_f = [t for t in all_triples if sum(1 for i in t if i < 3) <= 1]
    return u_e + u_f


GRADE3_TRIPLES: List[IndexTuple] = _grade3_triples()
GRADE2_PAIRS: List[IndexTuple] = list(combinations(range(DIM), 2))
GRADE4_QUADS: List[IndexTuple] = list(combinations(range(DIM), 4))
TOP_TUPLE: IndexTuple = tuple(range(DIM))


class ExteriorElement:
    """Homogeneous element of Lambda^p of the fixed 6-space."""

    __slots__ = ("field", "grade", "terms")

    def __init__(self, field: Field, grade: int,
                 terms: Optional[Dict[IndexTuple, Element]] = None):
        if not 0 <= grade <= DIM:
            raise ValueError("grade out of range")
        self.field = field
        self.grade = grade
        clean: Dict[IndexTuple, Element] = {}
        if terms:
            for t, c in terms.items():
                if len(t) != grade or list(t) != sorted(set(t)):
                    raise ValueError(f"bad index tuple {t} for grade {grade}")
                if not field.is_zero(c):
                    clean[tuple(t)] = c
        self.terms = clean

    @classmethod
    def basis(cls, field: Field, indices: Sequence[int],
              coeff: Optional[Element] = None) -> "ExteriorElement":
        sorted_ = sort_indices(indices)
        if sorted_ is None:
            return cls(field, len(indices))
        t, sign = sorted_
        c = coeff if coeff is not None else field.one()
        if sign < 0:
            c = field.neg(c)
        return cls(field, len(indices), {t: c})

    @classmethod
    def vector(cls, field: Field, coords: Sequence[Element]) -> "ExteriorElement":
        """Grade-1 element from six coordinates."""
        return cls(field, 1, {(i,): c for i, c in enumerate(coords)
                              if not field.is_zero(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Element:
        return self.terms.get(tuple(indices), self.field.zero())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExteriorElement)
            and self.field == other.field
            and self.grade == other.grade
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.grade, frozenset(self.terms.items())))

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        if other.grade != self.grade:
            raise ValueError("grades differ")
        k = self.field
        terms = dict(self.terms)
        for t, c in other.terms.items():
            acc = k.add(terms.get(t, k.zero()), c)
            if k.is_zero(acc):
                terms.pop(t, None)
            else:
                terms[t] = acc
        return ExteriorElement(k, self.grade, terms)

    def __neg__(self) -> "ExteriorElement":
        k = self.field
        return ExteriorElement(k, self.grade, {t: k.neg(c) for t, c in self.terms.items()})

    def __sub__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self + (-other)

    def scale(self, c: Element) -> "ExteriorElement":
        k = self.field
        if k.is_zero(c):
            return ExteriorElement(k, self.grade)
        return ExteriorElement(k, self.grade, {t: k.mul(c, v) for t, v in self.terms.items()})

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        if self.grade + other.grade > DIM:
            raise ValueError("grade overflow")
        k = self.field
        terms: Dict[IndexTuple, Element] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                sorted_ = sort_indices(t1 + t2)
                if sorted_ is None:
                    continue
                t, sign = sorted_
                c = k.mul(c1, c2)
                if sign < 0:
                    c = k.neg(c)
                acc = k.add(terms.get(t, k.zero()), c)
                if k.is_zero(acc):
                    terms.pop(t, None)
                else:
                    terms[t] = acc
        return ExteriorElement(k, self.grade + other.grade, terms)

    def contract(self, covector: Sequence[Element]) -> "ExteriorElement":
        """Interior product with a covector given by its six coefficients."""
        if self.grade == 0:
            raise ValueError("cannot contract a grade-0 element")
        k = self.field
        terms: Dict[IndexTuple, Element] = {}
        for t, c in self.terms.items():
            for pos, idx in enumerate(t):
                lam = covector[idx]
                if k.is_zero(lam):
                    continue
                val = k.mul(lam, c)
                if pos % 2 == 1:
                    val = k.neg(val)
                rest = t[:pos] + t[pos + 1:]
                acc = k.add(terms.get(rest, k.zero()), val)
                if k.is_zero(acc):
                    terms.pop(rest, None)
                else:
                    terms[rest] = acc
        return ExteriorElement(k, self.grade - 1, terms)

    def coordinates(self, basis_tuples: Sequence[IndexTuple]) -> List[Element]:
        return [self.terms.get(t, self.field.zero()) for t in basis_tuples]

    def __repr__(self) -> str:
        if not self.terms:
            return f"0[grade {self.grade}]"
        bits = []
        for t in sorted(self.terms):
            names = "^".join(BASIS_NAMES[i] for i in t) or "1"
            bits.append(f"({self.terms[t]})*{names}")
        return " + ".join(bits)


def orientation_pair(x: ExteriorElement, y: ExteriorElement) -> Element:
    """Wedge pairing of two grade-3 elements against the orientation
    ``L_E ^ L_F``: the scalar c with x^y = c * (L_E ^ L_F).

    Since ``L_E ^ L_F = -(e1^...^f3)``, this is minus the coefficient of the
    full wedge.  With this normalisation the hat-basis tuples below are
    exactly dual to each other.
    """
    if x.grade != 3 or y.grade != 3:
        raise ValueError("orientation_pair needs two grade-3 elements")
    k = x.field
    return k.neg(x.wedge(y).coefficient(TOP_TUPLE))


# -- the hat-basis frame -----------------------------------------------------

def _hat_support() -> List[Tuple[IndexTuple, int]]:
    # ehat_i in Lambda^2 E: ehat_1 = e2^e3, ehat_2 = -e1^e3, ehat_3 = e1^e2
    ehat = [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]
    fhat = [((4, 5), 1), ((3, 5), -1), ((3, 4), 1)]
    support: List[Tuple[IndexTuple, int]] = []
    # u_1..u_9: M_E entries (ehat_i ^ f_j), row-major
    for i in range(3):
        pair, sgn = ehat[i]
        for j in range(3):
            sorted_ = sort_indices(pair + (3 + j,))
            assert sorted_ is not None
            t, s = sorted_
            support.append((t, sgn * s))
    # u_10: L_E = e1^e2^e3
    support.append(((0, 1, 2), 1))
    # uhat_1..uhat_9: M_F entries (e_i ^ fhat_j), row-major
    for i in range(3):
        for j in range(3):
            pair, sgn = fhat[j]
            sorted_ = sort_indices((i,) + pair)
            assert sorted_ is not None
            t, s = sorted_
            support.append((t, sgn * s))
    # uhat_10: L_F = -f1^f2^f3
    support.append(((3, 4, 5), -1))
    return support


#: For each of the 20 frame functionals, its supporting index triple and sign.
FRAME_SUPPORT: List[Tuple[IndexTuple, int]] = _hat_support()


def _contraction_rows() -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    # frame coordinate a sits on the triple t with sign s, and contracting
    # by the covector index t[pos] leaves t without it, with sign (-1)^pos s
    rows: List[List[Tuple[int, int, int]]] = [[] for _ in GRADE2_PAIRS]
    row_of = {pair: r for r, pair in enumerate(GRADE2_PAIRS)}
    for a, (t, s) in enumerate(FRAME_SUPPORT):
        for pos, idx in enumerate(t):
            rows[row_of[t[:pos] + t[pos + 1:]]].append((a, idx, -s if pos % 2 else s))
    return tuple(map(tuple, rows))


#: Contraction of grade 3 by a covector as a fixed sign pattern: for each
#: grade-2 pair (row), the four ``(frame coordinate, covector index, sign)``
#: whose contraction lands on it, 60 in all.
CONTRACTION_ROWS = _contraction_rows()


def _laplace_hits(smaller: Sequence[IndexTuple],
                  coord_of: Dict[IndexTuple, Tuple[int, int]]):
    """Where g[r][c] times the minor on (rows, P) lands in a Laplace
    expansion along a first row r: per column c and column set P in
    ``smaller``, the coordinate of J = P + c in ``coord_of`` and its sign
    there times (-1)^(position of c in J); None when c is in P."""
    def hit(c: int, p: IndexTuple) -> Tuple[int, int]:
        t = tuple(sorted(p + (c,)))
        b, s = coord_of[t]
        return b, -s if t.index(c) % 2 else s

    return tuple(tuple(None if c in p else hit(c, p) for p in smaller)
                 for c in range(DIM))


#: 2x2 minors from entries, on the column pairs in GRADE2_PAIRS order
_PAIR_HITS = _laplace_hits([(c,) for c in range(DIM)],
                           {p: (k, 1) for k, p in enumerate(GRADE2_PAIRS)})
#: The third compound matrix per coordinate system: for each row coordinate
#: ``(first index, pair index of the other two, sign)``, and the hits of
#: 3x3 minors from 2x2 ones.
COMPOUND_TABLES = {
    coords: (tuple((t[0], GRADE2_PAIRS.index(t[1:]), s) for t, s in support),
             _laplace_hits(GRADE2_PAIRS, {t: (b, s) for b, (t, s) in enumerate(support)}))
    for coords, support in (("lex3", [(t, 1) for t in GRADE3_TRIPLES]),
                            ("frame", FRAME_SUPPORT))}


def _compound3(g, coords: str, add=operator.add, sub=operator.sub,
               mul=operator.mul, is_zero=operator.not_, zero=0) -> List[List[Element]]:
    """The 20x20 grade-3 minors of the 6x6 ``g`` in ``coords``, with the
    given ring operations (by default those of plain ints).  Only nonzero
    entries and minors are multiplied, so a block-diagonal g pays for its
    four diagonal blocks only."""
    def laplace(row, minors, hits, plus=add, minus=sub):
        out: Dict[int, Element] = {}
        for c, x in row:
            for q, v in minors:
                if (hit := hits[c][q]) is not None:
                    j, sign = hit
                    out[j] = (plus if sign > 0 else minus)(out.get(j, zero), mul(x, v))
        return [(j, v) for j, v in out.items() if not is_zero(v)]

    rows, hits3 = COMPOUND_TABLES[coords]
    nonzero = [[(c, x) for c, x in enumerate(row) if not is_zero(x)] for row in g]
    # the 2x2 minors on the row pairs t[1:], which never hold index 0
    minors2 = {k: laplace(nonzero[r1], nonzero[r2], _PAIR_HITS)
               for k, (r1, r2) in enumerate(GRADE2_PAIRS) if r1 > 0}
    out = []
    for first, rest, row_sign in rows:
        row = [zero] * 20
        for j, v in laplace(nonzero[first], minors2[rest], hits3,
                            *((add, sub) if row_sign > 0 else (sub, add))):
            row[j] = v
        out.append(row)
    return out


def frame_covector(field: Field, k: int) -> ExteriorElement:
    """The k-th frame functional (0-based) as a grade-3 element."""
    t, sgn = FRAME_SUPPORT[k]
    c = field.one() if sgn > 0 else field.neg(field.one())
    return ExteriorElement(field, 3, {t: c})


def frame_coordinates(x: ExteriorElement) -> List[Element]:
    """Evaluate the 20 frame functionals on a grade-3 element."""
    if x.grade != 3:
        raise ValueError("frame coordinates are defined on grade 3")
    k = x.field
    out = []
    for t, sgn in FRAME_SUPPORT:
        c = x.terms.get(t, k.zero())
        out.append(c if sgn > 0 else k.neg(c))
    return out


def from_frame_coordinates(field: Field, coords: Sequence[Element]) -> ExteriorElement:
    if len(coords) != 20:
        raise ValueError("need 20 coordinates")
    terms: Dict[IndexTuple, Element] = {}
    for (t, sgn), c in zip(FRAME_SUPPORT, coords):
        if field.is_zero(c):
            continue
        terms[t] = c if sgn > 0 else field.neg(c)
    return ExteriorElement(field, 3, terms)


def lex3_coordinates(x: ExteriorElement) -> List[Element]:
    return x.coordinates(GRADE3_TRIPLES)


def induced_grade3_matrix(field: Field, g6: Sequence[Sequence[Element]],
                          coords: str = "frame") -> Matrix:
    """Matrix of the Lambda^3 action of a 6x6 matrix in the chosen
    coordinates: its third compound matrix, entry (I, J) the 3x3 minor
    g6[I, J] (Cauchy-Binet).  Over QQ the minors are taken on integers, g6
    scaled by one common denominator d, each nonzero entry one
    ``Fraction(minor, d**3)``; over GF(p) on integers reduced at the end."""
    if coords not in COMPOUND_TABLES:
        raise ValueError("coords must be 'frame' or 'lex3'")
    if isinstance(field, RationalField):
        ints, d = _integer_row([x for row in g6 for x in row])
        d3, zero = d ** 3, field.zero()
        minors = _compound3([ints[i:i + DIM] for i in range(0, 36, DIM)], coords)
        return Matrix(field, [[Fraction(v, d3) if v else zero for v in row]
                              for row in minors])
    if isinstance(field, PrimeField):
        return Matrix(field, [[v % field.p for v in row] for row in _compound3(g6, coords)])
    return Matrix(field, _compound3(g6, coords, field.add, field.sub, field.mul,
                                    field.is_zero, field.zero()))
