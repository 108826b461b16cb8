"""Exact linear algebra over the coefficient fields.

Everything is small here (the largest routine systems are a few hundred
rows), so the implementation favours exactness and determinism over
asymptotics: Gauss-Jordan with the first nonzero pivot in column order,
which also makes reduced row echelon forms, and hence kernel bases,
canonical.

Over the rationals, ``rref`` and ``*`` take an integer path, because
``Fraction`` arithmetic pays a gcd on every add and multiply.  ``rref``
clears each row's denominators, eliminates fraction-free on ``int`` rows
(each new row divided by its content, so entries stay small) and builds
the ``Fraction`` entries once, by dividing each pivot row by its pivot;
``*`` scales the rows of the left factor and the columns of the right one
to integers by the lcm of their denominators, takes integer dot products
and divides once per entry.  The reduced row echelon form of a matrix is
unique, so the integer path returns exactly the matrix and pivots of the
generic one (``_rref_generic``, ``_mul_generic``, kept as differential
oracles), and every kernel, canonical basis and serialised output built
on it is unchanged.  Every other field uses the generic path.

``rank`` needs only the pivot count, so outside the rationals it runs
forward elimination alone (eliminate below each pivot; no normalising, no
back-substitution), and above 4x4 ``det`` takes the signed product of the
same pivots in every field.  Rank and determinant are unique, so neither
depends on the route.

Large sparse systems (Macaulay matrices, multiplier systems) go through
one routine, ``sparse_echelon``: vectors are dicts keyed by ordered
labels, each reduced from its smallest label up against the pivots found
so far.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from .fields import Element, Field, PrimeField, RationalField


class Matrix:
    """Dense matrix with raw field-element entries."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence[Element]],
                 cols: Optional[int] = None):
        """``cols`` gives the column count when ``data`` has no rows (0 by
        default); with rows, it must match their length."""
        self.field = field
        self.data: List[List[Element]] = [list(row) for row in data]
        self.rows = len(self.data)
        if cols is None:
            cols = len(self.data[0]) if self.data else 0
        self.cols = cols
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence[Element]]) -> "Matrix":
        """The matrix with these columns; an empty list is refused, since it
        gives no row count."""
        if not columns:
            raise ValueError("no columns: the row count is unknown")
        n = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(n)])

    @classmethod
    def random(cls, field: Field, rows: int, cols: int, rng: random.Random) -> "Matrix":
        return cls(field, [[field.random(rng) for _ in range(cols)] for _ in range(rows)])

    # -- basics --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field.descriptor})"

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.data, self.cols)

    def column(self, j: int) -> List[Element]:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> List[List[Element]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.column(j) for j in range(self.cols)],
                      self.rows)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ci = list(col_idx)
        return Matrix(self.field, [[self.data[i][j] for j in ci] for i in row_idx],
                      len(ci))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, [self.data[i] + other.data[i] for i in range(self.rows)],
                      self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix(self.field, self.data + other.data, self.cols)

    def is_zero(self) -> bool:
        k = self.field
        return all(k.is_zero(x) for row in self.data for x in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        k = self.field
        return Matrix(k, [
            [k.add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        k = self.field
        return Matrix(k, [
            [k.sub(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ], self.cols)

    def __neg__(self) -> "Matrix":
        k = self.field
        return Matrix(k, [[k.neg(a) for a in row] for row in self.data], self.cols)

    def scale(self, c: Element) -> "Matrix":
        k = self.field
        return Matrix(k, [[k.mul(c, a) for a in row] for row in self.data], self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        if isinstance(self.field, RationalField):
            return self._mul_rational(other)
        return self._mul_generic(other)

    def _mul_generic(self, other: "Matrix") -> "Matrix":
        k = self.field
        zero = k.zero()
        ot = other.transpose().data
        out = []
        for row in self.data:
            new = []
            for col in ot:
                acc = zero
                for a, b in zip(row, col):
                    if not k.is_zero(a) and not k.is_zero(b):
                        acc = k.add(acc, k.mul(a, b))
                new.append(acc)
            out.append(new)
        return Matrix(k, out, other.cols)

    def _mul_rational(self, other: "Matrix") -> "Matrix":
        left = [_integer_row(row) for row in self.data]
        right = [_integer_row(col) for col in other.columns()]
        out = []
        for a, da in left:
            out.append([Fraction(sum(map(mul, a, b)), da * db)
                        for b, db in right])
        return Matrix(self.field, out, other.cols)

    def apply_to_vector(self, v: Sequence[Element]) -> List[Element]:
        k = self.field
        out = []
        for row in self.data:
            acc = k.zero()
            for a, b in zip(row, v):
                acc = k.add(acc, k.mul(a, b))
            out.append(acc)
        return out

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", List[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        if isinstance(self.field, RationalField):
            return self._rref_rational()
        return self._rref_generic()

    def _rref_generic(self) -> tuple["Matrix", List[int]]:
        k = self.field
        m = [row[:] for row in self.data]
        pivots: List[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not k.is_zero(m[i][c]):
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = k.inv(m[r][c])
            m[r] = [k.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and not k.is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [k.sub(x, k.mul(f, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(k, m), pivots

    def _rref_rational(self) -> tuple["Matrix", List[int]]:
        m = [_integer_row(row)[0] for row in self.data]
        pivots: List[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            prow = m[r]
            p = prow[c]
            for i in range(self.rows):
                f = m[i][c]
                if i != r and f:
                    g = gcd(p, f)
                    a, b = p // g, f // g
                    new = [a * x - b * y for x, y in zip(m[i], prow)]
                    content = gcd(*new)
                    m[i] = [x // content for x in new] if content > 1 else new
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        zero = Fraction(0)
        out = []
        for i, row in enumerate(m):
            if i < len(pivots):
                p = row[pivots[i]]
                out.append([Fraction(x, p) if x else zero for x in row])
            else:
                out.append([zero] * self.cols)
        return Matrix(self.field, out), pivots

    def rank(self) -> int:
        """Number of pivots: forward elimination only (no pivot scaling, no
        back-elimination), except over the rationals, whose integer ``rref``
        is already the cheaper route."""
        if isinstance(self.field, RationalField):
            return len(self._rref_rational()[1])
        return len(self._echelon_pivots()[1])

    def _echelon_pivots(self) -> tuple[bool, List[Element]]:
        """Forward Gaussian elimination on a copy, with the first nonzero
        pivot in column order and elimination below the pivot only.
        Returns whether the row swaps made an odd permutation, and the
        pivot values in order."""
        k = self.field
        is_zero, mul, sub = k.is_zero, k.mul, k.sub
        m = [row[:] for row in self.data]
        odd = False
        pivots: List[Element] = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pivot_row = next((i for i in range(r, self.rows)
                              if not is_zero(m[i][c])), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                m[r], m[pivot_row] = m[pivot_row], m[r]
                odd = not odd
            prow = m[r]
            inv = k.inv(prow[c])
            for i in range(r + 1, self.rows):
                row = m[i]
                if is_zero(row[c]):
                    continue
                f = mul(inv, row[c])
                for j in range(c + 1, self.cols):
                    row[j] = sub(row[j], mul(f, prow[j]))
            pivots.append(prow[c])
            r += 1
        return odd, pivots

    def row_space(self) -> "Matrix":
        """Canonical basis of the row space (nonzero rows of the RREF)."""
        red, pivots = self.rref()
        return Matrix(self.field, red.data[: len(pivots)], self.cols)

    def kernel_basis(self) -> "Matrix":
        """Columns spanning the kernel, in the canonical RREF convention.

        Free variables are taken in ascending column order and each is set
        to one in turn, with the pivot variables solved from the reduced
        rows.  ``self * result == 0`` exactly and the number of columns is
        the nullity.
        """
        k = self.field
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        cols = []
        for f in free:
            v = [k.zero()] * self.cols
            v[f] = k.one()
            for i, p in enumerate(pivots):
                v[p] = k.neg(red.data[i][f])
            cols.append(v)
        return Matrix.from_columns(k, cols) if cols else Matrix(k, [[] for _ in range(self.cols)])

    def solve(self, rhs: Sequence[Element]) -> Optional[List[Element]]:
        """One solution of ``self * x = rhs`` (free variables zero), or None."""
        k = self.field
        aug = Matrix(k, [self.data[i] + [rhs[i]] for i in range(self.rows)])
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [k.zero()] * self.cols
        for i, p in enumerate(pivots):
            x[p] = red.data[i][self.cols]
        return x

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        k = self.field
        aug = self.hstack(Matrix.identity(k, self.rows))
        red, pivots = aug.rref()
        if pivots != list(range(self.rows)):
            raise ValueError("matrix is singular")
        return red.submatrix(range(self.rows), range(self.rows, 2 * self.rows))

    # -- determinants and pfaffians -------------------------------------

    def det(self) -> Element:
        """Determinant: cofactor expansion up to 4x4; above that, the signed
        product of the forward-elimination pivots (one inversion per
        pivot), exact in every field here."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        if self.rows <= 4:
            return det_cofactor(self.field, self.data)
        k = self.field
        odd, pivots = self._echelon_pivots()
        if len(pivots) < self.rows:
            return k.zero()    # a column without a pivot
        det = reduce(k.mul, pivots, k.one())
        return k.neg(det) if odd else det

    def charpoly(self) -> List[Element]:
        """Coefficients (low degree first, monic) of det(tI - self).

        A similarity reduces the matrix to upper Hessenberg form H, column
        by column: swap a nonzero entry below the subdiagonal into place,
        clear the entries below it with row operations and undo each one on
        the columns.  A column with nothing below the diagonal is left as it
        is.  Then p_0 = 1 and
        p_{m+1} = (t - h_mm) p_m - sum_{i<m} h_im h_{i+1,i}...h_{m,m-1} p_i
        give det(tI - H) = p_n.  No step divides by an integer, so this is
        exact over every field, in characteristic 2 and 3 too."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of non-square matrix")
        k = self.field
        is_zero, mul, sub = k.is_zero, k.mul, k.sub
        n = self.rows
        h = [row[:] for row in self.data]
        for m in range(1, n - 1):
            i = next((i for i in range(m, n) if not is_zero(h[i][m - 1])), None)
            if i is None:
                continue
            if i != m:
                h[i], h[m] = h[m], h[i]
                for row in h:
                    row[i], row[m] = row[m], row[i]
            inv = k.inv(h[m][m - 1])
            for i in range(m + 1, n):
                if is_zero(h[i][m - 1]):
                    continue
                f = mul(h[i][m - 1], inv)
                h[i] = [sub(x, mul(f, y)) for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = k.add(row[m], mul(f, row[i]))
        polys = [[k.one()]]
        for m in range(n):
            new = [k.zero()] + polys[m]
            for d, c in enumerate(polys[m]):
                new[d] = sub(new[d], mul(h[m][m], c))
            prod = k.one()
            for i in range(m - 1, -1, -1):
                prod = mul(prod, h[i + 1][i])
                if is_zero(prod):
                    break
                f = mul(h[i][m], prod)
                for d, c in enumerate(polys[i]):
                    new[d] = sub(new[d], mul(f, c))
            polys.append(new)
        return polys[n]


def _integer_row(row: Sequence[Fraction]) -> tuple[List[int], int]:
    """Integers ``ints`` and ``d > 0`` with ``row == [x / d for x in ints]``,
    ``d`` the lcm of the row's denominators."""
    dens = [x.denominator for x in row]
    d = lcm(*dens)
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // e) for x, e in zip(row, dens)], d


def det_cofactor(field: Field, rows: Sequence[Sequence[Element]]) -> Element:
    """Cofactor expansion along the first row; works over any commutative ring
    whose elements support the field protocol (used for small sizes only)."""
    n = len(rows)
    if n == 0:
        return field.one()
    if n == 1:
        return rows[0][0]
    if n == 2:
        return field.sub(
            field.mul(rows[0][0], rows[1][1]), field.mul(rows[0][1], rows[1][0])
        )
    acc = field.zero()
    for j in range(n):
        if field.is_zero(rows[0][j]):
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = field.mul(rows[0][j], det_cofactor(field, minor))
        acc = field.add(acc, term) if j % 2 == 0 else field.sub(acc, term)
    return acc


def pfaffian4(field: Field, m: Sequence[Sequence[Element]]) -> Element:
    """Pfaffian of a 4x4 skew-symmetric matrix: m01*m23 - m02*m13 + m03*m12."""
    if len(m) != 4 or any(len(r) != 4 for r in m):
        raise ValueError("pfaffian4 needs a 4x4 matrix")
    for i in range(4):
        if not field.is_zero(m[i][i]):
            raise ValueError("matrix has a nonzero diagonal entry")
        for j in range(i + 1, 4):
            if not field.is_zero(field.add(m[i][j], m[j][i])):
                raise ValueError("matrix is not skew-symmetric")
    t1 = field.mul(m[0][1], m[2][3])
    t2 = field.mul(m[0][2], m[1][3])
    t3 = field.mul(m[0][3], m[1][2])
    return field.add(field.sub(t1, t2), t3)


def same_column_span(a: Matrix, b: Matrix) -> bool:
    """Subspace equality via RREF of the transposed spanning sets."""
    return a.transpose().row_space() == b.transpose().row_space()


def sparse_echelon(field: Field, vectors: Iterable[Dict[Hashable, Element]],
                   cap: Optional[int] = None) -> Dict[Hashable, Dict[Hashable, Element]]:
    """Echelon basis of the span of sparse vectors (dicts from ordered
    labels to entries), as ``{pivot label: vector}``.

    Each vector is eliminated from its smallest label up by the pivots
    found so far; the live labels wait in a heap, and a label popped after
    it cancelled is skipped.  A vector that survives becomes a pivot, keyed
    by its smallest label and scaled to one there, so a pivot holds only
    labels at or above its own.  The pivot labels are those of the reduced
    echelon form of the span, whatever the order of the vectors.  Stops
    once ``cap`` pivots are found.

    Over a prime field the same loop runs on plain ``int`` entries, each
    input entry reduced mod p first, with one ``% p`` per update
    (``_sparse_echelon_mod``); every other field takes the generic loop
    (``_sparse_echelon_generic``, the differential oracle of the first)."""
    if isinstance(field, PrimeField):
        return _sparse_echelon_mod(field.p, vectors, cap)
    return _sparse_echelon_generic(field, vectors, cap)


def _sparse_echelon_generic(field: Field, vectors: Iterable[Dict[Hashable, Element]],
                            cap: Optional[int] = None,
                            ) -> Dict[Hashable, Dict[Hashable, Element]]:
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    pivots: Dict[Hashable, Dict[Hashable, Element]] = {}
    for vec in vectors:
        if len(pivots) == cap:
            break
        work = {k: v for k, v in vec.items() if not is_zero(v)}
        heap = list(work)
        heapify(heap)
        while heap:
            label = heappop(heap)
            if label not in work:
                continue
            if label not in pivots:
                inv = field.inv(work[label])
                pivots[label] = {k: mul(inv, v) for k, v in work.items()}
                break
            factor = work.pop(label)
            for plabel, pval in pivots[label].items():
                if plabel == label:
                    continue
                if plabel in work:
                    acc = sub(work[plabel], mul(factor, pval))
                    if is_zero(acc):
                        del work[plabel]
                    else:
                        work[plabel] = acc
                else:
                    acc = field.neg(mul(factor, pval))
                    if not is_zero(acc):
                        work[plabel] = acc
                        heappush(heap, plabel)
    return pivots


def _sparse_echelon_mod(p: int, vectors: Iterable[Dict[Hashable, int]],
                        cap: Optional[int]) -> Dict[Hashable, Dict[Hashable, int]]:
    """``sparse_echelon`` over GF(p) on ``int`` entries in [0, p), with
    each label replaced by its rank among all labels, so that the heap and
    the dicts compare and hash small ints."""
    vectors = list(vectors)
    labels = sorted({k for vec in vectors for k in vec})
    rank = {k: r for r, k in enumerate(labels)}
    pivots: Dict[int, List[tuple]] = {}    # each pivot without its own label
    for vec in vectors:
        if len(pivots) == cap:
            break
        work = {}
        for k, v in vec.items():
            v %= p
            if v:
                work[rank[k]] = v
        get = work.get
        heap = list(work)
        heapify(heap)
        while heap:
            label = heappop(heap)
            factor = work.pop(label, 0)
            if not factor:
                continue    # cancelled after it was pushed
            tail = pivots.get(label)
            if tail is None:
                inv = pow(factor, p - 2, p)
                pivots[label] = [(k, v * inv % p) for k, v in work.items()]
                break
            for plabel, pval in tail:
                old = get(plabel)
                if old is None:
                    work[plabel] = -factor * pval % p
                    heappush(heap, plabel)
                else:
                    acc = (old - factor * pval) % p
                    if acc:
                        work[plabel] = acc
                    else:
                        del work[plabel]
    return {labels[r]: {labels[r]: 1, **{labels[k]: v for k, v in tail}}
            for r, tail in pivots.items()}
