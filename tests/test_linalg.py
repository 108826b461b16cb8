import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galecubics.fields import QQ, PrimeField, cyclotomic3
from galecubics.linalg import Matrix, det_cofactor, pfaffian4, same_column_span
from galecubics.poly import MultiPoly, PolyRing

from conftest import ALL_FIELDS


def test_kernel_of_identity_is_empty():
    k = QQ
    assert Matrix.identity(k, 6).kernel_basis().cols == 0


def test_kernel_of_zero_matrix_is_identity():
    k = QQ
    ker = Matrix.zero(k, 6, 12).kernel_basis()
    assert ker.cols == 12
    assert ker == Matrix.identity(k, 12)


def test_kernel_canonical_convention():
    # pivots in columns 0 and 1; free columns get a unit entry in turn
    k = QQ
    m = Matrix(k, [[k.one(), k.zero(), k.from_int(2), k.from_int(3)],
                   [k.zero(), k.one(), k.from_int(4), k.from_int(5)]])
    ker = m.kernel_basis()
    assert ker.cols == 2
    assert ker.column(0) == [k.from_int(-2), k.from_int(-4), k.one(), k.zero()]
    assert ker.column(1) == [k.from_int(-3), k.from_int(-5), k.zero(), k.one()]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor)
def test_kernel_random(field):
    rng = random.Random(7)
    for _ in range(200):
        m = Matrix.random(field, 6, 12, rng)
        ker = m.kernel_basis()
        assert (m * ker).is_zero()
        assert ker.rank() == ker.cols == 12 - m.rank()


def test_kernel_rank6_over_prime101():
    field = PrimeField(101)
    rng = random.Random(11)
    found = 0
    while found < 50:
        m = Matrix.random(field, 6, 12, rng)
        if m.rank() != 6:
            continue
        ker = m.kernel_basis()
        assert ker.cols == 6
        assert (m * ker).is_zero()
        found += 1


def naive_row_reduce_rank(field, data):
    rows = [list(r) for r in data]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows))
                      if not field.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][c])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _sparse_random(field, rows, cols, rng):
    """Random entries, about a third of them zero."""
    z = field.zero()
    return Matrix(field, [[z if rng.random() < 0.35 else field.random(rng)
                           for _ in range(cols)] for _ in range(rows)], cols)


def _rank_deficient(field, rows, cols, rng):
    """A product (rows x r) * (r x cols) with r below min(rows, cols); the
    sparse right factor leaves some columns without a pivot."""
    r = rng.randrange(min(rows, cols))
    if r == 0:
        return Matrix.zero(field, rows, cols)
    return Matrix.random(field, rows, r, rng) * _sparse_random(field, r, cols, rng)


RANK_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(101),
               cyclotomic3(PrimeField(5)), cyclotomic3(QQ)]


def test_rank_against_independent_reduction():
    field = PrimeField(101)
    rng = random.Random(13)
    for _ in range(30):
        m = Matrix.random(field, 5, 8, rng)
        assert m.rank() == naive_row_reduce_rank(field, m.data)


@pytest.mark.parametrize("field", RANK_FIELDS, ids=lambda f: f.descriptor)
def test_rank_by_forward_elimination_matches_rref(field):
    rng = random.Random(29)
    cases = [Matrix.zero(field, 0, 10), Matrix.zero(field, 10, 0),
             Matrix.zero(field, 0, 0), Matrix.zero(field, 6, 12)]
    for rows, cols in [(15, 10), (10, 15), (10, 10), (6, 12)]:
        for _ in range(3):
            cases.append(_rank_deficient(field, rows, cols, rng))
        cases.append(_sparse_random(field, rows, cols, rng))
    deficient = 0
    for m in cases:
        rank = m.rank()
        assert rank == len(m.rref()[1]) == naive_row_reduce_rank(field, m.data)
        deficient += rank < min(m.rows, m.cols)
    assert deficient >= 12


def det_gauss_oracle(k, data):
    """Determinant by forward elimination, verbatim the loop ``det`` ran on
    its own before it shared one elimination with ``rank``."""
    n = len(data)
    m = [row[:] for row in data]
    det = k.one()
    for c in range(n):
        pivot = next((i for i in range(c, n) if not k.is_zero(m[i][c])), None)
        if pivot is None:
            return k.zero()
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = k.neg(det)
        det = k.mul(det, m[c][c])
        inv = k.inv(m[c][c])
        for i in range(c + 1, n):
            if k.is_zero(m[i][c]):
                continue
            f = k.mul(inv, m[i][c])
            row_i, row_c = m[i], m[c]
            for j in range(c + 1, n):
                row_i[j] = k.sub(row_i[j], k.mul(f, row_c[j]))
    return det


@pytest.mark.parametrize("field", [PrimeField(101), cyclotomic3(PrimeField(5))],
                         ids=lambda f: f.descriptor)
def test_det_matches_gauss_oracle(field):
    rng = random.Random(31)
    singular = 0
    for n in range(5, 13):
        for m in (_sparse_random(field, n, n, rng), Matrix.random(field, n, n, rng),
                  _rank_deficient(field, n, n, rng)):
            det = m.det()
            assert det == det_gauss_oracle(field, m.data)
            singular += field.is_zero(det)
    assert singular >= 8


def test_det_examples():
    k = QQ
    assert Matrix.identity(k, 3).det() == k.one()
    diag = Matrix(k, [[k.from_int(2), k.zero(), k.zero()],
                      [k.zero(), k.from_int(3), k.zero()],
                      [k.zero(), k.zero(), k.from_int(5)]])
    assert diag.det() == k.from_int(30)
    with pytest.raises(ValueError):
        Matrix.zero(k, 2, 3).det()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor)
def test_det_matches_cofactor_oracle(field):
    rng = random.Random(17)
    for n in (2, 3, 4, 5, 6):
        for _ in range(8):
            m = Matrix.random(field, n, n, rng)
            assert m.det() == det_cofactor(field, m.data)


def charpoly_oracle(field, m):
    """Coefficients (low first) of det(tI - m) by cofactor expansion over
    a PolyRing."""
    ring = PolyRing(field, ["t"])
    t = MultiPoly.variable(field, ["t"], 0)
    det = det_cofactor(ring, [
        [(t if i == j else ring.zero()) - MultiPoly.constant(field, ["t"], x)
         for j, x in enumerate(row)] for i, row in enumerate(m.data)])
    coeffs = [field.zero()] * (m.rows + 1)
    for mono, c in det.terms.items():
        coeffs[mono[0]] = c
    return coeffs


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), QQ],
                         ids=lambda f: f.descriptor)
def test_charpoly_matches_cofactor_oracle(field):
    rng = random.Random(23)
    samples = [Matrix(field, [], 0), Matrix.zero(field, 4, 4),
               Matrix.identity(field, 3).scale(field.from_int(2))]
    samples += [Matrix.random(field, n, n, rng) for n in range(1, 7) for _ in range(5)]
    for n in (3, 4, 6):
        # a zero in the subdiagonal with a nonzero below it: a row swap
        swap = Matrix.random(field, n, n, rng)
        swap.data[1][0], swap.data[2][0] = field.zero(), field.one()
        # nothing below the diagonal in the first column: that column is
        # skipped, and so is the second column of a block diagonal matrix
        skip = Matrix.random(field, n, n, rng)
        for i in range(1, n):
            skip.data[i][0] = field.zero()
        block = Matrix.random(field, 2, 2, rng)
        block = block.hstack(Matrix.zero(field, 2, n - 2)).vstack(
            Matrix.zero(field, n - 2, 2).hstack(Matrix.random(field, n - 2, n - 2, rng)))
        samples += [swap, skip, block]
    for m in samples:
        got = m.charpoly()
        assert got == charpoly_oracle(field, m)
        assert got[-1] == field.one()
    with pytest.raises(ValueError):
        Matrix.zero(field, 2, 3).charpoly()


def test_det_multiplicative():
    field = PrimeField(101)
    rng = random.Random(19)
    for _ in range(20):
        a = Matrix.random(field, 5, 5, rng)
        b = Matrix.random(field, 5, 5, rng)
        assert (a * b).det() == field.mul(a.det(), b.det())


def _skew4(field, rng):
    m = Matrix.zero(field, 4, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            c = field.random(rng)
            m.data[i][j] = c
            m.data[j][i] = field.neg(c)
    return m


def test_pfaffian_block_diagonal():
    k = QQ
    a, b = k.from_int(3), k.from_int(7)
    m = Matrix.zero(k, 4, 4)
    m.data[0][1], m.data[1][0] = a, k.neg(a)
    m.data[2][3], m.data[3][2] = b, k.neg(b)
    assert pfaffian4(k, m.data) == k.mul(a, b)
    assert pfaffian4(k, Matrix.zero(k, 4, 4).data) == k.zero()


@pytest.mark.parametrize("fieldname", ["rationals", "prime:97"])
def test_pfaffian_squares_to_det(fieldname):
    from galecubics.fields import parse_field
    field = parse_field(fieldname)
    rng = random.Random(23)
    for _ in range(100):
        m = _skew4(field, rng)
        pf = pfaffian4(field, m.data)
        assert field.mul(pf, pf) == m.det()


def test_pfaffian_rejects_non_skew():
    k = QQ
    with pytest.raises(ValueError):
        pfaffian4(k, Matrix.identity(k, 4).data)


def test_solve_and_inverse():
    field = PrimeField(101)
    rng = random.Random(29)
    for _ in range(20):
        m = Matrix.random(field, 6, 6, rng)
        if m.rank() < 6:
            continue
        x = [field.random(rng) for _ in range(6)]
        rhs = m.apply_to_vector(x)
        sol = m.solve(rhs)
        assert m.apply_to_vector(sol) == rhs
        assert m * m.inverse() == Matrix.identity(field, 6)


def test_column_span_helpers():
    field = PrimeField(101)
    rng = random.Random(31)
    a = Matrix.random(field, 8, 3, rng)
    shuffle = Matrix.random(field, 3, 3, rng)
    while shuffle.rank() < 3:
        shuffle = Matrix.random(field, 3, 3, rng)
    assert same_column_span(a, a * shuffle)
    assert not same_column_span(a, Matrix.random(field, 8, 3, rng))


# -- the integer path over QQ against the generic Gauss-Jordan oracle ------

SMALL_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
SPARSE_RATIONALS = st.one_of(st.just(Fraction(0)), SMALL_RATIONALS)


def _rational_matrix(draw, rows, cols, entries):
    return Matrix(QQ, [[draw(entries) for _ in range(cols)]
                       for _ in range(rows)], cols)


@st.composite
def rank_deficient_rationals(draw):
    """A product (rows x r) * (r x cols) with r below min(rows, cols); the
    sparse right factor leaves some columns without a pivot."""
    rows, cols = draw(st.sampled_from([(6, 12), (10, 20), (20, 10), (10, 10)]))
    r = draw(st.integers(0, min(rows, cols) - 1))
    left = _rational_matrix(draw, rows, r, SMALL_RATIONALS)
    right = _rational_matrix(draw, r, cols, SPARSE_RATIONALS)
    if r == 0:
        return Matrix.zero(QQ, rows, cols)
    return left._mul_generic(right)


@st.composite
def thin_or_zero_rationals(draw):
    shape = draw(st.sampled_from(["zero", "row", "column"]))
    if shape == "zero":
        rows, cols = draw(st.sampled_from([(6, 12), (10, 20), (20, 10), (10, 10)]))
        return Matrix.zero(QQ, rows, cols)
    n = draw(st.integers(1, 20))
    rows, cols = (1, n) if shape == "row" else (n, 1)
    return _rational_matrix(draw, rows, cols, SPARSE_RATIONALS)


def _assert_rref_matches_generic(m):
    fast, fast_pivots = m.rref()
    slow, slow_pivots = m._rref_generic()
    assert fast_pivots == slow_pivots
    assert fast.data == slow.data
    assert all(type(x) is Fraction for row in fast.data for x in row)


@settings(max_examples=60, deadline=None)
@given(rank_deficient_rationals())
def test_rational_rref_matches_generic_rank_deficient(m):
    assert m.rank() < min(m.rows, m.cols)
    _assert_rref_matches_generic(m)


@settings(max_examples=40, deadline=None)
@given(thin_or_zero_rationals())
def test_rational_rref_matches_generic_zero_and_thin(m):
    _assert_rref_matches_generic(m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_product_matches_generic(data):
    rows, inner, cols = data.draw(st.sampled_from(
        [(6, 12, 6), (12, 6, 6), (10, 20, 10), (20, 10, 10), (10, 10, 10),
         (1, 7, 1), (7, 1, 7), (1, 1, 1),
         (0, 3, 2), (0, 6, 12), (3, 0, 2), (2, 3, 0), (0, 0, 0)]))
    a = _rational_matrix(data.draw, rows, inner, SPARSE_RATIONALS)
    b = _rational_matrix(data.draw, inner, cols, SPARSE_RATIONALS)
    fast, slow = a * b, a._mul_generic(b)
    assert (fast.rows, fast.cols) == (slow.rows, slow.cols) == (rows, cols)
    assert fast.data == slow.data
    assert all(type(x) is Fraction for row in fast.data for x in row)


@pytest.mark.parametrize("k", [QQ, PrimeField(101)])
def test_zero_row_matrix_keeps_its_columns(k):
    empty = Matrix.zero(k, 0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    product = empty * Matrix.zero(k, 3, 2)
    assert (product.rows, product.cols) == (0, 2)
    with pytest.raises(ValueError):
        empty * Matrix.zero(k, 2, 2)
    with pytest.raises(ValueError):
        Matrix(k, [[k.one()]], cols=2)


def test_from_columns_refuses_an_empty_list():
    # an empty column list gives no row count; kernel_basis builds its n x 0
    # matrix directly instead
    with pytest.raises(ValueError):
        Matrix.from_columns(QQ, [])
    kernel = Matrix.identity(QQ, 4).kernel_basis()
    assert (kernel.rows, kernel.cols) == (4, 0)
    assert Matrix.from_columns(QQ, [[1, 2, 3]]).data == [[1], [2], [3]]


def test_empty_dimensions_survive():
    k = QQ
    assert (Matrix.zero(k, 3, 0).transpose().rows,
            Matrix.zero(k, 3, 0).transpose().cols) == (0, 3)
    m = Matrix.identity(k, 4)
    sub = m.submatrix([], [0, 2, 3])
    assert (sub.rows, sub.cols) == (0, 3)
    empty = Matrix.zero(k, 0, 3)
    for same in (empty.copy(), empty.vstack(empty), -empty, empty + empty,
                 empty.scale(k.one()), empty.row_space(), Matrix.zero(k, 3, 3).row_space()):
        assert (same.rows, same.cols) == (0, 3)
    both = empty.hstack(Matrix.zero(k, 0, 2))
    assert (both.rows, both.cols) == (0, 5)
    assert Matrix.zero(k, 0, 3) != Matrix.zero(k, 0, 2)
    assert Matrix.zero(k, 2, 0) != Matrix.zero(k, 3, 0)
    assert Matrix.zero(k, 0, 3) == Matrix.zero(k, 0, 3)
    assert hash(Matrix.zero(k, 0, 3)) == hash(Matrix.zero(k, 0, 3))
    assert len({Matrix.zero(k, 0, 3), Matrix.zero(k, 0, 2), Matrix.zero(k, 0, 3)}) == 2
    from galecubics.serialize import matrix_to_json
    assert matrix_to_json(empty) == [] == matrix_to_json(Matrix.zero(k, 0, 2))
