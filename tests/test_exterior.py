import random

import pytest

from galecubics.exterior import (GRADE3_TRIPLES, DIM, ExteriorElement,
                                 frame_covector, frame_coordinates,
                                 from_frame_coordinates, induced_grade3_matrix,
                                 orientation_pair)
from galecubics.fields import QQ, PrimeField, cyclotomic3, parse_field
from galecubics.linalg import Matrix

from conftest import reference_induced_grade3_matrix


def random_element(field, rng, grade, density=0.6):
    from itertools import combinations
    terms = {}
    for t in combinations(range(DIM), grade):
        if rng.random() < density:
            c = field.random(rng)
            if not field.is_zero(c):
                terms[t] = c
    return ExteriorElement(field, grade, terms)


def test_wedge_square_of_vector_is_zero():
    k = QQ
    e1 = ExteriorElement.basis(k, (0,))
    assert e1.wedge(e1).is_zero()
    rng = random.Random(0)
    for _ in range(20):
        v = random_element(k, rng, 1)
        assert v.wedge(v).is_zero()


def test_wedge_graded_anticommutativity():
    field = PrimeField(101)
    rng = random.Random(1)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4)):
        if p + q > 6:
            continue
        x = random_element(field, rng, p)
        y = random_element(field, rng, q)
        xy = x.wedge(y)
        yx = y.wedge(x)
        expected = yx if (p * q) % 2 == 0 else -yx
        assert xy == expected


def test_wedge_associative_bilinear():
    field = PrimeField(101)
    rng = random.Random(2)
    for _ in range(15):
        x, y, z = (random_element(field, rng, 1) for _ in range(3))
        assert x.wedge(y.wedge(z)) == x.wedge(y).wedge(z)
        assert (x + y).wedge(z) == x.wedge(z) + y.wedge(z)


def test_wedge_overflow_rejected():
    k = QQ
    x = ExteriorElement.basis(k, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        x.wedge(x)


def test_hat_wedge_examples():
    # ehat_1 ^ e1 is the full E-wedge; (ehat_i ^ f_j) ^ (e_i ^ fhat_j) is the
    # orientation element L_E ^ L_F = -(e1^...^f3) for all i, j
    k = QQ
    ehat1 = ExteriorElement.basis(k, (1, 2))
    e1 = ExteriorElement.basis(k, (0,))
    assert ehat1.wedge(e1) == ExteriorElement.basis(k, (0, 1, 2))
    for i in range(3):
        for j in range(3):
            u = frame_covector(k, 3 * i + j)
            uh = frame_covector(k, 10 + 3 * i + j)
            product = u.wedge(uh)
            assert product.coefficient((0, 1, 2, 3, 4, 5)) == k.from_int(-1)


def test_contraction_examples():
    k = QQ
    e12 = ExteriorElement.basis(k, (0, 1))
    dual_e1 = [k.one()] + [k.zero()] * 5
    assert e12.contract(dual_e1) == ExteriorElement.basis(k, (1,))
    # covector vanishing on all factors kills the element
    x = ExteriorElement.basis(k, (0, 1, 2))
    lam = [k.zero()] * 3 + [k.one()] * 3
    assert x.contract(lam).is_zero()
    with pytest.raises(ValueError):
        ExteriorElement(k, 0, {(): k.one()}).contract(dual_e1)


from hypothesis import given, settings, strategies as st


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_contraction_squares_to_zero_and_leibniz(seed, p, q):
    field = PrimeField(101)
    rng = random.Random(seed)
    lam = [field.random(rng) for _ in range(6)]
    x = random_element(field, rng, p)
    y = random_element(field, rng, q)
    if p >= 2:
        assert x.contract(lam).contract(lam).is_zero()
    left = x.wedge(y).contract(lam)
    sign_term = x.wedge(y.contract(lam))
    if p % 2 == 1:
        sign_term = -sign_term
    assert left == x.contract(lam).wedge(y) + sign_term


def test_contraction_kernel_dimension():
    # on grade 3 the kernel of a nonzero contraction is 10-dimensional
    field = PrimeField(101)
    rng = random.Random(4)
    from galecubics.exterior import GRADE2_PAIRS
    for _ in range(10):
        lam = [field.random(rng) for _ in range(6)]
        if all(field.is_zero(c) for c in lam):
            continue
        cols = []
        for t in GRADE3_TRIPLES:
            elem = ExteriorElement(field, 3, {t: field.one()})
            cols.append(elem.contract(lam).coordinates(GRADE2_PAIRS))
        mat = Matrix.from_columns(field, cols)
        assert mat.kernel_basis().cols == 10


def test_orientation_pair_skew_and_nondegenerate():
    field = PrimeField(101)
    rng = random.Random(5)
    for _ in range(10):
        x = random_element(field, rng, 3)
        y = random_element(field, rng, 3)
        assert orientation_pair(x, x) == field.zero()
        assert orientation_pair(x, y) == field.neg(orientation_pair(y, x))
    gram = [[orientation_pair(frame_covector(field, a), frame_covector(field, b))
             for b in range(20)] for a in range(20)]
    assert Matrix(field, gram).rank() == 20


def test_orientation_pair_dual_bases():
    k = QQ
    for i in range(10):
        for j in range(10):
            val = orientation_pair(frame_covector(k, i), frame_covector(k, 10 + j))
            assert val == (k.one() if i == j else k.zero())


def test_orientation_pair_rejects_wrong_grades():
    k = QQ
    with pytest.raises(ValueError):
        orientation_pair(ExteriorElement.basis(k, (0, 1)),
                         ExteriorElement.basis(k, (2, 3)))


def test_frame_coordinate_roundtrip():
    field = PrimeField(101)
    rng = random.Random(6)
    for _ in range(20):
        coords = [field.random(rng) for _ in range(20)]
        x = from_frame_coordinates(field, coords)
        assert frame_coordinates(x) == coords
        assert from_frame_coordinates(field, frame_coordinates(x)) == x


def test_block_structure_of_triples():
    # first ten triples lie in the E-heavy block, last ten in the F-heavy one
    for t in GRADE3_TRIPLES[:10]:
        assert sum(1 for i in t if i < 3) >= 2
    for t in GRADE3_TRIPLES[10:]:
        assert sum(1 for i in t if i < 3) <= 1


def test_induced_action_identity_and_composition():
    field = PrimeField(101)
    rng = random.Random(7)
    ident6 = Matrix.identity(field, 6)
    assert induced_grade3_matrix(field, ident6.data) == Matrix.identity(field, 20)
    g = Matrix.random(field, 6, 6, rng)
    h = Matrix.random(field, 6, 6, rng)
    gh = induced_grade3_matrix(field, (g * h).data)
    composed = (induced_grade3_matrix(field, g.data)
                * induced_grade3_matrix(field, h.data))
    assert gh == composed


def test_induced_action_scalar_cubes():
    k = QQ
    c = k.from_int(2)
    g = Matrix.identity(k, 6)
    for i in range(3):
        g.data[i][i] = c
    t = induced_grade3_matrix(k, g.data, coords="lex3")
    # the pure E-block triple (0,1,2) scales by c^3
    idx = GRADE3_TRIPLES.index((0, 1, 2))
    assert t.data[idx][idx] == k.from_int(8)


COMPOUND_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(101),
                   cyclotomic3(QQ), parse_field("cyclotomic3:2")]


def sample_6x6(field, rng, kind):
    """A seeded 6x6 matrix: dense, block-diagonal (E and F preserved) or
    singular (last row the sum of the first two)."""
    m = Matrix.random(field, 6, 6, rng).data
    if kind == "block":
        m = [[x if (i < 3) == (j < 3) else field.zero() for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    elif kind == "singular":
        m[5] = [field.add(a, b) for a, b in zip(m[0], m[1])]
        assert Matrix(field, m).rank() < 6
    return m


@pytest.mark.parametrize("kind", ["dense", "block", "singular"])
@pytest.mark.parametrize("coords", ["lex3", "frame"])
@pytest.mark.parametrize("field", COMPOUND_FIELDS, ids=lambda f: f.descriptor)
def test_compound_matches_wedge_oracle(field, coords, kind):
    rng = random.Random(f"{field.descriptor}:{coords}:{kind}")
    for _ in range(3):
        g6 = sample_6x6(field, rng, kind)
        assert (induced_grade3_matrix(field, g6, coords)
                == reference_induced_grade3_matrix(field, g6, coords))


def test_induced_action_rejects_unknown_coordinates():
    with pytest.raises(ValueError):
        induced_grade3_matrix(QQ, Matrix.identity(QQ, 6).data, coords="plucker")
