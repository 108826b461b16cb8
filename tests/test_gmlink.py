import dataclasses
import random

import pytest

from galecubics.exterior import ExteriorElement
from galecubics.fields import QQ, PrimeField
from galecubics.gmlink import (E_SIDE, F_SIDE, Z15Ideal, big_cubic_membership,
                               build_n15, build_sigma15, dual_ten_tuples,
                               ideal_membership_deg3)
from galecubics.invariants import LEX3_VARIABLES, big_cubics
from galecubics.linalg import Matrix
from galecubics.poly import MultiPoly, monomials_of_degree


def test_n15_skew_with_zero_diagonal():
    for field in (QQ, PrimeField(101)):
        n15 = build_n15(field)
        for i in range(5):
            assert n15[i][i].is_zero()
            for j in range(5):
                assert (n15[i][j] + n15[j][i]).is_zero()


def test_n15_first_entry_value():
    # entry (1,2) is v_1 ^ v_2 ^ e_1 = e_2 ^ e_3 ^ e_1 = +e_1^e_2^e_3, which
    # takes value one on the corresponding wedge basis vector
    k = QQ
    n15 = build_n15(k)
    from galecubics.exterior import lex3_coordinates
    vec = ExteriorElement.basis(k, (0, 1, 2))
    assert n15[0][1].evaluate(lex3_coordinates(vec)) == k.one()


def test_dual_tuples_pair_to_orientation():
    k = QQ
    us, uhats = dual_ten_tuples(k)
    assert len(us) == len(uhats) == 10
    # cross pairings vanish: each u is supported on a single wedge triple and
    # pairs only with its complementary uhat; verified through the quadric
    sigma = build_sigma15(k)
    assert sigma.is_homogeneous(2)
    assert len(sigma.terms) == 10


def test_sigma15_vanishes_on_u_side():
    # a vector supported on the distinguished-direction side kills the quadric
    k = QQ
    rng = random.Random(0)
    from galecubics.exterior import lex3_coordinates
    sigma = build_sigma15(k)
    for _ in range(10):
        elem = ExteriorElement(k, 3, {})
        for pair in ((1, 2), (1, 3), (2, 4), (3, 4), (4, 5)):
            c = k.random(rng)
            triple = tuple(sorted((0,) + pair))
            elem = elem + ExteriorElement(k, 3, {triple: c})
        assert k.is_zero(sigma.evaluate(lex3_coordinates(elem)))


def test_sigma15_invariant_under_block_action():
    # an element of SL(V5) extended by one on the distinguished direction
    field = PrimeField(97)
    rng = random.Random(1)
    from galecubics.exterior import induced_grade3_matrix
    sigma = build_sigma15(field)
    for _ in range(4):
        g5 = Matrix.identity(field, 5)
        for _ in range(5):
            i, j = rng.sample(range(5), 2)
            e = Matrix.identity(field, 5)
            e.data[i][j] = field.random(rng)
            g5 = g5 * e
        g6 = Matrix.identity(field, 6)
        # v-order is (e2, e3, f1, f2, f3) = indices 1..5
        for a in range(5):
            for b in range(5):
                g6.data[1 + a][1 + b] = g5.data[a][b]
        action = induced_grade3_matrix(field, g6.data, coords="lex3")
        assert sigma.linear_substitution(action, LEX3_VARIABLES) == sigma


def test_z15_ideal_quadrics():
    for side in (E_SIDE, F_SIDE):
        z = Z15Ideal.build(QQ, side)
        assert len(z.quadrics) == 6
        for q in z.quadrics:
            assert q.is_homogeneous(2)
        # five Pfaffians with three terms, one ten-term quadric
        assert sorted(len(q.terms) for q in z.quadrics) == [3, 3, 3, 3, 3, 10]


def test_membership_trivial_case():
    field = QQ
    z = Z15Ideal.build(field)
    q1 = z.quadrics[0]
    x0 = MultiPoly.variable(field, LEX3_VARIABLES, 0)
    cubic = q1 * x0
    cert = ideal_membership_deg3(cubic, z.quadrics)
    assert cert is not None
    assert cert[0] == x0
    assert all(c.is_zero() for c in cert[1:])


def test_big_cubic_membership_both_sides():
    for which in ("E", "F"):
        cert = big_cubic_membership(QQ, which)
        assert cert is not None
        assert all(ell.is_zero() or ell.is_homogeneous(1) for ell in cert)
    # independent re-expansion
    xt_e, _ = big_cubics(QQ)
    quadrics = Z15Ideal.build(QQ, E_SIDE).quadrics
    cert = ideal_membership_deg3(xt_e, quadrics)
    acc = MultiPoly.zero(QQ, xt_e.variables)
    for q, ell in zip(quadrics, cert):
        acc = acc + q * ell
    assert acc == xt_e


def test_big_cubic_not_in_wrong_side_ideal():
    # the E-side cubic is not in the F-side ideal (and vice versa)
    xt_e, xt_f = big_cubics(QQ)
    assert ideal_membership_deg3(xt_e, Z15Ideal.build(QQ, F_SIDE).quadrics) is None
    assert ideal_membership_deg3(xt_f, Z15Ideal.build(QQ, E_SIDE).quadrics) is None


def test_random_cubic_fails_membership():
    field = QQ
    rng = random.Random(2)
    terms = {}
    for mono in monomials_of_degree(20, 3):
        if rng.random() < 0.01:
            terms[mono] = field.random(rng)
    cubic = MultiPoly(field, LEX3_VARIABLES, terms)
    if cubic.is_zero():
        pytest.skip("empty sample")
    z = Z15Ideal.build(field)
    assert ideal_membership_deg3(cubic, z.quadrics) is None


def test_membership_input_validation():
    field = QQ
    z = Z15Ideal.build(field)
    quad = z.quadrics[0]
    with pytest.raises(ValueError):
        ideal_membership_deg3(quad, z.quadrics)   # degree 2 target
    x0 = MultiPoly.variable(field, LEX3_VARIABLES, 0)
    with pytest.raises(ValueError):
        ideal_membership_deg3(x0 * x0 * x0, [x0])  # generator not a quadric


def test_z15_ideal_is_built_once_per_field_and_side():
    """build is cached: one shared, read-only ideal per field and side,
    equal to a fresh build."""
    ideal = Z15Ideal.build(QQ, E_SIDE)
    assert Z15Ideal.build(QQ, E_SIDE) is ideal
    assert isinstance(ideal.quadrics, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ideal.quadrics = ()
    assert Z15Ideal.build(QQ, F_SIDE) is not ideal
    assert Z15Ideal.build.__func__.__wrapped__(Z15Ideal, QQ, E_SIDE) == ideal
