import random

import pytest

from galecubics import lagrangian
from galecubics.fields import QQ, FieldError, PrimeField, parse_field
from galecubics.gale import NonSyzygeticEquation, composition_is_zero, gale_dual
from galecubics.lagrangian import (LagrangianValidationError, RhoLagrangianData,
                                   SplittingError, adapted_presentation,
                                   gale_from_lagrangian, lagrangian_from_gale,
                                   sigma_normal_form, swap_ef_matrix, validate)
from galecubics.linalg import Matrix, same_column_span

from conftest import reference_validate


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


@pytest.mark.parametrize("fieldname", ["rationals", "prime:101", "cyclotomic3(prime:5)"])
def test_checks_without_halving_match_alpha_and_sigma(fieldname):
    """alpha_is_zero and sigma_is_normal read Q^t P directly; they agree
    with alpha() and sigma() in all four combinations of outcomes, on built
    presentations and on Q = 1 with P chosen, so that Q^t P = P."""
    from galecubics.lagrangian import QPPresentation
    field = parse_field(fieldname)
    rng = random.Random(12)
    normal = sigma_normal_form(field)
    skew = Matrix.zero(field, 10, 10)
    skew.data[0][3], skew.data[3][0] = field.one(), field.from_int(-1)
    one = Matrix.identity(field, 10)
    cases = [lagrangian_from_gale(NonSyzygeticEquation.random(field, rng), i)[1]
             for i in (1, 2, 3)]
    cases += [QPPresentation(field, one, p, one, one)
              for p in (normal, normal + skew, normal + normal,
                        Matrix.random(field, 10, 10, rng))]
    outcomes = []
    for pres in cases:
        alpha_zero, sigma_normal = pres.alpha().is_zero(), pres.sigma() == normal
        assert pres.alpha_is_zero() is alpha_zero
        assert pres.sigma_is_normal() is sigma_normal
        outcomes.append((alpha_zero, sigma_normal))
    assert outcomes[2:] == [(True, True), (True, True), (False, True),
                            (True, False), (False, False)]


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


# -- the two-echelon-form route against the separate eliminations -------------

ORACLE_FIELDS = ["rationals", "prime:2", "prime:3", "prime:101",
                 "cyclotomic3(rationals)", "cyclotomic3:2"]


def admissible_matrices(field, rng, count):
    """Spans built by ``lagrangian_from_gale`` from seeded tuples; a tuple
    whose trailing L forms are dependent (which happens over GF(2)) is
    passed over."""
    out = []
    while len(out) < count:
        eq = NonSyzygeticEquation.random(field, rng)
        try:
            out.append(lagrangian_from_gale(eq, rng.choice((1, 2, 3)))[0].matrix)
        except SplittingError:
            continue
    return out


def random_of_rank(field, rows, cols, rank, rng):
    while True:
        m = Matrix.random(field, rows, cols, rng)
        if m.rank() == rank:
            return m


def coordinate_lagrangian(field, n_e, n_f):
    """e_0..e_{n_e-1}, f_{n_e}..f_{n_e+n_f-1}, then e_i + f_j and e_j + f_i
    on the remaining indices in pairs (the last one alone as e_k + f_k):
    a subspace on which the pairing vanishes and whose slices A_E and A_F
    have dimensions n_e and n_f."""
    def vec(*idx):
        v = [field.zero()] * 20
        for i in idx:
            v[i] = field.one()
        return v
    cols = [vec(i) for i in range(n_e)]
    cols += [vec(10 + i) for i in range(n_e, n_e + n_f)]
    rest = list(range(n_e + n_f, 10))
    while len(rest) >= 2:
        i, j = rest.pop(0), rest.pop(0)
        cols += [vec(i, 10 + j), vec(j, 10 + i)]
    cols += [vec(k, 10 + k) for k in rest]
    return Matrix.from_columns(field, cols)


def block_transform(field, m, rng):
    """``diag(g, g^-T) * m * h`` for random invertible g and h: the pairing,
    both blocks and so both slice dimensions are preserved."""
    g = random_of_rank(field, 10, 10, 10, rng)
    zero = Matrix.zero(field, 10, 10)
    t = g.hstack(zero).vstack(zero.hstack(g.inverse().transpose()))
    return t * m * random_of_rank(field, m.cols, m.cols, m.cols, rng)


def same_outcome(field, candidate):
    """Run both routes; return the failures (None on success) after
    checking that they agree."""
    try:
        want = reference_validate(field, candidate)
    except LagrangianValidationError as exc:
        with pytest.raises(LagrangianValidationError) as err:
            validate(field, candidate)
        assert err.value.failures == exc.failures
        return exc.failures
    got = validate(field, candidate)
    assert got.matrix == want.matrix
    assert got.a_e == want.a_e and got.a_f == want.a_f
    assert (got.a_e.rows, got.a_e.cols, got.a_f.rows, got.a_f.cols) == (20, 4, 20, 4)
    return None


@pytest.mark.parametrize("fieldname", ORACLE_FIELDS)
def test_validate_matches_reference_on_admissible_spans(fieldname):
    field = parse_field(fieldname)
    rng = random.Random(f"validate:{fieldname}")
    cases = []
    for m in admissible_matrices(field, rng, 3):
        cases += [m, m * random_of_rank(field, 10, 10, 10, rng),
                  m * random_of_rank(field, 10, 12, 10, rng)]
    pinned = coordinate_lagrangian(field, 4, 4)
    cases += [pinned, block_transform(field, pinned, rng)]
    for candidate in cases:
        assert same_outcome(field, candidate) is None


@pytest.mark.parametrize("fieldname", ORACLE_FIELDS)
def test_validate_matches_reference_on_failures(fieldname):
    field = parse_field(fieldname)
    rng = random.Random(f"validate-fail:{fieldname}")
    m = admissible_matrices(field, rng, 1)[0]
    cols = m.columns()
    rank9 = Matrix.from_columns(field, cols[:9] + [
        [field.add(a, b) for a, b in zip(cols[0], cols[1])]])
    assert same_outcome(field, rank9) == ["dimension: expected 10, got 9"]
    assert same_outcome(field, rank9 * random_of_rank(field, 10, 10, 10, rng)) \
        == ["dimension: expected 10, got 9"]
    unit = [field.zero()] * 20
    unit[[c for c in range(20) if c not in m.transpose().rref()[1]][0]] = field.one()
    rank11 = m.hstack(Matrix.from_columns(field, [unit]))
    assert same_outcome(field, rank11) == ["dimension: expected 10, got 11"]
    generic = random_of_rank(field, 20, 10, 10, rng)
    assert same_outcome(field, generic)[0].startswith("lagrangian:")
    for n_e, n_f in ((5, 4), (3, 4), (4, 5), (4, 3), (3, 3), (5, 5)):
        want = [f"rho-dimension-{side}: expected 4, got {n}"
                for side, n in (("E", n_e), ("F", n_f)) if n != 4]
        candidate = coordinate_lagrangian(field, n_e, n_f)
        assert same_outcome(field, candidate) == want
        assert same_outcome(field, block_transform(field, candidate, rng)) == want
    assert same_outcome(field, u_e_block_matrix(field)) == [
        "rho-dimension-E: expected 4, got 10", "rho-dimension-F: expected 4, got 0"]


# -- the completion of A_F + A_E against the rank-by-rank greedy loop ----------

def reference_complement_directions(data):
    """The first two canonical columns that raise the rank of A_F + A_E
    plus the columns taken so far, one rank computation per column."""
    field = data.field
    work = data.a_f.hstack(data.a_e)
    extra = []
    for j in range(data.matrix.cols):
        if work.cols == 10:
            break
        cand = data.matrix.column(j)
        trial = work.hstack(Matrix.from_columns(field, [cand]))
        if trial.rank() == work.cols + 1:
            work = trial
            extra.append(cand)
    if len(extra) != 2:
        raise SplittingError("splitting failure: no directions outside A_E + A_F")
    return extra


def presentation_or_error(data):
    try:
        return adapted_presentation(data)
    except (SplittingError, FieldError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fieldname", ["prime:2", "prime:3", "rationals"])
def test_completion_matches_greedy_loop(fieldname, monkeypatch):
    field = parse_field(fieldname)
    rng = random.Random(f"complete:{fieldname}")
    pinned = validate(field, coordinate_lagrangian(field, 4, 4))
    # its first four canonical columns span A_E, so the loop skips them
    assert pinned.matrix.submatrix(range(20), range(4)) == pinned.a_e
    assert reference_complement_directions(pinned) == [pinned.matrix.column(4),
                                                       pinned.matrix.column(5)]
    cases = [pinned, validate(field, block_transform(
        field, coordinate_lagrangian(field, 4, 4), rng))]
    cases += [validate(field, m) for m in admissible_matrices(field, rng, 4)]
    # a span with one direction outside A_F + A_E: both refuse it
    short = RhoLagrangianData(field, pinned.a_f.hstack(pinned.a_e).hstack(
        pinned.matrix.submatrix(range(20), [4, 4])), pinned.a_e, pinned.a_f)
    # A_F and A_E that do not span eight dimensions: both refuse it too
    dependent = RhoLagrangianData(field, pinned.matrix, pinned.a_e, pinned.a_e)
    cases += [short, dependent]
    fast = [presentation_or_error(data) for data in cases]
    for data in cases:
        try:
            want = reference_complement_directions(data)
        except SplittingError:
            with pytest.raises(SplittingError):
                lagrangian._complement_directions(data)
            continue
        assert lagrangian._complement_directions(data) == want
    monkeypatch.setattr(lagrangian, "_complement_directions",
                        reference_complement_directions)
    assert fast == [presentation_or_error(data) for data in cases]
    assert fast[-2][0] is fast[-1][0] is SplittingError
    if field.characteristic != 2:
        assert all(isinstance(pres, lagrangian.QPPresentation)
                   for pres in fast[:-2])
