import random

import pytest

from galecubics.fields import QQ, PrimeField, cyclotomic3
from galecubics.gale import (DEFAULT_VARIABLES, DegenerateTupleError,
                             NonSyzygeticEquation, composition_is_zero,
                             gale_dual, scroll_membership, scroll_point)
from galecubics.linalg import Matrix, det_cofactor
from galecubics.poly import MultiPoly, PolyRing


def unit_row(field, idx):
    coeffs = [field.zero()] * 6
    coeffs[idx] = field.one()
    return coeffs


def diagonal_rows(field):
    """Coefficient rows of M = diag(X0, X1, X2) and L = (X3, X4, X5)."""
    z = [field.zero()] * 6
    return [unit_row(field, 0), z, z,
            z, unit_row(field, 1), z,
            z, z, unit_row(field, 2),
            unit_row(field, 3), unit_row(field, 4), unit_row(field, 5)]


def diagonal_tuple(field, sign=1):
    return NonSyzygeticEquation.from_coefficients(field, diagonal_rows(field),
                                                  sign)


def test_coefficient_map_of_diagonal_tuple():
    eq = diagonal_tuple(QQ)
    c = eq.coefficient_matrix()
    assert c.rank() == 6
    nonzero_cols = [j for j in range(12)
                    if any(x != 0 for x in c.column(j))]
    assert len(nonzero_cols) == 6


def test_coefficient_map_zero_l3_column():
    field = QQ
    rows = diagonal_rows(field)
    rows[11] = [field.zero()] * 6
    eq = NonSyzygeticEquation.from_coefficients(field, rows, 1)
    c = eq.coefficient_matrix()
    assert all(field.is_zero(x) for x in c.column(11))


def test_cubic_polynomial_examples():
    field = QQ
    eq = diagonal_tuple(field)
    cubic = eq.cubic_polynomial()
    assert cubic == MultiPoly(field, DEFAULT_VARIABLES, {
        (1, 1, 1, 0, 0, 0): field.one(), (0, 0, 0, 1, 1, 1): field.one()})
    eq2 = NonSyzygeticEquation.from_coefficients(
        field, [[field.zero()] * 6] * 9 + eq.coeffs.data[9:], -1)
    assert eq2.cubic_polynomial() == MultiPoly(field, DEFAULT_VARIABLES, {
        (0, 0, 0, 1, 1, 1): field.from_int(-1)})


def reference_cubic(eq):
    """det M + sign * L1*L2*L3 by cofactor expansion over a PolyRing: the
    formula cubic_polynomial used before the universal-cubic pull-back."""
    ring = PolyRing(eq.field, eq.variables)
    det = det_cofactor(ring, eq.m)
    prod = eq.l_forms[0] * eq.l_forms[1] * eq.l_forms[2]
    return det + prod if eq.sign == 1 else det - prod


CUBIC_FIELDS = [QQ, PrimeField(2), PrimeField(101), cyclotomic3(QQ),
                cyclotomic3(PrimeField(5))]


@pytest.mark.parametrize("field", CUBIC_FIELDS, ids=lambda f: f.descriptor)
def test_cubic_polynomial_matches_cofactor_formula(field):
    rng = random.Random(31)
    z = [field.zero()] * 6
    samples = [diagonal_rows(field)]
    for _ in range(5):
        samples.append([[field.random(rng) for _ in range(6)]
                        for _ in range(12)])
    samples.append([z] * 9 + samples[1][9:])      # M = 0
    samples.append(samples[2][:9] + [z] * 3)      # L1 = L2 = L3 = 0
    for rows in samples:
        for sign in (1, -1):
            eq = NonSyzygeticEquation.from_coefficients(field, rows, sign)
            assert eq.cubic_polynomial() == reference_cubic(eq)


@pytest.mark.parametrize("field", CUBIC_FIELDS, ids=lambda f: f.descriptor)
def test_restricted_cubic_matches_substituted_cubic(field):
    # the pull-back along coeffs * a against the 6-variable cubic
    # substituted afterwards, on both signs
    rng = random.Random(37)
    for rows in ([[field.random(rng) for _ in range(6)] for _ in range(12)],
                 diagonal_rows(field)):
        for sign in (1, -1):
            eq = NonSyzygeticEquation.from_coefficients(field, rows, sign)
            for m in (3, 1, 6):
                a = Matrix.random(field, 6, m, rng)
                names = [f"s{j}" for j in range(m)]
                restricted = eq.cubic_polynomial(a, names)
                assert restricted == eq.cubic_polynomial().linear_substitution(a, names)
                assert restricted.variables == tuple(names)


@pytest.mark.parametrize("field", CUBIC_FIELDS, ids=lambda f: f.descriptor)
def test_cubic_value_matches_evaluation(field):
    # det M(x) + sign * L1 L2 L3(x) through the twelve forms, against the
    # expanded cubic evaluated at the point
    rng = random.Random(41)
    rows = [[field.random(rng) for _ in range(6)] for _ in range(12)]
    for sign in (1, -1):
        eq = NonSyzygeticEquation.from_coefficients(field, rows, sign)
        cubic = eq.cubic_polynomial()
        for _ in range(6):
            pt = [field.random(rng) for _ in range(6)]
            assert eq.cubic_value(pt) == cubic.evaluate(pt)
        assert eq.cubic_value([field.zero()] * 6) == field.zero()


def test_gale_dual_rejects_degenerate():
    field = QQ
    m0 = diagonal_rows(field)[:3]
    # make two equal matrix rows and L forms inside their span
    eq = NonSyzygeticEquation.from_coefficients(field, m0 * 3 + [m0[0]] * 3, 1)
    with pytest.raises(DegenerateTupleError):
        gale_dual(eq)


@pytest.mark.parametrize("fieldname", ["rationals", "prime:101"])
def test_gale_composition_and_double_dual(fieldname):
    from galecubics.fields import parse_field
    field = parse_field(fieldname)
    rng = random.Random(42)
    for _ in range(25):
        eq = NonSyzygeticEquation.random(field, rng)
        dual = gale_dual(eq)
        assert dual.sign == -eq.sign
        assert composition_is_zero(eq, dual)
        ddual = gale_dual(dual)
        assert (eq.coefficient_matrix().row_space()
                == ddual.coefficient_matrix().row_space())


def test_l_permutation_tracks_through_dual():
    # reordering the input L forms reorders the dual slots the same way: the
    # input cubic is unchanged, the permuted original dual still pairs to
    # zero with the permuted tuple, and the associated subspaces agree when
    # the choice of L form is carried through the permutation
    from galecubics.lagrangian import lagrangian_from_gale
    field = PrimeField(101)
    rng = random.Random(1)
    for _ in range(4):
        eq = NonSyzygeticEquation.random(field, rng)
        perm = [2, 0, 1]
        eq_perm = eq.permute_l_forms(perm)
        assert eq_perm.cubic_polynomial() == eq.cubic_polynomial()
        dual = gale_dual(eq)
        assert composition_is_zero(eq_perm, dual.permute_l_forms(perm))
        for j in range(3):
            a_orig, _ = lagrangian_from_gale(eq, perm[j] + 1)
            a_perm, _ = lagrangian_from_gale(eq_perm, j + 1)
            assert a_orig.same_subspace(a_perm)


def test_dual_cubic_nonzero_generically():
    field = PrimeField(101)
    rng = random.Random(2)
    hits = 0
    for _ in range(20):
        eq = NonSyzygeticEquation.random(field, rng)
        dual = gale_dual(eq)
        if not dual.cubic_polynomial().is_zero() and dual.is_valid():
            hits += 1
    assert hits >= 18   # generic behaviour, reported rather than guaranteed


def test_scroll_membership_actual_rows():
    field = QQ
    eq = diagonal_tuple(field)
    for i in (1, 2, 3):
        for pair in ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]],
                     [[0, 1, 0], [0, 0, 1]]):
            cert = scroll_membership(eq, i, pair)
            assert cert is not None


def test_scroll_membership_generalized_rows():
    field = PrimeField(101)
    rng = random.Random(3)
    for _ in range(5):
        eq = NonSyzygeticEquation.random(field, rng)
        t = field.random(rng)
        pair = [[field.one(), t, field.zero()],
                [field.zero(), field.one(), field.zero()]]
        assert scroll_membership(eq, 1, pair) is not None


def test_scroll_membership_rejects_dependent_rows():
    eq = diagonal_tuple(QQ)
    with pytest.raises(ValueError):
        scroll_membership(eq, 1, [[1, 2, 0], [2, 4, 0]])


def test_random_cubic_fails_scroll_membership():
    field = PrimeField(101)
    rng = random.Random(4)
    eq = NonSyzygeticEquation.random(field, rng)
    pair = [[field.one(), field.zero(), field.zero()],
            [field.zero(), field.one(), field.zero()]]
    other = NonSyzygeticEquation.random(field, rng)
    # check the other cubic against eq's scroll by evaluating at a scroll point
    pt = scroll_point(eq, 1, pair, rng)
    assert pt is not None
    assert field.is_zero(eq.cubic_polynomial().evaluate(pt))
    if not field.is_zero(other.cubic_polynomial().evaluate(pt)):
        factors = [(q, 1) for q in _scroll_minors(eq, pair)]
        factors.append((eq.l_forms[0], 2))
        from galecubics.gale import solve_multiplier_system
        assert solve_multiplier_system(field, eq.variables,
                                       other.cubic_polynomial(), factors) is None


def _scroll_minors(eq, rowpair):
    field = eq.field
    rows = []
    for coeffs in rowpair:
        row = []
        for j in range(3):
            acc = MultiPoly.zero(field, eq.variables)
            for r in range(3):
                acc = acc + eq.m[r][j].scale(coeffs[r])
            row.append(acc)
        rows.append(row)
    out = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        out.append(rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a])
    return out


def test_validity_flag():
    field = QQ
    eq = diagonal_tuple(field)
    assert eq.is_valid()
    l1 = eq.coeffs.data[9]
    eq = NonSyzygeticEquation.from_coefficients(
        field, eq.coeffs.data[:10] + [l1, [field.from_int(3) * c for c in l1]], 1)
    assert not eq.is_valid()


def change_coordinates_by_subs(eq, g, names):
    """Reference: substitute x_i -> sum_k g[i][k] y_k into every form."""
    images = [MultiPoly.linear_form(eq.field, names, g.data[i]) for i in range(6)]
    forms = [f for row in eq.m for f in row] + list(eq.l_forms)
    return NonSyzygeticEquation.from_coefficients(
        eq.field, [f.subs(images).linear_coefficients() for f in forms],
        eq.sign, names)


@pytest.mark.parametrize("field", [QQ, PrimeField(101), cyclotomic3(QQ)],
                         ids=lambda f: f.descriptor)
def test_change_coordinates_matches_substitution(field):
    rng = random.Random(37)
    renamed = ("Y0", "Y1", "Y2", "Y3", "Y4", "Y5")
    for n in range(10):
        eq = NonSyzygeticEquation.random(field, rng)
        rows = list(eq.coeffs.data)
        rows[3 * (n % 3) + (n + 1) % 3] = [field.zero()] * 6
        eq = NonSyzygeticEquation.from_coefficients(field, rows, eq.sign)
        g = Matrix.random(field, 6, 6, rng)
        for names in (DEFAULT_VARIABLES, renamed):
            variables = None if names is DEFAULT_VARIABLES else names
            got = eq.change_coordinates(g, variables)
            assert got == change_coordinates_by_subs(eq, g, names)
            assert got.m[n % 3][(n + 1) % 3].is_zero()


def test_tuple_is_its_coefficient_rows():
    import dataclasses
    field = PrimeField(101)
    eq = NonSyzygeticEquation.random(field, random.Random(5))
    assert [f.name for f in dataclasses.fields(eq)] == [
        "field", "variables", "coeffs", "sign"]
    assert eq.coefficient_matrix() == eq.coeffs.transpose()
    forms = [f for row in eq.m for f in row] + list(eq.l_forms)
    assert [f.linear_coefficients() for f in forms] == eq.coeffs.data
    with pytest.raises(TypeError):
        eq.m[0] = eq.m[1]
    with pytest.raises(TypeError):
        eq.l_forms[0] = eq.l_forms[1]
    with pytest.raises(AttributeError):
        eq.l_forms = ()
    with pytest.raises(ValueError):
        NonSyzygeticEquation.from_coefficients(field, eq.coeffs.data[:11], 1)
    with pytest.raises(ValueError):
        NonSyzygeticEquation.from_coefficients(
            field, eq.coeffs.data[:11] + [[1, 2, 3, 4, 5]], 1)


@pytest.mark.parametrize("field", [QQ, PrimeField(101), cyclotomic3(PrimeField(5))],
                         ids=lambda f: f.descriptor)
def test_m_product_matches_form_contraction(field):
    rng = random.Random(41)
    for _ in range(5):
        eq = NonSyzygeticEquation.random(field, rng)
        v = [field.random(rng) for _ in range(3)]
        right = [sum((eq.m[r][j].scale(v[j]) for j in range(3)),
                     MultiPoly.zero(field, eq.variables)) for r in range(3)]
        left = [sum((eq.m[r][j].scale(v[r]) for r in range(3)),
                    MultiPoly.zero(field, eq.variables)) for j in range(3)]
        assert eq.m_product(v).data == [f.linear_coefficients() for f in right]
        assert eq.m_product(v, left=True).data == [
            f.linear_coefficients() for f in left]


# -- the sparse solve against the dense row loop it replaced ---------------

def dense_solve_oracle(field, columns, target):
    """Exact solution of sum_j z_j * col_j = target over sparse columns keyed
    by arbitrary hashable row labels; incremental row elimination.  Verbatim
    the dense loop ``solve_sparse_combination`` ran before it shared
    ``sparse_echelon``."""
    rows = sorted({m for col in columns for m in col} | set(target))
    n = len(columns)
    pivots = {}  # pivot column -> reduced equation row
    zero, one = field.zero(), field.one()
    for label in rows:
        row = [col.get(label, zero) for col in columns]
        row.append(target.get(label, zero))
        for p in sorted(pivots):
            if not field.is_zero(row[p]):
                f = row[p]
                prow = pivots[p]
                row = [field.sub(a, field.mul(f, b)) for a, b in zip(row, prow)]
        lead = next((j for j in range(n) if not field.is_zero(row[j])), None)
        if lead is None:
            if not field.is_zero(row[n]):
                return None  # inconsistent equation 0 = c
            continue
        inv = field.inv(row[lead])
        pivots[lead] = [field.mul(inv, x) for x in row]
    # back substitution with free unknowns set to zero
    sol = [zero] * n
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        val = row[n]
        for j in range(p + 1, n):
            if not field.is_zero(row[j]) and not field.is_zero(sol[j]):
                val = field.sub(val, field.mul(row[j], sol[j]))
        sol[p] = val
    return sol


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)],
                         ids=lambda f: f.descriptor)
def test_sparse_solve_matches_dense_oracle(field):
    from galecubics.gale import solve_sparse_combination
    from galecubics.poly import monomials_of_degree
    rng = random.Random(41)
    labels = monomials_of_degree(4, 2)
    outcomes = {"solved": 0, "none": 0}
    for trial in range(60):
        columns = []
        for _ in range(rng.randint(0, 14)):
            if columns and rng.random() < 0.3:     # a dependent column
                a, b = rng.choice(columns), rng.choice(columns)
                col = {k: field.add(a.get(k, field.zero()), b.get(k, field.zero()))
                       for k in set(a) | set(b)}
            else:
                col = {k: field.random(rng)
                       for k in rng.sample(labels, rng.randint(0, 4))}
            columns.append({k: v for k, v in col.items() if not field.is_zero(v)})
        if trial % 2:
            # consistent: a combination of the columns
            target = {}
            for col in columns:
                c = field.random(rng)
                for k, v in col.items():
                    target[k] = field.add(target.get(k, field.zero()),
                                          field.mul(c, v))
        else:
            target = {k: field.random(rng) for k in rng.sample(labels, 3)}
        target = {k: v for k, v in target.items() if not field.is_zero(v)}
        expected = dense_solve_oracle(field, columns, target)
        got = solve_sparse_combination(field, columns, target)
        assert got == expected
        outcomes["none" if got is None else "solved"] += 1
        if got is not None:
            combo = {}
            for z, col in zip(got, columns):
                for k, v in col.items():
                    combo[k] = field.add(combo.get(k, field.zero()), field.mul(z, v))
            assert {k: v for k, v in combo.items() if not field.is_zero(v)} == target
    assert outcomes["none"] >= 10 and outcomes["solved"] >= 30
