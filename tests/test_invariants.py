import random

import pytest

from galecubics.exterior import ExteriorElement, from_frame_coordinates
from galecubics.fields import QQ, PrimeField
from galecubics.gale import NonSyzygeticEquation, composition_is_zero, gale_dual
from galecubics import cli, invariants, selftests
from galecubics.invariants import (LEX3_VARIABLES, PROJECTED_VARIABLES, big_cubics,
                                   coordinate_embedding,
                                   block_diagonal6, build_frame,
                                   generator_candidates,
                                   generator_invariance, invariance_report,
                                   project_cubics, sigma_quadric,
                                   trace_plus_product)
from galecubics.lagrangian import lagrangian_from_gale, swap_ef_matrix, validate
from galecubics.poly import MultiPoly, scalar_multiple

from conftest import random_unimodular3, reference_induced_grade3_matrix


def test_frame_first_functional_on_basis_vector():
    k = QQ
    frame = build_frame(k)
    # the (1,1) matrix entry takes value one on its own wedge basis vector
    vec = ExteriorElement.basis(k, (1, 2, 3))   # e2^e3^f1 as a vector
    assert frame.evaluate(0, vec) == k.one()
    l_e_vec = ExteriorElement.basis(k, (0, 1, 2))
    assert frame.evaluate(9, l_e_vec) == k.one()
    mixed = ExteriorElement.basis(k, (0, 1, 3))
    assert frame.evaluate(9, mixed) == k.zero()


def test_frame_evaluation_matrix_invertible():
    for field in (QQ, PrimeField(101)):
        assert build_frame(field).evaluation_matrix().rank() == 20


def test_sigma_identity_exact():
    for field in (QQ, PrimeField(97)):
        frame = build_frame(field)
        diff = sigma_quadric(field, frame) - trace_plus_product(field, frame)
        assert diff.is_zero()


def test_sigma_vanishes_on_pure_block_vectors():
    field = QQ
    rng = random.Random(0)
    sigma = sigma_quadric(field)
    for _ in range(10):
        coords = [field.random(rng) for _ in range(10)] + [field.zero()] * 10
        elem = from_frame_coordinates(field, coords)
        from galecubics.exterior import lex3_coordinates
        assert field.is_zero(sigma.evaluate(lex3_coordinates(elem)))


@pytest.mark.parametrize("fieldname", ["rationals", "prime:97"])
def test_invariance_under_unimodular_pairs(fieldname):
    from galecubics.fields import parse_field
    field = parse_field(fieldname)
    rng = random.Random(3)
    for _ in range(8):
        g = random_unimodular3(field, rng).data
        h = random_unimodular3(field, rng).data
        report = generator_invariance(field, g, h)
        assert report.all_invariant()


def test_non_unimodular_rejected_and_scaling_observed():
    field = QQ
    g = [[field.from_int(2), field.zero(), field.zero()],
         [field.zero(), field.one(), field.zero()],
         [field.zero(), field.zero(), field.one()]]
    ident = [[field.one() if i == j else field.zero() for j in range(3)]
             for i in range(3)]
    with pytest.raises(ValueError):
        generator_invariance(field, g, ident)
    report = invariance_report(field, g, ident)
    # bidegrees: det M_E has (6,3) so det(g)^2 = 4; L_E has (3,0) so det(g)
    assert report.scalars["det_M_E"] == field.from_int(4)
    assert report.scalars["L_E"] == field.from_int(2)
    assert report.scalars["L_F"] == field.one()
    assert report.scalars["det_M_F"] == field.from_int(2)


def reference_invariance_report(field, g, h):
    """The per-pair route: a fresh frame and candidates for every pair, the
    wedge action, one ``linear_substitution`` per candidate."""
    frame = build_frame(field)
    action = reference_induced_grade3_matrix(field, block_diagonal6(field, g, h),
                                             coords="lex3")
    candidates = {
        "L_E": frame.l_e(),
        "L_F": frame.l_f(),
        "trace": trace_plus_product(field, frame) - frame.l_e() * frame.l_f(),
        "det_M_E": frame.det_m(0),
        "det_M_F": frame.det_m(10),
        "sigma": sigma_quadric(field, frame),
    }
    return {name: scalar_multiple(poly.linear_substitution(action, LEX3_VARIABLES),
                                  poly)
            for name, poly in candidates.items()}


def test_invariance_report_matches_per_pair_route():
    rng = random.Random(19)
    for n in range(40):
        g = random_unimodular3(QQ, rng).data
        h = random_unimodular3(QQ, rng).data
        if n % 2:   # twist by a determinant so that the scalars leave one
            g = [[x * (n + 1) if j == 0 else x for j, x in enumerate(row)]
                 for row in g]
        got = invariance_report(QQ, g, h).scalars
        expected = reference_invariance_report(QQ, g, h)
        assert list(got.items()) == list(expected.items())


def test_cached_candidates_unchanged_by_reports():
    field = QQ
    rng = random.Random(2)
    cached = generator_candidates(field)
    fresh = generator_candidates.__wrapped__(field)
    assert all(cached[name] is not fresh[name] for name in fresh)
    for _ in range(2):
        invariance_report(field, random_unimodular3(field, rng).data,
                          random_unimodular3(field, rng).data)
        big_cubics(field)
    assert generator_candidates(field) is cached
    assert dict(cached) == dict(fresh)


def test_cached_big_cubics_unchanged_by_callers():
    from galecubics.gmlink import E_SIDE, F_SIDE, Z15Ideal, ideal_membership_deg3
    field = QQ
    cached = big_cubics(field)
    before = [dict(p.terms) for p in cached]
    eq = NonSyzygeticEquation.random(field, random.Random(3))
    for i in (1, 2, 3):
        assert project_cubics(*lagrangian_from_gale(eq, i))[2].ok()
    for cubic, side in zip(cached, (E_SIDE, F_SIDE)):
        assert ideal_membership_deg3(cubic, Z15Ideal.build(field, side).quadrics)
    assert big_cubics(field) is cached
    assert [dict(p.terms) for p in cached] == before
    frame = build_frame(field)
    sigma, two = sigma_quadric(field, frame), field.from_int(2)
    assert cached == (frame.det_m(0).scale(two) - sigma * frame.l_e(),
                      frame.det_m(10).scale(two) + sigma * frame.l_f())


def test_sigma_identity_checks_build_both_sides(monkeypatch, capsys):
    def no_cache(field):
        raise AssertionError("the identity check read the cached candidates")

    monkeypatch.setattr(invariants, "generator_candidates", no_cache)
    assert selftests.check_frame_identities()[0]
    assert cli.main(["invariants", "selftest"]) == 0
    capsys.readouterr()


def test_big_cubics_structure():
    field = QQ
    frame = build_frame(field)
    xt_e, xt_f = big_cubics(field)
    assert xt_e.is_homogeneous(3) and xt_f.is_homogeneous(3)
    # the two cubics satisfy their defining identities exactly
    from galecubics.linalg import det_cofactor
    from galecubics.poly import PolyRing
    ring = PolyRing(field, LEX3_VARIABLES)
    two = MultiPoly.constant(field, LEX3_VARIABLES, field.from_int(2))
    sigma = sigma_quadric(field, frame)
    assert xt_e == two * det_cofactor(ring, frame.m_e()) - sigma * frame.l_e()
    assert xt_f == two * det_cofactor(ring, frame.m_f()) + sigma * frame.l_f()


def test_big_cubics_invariant():
    field = PrimeField(97)
    rng = random.Random(5)
    xt_e, xt_f = big_cubics(field)
    from galecubics.exterior import induced_grade3_matrix
    for _ in range(5):
        g = random_unimodular3(field, rng).data
        h = random_unimodular3(field, rng).data
        action = induced_grade3_matrix(field, block_diagonal6(field, g, h),
                                       coords="lex3")
        assert xt_e.linear_substitution(action, LEX3_VARIABLES) == xt_e
        assert xt_f.linear_substitution(action, LEX3_VARIABLES) == xt_f


@pytest.mark.parametrize("fieldname", ["rationals", "prime:101"])
def test_projection_roundtrip(fieldname):
    from galecubics.fields import parse_field
    field = parse_field(fieldname)
    rng = random.Random(7)
    for trial in range(4):
        eq = NonSyzygeticEquation.random(field, rng)
        i = (trial % 3) + 1
        data, pres = lagrangian_from_gale(eq, i)
        eq_plus, eq_minus, report = project_cubics(data, pres)
        assert report.ok()
        assert composition_is_zero(eq_plus, eq_minus)
        # the plus output, in the normalising coordinates, is the normalised
        # input tuple; undoing the coordinate change recovers the original
        ginv = pres.g.inverse()
        back = eq_plus.cubic_polynomial().linear_substitution(
            ginv, pres.normalized_eq.variables)
        original_plus = eq if eq.sign == 1 else gale_dual(eq)
        assert scalar_multiple(back, original_plus.cubic_polynomial()) is not None


def test_projection_cone_property_without_presentation():
    field = PrimeField(101)
    rng = random.Random(8)
    eq = NonSyzygeticEquation.random(field, rng)
    data, _ = lagrangian_from_gale(eq, 1)
    eq_plus, eq_minus, report = project_cubics(data)
    assert report.cone_e_ok and report.cone_f_ok
    assert report.restriction_e_matches and report.restriction_f_matches


def test_swapping_blocks_swaps_outputs():
    # exchanging the two blocks of the six-space turns the E-side restriction
    # into the F-side restriction: with the transported adapted basis the two
    # pullbacks agree on the nose after relabelling the coordinate blocks
    from galecubics.exterior import lex3_coordinates
    from galecubics.lagrangian import adapted_presentation, swap_ef
    from galecubics.linalg import Matrix

    field = PrimeField(101)
    rng = random.Random(9)
    eq = NonSyzygeticEquation.random(field, rng)
    data, _ = lagrangian_from_gale(eq, 1)
    swapped = validate(field, swap_ef_matrix(data.matrix))
    assert swapped.a_e.cols == 4 and swapped.a_f.cols == 4
    from galecubics.linalg import same_column_span
    assert same_column_span(swapped.a_e, swap_ef_matrix(data.a_f))
    assert same_column_span(swapped.a_f, swap_ef_matrix(data.a_e))

    pres = adapted_presentation(data)
    basis = pres.adapted_basis()
    cols = [basis.column(j) for j in range(10)]
    transported = [swap_ef(field, c)
                   for c in cols[4:8] + cols[0:4] + cols[8:10]]

    def restrict(cubic, columns):
        cols_lex = [lex3_coordinates(from_frame_coordinates(field, c))
                    for c in columns]
        return cubic.linear_substitution(Matrix.from_columns(field, cols_lex),
                                         PROJECTED_VARIABLES)

    xt_e, xt_f = big_cubics(field)
    restricted_e = restrict(xt_e, cols)
    restricted_f_t = restrict(xt_f, transported)
    perm = [4, 5, 6, 7, 0, 1, 2, 3, 8, 9]
    assert restrict(xt_f, [transported[j] for j in perm]) == restricted_e


def test_coordinate_embedding_matches_variable_images():
    # the substitution of each variable by its X0..X9 coordinate variable
    field = PrimeField(101)
    rng = random.Random(12)
    for names in (("X4", "X5", "X6", "X7", "X8", "X9"),
                  ("X0", "X1", "X2", "X3", "X8", "X9")):
        eq = NonSyzygeticEquation.random(field, rng, variables=names)
        cubic = eq.cubic_polynomial()
        images = [MultiPoly.variable(field, PROJECTED_VARIABLES,
                                     PROJECTED_VARIABLES.index(v)) for v in names]
        assert (cubic.linear_substitution(coordinate_embedding(field, names),
                                          PROJECTED_VARIABLES)
                == cubic.subs(images))
