import random
from itertools import combinations

import pytest

from galecubics import epw
from galecubics.epw import (EPWPoint, LineCorrespondenceError,
                            ProjectiveSubspace, conic_covector,
                            contraction_matrix, epw_contains, epw_line_degree,
                            epw_points_on_line, epw_to_lines, fano_tuple,
                            harvest_epw_points, line_to_epw, pi_gamma,
                            residual_conic, rho_plane_condition,
                            sigma_plane_point, sigma_planes_disjoint,
                            sigma_prime_plane_point)
from galecubics.exterior import (CONTRACTION_ROWS, GRADE2_PAIRS, GRADE4_QUADS,
                                 ExteriorElement, frame_coordinates,
                                 from_frame_coordinates, orientation_pair)
from galecubics.fields import QQ, PrimeField, cyclotomic3
from galecubics.gale import NonSyzygeticEquation
from galecubics.lagrangian import lagrangian_from_gale
from galecubics.linalg import Matrix
from galecubics.poly import univariate_from_coeffs

from conftest import _divisor_by_elimination, _trim, univariate_divmod


FIELD = PrimeField(101)


def make_instance(seed, sign=1, i=1):
    rng = random.Random(seed)
    while True:
        eq = NonSyzygeticEquation.random(FIELD, rng)
        if eq.sign == sign:
            break
    data, pres = lagrangian_from_gale(eq, i)
    return eq, data, rng


def test_epw_point_normalization():
    p = EPWPoint.make(FIELD, [0, 2, 4, 0, 0, 6])
    assert p.coords[1] == 1
    with pytest.raises(ValueError):
        EPWPoint.make(FIELD, [0] * 6)
    with pytest.raises(ValueError):
        EPWPoint.make(FIELD, [1, 2, 3])


def test_projective_subspace_basics():
    names = tuple(f"X{i}" for i in range(6))
    plane = ProjectiveSubspace.from_forms(FIELD, names, [
        [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    assert plane.projective_dim() == 2
    line = ProjectiveSubspace.from_points(FIELD, names, [
        [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]])
    assert line.projective_dim() == 1
    assert plane.contains(line)
    assert line.contains_point([0, 0, 0, 5, 7, 0])


def test_coordinate_plane_points_are_members():
    eq, data, rng = make_instance(0)
    for _ in range(10):
        f = [FIELD.random(rng) for _ in range(3)]
        if all(FIELD.is_zero(c) for c in f):
            continue
        member, dim = epw_contains(data, sigma_plane_point(FIELD, f))
        assert member and dim >= 1
        e = [FIELD.random(rng) for _ in range(3)]
        if all(FIELD.is_zero(c) for c in e):
            continue
        member, dim = epw_contains(data, sigma_prime_plane_point(FIELD, e))
        assert member and dim >= 1


def test_generic_point_not_member():
    eq, data, rng = make_instance(1)
    misses = 0
    for _ in range(20):
        p = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
        member, dim = epw_contains(data, p)
        if not member:
            assert dim == 0
            misses += 1
    assert misses >= 15    # generic points miss the sextic


def test_rho_plane_condition():
    eq, data, rng = make_instance(2)
    e_span = Matrix.from_columns(FIELD, [[1, 0, 0, 0, 0, 0],
                                         [0, 1, 0, 0, 0, 0],
                                         [0, 0, 1, 0, 0, 0]])
    f_span = Matrix.from_columns(FIELD, [[0, 0, 0, 1, 0, 0],
                                         [0, 0, 0, 0, 1, 0],
                                         [0, 0, 0, 0, 0, 1]])
    assert rho_plane_condition(data, e_span) == (True, 4)
    assert rho_plane_condition(data, f_span) == (True, 4)
    while True:
        v3 = Matrix.random(FIELD, 6, 3, rng)
        if v3.rank() == 3:
            break
    ok, dim = rho_plane_condition(data, v3)
    assert not ok and dim == 0
    with pytest.raises(ValueError):
        rho_plane_condition(data, Matrix.zero(FIELD, 6, 3))


def test_sigma_planes_disjoint():
    assert sigma_planes_disjoint(FIELD)
    assert sigma_planes_disjoint(QQ)


def test_line_degree_six_and_root_match():
    eq, data, rng = make_instance(3)
    for _ in range(4):
        p0 = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
        p1 = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
        if p0.same_point(p1):
            continue
        poly = epw_line_degree(data, p0, p1)
        assert poly.total_degree() == 6
        roots = {t for t in FIELD.elements()
                 if FIELD.is_zero(poly.evaluate([t]))}
        scan = {t for t, _ in rank_scan_oracle(data, p0, p1) if t is not None}
        assert roots == scan


def test_line_inside_plane_gives_zero_polynomial():
    eq, data, rng = make_instance(4)
    p0 = sigma_plane_point(FIELD, [1, 2, 3])
    p1 = sigma_plane_point(FIELD, [5, 1, 4])
    assert epw_line_degree(data, p0, p1).is_zero()


def rank_scan_oracle(data, p0, p1):
    """Membership points of the pencil p0 + t*p1 from the rank of the
    contraction matrix C(p0) + t*C(p1) at every t in GF(p), then
    ``(None, p1)`` when C(p1) drops rank.  Test-only: the per-t route
    against which the roots of the determinant divisor are checked."""
    field = data.field
    c0 = contraction_matrix(data, p0.coords)
    c1 = contraction_matrix(data, p1.coords)
    out = []
    for t in field.elements():
        mat = Matrix(field, [[field.add(a, field.mul(t, b)) for a, b in zip(r0, r1)]
                             for r0, r1 in zip(c0.data, c1.data)])
        if mat.rank() < 10:
            out.append((t, EPWPoint.make(field, [field.add(a, field.mul(t, b))
                                                 for a, b in zip(p0.coords, p1.coords)])))
    if c1.rank() < 10:
        out.append((None, p1))
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_pencil_scan_matches_rank_scan(p):
    # every L choice on both signs; per instance three random pencils, one
    # with p1 on a coordinate plane (a member at t = infinity) and one
    # inside a coordinate plane (zero divisor: every t, then infinity)
    field = PrimeField(p)
    rng = random.Random(40 + p)
    pencils = []
    for n, (i, sign) in enumerate((i, s) for i in (1, 2, 3) for s in (1, -1)):
        while True:
            eq = NonSyzygeticEquation.random(field, rng)
            if eq.sign == sign:
                break
        data, _ = lagrangian_from_gale(eq, i)
        plane_point = sigma_plane_point if n % 2 else sigma_prime_plane_point
        while len(pencils) < 5 * n + 3:
            p0 = EPWPoint.make(field, [field.random(rng) for _ in range(6)])
            p1 = EPWPoint.make(field, [field.random(rng) for _ in range(6)])
            if not p0.same_point(p1):
                pencils.append((data, p0, p1))
        pencils.append((data, p0, plane_point(field, [3, 1, 4])))
        pencils.append((data, plane_point(field, [1, 0, 2]),
                        plane_point(field, [0, 1, 5])))
    outputs = []
    for data, p0, p1 in pencils:
        got = epw_points_on_line(data, p0, p1)
        assert got == rank_scan_oracle(data, p0, p1)
        outputs.append([t for t, _ in got])
    everything = list(field.elements()) + [None]
    assert len(pencils) == 30
    assert outputs[4::5] == [everything] * 6
    assert all(ts and ts[-1] is None and len(ts) <= 6 for ts in outputs[3::5])
    assert any(t is not None for ts in outputs[0::5] for t in ts)


def univariate_coeffs(p):
    """Coefficient list (low degree first) of a univariate ``MultiPoly``."""
    if len(p.variables) != 1:
        raise ValueError("not univariate")
    k = p.field
    out = [k.zero()] * (p.total_degree() + 1)
    for mono, c in p.terms.items():
        out[mono[0]] = c
    return out


def univariate_gcd(field, a, b):
    """Monic gcd of univariate coefficient lists ([] encodes the zero poly)."""
    fa, fb = _trim(field, list(a)), _trim(field, list(b))
    while fb:
        fa, fb = fb, univariate_divmod(field, fa, fb)[1]
    if fa:
        inv = field.inv(fa[-1])
        fa = [field.mul(inv, c) for c in fa]
    return fa


def lagrange_interpolate(field, points):
    """Coefficients (low first) of the unique poly of degree < len(points)."""
    k = field
    result = [k.zero()] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [k.one()]
        denom = k.one()
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            # basis *= (x - xj)
            nxt = [k.zero()] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d + 1] = k.add(nxt[d + 1], c)
                nxt[d] = k.sub(nxt[d], k.mul(xj, c))
            basis = nxt
            denom = k.mul(denom, k.sub(xi, xj))
        f = k.div(yi, denom)
        for d, c in enumerate(basis):
            result[d] = k.add(result[d], k.mul(f, c))
    return _trim(field, result)


def test_univariate_gcd():
    rng = random.Random(11)
    for _ in range(20):
        a = [FIELD.random(rng) for _ in range(3)] + [FIELD.one()]
        b = [FIELD.random(rng) for _ in range(2)] + [FIELD.one()]
        c = [FIELD.random(rng) for _ in range(2)] + [FIELD.one()]
        pa = univariate_from_coeffs(FIELD, "t", a)
        pb = univariate_from_coeffs(FIELD, "t", b)
        pc = univariate_from_coeffs(FIELD, "t", c)
        g = univariate_gcd(FIELD, univariate_coeffs(pa * pb),
                           univariate_coeffs(pa * pc))
        # gcd is divisible by a (maybe more if b, c share factors)
        ga = univariate_gcd(FIELD, g, univariate_coeffs(pa))
        assert len(ga) == len(a)


def test_lagrange_interpolation():
    rng = random.Random(13)
    for deg in (0, 1, 3, 6):
        coeffs = [FIELD.random(rng) for _ in range(deg)] + [FIELD.one()]
        p = univariate_from_coeffs(FIELD, "t", coeffs)
        points = [(FIELD.from_int(i), p.evaluate([FIELD.from_int(i)]))
                  for i in range(deg + 1)]
        assert lagrange_interpolate(FIELD, points) == coeffs


def _minor_schedule(pivot_set):
    """Column subsets of size 10 out of 15: a pivot basis first, then its
    single-column exchanges, then all remaining subsets in lexicographic
    order (exchange neighbours of a basis kill accidental common factors
    fastest)."""
    seen = {}
    if pivot_set is not None:
        seen[pivot_set] = None
        complement = [b for b in range(15) if b not in pivot_set]
        for a in pivot_set:
            for b in complement:
                seen[tuple(sorted(set(pivot_set) - {a} | {b}))] = None
    for subset in combinations(range(15), 10):
        seen[subset] = None
    return list(seen)


def pairing_matrix(data, covector):
    """10 x 15 matrix pairing the subspace basis against the contractions of
    the grade-4 basis; rank drop is equivalent to membership.  Test-only:
    the oracle's own matrix, built independently of the contraction."""
    field = data.field
    basis_elems = [from_frame_coordinates(field, data.matrix.column(j))
                   for j in range(10)]
    contracted = [ExteriorElement(field, 4, {t: field.one()}).contract(list(covector))
                  for t in GRADE4_QUADS]
    return Matrix(field, [[orientation_pair(a, c) for c in contracted]
                          for a in basis_elems])


# pairing_matrix(data, c) column j is PAIRING_SIGNS[j] times column 14 - j
# of contraction_matrix(data, c).transpose(), for every subspace and covector
PAIRING_SIGNS = (-1, 1, -1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1)


@pytest.mark.parametrize("field", [FIELD, QQ], ids=lambda f: f.descriptor)
def test_pairing_is_the_signed_reversed_contraction(field):
    rng = random.Random(24)
    for i in (1, 2, 3):
        data, _ = lagrangian_from_gale(NonSyzygeticEquation.random(field, rng), i)
        for _ in range(4):
            c = [field.random(rng) for _ in range(6)]
            pairing = pairing_matrix(data, c)
            contraction = contraction_matrix(data, c).transpose()
            for j, sign in enumerate(PAIRING_SIGNS):
                expected = contraction.column(14 - j)
                if sign < 0:
                    expected = [field.neg(x) for x in expected]
                assert pairing.column(j) == expected


def minor_gcd_oracle(data, p0, p1, degree):
    """Running monic gcd of the 10x10 minors of the pairing matrix along
    p0 + t*p1, each interpolated from its values at t = 0..10, taken until
    the gcd has the given degree or every subset has been used.  Test-only:
    an independent route to the determinant divisor."""
    field = data.field
    samples = [field.from_int(t) for t in range(11)]
    m0 = pairing_matrix(data, p0.coords)
    mdiff = pairing_matrix(data, [field.add(a, b) for a, b in
                                  zip(p0.coords, p1.coords)]) - m0
    matrices = [m0 + mdiff.scale(t) for t in samples]
    pivot_set = None
    for mat in matrices:
        _, pivots = mat.rref()
        if len(pivots) == 10:
            pivot_set = tuple(pivots)
            break
    gcd = []
    for subset in _minor_schedule(pivot_set):
        values = [(t, mat.submatrix(range(10), subset).det())
                  for t, mat in zip(samples, matrices)]
        gcd = univariate_gcd(field, gcd,
                             lagrange_interpolate(field, values))
        if gcd and len(gcd) - 1 == degree:
            break
    return gcd


def test_line_degree_matches_determinant_divisor():
    # the determinant divisor (unimodular elimination over k[t]) against the
    # gcd of the maximal minors themselves
    pencils = []
    for seed in (22, 23):
        eq, data, rng = make_instance(seed)
        for _ in range(3):
            p0 = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
            p1 = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
            pencils.append((data, p0, p1))
        # p1 on the locus: a root at t = infinity, degree five
        member = next(pt for t, pt in epw_points_on_line(data, p0, p1)
                      if t is not None)
        pencils.append((data, p0, member))
        # through a point of either coordinate plane at t = 0 (the oracle
        # needs about 1,900 subsets on the first, 152 on the second)
        plane_point = sigma_plane_point if seed == 22 else sigma_prime_plane_point
        pencils.append((data, plane_point(FIELD, [3, 1, 4]), p1))
    degrees = []
    for data, p0, p1 in pencils:
        coeffs = univariate_coeffs(epw_line_degree(data, p0, p1))
        degrees.append(len(coeffs) - 1)
        assert coeffs == minor_gcd_oracle(data, p0, p1, len(coeffs) - 1)
    assert degrees.count(6) >= 8 and degrees.count(5) >= 2
    assert degrees[3::5] == [5, 5]


@pytest.mark.parametrize("field", [PrimeField(7), FIELD, QQ],
                         ids=lambda f: f.descriptor)
def test_constant_reduction_matches_elimination(field):
    # every L choice on both signs; per instance random pencils, and either
    # p1 on a coordinate plane (a root at t = infinity, so the pencil is
    # re-based) or the pencil inside a coordinate plane (zero divisor, seven
    # members); over QQ the pencils have small integer coordinates and there
    # is one random pencil per instance, since the elimination oracle takes
    # about 0.3 s on each
    rng = random.Random(60 + field.characteristic)
    coordinate = (lambda: field.from_int(rng.randint(-3, 3))) if field == QQ else (
        lambda: field.random(rng))
    per_instance = 1 if field == QQ else 3
    pencils = []
    for n, (i, sign) in enumerate((i, s) for i in (1, 2, 3) for s in (1, -1)):
        while True:
            eq = NonSyzygeticEquation.random(field, rng)
            if eq.sign == sign:
                break
        data, _ = lagrangian_from_gale(eq, i)
        while len(pencils) < (per_instance + 1) * n + per_instance:
            p0, p1 = (EPWPoint.make(field, [coordinate() for _ in range(6)])
                      for _ in range(2))
            if not p0.same_point(p1):
                pencils.append((data, p0, p1))
        plane = [field.from_int(x) for x in (3, 1, 4, 0, 1, 5)]
        if n % 2:
            pencils.append((data, p0, sigma_plane_point(field, plane[:3])))
        else:
            pencils.append((data, sigma_prime_plane_point(field, plane[:3]),
                            sigma_prime_plane_point(field, plane[3:])))
    degrees, members = [], []
    for data, p0, p1 in pencils:
        got = epw_line_degree(data, p0, p1)
        expected = _divisor_by_elimination(
            data.field, contraction_matrix(data, p0.coords).transpose(),
            contraction_matrix(data, p1.coords).transpose())
        assert (univariate_coeffs(got) == expected) if expected else got.is_zero()
        degrees.append(len(expected) - 1)
        members.append(epw_contains(data, p1)[0])
        assert (degrees[-1] < 6) == members[-1]
    assert False in members and True in members
    step = per_instance + 1
    assert all(d == 6 for d, member in zip(degrees, members) if not member)
    assert degrees[per_instance::2 * step] == [-1] * 3
    assert degrees[per_instance + step::2 * step] == [5] * 3


@pytest.mark.parametrize("p", [3, 5])
def test_swapped_pencil_matches_elimination(p):
    # the first seeded pencil whose points p1 + c*p0 are all members and p0
    # is not: only the swapped pencil p1 + u*p0 reaches its divisor
    field = PrimeField(p)
    rng = random.Random(f"swap:{p}")
    for _ in range(200):
        try:
            data, _ = lagrangian_from_gale(NonSyzygeticEquation.random(field, rng), 1)
            p0, p1 = (EPWPoint.make(field, [field.random(rng) for _ in range(6)])
                      for _ in range(2))
        except ValueError:
            continue
        shifted = [[field.add(b, field.mul(c, a)) for a, b in zip(p0.coords, p1.coords)]
                   for c in field.elements()]
        if (not epw_contains(data, p0)[0]
                and all(contraction_matrix(data, q).rank() < 10 for q in shifted)):
            break
    else:
        pytest.fail("no pencil needs the swap")
    expected = _divisor_by_elimination(
        field, contraction_matrix(data, p0.coords).transpose(),
        contraction_matrix(data, p1.coords).transpose())
    assert univariate_coeffs(epw_line_degree(data, p0, p1)) == expected
    assert len(expected) < 7


def test_line_degree_is_undecided_on_a_plane_over_gf5():
    # every point of P^1(GF(5)) on the pencil is a member, and a nonzero
    # sextic can vanish at all six of them
    field = PrimeField(5)
    data, _ = lagrangian_from_gale(
        NonSyzygeticEquation.random(field, random.Random(4)), 1)
    p0 = sigma_plane_point(field, [1, 2, 3])
    p1 = sigma_plane_point(field, [0, 1, 4])
    with pytest.raises(ValueError, match="undecided"):
        epw_line_degree(data, p0, p1)
    assert [t for t, _ in epw_points_on_line(data, p0, p1)] == [0, 1, 2, 3, 4, None]


def test_line_through_plane_point_has_that_root():
    eq, data, rng = make_instance(17)
    p0 = sigma_plane_point(FIELD, [3, 1, 4])      # on the locus at t = 0
    p1 = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
    poly = epw_line_degree(data, p0, p1)
    assert not poly.is_zero()
    assert FIELD.is_zero(poly.evaluate([FIELD.zero()]))


def test_line_degree_rejects_coincident_points():
    eq, data, rng = make_instance(5)
    p = EPWPoint.make(FIELD, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        epw_line_degree(data, p, p)
    with pytest.raises(ValueError):
        epw_points_on_line(data, p, p)
    # the scan lists the points of GF(p) and has no analogue over QQ
    data, _ = lagrangian_from_gale(NonSyzygeticEquation.random(QQ, rng), 1)
    with pytest.raises(ValueError, match="prime field"):
        epw_points_on_line(data, EPWPoint.make(QQ, [1, 2, 3, 4, 5, 6]),
                           EPWPoint.make(QQ, [0, 1, 0, 0, 0, 0]))


def test_pi_gamma_structure():
    eq, data, rng = make_instance(6)
    p = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
    pg = pi_gamma(eq, 1, p)
    assert pg.gamma.forms.vstack(pg.pi.forms).rank() == pg.gamma.forms.rows
    assert pg.pi.contains(pg.gamma)
    # the line lies on the cubic
    plus = fano_tuple(eq, 1)
    cubic = plus.cubic_polynomial()
    pts = pg.gamma.parametrization()
    for j in range(pts.cols):
        assert FIELD.is_zero(cubic.evaluate(pts.column(j)))
    mixed = [FIELD.add(pts.column(0)[r], pts.column(1)[r]) for r in range(6)]
    assert FIELD.is_zero(cubic.evaluate(mixed))


def test_pi_gamma_degenerate_inputs():
    eq, data, rng = make_instance(7)
    with pytest.raises(ValueError):
        pi_gamma(eq, 1, sigma_plane_point(FIELD, [1, 0, 0]))   # e = 0
    # f = 0 makes the coordinate line degenerate
    pg = pi_gamma(eq, 1, sigma_prime_plane_point(FIELD, [1, 2, 3]))
    assert not pg.gamma_is_line


@pytest.mark.parametrize("sign", [1, -1])
def test_conic_singular_exactly_on_members(sign):
    eq, data, rng = make_instance(8 + sign, sign=sign)
    points = harvest_epw_points(eq, 1, data, rng, 8)
    assert len(points) == 8
    for hp in points:
        conic = residual_conic(eq, 1, hp.point)
        assert FIELD.is_zero(conic.det())
        assert conic.rank() <= 2
    tested = 0
    while tested < 8:
        p = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
        if epw_contains(data, conic_covector(eq, p))[0]:
            continue
        try:
            conic = residual_conic(eq, 1, p)
        except ValueError:
            continue
        assert not FIELD.is_zero(conic.det())
        tested += 1


def test_conic_quadric_matches_division():
    eq, data, rng = make_instance(10)
    p = EPWPoint.make(FIELD, [FIELD.random(rng) for _ in range(6)])
    conic = residual_conic(eq, 1, p)
    # line_form * quadric = restricted cubic, re-checked at sample points
    plus = fano_tuple(eq, 1)
    cubic = plus.cubic_polynomial()
    for _ in range(8):
        s = [FIELD.random(rng) for _ in range(3)]
        ambient = conic.parametrization.apply_to_vector(s)
        lhs = cubic.evaluate(ambient)
        rhs = FIELD.mul(conic.line_form.evaluate(s), conic.quadric.evaluate(s))
        assert lhs == rhs


@pytest.mark.parametrize("sign", [1, -1])
def test_fano_roundtrip(sign):
    eq, data, rng = make_instance(12 + sign, sign=sign)
    points = harvest_epw_points(eq, 1, data, rng, 12)
    splits = 0
    for hp in points:
        result = epw_to_lines(eq, 1, hp.point)
        if result.lines is None:
            assert result.discriminant is not None
            continue
        splits += 1
        for line in result.lines:
            assert line.projective_dim() == 1
            back = line_to_epw(eq, 1, line)
            assert back.same_point(hp.point)
    assert splits >= 3


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_every_l_choice_on_both_signs(i, sign):
    # a minus tuple folds its sign into L_i itself, so the conic at a
    # membership point is singular and the line round trip is exact for
    # every choice of L, not only L1
    eq, data, rng = make_instance(30 + i, sign=sign, i=i)
    points = harvest_epw_points(eq, i, data, rng, 4)
    assert len(points) == 4
    roundtrips = 0
    for hp in points:
        assert FIELD.is_zero(residual_conic(eq, i, hp.point).det())
        split = epw_to_lines(eq, i, hp.point)
        for line in split.lines or ():
            assert line_to_epw(eq, i, line).same_point(hp.point)
            roundtrips += 1
    assert roundtrips >= 2


def test_line_to_epw_error_reporting():
    eq, data, rng = make_instance(14)
    plus = fano_tuple(eq, 1)
    names = eq.variables
    # a random line not on the cubic
    while True:
        pts = [[FIELD.random(rng) for _ in range(6)] for _ in range(2)]
        line = ProjectiveSubspace.from_points(FIELD, names, pts)
        if line.projective_dim() == 1:
            break
    with pytest.raises(LineCorrespondenceError):
        line_to_epw(eq, 1, line)
    # a line inside the hyperplane: pick two points of the coordinate line
    points = harvest_epw_points(eq, 1, data, rng, 3)
    pg = pi_gamma(eq, 1, points[0].point)
    gamma_pts = pg.gamma.parametrization()
    inside = ProjectiveSubspace.from_points(
        FIELD, names, [gamma_pts.column(0), gamma_pts.column(1)])
    with pytest.raises(LineCorrespondenceError) as err:
        line_to_epw(eq, 1, inside)
    assert "hyperplane" in str(err.value) or "rank" in str(err.value)


def test_double_line_case_returns_equal_lines():
    # a pinned witness over GF(7): a membership point of nullity two whose
    # residual conic has rank one, so it comes back as a doubled line
    gf7 = PrimeField(7)
    eq = NonSyzygeticEquation.random(gf7, random.Random(1))
    assert eq.sign == 1
    data = lagrangian_from_gale(eq, 1)[0]
    point = EPWPoint.make(gf7, [1, 0, 0, 5, 0, 0])
    assert conic_covector(eq, point) is point
    assert epw_contains(data, point) == (True, 2)
    assert pi_gamma(eq, 1, point).generic()
    conic = residual_conic(eq, 1, point)
    assert conic.rank() == 1
    result = epw_to_lines(eq, 1, point)
    assert result.lines is not None
    assert result.lines[0].same_subspace(result.lines[1])
    assert result.discriminant == 0
    assert line_to_epw(eq, 1, result.lines[0]).same_point(point)


def test_nonsquare_discriminant_reported():
    # a pinned witness over GF(7), on the tuple of the double-line witness:
    # a membership point of nullity one whose residual conic has rank two
    # and the non-square discriminant 3, so its lines are not over GF(7)
    gf7 = PrimeField(7)
    eq = NonSyzygeticEquation.random(gf7, random.Random(1))
    data = lagrangian_from_gale(eq, 1)[0]
    point = EPWPoint.make(gf7, [1, 0, 0, 0, 1, 0])
    assert conic_covector(eq, point) is point
    assert epw_contains(data, point) == (True, 1)
    assert pi_gamma(eq, 1, point).generic()
    result = epw_to_lines(eq, 1, point)
    assert result.conic.rank() == 2
    assert result.lines is None
    assert result.discriminant == 3 and gf7.sqrt(3) is None
    assert result.singular_point == result.conic.singular_point_in_ambient()


def reference_contraction_matrix(data, covector):
    """``contraction_matrix`` as it was before the sign pattern: each
    spanning column read back into the exterior algebra, contracted with
    the covector and read off in the grade-2 wedge basis."""
    field = data.field
    cols = []
    for j in range(data.matrix.cols):
        elem = from_frame_coordinates(field, data.matrix.column(j))
        cols.append(elem.contract(list(covector)).coordinates(GRADE2_PAIRS))
    return Matrix.from_columns(field, cols)


@pytest.mark.parametrize("field", [FIELD, QQ, cyclotomic3(QQ)],
                         ids=lambda k: k.descriptor)
def test_contraction_sign_pattern_matches_exterior_contraction(field):
    from galecubics.lagrangian import RhoLagrangianData
    rng = random.Random(f"contract:{field.descriptor}")
    subspaces = [Matrix.random(field, 20, 10, rng) for _ in range(2)]
    subspaces.append(lagrangian_from_gale(
        NonSyzygeticEquation.random(field, rng), 1)[0].matrix)
    for matrix in subspaces:
        data = RhoLagrangianData(field, matrix, None, None)
        for n in range(6):
            covector = [field.random(rng) for _ in range(6)]
            for k in rng.sample(range(6), n):
                covector[k] = field.zero()
            fast = contraction_matrix(data, covector)
            assert fast == reference_contraction_matrix(data, covector)
            assert (fast.rows, fast.cols) == (15, 10)
    assert sum(map(len, CONTRACTION_ROWS)) == 60


def random_decomposable(field, rng):
    """Frame coordinates of a random nonzero product of three vectors."""
    while True:
        vs = [ExteriorElement.vector(field, [field.random(rng) for _ in range(6)])
              for _ in range(3)]
        w = vs[0].wedge(vs[1]).wedge(vs[2])
        if not w.is_zero():
            return frame_coordinates(w)


def planted_decomposable(data, rng):
    """The subspace data with its first spanning column replaced by a
    random decomposable vector."""
    from galecubics.lagrangian import RhoLagrangianData
    field = data.field
    cols = ([random_decomposable(field, rng)]
            + [data.matrix.column(j) for j in range(1, 10)])
    return RhoLagrangianData(field, Matrix.from_columns(field, cols),
                             data.a_e, data.a_f)


def reference_decomposability_quadrics(data):
    """``decomposability_quadrics`` as it was before the pull-back: the 270
    grade-4 coefficients of (contraction of x by e_i* then e_j*) wedge x
    built over the polynomial ring in ``a0..a9``, zeros dropped, the first
    of each pair equal up to sign kept.  Test-only oracle."""
    from galecubics.exterior import GRADE3_TRIPLES, lex3_coordinates
    from galecubics.poly import MultiPoly, PolyRing
    field = data.field
    avars = epw.AVARS
    ring = PolyRing(field, avars)
    cols_lex = [lex3_coordinates(from_frame_coordinates(field, data.matrix.column(j)))
                for j in range(10)]
    terms = {}
    for idx, triple in enumerate(GRADE3_TRIPLES):
        form = MultiPoly.linear_form(field, avars, [cols_lex[j][idx] for j in range(10)])
        if not form.is_zero():
            terms[triple] = form
    x = ExteriorElement(ring, 3, terms)
    quadrics, seen = [], set()
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            cov_i = [MultiPoly.constant(field, avars, field.one() if k == i else field.zero())
                     for k in range(6)]
            cov_j = [MultiPoly.constant(field, avars, field.one() if k == j else field.zero())
                     for k in range(6)]
            z = x.contract(cov_j).contract(cov_i).wedge(x)
            for quad in GRADE4_QUADS:
                q = z.terms.get(quad)
                if q is None or q.is_zero():
                    continue
                key, neg = frozenset(q.terms.items()), frozenset((-q).terms.items())
                if key in seen or neg in seen:
                    continue
                seen.add(key)
                quadrics.append(q)
    return quadrics


@pytest.mark.parametrize("field", [PrimeField(101), PrimeField(7), QQ],
                         ids=lambda k: k.descriptor)
def test_decomposability_quadrics_match_ring_construction(field):
    from galecubics.epw import decomposability_quadrics
    rng = random.Random(f"quadrics:{field.descriptor}")
    cases = []
    for choice in (1, 2):
        eq = NonSyzygeticEquation.random(field, rng)
        cases.append(lagrangian_from_gale(eq, choice)[0])
    # the planted case: a decomposable vector among the spanning columns
    cases.append(planted_decomposable(cases[0], rng))
    for data in cases:
        got = decomposability_quadrics(data)
        assert got and got == reference_decomposability_quadrics(data)


def test_decomposable_vector_groebner_certificate():
    from galecubics.epw import decomposable_vector_check
    eq, data, rng = make_instance(18)
    report = decomposable_vector_check(data)
    assert report.method == "groebner"
    assert report.certified_none and report.passed()
    # negative control: a planted decomposable vector leaves a cone that is
    # not the origin alone, a definite answer over a prime field
    planted = decomposable_vector_check(planted_decomposable(data, rng))
    assert not planted.certified_none and planted.found_decomposable
    assert not planted.passed()


def test_decomposable_vector_groebner_certificate_over_rationals():
    from galecubics.epw import decomposable_vector_check
    rng = random.Random(18)
    eq = NonSyzygeticEquation.random(QQ, rng)
    data, _ = lagrangian_from_gale(eq, 1)
    report = decomposable_vector_check(data)
    assert report.certified_none and not report.found_decomposable
    assert " mod 101" in report.detail
    # a prime reduction that does not certify never claims a decomposable
    # vector over the rationals
    planted = decomposable_vector_check(planted_decomposable(data, rng))
    assert not planted.certified_none and not planted.found_decomposable
    assert planted.detail.startswith("inconclusive")


def test_decomposable_quadrics_vanish_exactly_on_decomposables():
    from galecubics.epw import decomposability_quadrics
    from galecubics.lagrangian import RhoLagrangianData
    eq, data, rng = make_instance(19)
    quadrics = decomposability_quadrics(data)
    assert quadrics
    for q in quadrics:
        assert q.is_homogeneous(2)
    # build the same quadrics for a spanning set whose first column is a
    # decomposable vector: they all vanish at the first coordinate point
    w = random_decomposable(FIELD, rng)
    cols = [w] + [data.matrix.column(j) for j in range(9)]
    fake = RhoLagrangianData(FIELD, Matrix.from_columns(FIELD, cols),
                             data.a_e, data.a_f)
    planted = decomposability_quadrics(fake)
    e0 = [FIELD.one()] + [FIELD.zero()] * 9
    assert all(FIELD.is_zero(q.evaluate(e0)) for q in planted)
    # while a generic subspace member is not decomposable
    generic = [FIELD.one()] * 10
    assert any(not FIELD.is_zero(q.evaluate(generic)) for q in quadrics)


def test_decomposable_elimination_truncated_is_inconclusive():
    from galecubics.epw import decomposable_vector_check
    eq, data, rng = make_instance(20)
    report = decomposable_vector_check(data, method="elimination", max_degree=3)
    assert not report.certified_none
    assert not report.found_decomposable
    assert "inconclusive" in report.detail


def random_sparse_columns(field, rng, labels):
    """Sparse columns on four random labels each, some of them sums of
    earlier ones."""
    columns = []
    for _ in range(rng.randint(1, 30)):
        if columns and rng.random() < 0.3:
            a, b = rng.choice(columns), rng.choice(columns)
            col = {k: field.add(a.get(k, field.zero()), b.get(k, field.zero()))
                   for k in set(a) | set(b)}
        else:
            col = {k: field.random(rng) for k in rng.sample(labels, 4)}
        columns.append({k: v for k, v in col.items() if not field.is_zero(v)})
    return columns


def test_sparse_column_rank_matches_dense_rank():
    from galecubics.linalg import sparse_echelon
    from galecubics.poly import monomials_of_degree
    rng = random.Random(22)
    labels = monomials_of_degree(4, 3)
    for field in (PrimeField(2), FIELD):
        for trial in range(12):
            columns = random_sparse_columns(field, rng, labels)
            dense = Matrix.from_columns(field, [[col.get(k, field.zero()) for k in labels]
                                                for col in columns])
            assert len(sparse_echelon(field, columns)) == dense.rank()
            cap = rng.randint(1, 5)
            assert len(sparse_echelon(field, columns, cap)) == min(cap, dense.rank())


@pytest.mark.parametrize("p", [2, 3, 101])
def test_sparse_echelon_int_branch_matches_generic_loop(p):
    from galecubics.linalg import _sparse_echelon_generic, sparse_echelon
    from galecubics.poly import monomials_of_degree
    field = PrimeField(p)
    rng = random.Random(f"sparse:{p}")
    labels = monomials_of_degree(4, 3)
    pivoted = 0
    for trial in range(16):
        columns = random_sparse_columns(field, rng, labels)
        # unreduced and negative entries, an all-zero column (empty, or
        # with entries that are 0 mod p), a duplicated column
        columns = [{k: v + p * rng.randint(-2, 2) if rng.random() < 0.5 else v - p
                    for k, v in col.items()} for col in columns]
        columns[0][labels[0]] = p + 3
        columns.insert(rng.randrange(len(columns) + 1),
                       {} if trial % 2 else {labels[1]: p, labels[2]: -2 * p})
        columns.append(dict(rng.choice(columns)))
        for cap in (None, 0, 1, rng.randint(2, 6)):
            got = sparse_echelon(field, columns, cap)
            expected = _sparse_echelon_generic(field, columns, cap)
            # the same pivot labels, found in the same order, the same vectors
            assert list(got) == list(expected)
            assert got == expected
        pivoted += len(got)
    assert pivoted > 0


# Reduced degrevlex basis of the 45 decomposability quadrics of
# make_instance(21) in 10 variables over GF(101), pinned from the engine
# before monomials were packed: the sha256 of
# repr(sorted(sorted(g.terms.items()) for g in gb)).
DECOMPOSABILITY_BASIS = (
    66, "c292632c21fd5c4f3318923af9c3dc707e01c23a24592755866a5da17d99eb76")


def test_decomposability_basis_is_pinned():
    import hashlib
    from galecubics.epw import decomposability_quadrics
    from galecubics.groebner import buchberger, is_zero_dim_cone
    eq, data, rng = make_instance(21)
    quadrics = decomposability_quadrics(data)
    assert len(quadrics) == 45
    gb = buchberger(quadrics)
    terms = sorted(sorted(g.terms.items()) for g in gb.generators)
    digest = hashlib.sha256(repr(terms).encode()).hexdigest()
    assert (len(gb.generators), digest) == DECOMPOSABILITY_BASIS
    assert is_zero_dim_cone(gb)


@pytest.mark.slow
def test_decomposable_elimination_certifies_at_degree_five():
    from galecubics.epw import decomposable_vector_check
    eq, data, rng = make_instance(21)
    report = decomposable_vector_check(data, method="elimination", max_degree=5)
    assert report.certified_none
    # the Groebner certificate, an independent route, agrees
    assert decomposable_vector_check(data, method="groebner").certified_none


def conjugate_lines_tuple(field):
    """A plus tuple whose conic at p = (e1, e1) is two lines conjugate over
    QQ(sqrt 2).  The plane of p is cut out by M11 + L1, M21 and M31; make
    them forms in X3, X4, X5, so the plane is X3 = X4 = X5 = 0.  There
    det M = -L1 (M22 M33 - M23 M32), and the residual conic is
    L2 L3 - M22 M33 + M23 M32, which the X0..X2 parts below make
    X1^2 - 2 X2^2.  Every other coefficient is seeded."""
    rng = random.Random(0)
    rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(12)]
    m11, m21, m22, m23, m31, m33, l1, l2, l3 = 0, 3, 4, 5, 6, 8, 9, 10, 11
    for k in (m21, m31):
        rows[k] = [0, 0, 0] + [rng.randint(-2, 2) for _ in range(3)]
    rows[m11] = [-c for c in rows[l1][:3]] + [
        rng.randint(-2, 2) - c for c in rows[l1][3:]]
    for k, head in ((l2, [0, 1, 0]), (l3, [0, 1, 0]), (m22, [0, 0, 1]),
                    (m33, [0, 0, 2]), (m23, [0, 0, 0])):
        rows[k][:3] = head
    return NonSyzygeticEquation.from_coefficients(
        field, [[field.from_int(c) for c in row] for row in rows], 1)


def test_rational_nonsquare_discriminant_reported():
    # a rational membership point whose conic has no rational line: the
    # discriminant 8 is not a square in QQ
    eq = conjugate_lines_tuple(QQ)
    data, _ = lagrangian_from_gale(eq, 1)
    point = EPWPoint.make(QQ, [QQ.from_int(c) for c in (1, 0, 0, 1, 0, 0)])
    assert epw_contains(data, point) == (True, 1)
    assert pi_gamma(eq, 1, point).generic()
    result = epw_to_lines(eq, 1, point)
    assert result.conic.rank() == 2 and result.lines is None
    assert result.discriminant == 8 and QQ.sqrt(result.discriminant) is None
    assert result.singular_point == result.conic.singular_point_in_ambient()


@pytest.mark.parametrize("p, splits", [(5, False), (7, True)])
def test_conjugate_lines_split_where_two_is_a_square(p, splits):
    # reduced mod 7, where 2 = 3^2, the two lines are defined and each goes
    # back to the point; mod 5 they stay conjugate
    field = PrimeField(p)
    eq = conjugate_lines_tuple(field)
    data, _ = lagrangian_from_gale(eq, 1)
    point = EPWPoint.make(field, [1, 0, 0, 1, 0, 0])
    assert epw_contains(data, point) == (True, 1)
    result = epw_to_lines(eq, 1, point)
    assert result.conic.rank() == 2
    assert (field.sqrt(result.discriminant) is not None) == splits
    assert (result.lines is not None) == splits
    for line in result.lines or ():
        assert line_to_epw(eq, 1, line).same_point(point)
