import random

import pytest
from hypothesis import given, settings, strategies as st

from galecubics.fields import QQ, PrimeField, cyclotomic3
from galecubics.linalg import Matrix
from galecubics.poly import MultiPoly, Substitution, monomials_of_degree, scalar_multiple

from conftest import reference_subs

VARS = ("x", "y", "z")


def random_poly(field, rng, degree=3, density=0.5):
    terms = {}
    for d in range(degree + 1):
        for mono in monomials_of_degree(len(VARS), d):
            if rng.random() < density:
                c = field.random(rng)
                if not field.is_zero(c):
                    terms[mono] = c
    return MultiPoly(field, VARS, terms)


small_polys = st.builds(
    lambda seed: random_poly(PrimeField(101), random.Random(seed), degree=2),
    st.integers(0, 10**6))


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == MultiPoly.zero(p.field, p.variables)


@given(small_polys, small_polys, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(p, q, i):
    left = (p * q).derivative(i)
    right = p.derivative(i) * q + p * q.derivative(i)
    assert left == right


def test_derivative_basic():
    k = QQ
    p = MultiPoly(k, VARS, {(2, 1, 0): k.from_int(3)})   # 3 x^2 y
    assert p.derivative(0) == MultiPoly(k, VARS, {(1, 1, 0): k.from_int(6)})
    assert p.derivative(2).is_zero()


def test_evaluation_matches_substitution():
    field = PrimeField(101)
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(field, rng)
        point = [field.random(rng) for _ in range(3)]
        constants = [MultiPoly.constant(field, ("t",), c) for c in point]
        assert p.subs(constants) == MultiPoly.constant(
            field, ("t",), p.evaluate(point))


def test_subs_composition():
    field = PrimeField(101)
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(field, rng, degree=2)
        images = [MultiPoly.linear_form(field, VARS,
                                        [field.random(rng) for _ in range(3)])
                  for _ in range(3)]
        q = p.subs(images)
        point = [field.random(rng) for _ in range(3)]
        moved = [img.evaluate(point) for img in images]
        assert q.evaluate(point) == p.evaluate(moved)


def test_divmod_linear_exact():
    field = PrimeField(101)
    rng = random.Random(7)
    for _ in range(30):
        ell = MultiPoly.linear_form(field, VARS,
                                    [field.random(rng) for _ in range(3)])
        if ell.is_zero():
            continue
        g = random_poly(field, rng, degree=2)
        product = ell * g
        q, r = product.divmod_linear(ell)
        assert r.is_zero()
        assert q == g
        # non-multiples leave a remainder
        p = random_poly(field, rng, degree=2)
        q2, r2 = p.divmod_linear(ell)
        assert q2 * ell + r2 == p


def test_homogeneous_and_degree():
    k = QQ
    p = MultiPoly(k, VARS, {(1, 1, 1): k.one()})
    assert p.is_homogeneous(3)
    assert p.total_degree() == 3
    q = p + MultiPoly(k, VARS, {(1, 0, 0): k.one()})
    assert not q.is_homogeneous()


def test_linear_coefficients_roundtrip():
    field = PrimeField(97)
    rng = random.Random(9)
    coeffs = [field.random(rng) for _ in range(3)]
    p = MultiPoly.linear_form(field, VARS, coeffs)
    assert p.linear_coefficients() == coeffs
    with pytest.raises(ValueError):
        (p * p).linear_coefficients()


def test_proportional():
    k = QQ
    p = MultiPoly(k, VARS, {(1, 0, 0): k.from_int(2), (0, 1, 0): k.from_int(4)})
    assert scalar_multiple(p.scale(k.from_int(7)), p) == k.from_int(7)
    q = p + MultiPoly(k, VARS, {(0, 0, 1): k.one()})
    assert scalar_multiple(p, q) is None
    zero = MultiPoly.zero(k, VARS)
    assert scalar_multiple(zero, zero) == k.one()
    assert scalar_multiple(p, zero) is None
    assert scalar_multiple(zero, p) is None


# The proportionality tests that scalar_multiple replaced, kept verbatim as
# oracles: poly.proportional and invariants.observed_scalar.

def reference_proportional(p, q):
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    k = p.field
    mono = next(iter(p.terms))
    c = k.div(p.terms[mono], q.terms[mono])
    return all(p.terms[m] == k.mul(c, q.terms[m]) for m in q.terms)


def reference_observed_scalar(transformed, original):
    if original.is_zero() or transformed.is_zero():
        return None
    if set(transformed.terms) != set(original.terms):
        return None
    k = original.field
    mono = next(iter(original.terms))
    c = k.div(transformed.terms[mono], original.terms[mono])
    for m, v in original.terms.items():
        if transformed.terms[m] != k.mul(c, v):
            return None
    return c


SUBSTITUTION_FIELDS = [QQ, PrimeField(101), cyclotomic3(PrimeField(5))]


@pytest.mark.parametrize("field", SUBSTITUTION_FIELDS, ids=lambda f: f.descriptor)
def test_scalar_multiple_matches_old_tests(field):
    rng = random.Random(17)
    zero = MultiPoly.zero(field, VARS)
    pairs = [(zero, zero)]
    for _ in range(30):
        q = random_poly(field, rng, degree=2, density=0.4)
        c = field.random(rng)
        other = q + MultiPoly(field, VARS, {(2, 0, 0): field.random(rng)})
        pairs += [(q.scale(c), q), (q, q), (other, q), (q, other),
                  (zero, q), (q, zero)]
    for p, q in pairs:
        c = scalar_multiple(p, q)
        assert (c is not None) == reference_proportional(p, q)
        if p.is_zero() and q.is_zero():
            # the one case where the two old tests disagreed
            assert c == field.one() and reference_observed_scalar(p, q) is None
        else:
            assert c == reference_observed_scalar(p, q)
        if c is not None:
            assert p == q.scale(c)


@pytest.mark.parametrize("field", SUBSTITUTION_FIELDS, ids=lambda f: f.descriptor)
@pytest.mark.parametrize("n_source, n_target", [(6, 3), (20, 20), (6, 10)])
def test_linear_substitution_matches_subs(field, n_source, n_target):
    rng = random.Random(100 * n_source + n_target)
    source = tuple(f"x{i}" for i in range(n_source))
    target = tuple(f"y{i}" for i in range(n_target))
    monos = [m for d in range(4) for m in monomials_of_degree(n_source, d)]
    z = field.zero()
    for trial in range(3):
        p = MultiPoly(field, source, {m: field.random(rng)
                                      for m in rng.sample(monos, 6)})
        if trial == 0:       # a 0/1 embedding of the source coordinates
            cols = rng.sample(range(n_target), min(n_source, n_target))
            a = Matrix(field, [[field.one() if i < len(cols) and c == cols[i]
                                else z for c in range(n_target)]
                               for i in range(n_source)])
        else:
            a = Matrix.random(field, n_source, n_target, rng)
            a.data[trial] = [z] * n_target          # a variable sent to zero
        images = [MultiPoly.linear_form(field, target, a.data[i])
                  for i in range(n_source)]
        got = p.linear_substitution(a, target)
        assert got.variables == target
        assert got == p.subs(images)
    zero = MultiPoly.zero(field, source)
    assert zero.linear_substitution(a, target) == MultiPoly.zero(field, target)


# The memoized-power substitution that the packed expansion kernel replaced,
# kept verbatim as a second oracle of MultiPoly.subs.

def memoized_subs(self, images):
    if len(images) != len(self.variables):
        raise ValueError("need one image per variable")
    if not images:
        raise ValueError("empty variable list")
    target_vars = images[0].variables
    k = self.field
    # memoized powers per variable
    powers = []
    for i, img in enumerate(images):
        powers.append([MultiPoly.constant(k, target_vars, k.one())])
    out = MultiPoly.zero(k, target_vars)
    for mono, c in self.terms.items():
        term = MultiPoly.constant(k, target_vars, c)
        for i, e in enumerate(mono):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * images[i])
            if e:
                term = term * powers[i][e]
        out = out + term
    return out


def sampled_poly(field, rng, variables, degrees, count):
    """``count`` random terms (or fewer) of the given total degrees."""
    monos = [m for d in degrees for m in monomials_of_degree(len(variables), d)]
    return MultiPoly(field, variables, {m: field.random(rng)
                                        for m in rng.sample(monos, min(count, len(monos)))})


def names(n, prefix):
    return tuple(f"{prefix}{i}" for i in range(n))


def substitution_cases(field, rng):
    """(source, images) pairs: every image kind, the zero polynomial, a
    non-homogeneous source, a result degree past the narrowest slot width,
    and the 6 -> 3, 20 -> 20 and 20 -> 10 shapes of the package."""
    x3, y2, y3 = names(3, "x"), names(2, "y"), names(3, "y")

    def linear(target):
        return sampled_poly(field, rng, target, [1], len(target))

    cases = []
    for _ in range(3):
        source = sampled_poly(field, rng, x3, [0, 1, 2, 3], 8)   # non-homogeneous
        nonlinear = [sampled_poly(field, rng, y2, [0, 1, 2], 4) for _ in x3]
        constants = [sampled_poly(field, rng, y2, [0], 1) for _ in x3]
        mixed = [linear(y2), MultiPoly.zero(field, y2),
                 MultiPoly.constant(field, y2, field.from_int(3))]
        cases += [(source, nonlinear), (source, constants), (source, mixed),
                  (MultiPoly.zero(field, x3), nonlinear),
                  (MultiPoly.constant(field, x3, field.one()), nonlinear)]
    # degree 7 through quadratic images: result degree 14 needs 4-bit slots
    cases.append((sampled_poly(field, rng, x3, [7], 6),
                  [sampled_poly(field, rng, y3, [2], 4) for _ in x3]))
    for n_source, n_target in ((6, 3), (20, 20), (20, 10)):
        source = sampled_poly(field, rng, names(n_source, "x"), [3], 6)
        target = names(n_target, "y")
        images = [linear(target) for _ in range(n_source)]
        images[1] = MultiPoly.zero(field, target)
        cases.append((source, images))
    return cases


SUBS_ORACLE_FIELDS = [QQ, PrimeField(2), PrimeField(101), cyclotomic3(QQ),
                      cyclotomic3(PrimeField(5))]


@pytest.mark.parametrize("field", SUBS_ORACLE_FIELDS, ids=lambda f: f.descriptor)
def test_subs_matches_reference(field):
    rng = random.Random(41)
    for source, images in substitution_cases(field, rng):
        got = source.subs(images)
        assert got.variables == images[0].variables
        assert got == memoized_subs(source, images)
        assert not any(field.is_zero(c) for c in got.terms.values())


PULL_BACK_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(97), PrimeField(101),
                    cyclotomic3(QQ), cyclotomic3(PrimeField(2))]


def assert_same_terms(got, expected):
    """Equal term for term: the same variables, the same terms in the same
    order, each coefficient of the same type."""
    assert got.variables == expected.variables
    assert list(got.terms) == list(expected.terms)
    for mono, c in expected.terms.items():
        assert got.terms[mono] == c and type(got.terms[mono]) is type(c)


@pytest.mark.parametrize("field", PULL_BACK_FIELDS, ids=lambda f: f.descriptor)
def test_pull_back_matches_reference_subs(field):
    """Linear and nonlinear images, zero images and constants, the zero
    polynomial and constant sources: one fresh substitution per case."""
    rng = random.Random(43)
    for source, images in substitution_cases(field, rng):
        assert_same_terms(Substitution.of(images).pull_back(source),
                          reference_subs(source, images))


@pytest.mark.parametrize("field", PULL_BACK_FIELDS, ids=lambda f: f.descriptor)
def test_one_substitution_serves_degrees_3_1_2(field):
    """One object pulls back a cubic, a linear form and a quadric in that
    order, so each call after the first finds packed rows of another slot
    width in its cache."""
    rng = random.Random(47)
    x6, y4 = names(6, "x"), names(4, "y")
    a = Matrix.random(field, 6, 4, rng)
    a.data[2] = [field.zero()] * 4                     # a variable sent to zero
    linear = [MultiPoly.linear_form(field, y4, row) for row in a.data]
    quadratic = [sampled_poly(field, rng, y4, [0, 1, 2], 5) for _ in x6]
    for sub, images in ((Substitution.linear(field, a.data, y4), linear),
                        (Substitution.of(quadratic), quadratic)):
        for degree in (3, 1, 2):
            source = sampled_poly(field, rng, x6, [degree], 8)
            assert_same_terms(sub.pull_back(source), reference_subs(source, images))
        assert_same_terms(sub.pull_back(MultiPoly.zero(field, x6)),
                          MultiPoly.zero(field, y4))


def test_subs_rejects_images_from_another_ring():
    field = PrimeField(101)
    images = [MultiPoly.variable(field, ("s", "t"), i % 2) for i in range(3)]
    p = MultiPoly.variable(field, VARS, 0)    # never touches images[2]
    for bad in (MultiPoly.variable(field, ("s", "u"), 0),
                MultiPoly.variable(PrimeField(97), ("s", "t"), 0),
                MultiPoly.variable(QQ, ("s", "t"), 0)):
        with pytest.raises(ValueError):
            p.subs(images[:2] + [bad])
        with pytest.raises(ValueError):
            MultiPoly.zero(field, VARS).subs(images[:2] + [bad])
    with pytest.raises(ValueError):
        p.subs(images[:2])


def test_linear_substitution_rejects_wrong_shape():
    field = QQ
    p = MultiPoly.variable(field, VARS, 0)
    with pytest.raises(ValueError):           # one row short
        p.linear_substitution(Matrix.identity(field, 2), ("s", "t"))
    with pytest.raises(ValueError):           # rows longer than the target
        p.linear_substitution(Matrix.identity(field, 3), ("s", "t"))
    assert (p.linear_substitution(Matrix.identity(field, 3), ("r", "s", "t"))
            == MultiPoly.variable(field, ("r", "s", "t"), 0))


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(6, 3)) == 56
    assert len(monomials_of_degree(20, 3)) == 1540
    assert len(monomials_of_degree(20, 2)) == 210
