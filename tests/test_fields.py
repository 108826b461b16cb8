import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from galecubics.fields import (QQ, Cyclotomic3, PrimeField, cyclotomic3,
                               is_prime, parse_field)

from conftest import ALL_FIELDS


rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    k = QQ
    assert k.add(k.add(a, b), c) == k.add(a, k.add(b, c))
    assert k.mul(k.mul(a, b), c) == k.mul(a, k.mul(b, c))
    assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
    if a != 0:
        assert k.mul(a, k.inv(a)) == k.one()


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_prime_field_axioms(a, b, c):
    k = PrimeField(101)
    assert k.add(k.add(a, b), c) == k.add(a, k.add(b, c))
    assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
    if not k.is_zero(a):
        assert k.mul(a, k.inv(a)) == k.one()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor)
def test_axioms_randomized(field):
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (field.random(rng) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one()
        assert field.sub(a, a) == field.zero()


def test_cube_root_in_extension():
    k = cyclotomic3(QQ)
    assert isinstance(k, Cyclotomic3)
    z = k.cube_root_of_unity()
    assert k.mul(k.mul(z, z), z) == k.one()
    assert z != k.one()
    # z^2 + z + 1 = 0
    assert k.is_zero(k.add(k.add(k.mul(z, z), z), k.one()))


def test_cube_root_mod_97_by_scanning():
    k = PrimeField(97)
    roots = k.cube_root_of_unity_candidates()
    assert roots == [35, 61]
    assert k.cube_root_of_unity() == 35
    # 97 = 1 mod 3, so no quadratic extension is built
    assert cyclotomic3(k) is k


def test_extension_only_when_irreducible():
    k101 = PrimeField(101)   # 101 = 2 mod 3
    ext = cyclotomic3(k101)
    assert isinstance(ext, Cyclotomic3)
    z = ext.cube_root_of_unity()
    assert ext.mul(ext.mul(z, z), z) == ext.one()
    with pytest.raises(ValueError):
        Cyclotomic3(PrimeField(97))


def test_prime_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(91)


def trial_division_is_prime(n):
    """The trial-division test that Miller-Rabin replaced."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division_is_prime(n)]


def test_is_prime_refuses_pseudoprimes_and_accepts_large_primes():
    assert not is_prime(561)              # Carmichael number
    assert not is_prime(3215031751)       # strong pseudoprime to 2, 3, 5, 7
    # strong pseudoprime to every prime base up to 37: base 41 decides
    assert not is_prime(318665857834031151167461)
    for p in (2 ** 61 - 1, 2 ** 31 - 1, 10 ** 18 + 9):
        assert is_prime(p)
        assert PrimeField(p).p == p
    assert not is_prime((2 ** 31 - 1) * (10 ** 9 + 7))


def test_is_prime_refuses_numbers_it_cannot_decide():
    with pytest.raises(ValueError, match="too large"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        parse_field(f"prime:{2 ** 89 - 1}")


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor)
def test_sqrt_of_squares(field):
    rng = random.Random(3)
    for _ in range(40):
        a = field.random(rng)
        r = field.sqrt(field.mul(a, a))
        assert r is not None
        assert field.mul(r, r) == field.mul(a, a)


def test_sqrt_of_nonsquare_rational_is_none():
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_tonelli_across_primes():
    for p in (97, 101, 103, 109):
        k = PrimeField(p)
        squares = {k.mul(a, a) for a in range(p)}
        for a in range(p):
            r = k.sqrt(a)
            if a in squares:
                assert r is not None and k.mul(r, r) == a
            else:
                assert r is None


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor)
def test_json_roundtrip(field):
    rng = random.Random(5)
    for _ in range(25):
        a = field.random(rng)
        assert field.from_json(field.to_json(a)) == a


def test_parse_field_descriptors():
    assert parse_field("rationals") is QQ
    assert parse_field("prime:101").p == 101
    assert parse_field("cyclotomic3").descriptor == "cyclotomic3(rationals)"
    assert parse_field("cyclotomic3:101").descriptor == "cyclotomic3(prime:101)"
    # splitting prime: the extension collapses to the prime field itself
    assert parse_field("cyclotomic3:97").descriptor == "prime:97"
    for field in ALL_FIELDS:
        assert parse_field(field.descriptor) == field


def test_from_json_is_strict():
    k = PrimeField(97)
    assert k.from_json(200) == 6 and k.from_json(-1) == 96    # ints reduce mod p
    assert k.from_json("5") == 5
    for bad in (True, False, 1.5, 2.0, None, [1], "1/2", "x"):
        with pytest.raises(ValueError):
            k.from_json(bad)
    assert QQ.from_json("3/6") == Fraction(1, 2) and QQ.from_json(-4) == -4
    for bad in ("1/0", "0/0", True, 1.5, None, "a/b"):
        with pytest.raises(ValueError):
            QQ.from_json(bad)
    ext = cyclotomic3(PrimeField(101))
    with pytest.raises(ValueError):
        ext.from_json([1, 1.5])
    with pytest.raises(ValueError):
        cyclotomic3(QQ).from_json(["1/0", "1"])
