"""Exact coefficient fields.

Three kinds of field are supported, all with exact arithmetic and no
rounding anywhere:

* the rationals (backed by :class:`fractions.Fraction`),
* prime fields GF(p) (elements are ints in ``[0, p)``),
* the degree-two extension obtained by adjoining a primitive cube root
  of unity ``zeta`` with ``zeta^2 + zeta + 1 = 0``.

Elements of the cyclotomic extension are pairs ``(a, b)`` standing for
``a + b*zeta``.  Over GF(p) the extension only exists when ``x^2 + x + 1``
is irreducible mod p, i.e. when ``p % 3 == 2``; for ``p % 3 == 1`` the
polynomial splits and a cube root of unity already lives in GF(p) itself,
so :func:`cyclotomic3` returns the prime field unchanged in that case.

Field operations take and return *raw* element values (Fraction, int or
pair).  Keeping elements unboxed makes the dict-based polynomial and
matrix layers considerably faster than element wrapper objects would be.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from typing import Any, Optional

Element = Any  # Fraction | int | tuple, depending on the field


# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson & Webster 2017: the least strong pseudoprime to all of them).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ``ValueError`` from 3.3e24 on, where the
    fixed bases no longer decide."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to certify as prime "
                         f"(limit {_MR_LIMIT})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; concrete fields override the arithmetic hooks."""

    descriptor: str
    characteristic: int

    def zero(self) -> Element:
        raise NotImplementedError

    def one(self) -> Element:
        raise NotImplementedError

    def from_int(self, n: int) -> Element:
        raise NotImplementedError

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def neg(self, a: Element) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Element) -> bool:
        return a == self.zero()

    def random(self, rng: random.Random, size: int = 10) -> Element:
        raise NotImplementedError

    def sqrt(self, a: Element) -> Optional[Element]:
        """A square root of ``a`` in the field, or ``None`` if there is none."""
        raise NotImplementedError

    def has_cube_root_of_unity(self) -> bool:
        return False

    def cube_root_of_unity(self) -> Element:
        raise ValueError(f"{self.descriptor} contains no primitive cube root of unity")

    def to_json(self, a: Element):
        raise NotImplementedError

    def from_json(self, data) -> Element:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def __repr__(self) -> str:
        return f"Field({self.descriptor})"


class RationalField(Field):
    descriptor = "rationals"
    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("inverse of 0")
        return a / b

    def is_zero(self, a):
        return a == 0

    def random(self, rng, size=10):
        return Fraction(rng.randint(-size, size), rng.randint(1, size))

    def sqrt(self, a):
        if a < 0:
            return None
        n, d = a.numerator, a.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def to_json(self, a):
        return f"{a.numerator}/{a.denominator}"

    def from_json(self, data):
        if isinstance(data, str):
            num, _, den = data.partition("/")
            den = int(den) if den else 1
            if den == 0:
                raise ValueError(f"zero denominator in {data!r}")
            return Fraction(int(num), den)
        if isinstance(data, int) and not isinstance(data, bool):
            return Fraction(data)
        raise ValueError(f"cannot parse rational from {data!r}")


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.descriptor = f"prime:{p}"
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def random(self, rng, size=10):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)

    def sqrt(self, a):
        a %= self.p
        if a == 0:
            return 0
        if self.p == 2:
            return a
        if pow(a, (self.p - 1) // 2, self.p) != 1:
            return None
        return self._tonelli(a)

    def _tonelli(self, a: int) -> int:
        p = self.p
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # Tonelli-Shanks for p = 1 mod 4
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def cube_root_of_unity_candidates(self) -> list[int]:
        """Roots of x^2 + x + 1 in GF(p), found by direct scan, ascending."""
        return [x for x in range(self.p) if (x * x + x + 1) % self.p == 0]

    def has_cube_root_of_unity(self):
        return self.p % 3 == 1 or self.p == 3

    def cube_root_of_unity(self):
        roots = self.cube_root_of_unity_candidates()
        if not roots:
            raise ValueError(f"x^2+x+1 has no root mod {self.p}")
        return roots[0]

    def to_json(self, a):
        return a % self.p

    def from_json(self, data):
        """An ``int`` or decimal string, reduced mod p; ``bool`` and
        ``float`` are refused rather than truncated."""
        if isinstance(data, bool) or not isinstance(data, (int, str)):
            raise ValueError(f"cannot parse an element of {self.descriptor} "
                             f"from {data!r}")
        return int(data) % self.p


class Cyclotomic3(Field):
    """Quadratic extension base(zeta), zeta^2 = -1 - zeta, elements (a, b)."""

    def __init__(self, base: Field):
        if isinstance(base, PrimeField) and base.p % 3 != 2:
            raise ValueError(
                f"x^2+x+1 is reducible mod {base.p}; use the prime field itself"
            )
        if isinstance(base, Cyclotomic3):
            raise ValueError("iterated cyclotomic extensions are not supported")
        self.base = base
        self.descriptor = f"cyclotomic3({base.descriptor})"
        self.characteristic = base.characteristic

    def zero(self):
        return (self.base.zero(), self.base.zero())

    def one(self):
        return (self.base.one(), self.base.zero())

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero())

    def embed(self, a: Element) -> Element:
        """Lift a base-field value into the extension."""
        return (a, self.base.zero())

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def sub(self, a, b):
        return (self.base.sub(a[0], b[0]), self.base.sub(a[1], b[1]))

    def mul(self, a, b):
        # (a0 + a1 z)(b0 + b1 z) with z^2 = -1 - z
        k = self.base
        zz = k.mul(a[1], b[1])
        return (
            k.sub(k.mul(a[0], b[0]), zz),
            k.sub(k.add(k.mul(a[0], b[1]), k.mul(a[1], b[0])), zz),
        )

    def conj(self, a):
        # zeta -> zeta^2 = -1 - zeta
        k = self.base
        return (k.sub(a[0], a[1]), k.neg(a[1]))

    def norm(self, a):
        # a0^2 - a0 a1 + a1^2, in the base field
        k = self.base
        return k.add(k.sub(k.mul(a[0], a[0]), k.mul(a[0], a[1])), k.mul(a[1], a[1]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        n = self.base.inv(self.norm(a))
        c = self.conj(a)
        return (self.base.mul(c[0], n), self.base.mul(c[1], n))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def random(self, rng, size=10):
        return (self.base.random(rng, size), self.base.random(rng, size))

    def has_cube_root_of_unity(self):
        return True

    def cube_root_of_unity(self):
        return (self.base.zero(), self.base.one())

    def sqrt(self, a):
        if self.is_zero(a):
            return self.zero()
        if isinstance(self.base, PrimeField) and self.base.p <= 400:
            p = self.base.p
            target = (a[0] % p, a[1] % p)
            for x in range(p):
                for y in range(p):
                    if self.mul((x, y), (x, y)) == target:
                        return (x, y)
            return None
        # solve (x + y z)^2 = (a0, a1): x^2 - y^2 = a0, y(2x - y) = a1
        k = self.base
        a0, a1 = a
        if k.is_zero(a1):
            x = k.sqrt(a0)
            if x is not None:
                return (x, k.zero())
            # y = 2x branch: -3 x^2 = a0
            x2 = k.div(k.neg(a0), k.from_int(3))
            x = k.sqrt(x2)
            if x is not None:
                return (x, k.add(x, x))
            return None
        # s = x/y satisfies a1 s^2 - 2 a0 s + (a0 - a1) = 0
        disc = k.sqrt(self.norm(a))  # a0^2 - a0 a1 + a1^2
        if disc is None:
            return None
        for sgn in (disc, k.neg(disc)):
            s = k.div(k.add(a0, sgn), a1)
            den = k.sub(k.add(s, s), k.one())
            if k.is_zero(den):
                continue
            y2 = k.div(a1, den)
            y = k.sqrt(y2)
            if y is not None:
                return (k.mul(s, y), y)
        return None

    def to_json(self, a):
        return [self.base.to_json(a[0]), self.base.to_json(a[1])]

    def from_json(self, data):
        if isinstance(data, (list, tuple)) and len(data) == 2:
            return (self.base.from_json(data[0]), self.base.from_json(data[1]))
        return self.embed(self.base.from_json(data))


QQ = RationalField()


def cyclotomic3(base: Field) -> Field:
    """The smallest extension of ``base`` containing a cube root of unity."""
    if base.has_cube_root_of_unity():
        return base
    if base is QQ or isinstance(base, RationalField):
        return Cyclotomic3(QQ)
    if isinstance(base, PrimeField):
        return Cyclotomic3(base)
    raise ValueError(f"no cyclotomic extension for {base.descriptor}")


def parse_field(descriptor: str) -> Field:
    """Parse descriptors such as ``rationals``, ``prime:97``, ``cyclotomic3:101``."""
    if not isinstance(descriptor, str):
        raise ValueError(f"field descriptor must be a string, not {descriptor!r}")
    d = descriptor.strip().lower()
    if d in ("rationals", "qq", "q"):
        return QQ
    if d.startswith("prime:"):
        return PrimeField(int(d.split(":", 1)[1]))
    if d.startswith("cyclotomic3"):
        rest = d[len("cyclotomic3"):].lstrip(":(").rstrip(")")
        if not rest or rest in ("rationals", "qq", "q"):
            return cyclotomic3(QQ)
        if rest.startswith("prime:"):
            rest = rest.split(":", 1)[1]
        return cyclotomic3(PrimeField(int(rest)))
    raise ValueError(f"unknown field descriptor {descriptor!r}")
