"""Exact multivariate polynomials with dense exponent vectors.

A :class:`MultiPoly` owns an ordered variable list and a term map from
exponent tuples to nonzero raw field elements.  Variable counts in this
package stay small (at most 20), so exponent vectors are stored densely.
Inside :meth:`MultiPoly.subs` an exponent vector is packed into one integer,
a slot per variable wide enough for the degree bound of the result, so a
product of monomials is one integer addition; the dense tuples stay the
storage format, unpacked once per result term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod
from operator import lshift
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Element, Field, RationalField
from .linalg import _integer_row

Monomial = Tuple[int, ...]


class MultiPoly:
    __slots__ = ("field", "variables", "terms")

    def __init__(self, field: Field, variables: Sequence[str],
                 terms: Optional[Dict[Monomial, Element]] = None):
        self.field = field
        self.variables: Tuple[str, ...] = tuple(variables)
        clean: Dict[Monomial, Element] = {}
        if terms:
            n = len(self.variables)
            for mono, c in terms.items():
                if len(mono) != n:
                    raise ValueError("exponent vector length mismatch")
                if not field.is_zero(c):
                    clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: Field, variables: Sequence[str]) -> "MultiPoly":
        return cls(field, variables)

    @classmethod
    def constant(cls, field: Field, variables: Sequence[str], c: Element) -> "MultiPoly":
        return cls(field, variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, field: Field, variables: Sequence[str], index: int) -> "MultiPoly":
        mono = [0] * len(variables)
        mono[index] = 1
        return cls(field, variables, {tuple(mono): field.one()})

    @classmethod
    def linear_form(cls, field: Field, variables: Sequence[str],
                    coeffs: Sequence[Element]) -> "MultiPoly":
        n = len(variables)
        if len(coeffs) != n:
            raise ValueError("coefficient vector length mismatch")
        out = cls(field, variables)
        out.terms = {(0,) * i + (1,) + (0,) * (n - 1 - i): c
                     for i, c in enumerate(coeffs) if not field.is_zero(c)}
        return out

    # -- predicates and access -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    def linear_coefficients(self) -> List[Element]:
        """Coefficient vector of a homogeneous linear form (zero allowed)."""
        if not self.is_homogeneous(1) and not self.is_zero():
            raise ValueError("not a linear form")
        out = [self.field.zero()] * len(self.variables)
        for mono, c in self.terms.items():
            out[mono.index(1)] = c
        return out

    def degree_in(self, index: int) -> int:
        return max((m[index] for m in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.variables, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.variables != other.variables or self.field != other.field:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        k = self.field
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = k.add(terms.get(mono, k.zero()), c)
            if k.is_zero(acc):
                terms.pop(mono, None)
            else:
                terms[mono] = acc
        return MultiPoly(k, self.variables, terms)

    def __neg__(self) -> "MultiPoly":
        k = self.field
        return MultiPoly(k, self.variables, {m: k.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c: Element) -> "MultiPoly":
        k = self.field
        if k.is_zero(c):
            return MultiPoly.zero(k, self.variables)
        return MultiPoly(k, self.variables, {m: k.mul(c, v) for m, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        k = self.field
        terms: Dict[Monomial, Element] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                prod = k.mul(c1, c2)
                acc = k.add(terms.get(mono, k.zero()), prod)
                if k.is_zero(acc):
                    terms.pop(mono, None)
                else:
                    terms[mono] = acc
        return MultiPoly(k, self.variables, terms)

    def derivative(self, index: int) -> "MultiPoly":
        """Partial derivative; satisfies the Leibniz rule exactly."""
        k = self.field
        terms: Dict[Monomial, Element] = {}
        for mono, c in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            new = list(mono)
            new[index] = e - 1
            coeff = k.mul(k.from_int(e), c)
            if not k.is_zero(coeff):
                terms[tuple(new)] = coeff
        return MultiPoly(k, self.variables, terms)

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, point: Sequence[Element]) -> Element:
        k = self.field
        acc = k.zero()
        for mono, c in self.terms.items():
            val = c
            for e, x in zip(mono, point):
                for _ in range(e):
                    val = k.mul(val, x)
            acc = k.add(acc, val)
        return acc

    def subs(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute variable ``i`` by ``images[i]``; all images must share
        one ring, which becomes the ring of the result.

        Each source term is expanded factor by factor into one accumulator
        keyed by packed monomials; over QQ the images are scaled to integers
        and the sum is kept over one common denominator."""
        if len(images) != len(self.variables):
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("empty variable list")
        k, target = self.field, images[0].variables
        if any(img.field != k or img.variables != target for img in images):
            raise ValueError("images live in different rings")
        width = (self.total_degree()
                 * max(img.total_degree() for img in images)).bit_length()
        shifts = [width * j for j in range(len(target))]
        rational = isinstance(k, RationalField)
        rows = [list(img.terms.values()) for img in images]
        source = list(self.terms.values())
        if rational:
            rows, dens = zip(*map(_integer_row, rows))
            tdens = [c.denominator * prod(map(pow, dens, m))
                     for m, c in self.terms.items()]
            den = lcm(*tdens)
            source = [c.numerator * (den // t) for c, t in zip(source, tdens)]
        packed = [[(sum(map(lshift, m, shifts)), c) for m, c in zip(img.terms, row)]
                  for img, row in zip(images, rows)]
        add, mul, zero, one = k.add, k.mul, k.zero(), 1 if rational else k.one()
        acc: Dict[int, Element] = {}
        for mono, c in zip(self.terms, source):
            factors = [packed[i] for i, e in enumerate(mono) for _ in range(e)]
            left = [(0, c)]
            for j, img in enumerate(factors or [[(0, one)]], 1):
                dst = acc if j >= len(factors) else {}
                get = dst.get
                for m1, c1 in left:
                    for m2, c2 in img:
                        m = m1 + m2
                        if rational:
                            dst[m] = get(m, 0) + c1 * c2
                        else:
                            dst[m] = add(get(m, zero), mul(c1, c2))
                left = dst.items()
        mask = (1 << width) - 1
        out = MultiPoly(k, target)
        out.terms = {tuple([(m >> s) & mask for s in shifts]):
                     Fraction(v, den) if rational else v
                     for m, v in acc.items() if not k.is_zero(v)}
        return out

    def linear_substitution(self, a, variables: Sequence[str]) -> "MultiPoly":
        """Substitute ``x_i -> sum_k a[i][k] * y_k`` for a matrix ``a`` with
        one row per variable, ``y`` the target ``variables``: the pull-back
        along the linear map with matrix ``a``."""
        return self.subs([MultiPoly.linear_form(self.field, variables, row)
                          for row in a.data])

    def rename(self, variables: Sequence[str]) -> "MultiPoly":
        if len(variables) != len(self.variables):
            raise ValueError("variable count mismatch")
        return MultiPoly(self.field, variables, dict(self.terms))

    def permute_variables(self, perm: Sequence[int]) -> "MultiPoly":
        """Image under x_i -> x_perm[i], keeping the variable names."""
        terms = {}
        k = self.field
        for mono, c in self.terms.items():
            new = [0] * len(mono)
            for i, e in enumerate(mono):
                new[perm[i]] += e
            mono2 = tuple(new)
            acc = k.add(terms.get(mono2, k.zero()), c)
            terms[mono2] = acc
        return MultiPoly(k, self.variables, terms)

    # -- division ----------------------------------------------------------

    def divmod_linear(self, ell: "MultiPoly") -> Tuple["MultiPoly", "MultiPoly"]:
        """Exact division by a linear form: self = q*ell + r with the pivot
        variable of ``ell`` eliminated from r.  Division by a single
        polynomial, so r == 0 is equivalent to membership in (ell)."""
        self._check(ell)
        if not ell.is_homogeneous(1) or ell.is_zero():
            raise ValueError("divisor must be a nonzero linear form")
        k = self.field
        coeffs = ell.linear_coefficients()
        pivot = next(i for i, c in enumerate(coeffs) if not k.is_zero(c))
        c_piv = coeffs[pivot]
        rest = dict(ell.terms)
        piv_mono = tuple(1 if i == pivot else 0 for i in range(len(coeffs)))
        rest.pop(piv_mono)
        q_terms: Dict[Monomial, Element] = {}
        work = dict(self.terms)
        while True:
            cand = [m for m in work if m[pivot] > 0]
            if not cand:
                break
            m = max(cand, key=lambda t: t[pivot])
            c = work[m]
            u = list(m)
            u[pivot] -= 1
            u_mono = tuple(u)
            factor = k.div(c, c_piv)
            acc = k.add(q_terms.get(u_mono, k.zero()), factor)
            if k.is_zero(acc):
                q_terms.pop(u_mono, None)
            else:
                q_terms[u_mono] = acc
            # work -= factor * u * ell
            del work[m]
            for rm, rc in rest.items():
                mono = tuple(a + b for a, b in zip(u_mono, rm))
                val = k.sub(work.get(mono, k.zero()), k.mul(factor, rc))
                if k.is_zero(val):
                    work.pop(mono, None)
                else:
                    work[mono] = val
        return (
            MultiPoly(k, self.variables, q_terms),
            MultiPoly(k, self.variables, work),
        )

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, mono)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)


class PolyRing:
    """Ring-protocol adapter so matrix helpers can run on MultiPoly entries."""

    def __init__(self, field: Field, variables: Sequence[str]):
        self.field = field
        self.variables = tuple(variables)
        self.descriptor = f"poly({field.descriptor};{','.join(self.variables)})"

    def zero(self) -> MultiPoly:
        return MultiPoly.zero(self.field, self.variables)

    def one(self) -> MultiPoly:
        return MultiPoly.constant(self.field, self.variables, self.field.one())

    def add(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        return a + b

    def sub(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        return a - b

    def neg(self, a: MultiPoly) -> MultiPoly:
        return -a

    def mul(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        return a * b

    def is_zero(self, a: MultiPoly) -> bool:
        return a.is_zero()


def monomials_of_degree(nvars: int, degree: int) -> List[Monomial]:
    """All exponent vectors of the given total degree, deterministic order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


# det((u0, u1, u2), (u3, u4, u5), (u6, u7, u8)) as terms (sign, i, j, k)
DET3_TERMS = ((1, 0, 4, 8), (1, 1, 5, 6), (1, 2, 3, 7),
              (-1, 2, 4, 6), (-1, 0, 5, 7), (-1, 1, 3, 8))


def cubic_from_terms(field: Field, nvars: int,
                     terms: Sequence[Tuple[int, int, int, int]]) -> MultiPoly:
    """The sum of ``sign * u_i * u_j * u_k`` over distinct monomials
    ``(sign, i, j, k)`` in ``terms``, in the variables ``u0, u1, ...``."""
    return MultiPoly(field, [f"u{i}" for i in range(nvars)],
                     {tuple(f.count(i) for i in range(nvars)): field.from_int(s)
                      for s, *f in terms})


def scalar_multiple(p: MultiPoly, q: MultiPoly) -> Optional[Element]:
    """The scalar c with p = c*q: ``one`` when both are zero, None when they
    are not proportional (in particular when exactly one of them is zero)."""
    k = p.field
    if p.is_zero() or q.is_zero():
        return k.one() if p.is_zero() and q.is_zero() else None
    if p.terms.keys() != q.terms.keys():
        return None
    mono = next(iter(q.terms))
    c = k.div(p.terms[mono], q.terms[mono])
    if all(p.terms[m] == k.mul(c, v) for m, v in q.terms.items()):
        return c
    return None


# -- univariate helpers (coefficient lists, low degree first) ---------------

def univariate_from_coeffs(field: Field, var: str, coeffs: Sequence[Element]) -> MultiPoly:
    return MultiPoly(field, (var,), {(i,): c for i, c in enumerate(coeffs)})


def _trim(field: Field, coeffs: List[Element]) -> List[Element]:
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def univariate_divmod(field: Field, a: Sequence[Element],
                      b: Sequence[Element]) -> Tuple[List[Element], List[Element]]:
    """Quotient and remainder of univariate coefficient lists (low first)."""
    b = _trim(field, list(b))
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = _trim(field, list(a))
    db, lead = len(b) - 1, b[-1]
    q = [field.zero()] * max(len(r) - db, 0)
    while r and len(r) - 1 >= db:
        f = field.div(r[-1], lead)
        shift = len(r) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] = field.sub(r[shift + i], field.mul(f, c))
        r = _trim(field, r)
    return _trim(field, q), r


def univariate_mul(field: Field, a: Sequence[Element],
                   b: Sequence[Element]) -> List[Element]:
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(field, out)


def univariate_sub(field: Field, a: Sequence[Element],
                   b: Sequence[Element]) -> List[Element]:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(field.sub(x, y))
    return _trim(field, out)
