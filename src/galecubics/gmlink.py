"""The skew matrix of a distinguished direction and its quadric ideal.

Fixing one basis covector ``w`` (the E-side uses e1, the F-side f1) and
ordering the remaining five as ``v_1..v_5``, the 3-forms ``v_i ^ v_j ^ w``
fill a skew 5x5 matrix of linear forms on the grade-3 space.  Its five
4x4 Pfaffians, together with the invariant quadric built from the ten
dual pairs ``(w ^ v_i ^ v_j, v_k ^ v_l ^ v_m)``, cut out the cone over the
Grassmannian-type variety the big cubics live on: the degree-3 membership
certificate of that containment is exactly what this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .exterior import ExteriorElement
from .fields import Field
from .gale import solve_multiplier_system
from .invariants import LEX3_VARIABLES, big_cubics, lex3_form
from .linalg import pfaffian4
from .poly import MultiPoly, PolyRing

E_SIDE = (0, (1, 2, 3, 4, 5))   # distinguished e1
F_SIDE = (3, (4, 5, 0, 1, 2))   # distinguished f1, roles of the blocks swapped


def build_n15(field: Field, side: Tuple[int, Tuple[int, ...]] = E_SIDE,
              ) -> List[List[MultiPoly]]:
    """Skew 5x5 matrix with (i, j) entry the 3-form v_i ^ v_j ^ w."""
    w, vs = side
    ring = PolyRing(field, LEX3_VARIABLES)
    mat = [[ring.zero() for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            mat[i][j] = lex3_form(ExteriorElement.basis(field, (vs[i], vs[j], w)))
    return mat


def dual_ten_tuples(field: Field, side: Tuple[int, Tuple[int, ...]] = E_SIDE,
                    ) -> Tuple[List[MultiPoly], List[MultiPoly]]:
    """The tuples (u_i) = ((-1)^(i-j+1) w ^ v_i ^ v_j) over pairs i < j and
    (uhat_i) = (v_k ^ v_l ^ v_m) over complementary triples, sorted so that
    u_i ^ uhat_i is the positive full wedge w ^ v_1 ^ ... ^ v_5."""
    w, vs = side
    us: List[MultiPoly] = []
    uhats: List[MultiPoly] = []
    full = ExteriorElement.basis(field, (w,) + tuple(vs))
    top = next(iter(full.terms))
    orientation = full.terms[top]
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for (i, j) in pairs:
        sign = field.one() if (i - j + 1) % 2 == 0 else field.neg(field.one())
        u_elem = ExteriorElement.basis(field, (w, vs[i], vs[j])).scale(sign)
        comp = tuple(k for k in range(5) if k not in (i, j))
        uhat_elem = ExteriorElement.basis(field, tuple(vs[k] for k in comp))
        pairing = u_elem.wedge(uhat_elem).terms.get(top, field.zero())
        if pairing != orientation:
            if pairing != field.neg(orientation):
                raise AssertionError("dual tuples do not pair to the orientation")
            uhat_elem = uhat_elem.scale(field.neg(field.one()))
        us.append(lex3_form(u_elem))
        uhats.append(lex3_form(uhat_elem))
    return us, uhats


def build_sigma15(field: Field, side: Tuple[int, Tuple[int, ...]] = E_SIDE,
                  ) -> MultiPoly:
    us, uhats = dual_ten_tuples(field, side)
    acc = MultiPoly.zero(field, LEX3_VARIABLES)
    for u, uh in zip(us, uhats):
        acc = acc + u * uh
    return acc


@dataclass(frozen=True)
class Z15Ideal:
    """Five 4x4 Pfaffians of the skew matrix plus the invariant quadric,
    built once per field and side and shared read-only by every caller."""

    field: Field
    quadrics: Tuple[MultiPoly, ...]

    @classmethod
    @lru_cache(maxsize=None)
    def build(cls, field: Field, side: Tuple[int, Tuple[int, ...]] = E_SIDE,
              ) -> "Z15Ideal":
        n15 = build_n15(field, side)
        ring = PolyRing(field, LEX3_VARIABLES)
        quadrics = []
        for k in range(5):
            keep = [i for i in range(5) if i != k]
            sub = [[n15[i][j] for j in keep] for i in keep]
            quadrics.append(pfaffian4(ring, sub))
        quadrics.append(build_sigma15(field, side))
        for q in quadrics:
            if not q.is_homogeneous(2):
                raise AssertionError("ideal generator is not a quadric")
        return cls(field, tuple(quadrics))


def ideal_membership_deg3(cubic: MultiPoly, quadrics: Sequence[MultiPoly],
                          ) -> Optional[List[MultiPoly]]:
    """Linear multipliers with cubic = sum quadric_k * ell_k, or None.

    The underlying exact linear system has one column per (quadric,
    variable) pair, ordered quadric-major, and one row per degree-3
    monomial; certificates re-verify by independent expansion inside the
    solver."""
    if not cubic.is_homogeneous(3):
        raise ValueError("target must be a homogeneous cubic")
    for q in quadrics:
        if not q.is_homogeneous(2):
            raise ValueError("generators must be homogeneous quadrics")
        if q.variables != cubic.variables:
            raise ValueError("shared variable set required")
    factors = [(q, 1) for q in quadrics]
    return solve_multiplier_system(cubic.field, cubic.variables, cubic, factors)


def big_cubic_membership(field: Field, which: str = "E",
                         ) -> Optional[List[MultiPoly]]:
    """Certificate that the corresponding big cubic lies in the quadric
    ideal of its side."""
    xt_e, xt_f = big_cubics(field)
    if which == "E":
        return ideal_membership_deg3(xt_e, Z15Ideal.build(field, E_SIDE).quadrics)
    if which == "F":
        return ideal_membership_deg3(xt_f, Z15Ideal.build(field, F_SIDE).quadrics)
    raise ValueError("which must be 'E' or 'F'")
