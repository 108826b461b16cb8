"""Buchberger engine over prime fields, for smoothness certificates.

Degrevlex only.  Pair selection follows the normal strategy refined by
sugar degree (Giovini, Mora, Niesi, Robbiano, Traverso 1991); the
coprimality criterion and the chain criterion prune pairs.  Prime fields
only: coefficient growth over the rationals is a deliberate non-goal, and
smoothness over the rationals is certified by a good prime reduction
instead (upper-semicontinuity of singular loci).

``buchberger`` computes each basis element's leading monomial once, when
the element is appended, and each pair's key ``(sugar, degrevlex of the
lcm)`` once, when the pair is inserted.  Pairs go into a set in the order
(1,0), (2,0), (2,1), ..., (n,k) for k < n, and ``min`` over that set picks
the next pair, so the selection order and its tie-breaks, the S-pairs
reduced and every intermediate basis are those of the engine that
recomputed every key at every step (kept as the oracle of the
differential test in ``tests/test_groebner.py``).  A heap of pairs or
Gebauer-Moeller pair installation would be faster still, but both change
which pairs get reduced, and are deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .fields import Field, PrimeField
from .poly import Monomial, MultiPoly


def degrevlex_key(mono: Monomial):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def leading_monomial(p: MultiPoly) -> Monomial:
    return max(p.terms, key=degrevlex_key)


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Full reduction of p modulo the basis (every term reduced)."""
    field = p.field
    lead = [(leading_monomial(g), g) for g in basis if not g.is_zero()]
    work = dict(p.terms)
    out: Dict[Monomial, object] = {}
    while work:
        mono = max(work, key=degrevlex_key)
        coeff = work.pop(mono)
        reducer = next(((lm, g) for lm, g in lead if monomial_divides(lm, mono)), None)
        if reducer is None:
            out[mono] = coeff
            continue
        lm, g = reducer
        shift = monomial_sub(mono, lm)
        factor = field.div(coeff, g.terms[lm])
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            key = monomial_mul(gm, shift)
            acc = field.sub(work.get(key, field.zero()), field.mul(factor, gc))
            if field.is_zero(acc):
                work.pop(key, None)
            else:
                work[key] = acc
    return MultiPoly(field, p.variables, out)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    field = f.field
    lf, lg = leading_monomial(f), leading_monomial(g)
    lcm = monomial_lcm(lf, lg)
    cf = field.div(field.one(), f.terms[lf])
    cg = field.div(field.one(), g.terms[lg])
    mf = MultiPoly(field, f.variables, {monomial_sub(lcm, lf): cf})
    mg = MultiPoly(field, f.variables, {monomial_sub(lcm, lg): cg})
    return mf * f - mg * g


@dataclass
class GroebnerBasis:
    field: Field
    variables: Tuple[str, ...]
    generators: List[MultiPoly]
    order: str = "degrevlex"

    def leading_monomials(self) -> List[Monomial]:
        return [leading_monomial(g) for g in self.generators]

    def reduce(self, p: MultiPoly) -> MultiPoly:
        return normal_form(p, self.generators)

    def contains_one(self) -> bool:
        return any(g.total_degree() == 0 and not g.is_zero()
                   for g in self.generators)


def buchberger(gens: Sequence[MultiPoly]) -> GroebnerBasis:
    """Reduced degrevlex basis of the ideal generated over a prime field."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    field = gens[0].field
    if not isinstance(field, PrimeField):
        raise ValueError("prime-field coefficients only")
    variables = gens[0].variables
    basis: List[MultiPoly] = []
    sugar: List[int] = []
    leads: List[Monomial] = []
    pairs: Set[Tuple[int, int]] = set()
    keys: Dict[Tuple[int, int], tuple] = {}  # pair -> (sugar, degrevlex of lcm)

    def append(g: MultiPoly, s: int) -> None:
        n = len(basis)
        basis.append(g)
        sugar.append(s)
        leads.append(leading_monomial(g))
        for k in range(n):
            lcm = monomial_lcm(leads[n], leads[k])
            pair = (n, k)
            keys[pair] = (max(sugar[n] + sum(lcm) - sum(leads[n]),
                              sugar[k] + sum(lcm) - sum(leads[k])),
                          degrevlex_key(lcm))
            pairs.add(pair)

    for g in gens:
        append(g, g.total_degree())

    while pairs:
        pair = min(pairs, key=keys.__getitem__)
        pairs.discard(pair)
        pair_sugar = keys.pop(pair)[0]
        i, j = pair
        li, lj = leads[i], leads[j]
        lcm = monomial_lcm(li, lj)
        if monomial_mul(li, lj) == lcm:
            continue  # coprime leading terms reduce to zero
        # chain criterion: some k with lm_k | lcm and both mixed pairs done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(leads[k], lcm):
                pik = (max(i, k), min(i, k))
                pjk = (max(j, k), min(j, k))
                if pik not in pairs and pjk not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j])
        r = normal_form(s, basis)
        if r.is_zero():
            continue
        append(r, max(pair_sugar, r.total_degree()))

    return GroebnerBasis(field, variables, _autoreduce(basis))


def _autoreduce(basis: List[MultiPoly]) -> List[MultiPoly]:
    field = basis[0].field
    # drop redundant generators (lead divisible by another lead)
    kept: List[MultiPoly] = []
    leads = [leading_monomial(g) for g in basis]
    for idx, g in enumerate(basis):
        lm = leads[idx]
        if any(k != idx and monomial_divides(leads[k], lm)
               and (leads[k] != lm or k < idx) for k in range(len(basis))):
            continue
        kept.append(g)
    # fully reduce each against the others and normalise leading coefficient
    out: List[MultiPoly] = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        r = normal_form(g, others) if others else g
        if r.is_zero():
            continue
        inv = field.inv(r.terms[leading_monomial(r)])
        out.append(r.scale(inv))
    return sorted(out, key=lambda p: degrevlex_key(leading_monomial(p)))


def s_polynomials_reduce_to_zero(gb: GroebnerBasis) -> bool:
    """Full Buchberger test, independent of how the basis was produced."""
    gens = gb.generators
    for i in range(len(gens)):
        for j in range(i):
            if not normal_form(s_polynomial(gens[i], gens[j]), gens).is_zero():
                return False
    return True


def is_zero_dim_cone(gb: GroebnerBasis) -> bool:
    """True when the homogeneous ideal vanishes only at the origin: every
    variable has a pure power among the leading monomials."""
    leads = gb.leading_monomials()
    n = len(gb.variables)
    for v in range(n):
        if not any(m[v] > 0 and all(m[w] == 0 for w in range(n) if w != v)
                   for m in leads):
            return False
    return True


def smooth_check(cubic: MultiPoly) -> bool:
    """Smoothness of the projective hypersurface over GF(p), p != 3, via
    zero-dimensionality of the cone over the Jacobian scheme.  The Euler
    relation makes the cubic itself redundant among the partials."""
    field = cubic.field
    if not isinstance(field, PrimeField):
        raise ValueError("smoothness check runs over prime fields only")
    if field.p == 3:
        raise ValueError("characteristic 3 is excluded (Euler relation degenerates)")
    if not cubic.is_homogeneous(3) or cubic.is_zero():
        raise ValueError("need a nonzero homogeneous cubic")
    partials = [cubic.derivative(i) for i in range(len(cubic.variables))]
    nonzero = [p for p in partials if not p.is_zero()]
    if len(nonzero) < len(partials):
        return False  # a variable is absent from the Jacobian: singular cone
    gb = buchberger(nonzero)
    return is_zero_dim_cone(gb)


def vanishing_points(polys: Sequence[MultiPoly]) -> List[Tuple[int, ...]]:
    """Brute-force common vanishing locus over a prime field (small p only)."""
    field = polys[0].field
    if not isinstance(field, PrimeField):
        raise ValueError("prime fields only")
    n = len(polys[0].variables)
    out = []
    from itertools import product
    for point in product(range(field.p), repeat=n):
        if all(field.is_zero(p.evaluate(list(point))) for p in polys):
            out.append(point)
    return out
