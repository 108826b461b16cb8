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

``normal_form`` reduces on packed monomials: each exponent vector becomes
one ``int`` (see ``_ReducerTable``) whose order is the reverse of degrevlex,
so that comparison, product and divisibility are single integer operations.
This holds while every exponent stays below ``2**(bits - 1)`` in ``bits``-
wide slots; degrevlex is degree-compatible, so no term of a reduction has a
degree above that of its input, and packing refuses a monomial past the
limit rather than answering wrongly.  The work terms wait in a heap
(Monagan and Pearce 2011), their coefficients in a dict; a key cancelled
after it was pushed is skipped when popped.  Each term is still reduced by
the first basis element, in basis order, whose lead divides it, with the
same ``Field`` operations, so every remainder and every basis is that of
the tuple engine.  ``buchberger`` packs each element once, when it is
appended, into a table that serves every reduction of the run and
``_autoreduce``; the slots start as narrow as the generators allow and the
table is repacked wider when an S-polynomial needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


class _ReducerTable:
    """Nonzero basis elements packed for reduction, in basis order: one
    ``(packed lead, lead coefficient, packed tail)`` entry per element.

    A monomial m in n variables packs to ``E(m) - (deg(m) << width)``, where
    E puts each exponent in a ``bits``-wide slot (variable 0 lowest) and
    ``width = bits * n``.  The smaller packed value is the larger monomial in
    degrevlex, a product is a sum, and l divides m exactly when
    ``(m - l) & guard`` is zero, ``guard`` holding the top bit of every slot.
    Both rules need every exponent at most ``limit = 2**(bits - 1) - 1``;
    the slots are the narrowest whose limit reaches ``degree``, and ``pack``
    refuses a monomial past the limit instead of packing it wrongly."""

    __slots__ = ("nvars", "bits", "width", "guard", "limit", "entries")

    def __init__(self, basis: Sequence[MultiPoly], nvars: int, degree: int):
        bits = degree.bit_length() + 1
        self.nvars = nvars
        self.bits = bits
        self.width = bits * nvars
        self.guard = sum(1 << (bits * (i + 1) - 1) for i in range(nvars))
        self.limit = (1 << (bits - 1)) - 1
        self.entries: List[tuple] = []
        for g in basis:
            self.add(g)

    def pack(self, mono: Monomial) -> int:
        degree = sum(mono)
        if degree > self.limit:
            raise ValueError(f"degree {degree} exceeds the packed slot "
                             f"limit {self.limit}")
        e = 0
        for x in reversed(mono):
            e = (e << self.bits) | x
        return e - (degree << self.width)

    def unpack(self, h: int) -> Monomial:
        e, bits = h & ((1 << self.width) - 1), self.bits
        slot = (1 << bits) - 1
        return tuple((e >> (bits * i)) & slot for i in range(self.nvars))

    def add(self, g: MultiPoly) -> None:
        if g.is_zero():
            return
        packed = [(self.pack(m), c) for m, c in g.terms.items()]
        lead, lc = min(packed, key=itemgetter(0))
        self.entries.append((lead, lc, [t for t in packed if t[0] != lead]))

    def without(self, index: int) -> "_ReducerTable":
        """The same packing with entry ``index`` left out."""
        table = _ReducerTable((), self.nvars, self.limit)
        table.entries = self.entries[:index] + self.entries[index + 1:]
        return table


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly],
                table: Optional[_ReducerTable] = None) -> MultiPoly:
    """Full reduction of p modulo the basis (every term reduced).

    Each term is reduced by the first basis element whose leading monomial
    divides it.  ``table``, when given, is the packed form of exactly this
    basis (``buchberger`` keeps one per run); otherwise one is built here."""
    field = p.field
    if table is None:
        degree = max([p.total_degree()] + [g.total_degree() for g in basis])
        table = _ReducerTable(basis, len(p.variables), degree)
    entries, guard = table.entries, table.guard
    work = {table.pack(m): c for m, c in p.terms.items()}
    heap = list(work)
    heapify(heap)
    out: Dict[Monomial, object] = {}
    while heap:
        h = heappop(heap)
        if h not in work:
            continue    # cancelled after it was pushed
        coeff = work.pop(h)
        for lead, lc, tail in entries:
            if not (h - lead) & guard:
                break
        else:
            out[table.unpack(h)] = coeff
            continue
        shift = h - lead
        factor = field.div(coeff, lc)
        # every new term lies below h, so a popped key never comes back
        for gh, gc in tail:
            key = gh + shift
            if key in work:
                acc = field.sub(work[key], field.mul(factor, gc))
                if field.is_zero(acc):
                    del work[key]
                else:
                    work[key] = acc
            else:
                acc = field.sub(field.zero(), field.mul(factor, gc))
                if not field.is_zero(acc):
                    work[key] = acc
                    heappush(heap, key)
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
    table = _ReducerTable((), len(variables),
                          max(g.total_degree() for g in gens))

    def append(g: MultiPoly, s: int) -> None:
        n = len(basis)
        basis.append(g)
        sugar.append(s)
        leads.append(leading_monomial(g))
        table.add(g)
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
        if sum(lcm) > table.limit:   # the S-polynomial needs wider slots
            table = _ReducerTable(basis, len(variables), sum(lcm))
        r = normal_form(s, basis, table)
        if r.is_zero():
            continue
        append(r, max(pair_sugar, r.total_degree()))

    return GroebnerBasis(field, variables, _autoreduce(basis, table))


def _autoreduce(basis: List[MultiPoly],
                table: Optional[_ReducerTable] = None) -> List[MultiPoly]:
    """Reduced basis: drop every element whose lead another lead divides,
    fully reduce the rest against each other, make them monic.  ``table`` is
    the packed form of ``basis``, built here when not given."""
    field = basis[0].field
    if table is None:
        table = _ReducerTable(basis, len(basis[0].variables),
                              max(g.total_degree() for g in basis))
    # drop redundant generators (lead divisible by another lead)
    leads = [lead for lead, _, _ in table.entries]
    guard = table.guard
    kept: List[MultiPoly] = []
    kept_table = _ReducerTable((), table.nvars, table.limit)
    for idx, (g, entry) in enumerate(zip(basis, table.entries)):
        lm = leads[idx]
        if any(k != idx and not (lm - leads[k]) & guard
               and (leads[k] != lm or k < idx) for k in range(len(basis))):
            continue
        kept.append(g)
        kept_table.entries.append(entry)
    # fully reduce each against the others and normalise leading coefficient
    out: List[MultiPoly] = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        r = normal_form(g, others, kept_table.without(idx)) if others else g
        if r.is_zero():
            continue
        inv = field.inv(r.terms[leading_monomial(r)])
        out.append(r.scale(inv))
    return sorted(out, key=lambda p: degrevlex_key(leading_monomial(p)))


def s_polynomials_reduce_to_zero(gb: GroebnerBasis) -> bool:
    """Full Buchberger test, independent of how the basis was produced."""
    gens = gb.generators
    # an S-polynomial has at most twice the top degree
    top = max((g.total_degree() for g in gens), default=0)
    table = _ReducerTable(gens, len(gb.variables), 2 * top)
    for i in range(len(gens)):
        for j in range(i):
            s = s_polynomial(gens[i], gens[j])
            if not normal_form(s, gens, table).is_zero():
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
