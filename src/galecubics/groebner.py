"""Buchberger engine over prime fields, for smoothness certificates and
the certificate that a subspace holds no decomposable vector.

Degrevlex only.  Prime fields only: coefficient growth over the rationals
is a deliberate non-goal; to certify a rational cubic smooth, the caller
reduces it at a good prime (upper-semicontinuity of singular loci).

``buchberger`` installs pairs by the Gebauer-Moeller update (Gebauer and
Moeller 1988, in the form of Becker and Weispfenning's UPDATE): of the new
pairs (h, g) it keeps, among those whose lcm another one's lcm divides,
only one, and none with coprime leading monomials; an old pair (g1, g2)
goes when lm(h) divides its lcm and differs from lcm(g1, h) and
lcm(g2, h); an element whose lead lm(h) divides enters no later pair.
The pairs wait in a heap keyed by ``(sugar, degrevlex of the lcm, i, j)``,
so the normal strategy refined by sugar degree (Giovini, Mora, Niesi,
Robbiano, Traverso 1991) picks them and ties have a written order; a pair
the update drops stays in the heap and is skipped when popped.  The basis
is kept packed (see ``_ReducerTable``) and monic with plain ``int``
coefficients in [0, p): each S-polynomial is built on the packed entries
and fully reduced by ``_reduce_packed``, one ``% p`` per term update and
no ``Field`` call.  The reduced basis is unique, so it is that of the pair
loop that stored every pair and picked it with ``min`` (kept as the oracle
of the differential test in ``tests/test_groebner.py``), although the
S-polynomials reduced are others, in another order, and never more.

``normal_form`` keeps the ``MultiPoly`` interface for every field and
reduces on the same packed monomials: each exponent vector becomes one
``int`` whose order is the reverse of degrevlex, so that comparison,
product and divisibility are single integer operations.  This holds while
every exponent stays below ``2**(bits - 1)`` in ``bits``-wide slots;
degrevlex is degree-compatible, so no term of a reduction has a degree
above that of its input, and packing refuses a monomial past the limit
rather than answering wrongly.  The work terms wait in a heap (Monagan and
Pearce 2011), their coefficients in a dict; a key cancelled after it was
pushed is skipped when popped.  Each term is reduced by the first basis
element, in basis order, whose lead divides it.  ``buchberger``'s table
starts as narrow as the generators allow and is repacked wider when an
S-polynomial needs it; the pair heap is keyed by exponent tuples, which a
repack leaves alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Field, require
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
    ``(packed lead, packed monic tail)`` entry per element.

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

    def lcm(self, a: int, b: int) -> int:
        """Slotwise maximum of the exponent parts ``E`` of two packed
        monomials (``h & emask`` with ``emask = (1 << width) - 1``): the
        guard bit of a slot of ``(a | guard) - b`` is set exactly where
        a's exponent is at least b's, and no slot borrows from the next."""
        ge = ((a | self.guard) - b) & self.guard
        take = ge - (ge >> (self.bits - 1))
        return (a & take) | (b & ~take)

    def add(self, g: MultiPoly) -> None:
        if g.is_zero():
            return
        field = g.field
        packed = [(self.pack(m), c) for m, c in g.terms.items()]
        lead, lc = min(packed, key=itemgetter(0))
        inv = field.inv(lc)
        self.entries.append((lead, [(h, field.mul(inv, c))
                                    for h, c in packed if h != lead]))

    def widened(self, degree: int) -> "_ReducerTable":
        """The same entries repacked into slots whose limit reaches
        ``degree``."""
        table = _ReducerTable((), self.nvars, degree)
        pack, unpack = table.pack, self.unpack
        table.entries = [(pack(unpack(lead)),
                          [(pack(unpack(h)), c) for h, c in tail])
                         for lead, tail in self.entries]
        return table


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly],
                table: Optional[_ReducerTable] = None) -> MultiPoly:
    """Full reduction of p modulo the basis (every term reduced).

    Each term is reduced by the first basis element whose leading monomial
    divides it.  ``table``, when given, is the packed form of exactly this
    basis; otherwise one is built here."""
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
        for lead, tail in entries:
            if not (h - lead) & guard:
                break
        else:
            out[table.unpack(h)] = coeff
            continue
        shift = h - lead
        # every new term lies below h, so a popped key never comes back
        for gh, gc in tail:
            key = gh + shift
            if key in work:
                acc = field.sub(work[key], field.mul(coeff, gc))
                if field.is_zero(acc):
                    del work[key]
                else:
                    work[key] = acc
            else:
                acc = field.sub(field.zero(), field.mul(coeff, gc))
                if not field.is_zero(acc):
                    work[key] = acc
                    heappush(heap, key)
    return MultiPoly(field, p.variables, out)


def _reduce_packed(work: Dict[int, int], table: _ReducerTable,
                   p: int) -> List[Tuple[int, int]]:
    """Full reduction over GF(p) of the packed polynomial ``work`` (packed
    monomial -> nonzero ``int`` in [0, p), consumed) by the monic entries
    of ``table``: the remainder as ``(packed monomial, coefficient)``
    pairs, largest monomial first.  The loop of ``normal_form`` on plain
    ``int`` coefficients."""
    entries, guard = table.entries, table.guard
    get = work.get
    heap = list(work)
    heapify(heap)
    out: List[Tuple[int, int]] = []
    while heap:
        h = heappop(heap)
        coeff = work.pop(h, 0)
        if not coeff:
            continue    # cancelled after it was pushed
        for lead, tail in entries:
            if not (h - lead) & guard:
                break
        else:
            out.append((h, coeff))
            continue
        shift = h - lead
        for gh, gc in tail:
            key = gh + shift
            old = get(key)
            if old is None:
                work[key] = -coeff * gc % p
                heappush(heap, key)
            else:
                acc = (old - coeff * gc) % p
                if acc:
                    work[key] = acc
                else:
                    del work[key]
    return out


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

    def contains_one(self) -> bool:
        return any(g.total_degree() == 0 and not g.is_zero()
                   for g in self.generators)


def buchberger(gens: Sequence[MultiPoly]) -> GroebnerBasis:
    """Reduced degrevlex basis of the ideal generated over a prime field."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    field = gens[0].field
    require(field, "Buchberger's algorithm", prime=True)
    p = field.p
    variables = gens[0].variables
    table = _ReducerTable((), len(variables),
                          max(g.total_degree() for g in gens))
    entries = table.entries
    sugar: List[int] = []
    degree: List[int] = []
    lead_e: List[int] = []     # exponent part of each packed lead
    live: List[int] = []       # elements whose lead no later lead divides
    pairs: Dict[Tuple[int, int], int] = {}   # pair -> exponent part of lcm
    heap: List[tuple] = []

    def install(packed: List[Tuple[int, int]], s: int) -> None:
        """Append a packed element, largest monomial first, made monic, of
        sugar at least ``s``, and run the Gebauer-Moeller update."""
        h = len(entries)
        lead, lc = packed[0]
        inv = pow(lc, p - 2, p)
        he = lead & ((1 << table.width) - 1)
        guard, lcm = table.guard, table.lcm
        entries.append((lead, [(t, c * inv % p) for t, c in packed[1:]]))
        degree.append(-(lead >> table.width))
        s = max(s, degree[h])
        sugar.append(s)
        lead_e.append(he)
        new = [(k, lcm(he, lead_e[k])) for k in live]
        kept = []   # (k, lcm, coprime)
        for idx, (k, m) in enumerate(new):
            coprime = m == he + lead_e[k]
            if not coprime and (
                    any(not (m - m2) & guard for _, m2 in new[idx + 1:])
                    or any(not (m - m2) & guard for _, m2, _ in kept)):
                continue
            kept.append((k, m, coprime))
        for pair, m in list(pairs.items()):
            if (m - he) & guard:
                continue    # lm(h) does not divide the lcm
            i, j = pair
            if m != lcm(lead_e[i], he) and m != lcm(lead_e[j], he):
                del pairs[pair]
        live[:] = [k for k in live if (lead_e[k] - he) & guard] + [h]
        for k, m, coprime in kept:
            if coprime:
                continue
            mono = table.unpack(m)
            d = sum(mono)
            pairs[h, k] = m
            heappush(heap, (max(s + d - degree[h], sugar[k] + d - degree[k]),
                            degrevlex_key(mono), h, k))

    for g in gens:
        install(sorted((table.pack(m), c % p) for m, c in g.terms.items()), 0)

    while heap:
        pair_sugar, _, i, j = heappop(heap)
        m = pairs.pop((i, j), None)
        if m is None:
            continue    # dropped by a later update
        mono = table.unpack(m)
        if sum(mono) > table.limit:   # the S-polynomial needs wider slots
            table = table.widened(sum(mono))
            entries = table.entries
            mask = (1 << table.width) - 1
            lead_e[:] = [lead & mask for lead, _ in entries]
            for pair in pairs:
                pairs[pair] = table.lcm(lead_e[pair[0]], lead_e[pair[1]])
        top = table.pack(mono)
        (li, ti), (lj, tj) = entries[i], entries[j]
        shift = top - li
        work = {h + shift: c for h, c in ti}
        shift = top - lj
        for h, c in tj:
            key = h + shift
            acc = (work.get(key, 0) - c) % p
            if acc:
                work[key] = acc
            else:
                work.pop(key, None)
        r = _reduce_packed(work, table, p)
        if r:
            install(r, pair_sugar)

    # reduced basis: the minimal elements, each tail reduced by the others
    guard = table.guard
    minimal = [k for k in live
               if all(k2 == k or (lead_e[k] - lead_e[k2]) & guard
                      for k2 in live)]
    reducers = _ReducerTable((), table.nvars, table.limit)
    out: List[MultiPoly] = []
    for k in sorted(minimal, key=lambda k: entries[k][0], reverse=True):
        lead, tail = entries[k]
        if len(minimal) > 1:
            reducers.entries = [entries[k2] for k2 in minimal if k2 != k]
            tail = _reduce_packed(dict(tail), reducers, p)
        g = MultiPoly(field, variables)
        g.terms = {table.unpack(lead): 1,
                   **{table.unpack(h): c for h, c in tail}}
        out.append(g)
    return GroebnerBasis(field, variables, out)


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
    # characteristic 3 is excluded: the Euler relation degenerates there
    require(cubic.field, "smoothness check", prime=True, exclude=(3,))
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
    require(field, "the point search", prime=True)
    n = len(polys[0].variables)
    out = []
    from itertools import product
    for point in product(range(field.p), repeat=n):
        if all(field.is_zero(p.evaluate(list(point))) for p in polys):
            out.append(point)
    return out
