import hashlib
import random

import pytest

from galecubics import groebner
from galecubics.equivariant import A4FamilyParams, a4_family
from galecubics.fields import QQ, PrimeField, cyclotomic3
from galecubics.groebner import (GroebnerBasis, buchberger, degrevlex_key, is_zero_dim_cone,
                                 normal_form, s_polynomials_reduce_to_zero,
                                 smooth_check, vanishing_points)
from galecubics.groebner import (leading_monomial, monomial_divides, monomial_mul,
                                 monomial_sub)
from galecubics.poly import MultiPoly, monomials_of_degree


def test_degrevlex_order():
    # degree dominates; ties broken by the smallest trailing exponent
    assert degrevlex_key((2, 0, 0)) > degrevlex_key((1, 1, 0))
    # x^2 > xy > y^2 > xz > yz > z^2 in three variables
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [degrevlex_key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)


def test_variables_are_their_own_basis():
    k = PrimeField(5)
    variables = ("x", "y")
    gx = MultiPoly.variable(k, variables, 0)
    gy = MultiPoly.variable(k, variables, 1)
    gb = buchberger([gx, gy])
    assert sorted(str(g) for g in gb.generators) == ["(1)*x", "(1)*y"]


def test_inconsistent_system_contains_one():
    k = PrimeField(5)
    variables = ("x", "y")
    gx = MultiPoly.variable(k, variables, 0)
    gy = MultiPoly.variable(k, variables, 1)
    one = MultiPoly.constant(k, variables, k.one())
    gb = buchberger([gx * gy - one, gx * gx])
    assert gb.contains_one()


def test_rationals_rejected():
    p = MultiPoly.variable(QQ, ("x",), 0)
    with pytest.raises(ValueError):
        buchberger([p])


def random_form(field, variables, degree, rng, density=0.7):
    terms = {}
    for mono in monomials_of_degree(len(variables), degree):
        if rng.random() < density:
            c = field.random(rng)
            if not field.is_zero(c):
                terms[mono] = c
    return MultiPoly(field, variables, terms)


def test_s_polynomials_reduce_for_random_bases():
    rng = random.Random(0)
    for n in range(25):
        field = PrimeField(5 if n % 2 else 7)
        variables = ("x", "y")
        gens = [random_form(field, variables, rng.choice((1, 2)), rng)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        assert s_polynomials_reduce_to_zero(gb)
        # the normal form of each generator is zero
        for g in gens:
            assert normal_form(g, gb.generators).is_zero()


def test_zero_dim_cone_examples():
    k = PrimeField(5)
    variables = tuple("xyz")
    gens = [MultiPoly.variable(k, variables, i) for i in range(3)]
    assert is_zero_dim_cone(buchberger(gens))
    gb = buchberger([gens[0]])
    assert not is_zero_dim_cone(gb)


def test_zero_dim_agrees_with_enumeration():
    rng = random.Random(1)
    zero_cases = positive_cases = 0
    for n in range(50):
        field = PrimeField(5 if n % 2 else 7)
        nvars = 2 + (n % 2)
        variables = tuple(f"x{i}" for i in range(nvars))
        if n % 5 < 3:
            gens = [random_form(field, variables, rng.choice((1, 2)), rng)
                    for _ in range(nvars)]
        else:
            ell = random_form(field, variables, 1, rng)
            gens = [ell * random_form(field, variables, 1, rng)
                    for _ in range(nvars)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        zero_dim = is_zero_dim_cone(gb)
        nonzero_points = [p for p in vanishing_points(gens) if any(p)]
        if zero_dim:
            assert not nonzero_points
            zero_cases += 1
        else:
            positive_cases += 1
        if n % 5 >= 3 and all(not g.is_zero() for g in gens):
            assert not zero_dim
    assert zero_cases > 0 and positive_cases > 0


VARS6 = tuple(f"X{i}" for i in range(6))


def test_fermat_cubic_smooth():
    k = PrimeField(97)
    fermat = MultiPoly(k, VARS6, {
        tuple(3 if j == i else 0 for j in range(6)): k.one() for i in range(6)})
    assert smooth_check(fermat)


def test_visibly_singular_cubic():
    k = PrimeField(97)
    cubic = MultiPoly(k, VARS6, {(2, 1, 0, 0, 0, 0): k.one()})
    assert not smooth_check(cubic)
    cone = MultiPoly(k, VARS6, {(3, 0, 0, 0, 0, 0): k.one()})
    assert not smooth_check(cone)


def test_smooth_check_guards():
    k3 = PrimeField(3)
    cubic3 = MultiPoly(k3, VARS6, {(3, 0, 0, 0, 0, 0): k3.one()})
    with pytest.raises(ValueError):
        smooth_check(cubic3)
    k = PrimeField(97)
    quad = MultiPoly(k, VARS6, {(2, 0, 0, 0, 0, 0): k.one()})
    with pytest.raises(ValueError):
        smooth_check(quad)
    rational_cubic = MultiPoly(QQ, VARS6, {(1, 1, 1, 0, 0, 0): QQ.one()})
    with pytest.raises(ValueError):
        smooth_check(rational_cubic)


# -- differential test against the pair loop that recomputed every key ------

def reference_buchberger(gens):
    """The engine as it was before leads and pair keys were stored: every
    selection recomputes every pair key.  Test-only oracle; it reaches
    ``s_polynomial`` and ``normal_form`` through the module so that the
    counting wrappers below see its reductions too."""
    from galecubics.groebner import (leading_monomial, monomial_divides,
                                     monomial_lcm, monomial_mul)
    gens = [g for g in gens if not g.is_zero()]
    field = gens[0].field
    variables = gens[0].variables
    basis = []
    sugar = []
    for g in gens:
        basis.append(g)
        sugar.append(g.total_degree())

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def pair_key(pair):
        i, j = pair
        lcm = monomial_lcm(leading_monomial(basis[i]), leading_monomial(basis[j]))
        s = max(sugar[i] + sum(lcm) - sum(leading_monomial(basis[i])),
                sugar[j] + sum(lcm) - sum(leading_monomial(basis[j])))
        return (s, degrevlex_key(lcm))

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        li, lj = leading_monomial(basis[i]), leading_monomial(basis[j])
        lcm = monomial_lcm(li, lj)
        if monomial_mul(li, lj) == lcm:
            continue  # coprime leading terms reduce to zero
        # chain criterion: some k with lm_k | lcm and both mixed pairs done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(leading_monomial(basis[k]), lcm):
                pik = (max(i, k), min(i, k))
                pjk = (max(j, k), min(j, k))
                if pik not in pairs and pjk not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = groebner.s_polynomial(basis[i], basis[j])
        r = groebner.normal_form(s, basis)
        if r.is_zero():
            continue
        new_sugar = max(sugar[i] + sum(lcm) - sum(li),
                        sugar[j] + sum(lcm) - sum(lj))
        basis.append(r)
        sugar.append(max(new_sugar, r.total_degree()))
        new_index = len(basis) - 1
        for k in range(new_index):
            pairs.add((new_index, k))

    return GroebnerBasis(field, variables, reference_autoreduce(basis))


def reference_autoreduce(basis):
    """Reduced basis: drop every element whose lead another lead divides,
    fully reduce the rest against each other through ``normal_form``, make
    them monic."""
    field = basis[0].field
    table = groebner._ReducerTable(basis, len(basis[0].variables),
                                   max(g.total_degree() for g in basis))
    leads = [lead for lead, _ in table.entries]
    kept, kept_entries = [], []
    for idx, (g, entry) in enumerate(zip(basis, table.entries)):
        lm = leads[idx]
        if any(k != idx and not (lm - leads[k]) & table.guard
               and (leads[k] != lm or k < idx) for k in range(len(basis))):
            continue
        kept.append(g)
        kept_entries.append(entry)
    out = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        if others:
            rest = groebner._ReducerTable((), table.nvars, table.limit)
            rest.entries = kept_entries[:idx] + kept_entries[idx + 1:]
            g = groebner.normal_form(g, others, rest)
        if not g.is_zero():
            out.append(g.scale(field.inv(g.terms[leading_monomial(g)])))
    return sorted(out, key=lambda p: degrevlex_key(leading_monomial(p)))


@pytest.fixture
def reductions(monkeypatch):
    """Count the reductions of each engine: ``normal_form`` calls of the
    reference pair loop, ``_reduce_packed`` calls of ``buchberger``, and
    log whether each packed one went to zero.  Both counts include the
    final inter-reduction, one call per element of the minimal basis when
    there are two or more: the same number on both sides, because the
    minimal generators of a leading ideal are unique."""
    counts = {"reference": 0, "packed": 0, "log": []}
    nf, reduce_packed = groebner.normal_form, groebner._reduce_packed

    def counted_nf(p, basis, table=None):
        counts["reference"] += 1
        return nf(p, basis, table)

    def counted_reduce(work, table, p):
        counts["packed"] += 1
        r = reduce_packed(work, table, p)
        counts["log"].append(not r)
        return r

    monkeypatch.setattr(groebner, "normal_form", counted_nf)
    monkeypatch.setattr(groebner, "_reduce_packed", counted_reduce)
    return counts


def terms_of(gb):
    return [sorted(g.terms.items()) for g in gb.generators]


def random_system(n):
    rng = random.Random(1000 + n)
    field = PrimeField((5, 7, 97)[n % 3])
    nvars = 2 + n % 3
    variables = tuple(f"x{i}" for i in range(nvars))
    gens = []
    while len(gens) < 2 + n % (nvars - 1):
        degree = rng.randint(1, 3)
        g = random_form(field, variables, degree, rng, density=0.4)
        if n % 2:   # inhomogeneous: sugar and degree part ways
            for d in range(degree):
                g = g + random_form(field, variables, d, rng, density=0.3)
        if not g.is_zero():
            gens.append(g)
    return gens


def assert_matches_reference(gens, reductions):
    expected = reference_buchberger(gens)
    got = buchberger(gens)
    # the reduced basis is unique: the same terms, generators in the same order
    assert terms_of(got) == terms_of(expected)
    assert reductions["packed"] <= reductions["reference"]


@pytest.mark.parametrize("n", range(40))
def test_buchberger_matches_reference_pair_loop(reductions, n):
    assert_matches_reference(random_system(n), reductions)


def test_differential_systems_exercise_every_branch(reductions):
    for n in range(40):
        buchberger(random_system(n))
    log = reductions["log"]
    assert any(log) and not all(log)


# Reduced bases of the Jacobian ideals of the two A4 cubics at the standard
# parameters over GF(97), pinned from the engine before leads and pair keys
# were stored: the sha256 of repr(sorted(sorted(g.terms.items()) for g in gb)).
A4_JACOBIAN_BASES = {
    "E": (39, "e8c791698d5b8fee52f4033b4892fdd74370a18ee35ba80bda84b965bb1a0781"),
    "F": (39, "74198e2d7672e805110a15bce8a299dc7690d8225fb30c2ec0f03a8ac7907c63"),
}


def test_a4_jacobian_basis_is_pinned():
    family = a4_family(A4FamilyParams.standard(PrimeField(97)))
    for tag, eq in (("E", family.eq_e), ("F", family.eq_f)):
        cubic = eq.cubic_polynomial()
        gb = buchberger([cubic.derivative(i) for i in range(len(cubic.variables))])
        digest = hashlib.sha256(repr(sorted(terms_of(gb))).encode()).hexdigest()
        assert (len(gb.generators), digest) == A4_JACOBIAN_BASES[tag]
        assert is_zero_dim_cone(gb)


# -- packed monomials and heap reduction ------------------------------------

def reference_normal_form(p, basis):
    """``normal_form`` as it was before monomials were packed: the work set
    rescanned with ``max`` at every step, leads recomputed per call, tuple
    divisibility.  Test-only oracle."""
    field = p.field
    lead = [(leading_monomial(g), g) for g in basis if not g.is_zero()]
    work = dict(p.terms)
    out = {}
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


NF_FIELDS = [PrimeField(2), PrimeField(5), PrimeField(97), QQ,
             cyclotomic3(PrimeField(5))]


def random_poly(field, variables, degree, rng, homogeneous):
    p = random_form(field, variables, degree, rng, density=0.5)
    if not homogeneous:
        for d in range(degree):
            p = p + random_form(field, variables, d, rng, density=0.3)
    return p


def random_reduction(field, n):
    """A seeded ``(p, basis)``: unreduced reducers, every fifth case with a
    zero p, a constant reducer, or a duplicated lead."""
    rng = random.Random(2000 + n)
    nvars = 2 + n % 3
    variables = tuple(f"x{i}" for i in range(nvars))
    homogeneous = n % 2 == 0
    basis = [random_poly(field, variables, rng.randint(1, 3), rng, homogeneous)
             for _ in range(1 + n % 4)]
    if n % 5 == 1:   # another element with the same lead, later in the basis
        g = basis[0]
        basis.append(g.scale(field.from_int(2)) + random_poly(
            field, variables, max(g.total_degree() - 1, 0), rng, homogeneous))
    if n % 5 == 2:
        basis.append(MultiPoly.constant(field, variables, field.from_int(3)))
    p = (MultiPoly.zero(field, variables) if n % 5 == 3 else
         random_poly(field, variables, rng.randint(2, 5), rng, homogeneous))
    return p, basis


@pytest.mark.parametrize("field", NF_FIELDS, ids=lambda k: k.descriptor)
def test_normal_form_matches_reference(field):
    reduced = 0
    for n in range(30):
        p, basis = random_reduction(field, n)
        expected = reference_normal_form(p, basis)
        got = normal_form(p, basis)
        # equal terms, inserted in the same order
        assert list(got.terms.items()) == list(expected.terms.items())
        reduced += got.terms != p.terms
    assert reduced > 10


def packing_cases():
    for nvars in (3, 4):
        for degree in (3, 4):   # 3- and 4-bit slots
            table = groebner._ReducerTable((), nvars, degree)
            # every monomial up to the slot limit, 2**(bits - 1) - 1, which
            # covers degree 4 and single exponents at the limit
            monos = [m for d in range(table.limit + 1)
                     for m in monomials_of_degree(nvars, d)]
            yield table, monos


@pytest.mark.parametrize("table,monos", packing_cases(),
                         ids=["3vars-3bits", "3vars-4bits", "4vars-3bits", "4vars-4bits"])
def test_packing_matches_tuple_operations(table, monos):
    packed = {m: table.pack(m) for m in monos}
    for m, h in packed.items():
        assert table.unpack(h) == m
    for a, ha in packed.items():
        for b, hb in packed.items():
            # the smaller packed value is the larger monomial
            assert (ha < hb) == (degrevlex_key(a) > degrevlex_key(b))
            assert (not (hb - ha) & table.guard) == monomial_divides(a, b)
            if sum(a) + sum(b) <= table.limit:
                assert ha + hb == table.pack(monomial_mul(a, b))


def test_packing_refuses_degrees_past_the_slot_limit():
    table = groebner._ReducerTable((), 3, 2)
    assert (table.bits, table.limit) == (3, 3)
    table.pack((0, 0, 3))
    with pytest.raises(ValueError):
        table.pack((2, 1, 1))
    with pytest.raises(ValueError):
        table.pack((4, 0, 0))


# x0^2 + 6*x0 + 6*x1^2 and 4*x0^2 + 6*x0*x1 over GF(7): the generators pack
# into 3-bit slots (degrees up to 3), and an S-polynomial of degree 4 follows
REPACK_SYSTEM = {(2, 0): 1, (1, 0): 6, (0, 2): 6}, {(2, 0): 4, (1, 1): 6}

# three cubics over GF(7) with leads x0^3, x0^2*x1, x0*x1^2 (3-bit slots):
# the generator pairs left by the update have lcms x0^3*x1 and x0^2*x1^2 of
# degree 4, so the first pair popped repacks the table with the other one
# still waiting in the heap
REPACK_PENDING_SYSTEM = (
    {(3, 0, 0): 1, (0, 2, 1): 3, (0, 0, 3): 5},
    {(2, 1, 0): 2, (1, 0, 2): 1, (0, 3, 0): 4},
    {(1, 2, 0): 1, (2, 0, 1): 6, (0, 1, 2): 2},
)


def spy_on_repacks(monkeypatch):
    """Record the slot width of every packed reduction, and the number of
    pair-heap entries still waiting at every repack."""
    seen = {"widths": [], "pending": [], "heap": 0}
    reduce_packed, heappop = groebner._reduce_packed, groebner.heappop
    widened = groebner._ReducerTable.widened

    def width_reduce(work, table, p):
        seen["widths"].append(table.bits)
        return reduce_packed(work, table, p)

    def pair_pop(heap):
        item = heappop(heap)
        if isinstance(item, tuple):    # the pair heap, not a term heap
            seen["heap"] = len(heap)
        return item

    def spy_widened(table, degree):
        seen["pending"].append(seen["heap"])
        return widened(table, degree)

    monkeypatch.setattr(groebner, "_reduce_packed", width_reduce)
    monkeypatch.setattr(groebner, "heappop", pair_pop)
    monkeypatch.setattr(groebner._ReducerTable, "widened", spy_widened)
    return seen


def test_buchberger_repacks_wider_slots(reductions, monkeypatch):
    field = PrimeField(7)
    gens = [MultiPoly(field, ("x0", "x1"), terms) for terms in REPACK_SYSTEM]
    seen = spy_on_repacks(monkeypatch)
    assert_matches_reference(gens, reductions)
    assert seen["widths"][0] == 3 and max(seen["widths"]) > 3


def test_buchberger_repacks_with_pairs_in_the_heap(reductions, monkeypatch):
    field = PrimeField(7)
    gens = [MultiPoly(field, ("x0", "x1", "x2"), terms)
            for terms in REPACK_PENDING_SYSTEM]
    seen = spy_on_repacks(monkeypatch)
    assert_matches_reference(gens, reductions)
    assert seen["pending"] and seen["pending"][0] > 0
    # the repack came before the first reduction, which ran in wider slots
    assert seen["widths"][0] > 3
