"""The acceptance battery: every headline identity and count, exercised at
full sample sizes with fixed seeds, each reported as one named check.

The same functions and the same budget table (``BUDGET_SECONDS``) back the
command-line ``selftest all`` and the pytest acceptance module, so the
shipped binary and the test suite agree by construction.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .epw import (EPWPoint, conic_covector, epw_contains, epw_line_degree,
                  epw_to_lines, harvest_epw_points, line_to_epw,
                  residual_conic, rho_plane_condition, sigma_plane_point,
                  sigma_planes_disjoint, sigma_prime_plane_point)
from .equivariant import (A4FamilyParams, a4_family, a4_point_and_covector_maps,
                          a4_relations_hold, equivariance_probe, is_g_lagrangian)
from .fields import QQ, Field, PrimeField
from .gale import NonSyzygeticEquation, composition_is_zero, gale_dual
from .groebner import (buchberger, is_zero_dim_cone, smooth_check,
                       s_polynomials_reduce_to_zero, vanishing_points)
from .invariants import (big_cubics, build_frame, generator_invariance,
                         project_cubics, sigma_quadric, trace_plus_product)
from .lagrangian import lagrangian_from_gale, sigma_normal_form
from .lattice import (GlueContext, anti_isometric_subgroup_count,
                      ds_isometry_group_order, enumerate_glue_groups,
                      group_action_orbits)
from .linalg import Matrix
from .gmlink import Z15Ideal, E_SIDE, F_SIDE, ideal_membership_deg3
from .poly import MultiPoly, scalar_multiple
from .exterior import frame_covector, orientation_pair

DEFAULT_SEED = 61320


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    seconds: float


def _random_unimodular3(field: Field, rng: random.Random) -> List[List]:
    m = Matrix.identity(field, 3)
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        e = Matrix.identity(field, 3)
        e.data[i][j] = field.random(rng)
        m = m * e
    return m.data


def check_gale_composition_zero(seed: int = DEFAULT_SEED,
                                samples_per_field: int = 100) -> Tuple[bool, str]:
    count = 0
    for field in (QQ, PrimeField(101)):
        rng = random.Random(seed)
        for _ in range(samples_per_field):
            eq = NonSyzygeticEquation.random(field, rng)
            dual = gale_dual(eq)
            if not composition_is_zero(eq, dual):
                return False, f"composition nonzero over {field.descriptor}"
            ddual = gale_dual(dual)
            if (eq.coefficient_matrix().row_space()
                    != ddual.coefficient_matrix().row_space()):
                return False, f"double dual row space differs over {field.descriptor}"
            count += 1
    return True, f"{count} random rank-6 tuples, both fields, exact"


def check_sigma_normal_form(seed: int = DEFAULT_SEED,
                            samples_per_field: int = 100) -> Tuple[bool, str]:
    count = 0
    for field in (QQ, PrimeField(101)):
        rng = random.Random(seed)
        normal = sigma_normal_form(field)
        for _ in range(samples_per_field):
            eq = NonSyzygeticEquation.random(field, rng)
            for i in (1, 2, 3):
                _, pres = lagrangian_from_gale(eq, i)
                if not pres.alpha().is_zero():
                    return False, "alpha != 0"
                if pres.sigma() != normal:
                    return False, "sigma not in normal form"
            count += 1
    return True, f"{count} tuples x 3 choices: alpha = 0 and sigma normal"


def check_frame_identities(seed: int = DEFAULT_SEED, _unused: int = 0) -> Tuple[bool, str]:
    field = QQ
    frame = build_frame(field)
    if sigma_quadric(field, frame) != trace_plus_product(field, frame):
        return False, "sigma identity fails"
    for i in range(10):
        for j in range(10):
            expected = field.one() if i == j else field.zero()
            if orientation_pair(frame_covector(field, i),
                                frame_covector(field, 10 + j)) != expected:
                return False, f"dual-basis pairing fails at ({i},{j})"
    if frame.evaluation_matrix().rank() != 20:
        return False, "frame evaluation matrix is singular"
    return True, "sigma identity exact; 10x10 dual pairing = identity"


def check_projection_roundtrip(seed: int = DEFAULT_SEED,
                               samples: int = 50) -> Tuple[bool, str]:
    fields = (QQ, PrimeField(101))
    count = 0
    for n in range(samples):
        field = fields[n % 2]
        rng = random.Random(seed + n)
        eq = NonSyzygeticEquation.random(field, rng)
        i = (n % 3) + 1
        data, pres = lagrangian_from_gale(eq, i)
        eq_plus, eq_minus, report = project_cubics(data, pres)
        if not report.ok():
            return False, f"cone/restriction check failed (sample {n})"
        ginv = pres.g.inverse()
        hinv = pres.h.inverse()
        plus_back = eq_plus.cubic_polynomial().linear_substitution(
            ginv, pres.normalized_eq.variables)
        minus_back = eq_minus.cubic_polynomial().linear_substitution(
            hinv, pres.normalized_dual.variables)
        plus_original = eq if eq.sign == 1 else gale_dual(eq)
        minus_original = gale_dual(eq) if eq.sign == 1 else eq
        if scalar_multiple(plus_back, plus_original.cubic_polynomial()) is None:
            return False, f"plus cubic not reproduced (sample {n})"
        if scalar_multiple(minus_back,
                           minus_original.cubic_polynomial().rename(
                               pres.normalized_dual.variables)) is None:
            return False, f"minus cubic not reproduced (sample {n})"
        count += 1
    return True, f"{count} cone projections reproduce both cubics up to scalar"


def check_overlattices(seed: int = DEFAULT_SEED, _unused: int = 0) -> Tuple[bool, str]:
    ctx = GlueContext()
    if ctx.ds.order() != 12 or ctx.dt.order() != 36:
        return False, "discriminant group orders wrong"
    groups = enumerate_glue_groups(ctx)   # raises if the enumerations disagree
    if len(groups) != 24:
        return False, f"glue-group count {len(groups)} != 24"
    targets, per = anti_isometric_subgroup_count(ctx)
    if (targets, per) != (2, 12):
        return False, f"structure ({targets} subgroups x {per}) != (2 x 12)"
    if ds_isometry_group_order(ctx) != 12:
        return False, "isometry group of the small form is not of order 12"
    dec = group_action_orbits(ctx)
    if sorted(len(o) for o in dec.orbits) != [12, 12]:
        return False, "orbit sizes are not 12 + 12"
    if set(dec.stabilizer_orders) != {2} or not dec.stabilizers_contain_minus_id:
        return False, "stabilizers are not exactly +-id"
    if dec.fm_partner_count != 2:
        return False, f"partner count {dec.fm_partner_count} != 2"
    return True, "24 = 2 x 12 glue groups (three enumerations agree); two orbits of 12; count 2"


def check_epw_planes(seed: int = DEFAULT_SEED, points_per_plane: int = 50) -> Tuple[bool, str]:
    total = 0
    for field in (QQ, PrimeField(101)):
        rng = random.Random(seed + 7)
        eq = NonSyzygeticEquation.random(field, rng)
        data, _ = lagrangian_from_gale(eq, 1)
        for n in range(points_per_plane // 2):
            f = [field.random(rng) for _ in range(3)]
            if all(field.is_zero(c) for c in f):
                continue
            member, _dim = epw_contains(data, sigma_plane_point(field, f))
            if not member:
                return False, "coordinate-plane point not in the locus"
            e = [field.random(rng) for _ in range(3)]
            if all(field.is_zero(c) for c in e):
                continue
            member, _dim = epw_contains(data, sigma_prime_plane_point(field, e))
            if not member:
                return False, "second coordinate-plane point not in the locus"
            total += 2
        e_cols = Matrix.from_columns(field, [[field.one() if r == c else field.zero()
                                              for r in range(6)] for c in range(3)])
        f_cols = Matrix.from_columns(field, [[field.one() if r == c + 3 else field.zero()
                                              for r in range(6)] for c in range(3)])
        for v3, name in ((e_cols, "E"), (f_cols, "F")):
            ok, dim = rho_plane_condition(data, v3)
            if not ok or dim != 4:
                return False, f"plane condition at {name}: dim {dim} != 4"
        if not sigma_planes_disjoint(field):
            return False, "coordinate planes are not disjoint"
        from .epw import decomposable_vector_check
        if not decomposable_vector_check(data, rng, samples=50).passed():
            return False, "sampled decomposable vector inside the subspace"
    return True, (f"{total} plane points pass membership; dims exactly 4; "
                  f"planes disjoint; no sampled decomposable vectors")


def check_epw_line_degree(seed: int = DEFAULT_SEED, instances: int = 5,
                          lines_per_instance: int = 10) -> Tuple[bool, str]:
    field = PrimeField(101)
    lines = 0
    for n in range(instances):
        rng = random.Random(seed + 100 + n)
        eq = NonSyzygeticEquation.random(field, rng)
        data, _ = lagrangian_from_gale(eq, (n % 3) + 1)
        for _ in range(lines_per_instance):
            p0 = EPWPoint.make(field, [field.random(rng) for _ in range(6)])
            p1 = EPWPoint.make(field, [field.random(rng) for _ in range(6)])
            if p0.same_point(p1):
                continue
            sextic = epw_line_degree(data, p0, p1)
            if sextic.total_degree() != 6:
                return False, f"degree {sextic.total_degree()} != 6"
            roots = {t for t in field.elements()
                     if field.is_zero(sextic.evaluate([t]))}
            # an independent route: membership at each point of the pencil
            scan = {t for t in field.elements() if epw_contains(data, EPWPoint.make(
                field, [field.add(a, field.mul(t, b))
                        for a, b in zip(p0.coords, p1.coords)]))[0]}
            if roots != scan:
                return False, "roots and membership points disagree"
            lines += 1
    return True, f"{lines} pencils: degree six, roots = membership points"


# (i, sign): every choice of L_i on a plus and on a minus tuple
L_CHOICES_BOTH_SIGNS = ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))


def _instance_for(field: Field, rng: random.Random, sign: int, i: int):
    while True:
        eq = NonSyzygeticEquation.random(field, rng)
        if eq.sign == sign:
            return eq, lagrangian_from_gale(eq, i)[0]


def check_singular_conics(seed: int = DEFAULT_SEED, per_instance: int = 7) -> Tuple[bool, str]:
    field = PrimeField(101)
    members = non_members = 0
    for n, (i, sign) in enumerate(L_CHOICES_BOTH_SIGNS):
        rng = random.Random(seed + 200 + n)
        eq, data = _instance_for(field, rng, sign, i)
        points = harvest_epw_points(eq, i, data, rng, per_instance)
        if len(points) < per_instance:
            return False, f"harvest found only {len(points)} usable points (L{i})"
        for hp in points:
            if not field.is_zero(residual_conic(eq, i, hp.point).det()):
                return False, f"conic determinant nonzero at a membership point (L{i})"
            members += 1
        # off the locus the determinant generically stays nonzero; sampled,
        # logged, and asserted for the fixed seed
        tested = 0
        while tested < per_instance:
            p = EPWPoint.make(field, [field.random(rng) for _ in range(6)])
            if epw_contains(data, conic_covector(eq, p))[0]:
                continue
            try:
                conic = residual_conic(eq, i, p)
            except ValueError:
                continue
            if field.is_zero(conic.det()):
                return False, f"conic degenerated off the locus (L{i}; resample seed)"
            tested += 1
            non_members += 1
    return True, (f"{members} membership points: det = 0 exactly; "
                  f"{non_members} off-locus points: det != 0 (L1-L3, both signs)")


def check_fano_roundtrip(seed: int = DEFAULT_SEED, needed: int = 4) -> Tuple[bool, str]:
    field = PrimeField(101)
    done = 0
    for n, (i, sign) in enumerate(L_CHOICES_BOTH_SIGNS):
        rng = random.Random(seed + 300 + n)
        eq, data = _instance_for(field, rng, sign, i)
        roundtrips = 0
        points = harvest_epw_points(eq, i, data, rng, 3 * needed)
        for hp in points:
            split = epw_to_lines(eq, i, hp.point)
            if split.lines is None:
                continue
            for line in split.lines:
                back = line_to_epw(eq, i, line)
                if not back.same_point(hp.point):
                    return False, f"roundtrip returned a different point (L{i})"
                roundtrips += 1
            if roundtrips >= needed:
                break
        if roundtrips < needed:
            return False, f"only {roundtrips} roundtrips available (L{i}, sign {sign})"
        done += roundtrips
    return True, (f"{done} line roundtrips reproduce their points exactly "
                  f"(L1-L3, both signs)")


def check_gm_membership(seed: int = DEFAULT_SEED, _unused: int = 0) -> Tuple[bool, str]:
    field = QQ
    xt_e, xt_f = big_cubics(field)
    for cubic, side, name in ((xt_e, E_SIDE, "E"), (xt_f, F_SIDE, "F")):
        quadrics = Z15Ideal.build(field, side).quadrics
        cert = ideal_membership_deg3(cubic, quadrics)
        if cert is None:
            return False, f"no certificate on the {name} side"
        acc = MultiPoly.zero(field, cubic.variables)
        for q, ell in zip(quadrics, cert):
            acc = acc + q * ell
        if acc != cubic:
            return False, f"certificate fails re-expansion on the {name} side"
    rng = random.Random(seed)
    from .invariants import LEX3_VARIABLES
    from .poly import monomials_of_degree
    terms = {}
    for mono in monomials_of_degree(20, 3):
        if rng.random() < 0.02:
            terms[mono] = field.random(rng)
    random_cubic = MultiPoly(field, LEX3_VARIABLES, terms)
    quadrics = Z15Ideal.build(field, E_SIDE).quadrics
    if (not random_cubic.is_zero()
            and ideal_membership_deg3(random_cubic, quadrics) is not None):
        return False, "random cubic unexpectedly joined the ideal"
    return True, "certificates on both sides, re-verified by expansion"


def check_a4_family(seed: int = DEFAULT_SEED, probe_points: int = 10) -> Tuple[bool, str]:
    field = PrimeField(97)
    params = A4FamilyParams.standard(field)
    if params.xi != 35:
        return False, f"default cube root {params.xi} != 35"
    family = a4_family(params)   # internal checks: duality, transcription, scalars
    if not a4_relations_hold(family.action):
        return False, "group relations fail"
    if not is_g_lagrangian(family.lagrangian, family.action):
        return False, "subspace is not stable under the action"
    for tag, eq in (("E", family.eq_e), ("F", family.eq_f)):
        if not smooth_check(eq.cubic_polynomial()):
            return False, f"cubic {tag} is singular over GF(97)"
    rng = random.Random(seed + 400)
    pmaps, cmaps = a4_point_and_covector_maps(family, "E")
    report = equivariance_probe(family.eq_e, 1, family.lagrangian,
                                pmaps, cmaps, rng, samples=probe_points)
    if report.failures or report.points_tested < probe_points:
        return False, f"equivariance probe: {report.failures[:2]}"
    if report.membership_commutes != report.points_tested:
        return False, "membership does not commute at every probe point"
    return True, (f"duality, invariance (scalars 1), relations, smoothness of both "
                  f"cubics, equivariance on {report.points_tested} points x 3 generators")


def check_groebner_soundness(seed: int = DEFAULT_SEED, systems: int = 50) -> Tuple[bool, str]:
    rng = random.Random(seed + 500)
    from .poly import monomials_of_degree
    checked = zero_dim_cases = positive_cases = 0
    for n in range(systems):
        field = PrimeField(5 if n % 2 == 0 else 7)
        nvars = 2 + (n % 2)
        variables = tuple(f"x{i}" for i in range(nvars))

        def random_form(degree):
            terms = {}
            for mono in monomials_of_degree(nvars, degree):
                c = field.random(rng)
                if not field.is_zero(c):
                    terms[mono] = c
            return MultiPoly(field, variables, terms)

        if n % 5 < 3:
            gens = [random_form(rng.choice((1, 2))) for _ in range(nvars)]
        else:
            # share a linear factor: positive-dimensional with rational points
            ell = random_form(1)
            gens = [ell * random_form(1) for _ in range(nvars)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        if not s_polynomials_reduce_to_zero(gb):
            return False, f"S-polynomial reduction fails (system {n})"
        zero_dim = is_zero_dim_cone(gb)
        points = vanishing_points(gens)
        nonzero_points = [p for p in points if any(p)]
        if zero_dim and nonzero_points:
            return False, f"zero-dimensional cone has a nonzero point (system {n})"
        if n % 5 >= 3 and zero_dim:
            return False, "system with a common factor declared zero-dimensional"
        if zero_dim:
            zero_dim_cases += 1
        else:
            positive_cases += 1
        checked += 1
    if zero_dim_cases == 0 or positive_cases == 0:
        return False, "sample did not cover both dimension classes"
    return True, (f"{checked} systems over GF(5)/GF(7): S-polynomials reduce, "
                  f"cone dimension matches enumeration "
                  f"({zero_dim_cases} zero-dim, {positive_cases} positive-dim)")


def check_generator_invariance(seed: int = DEFAULT_SEED, samples: int = 50) -> Tuple[bool, str]:
    for field in (QQ, PrimeField(97)):
        rng = random.Random(seed + 600)
        runs = samples if isinstance(field, PrimeField) else samples // 5
        for _ in range(runs):
            g = _random_unimodular3(field, rng)
            h = _random_unimodular3(field, rng)
            report = generator_invariance(field, g, h)
            if not report.all_invariant():
                return False, f"invariance fails over {field.descriptor}"
    return True, "five generators and sigma fixed under random unimodular pairs"


CHECKS: Dict[str, Callable[..., Tuple[bool, str]]] = {
    "gale-composition-zero": check_gale_composition_zero,
    "lagrangian-sigma-normal-form": check_sigma_normal_form,
    "frame-dual-basis-and-sigma-identity": check_frame_identities,
    "cone-projection-roundtrip": check_projection_roundtrip,
    "overlattice-count-and-orbits": check_overlattices,
    "epw-coordinate-planes": check_epw_planes,
    "epw-line-degree": check_epw_line_degree,
    "singular-conic-on-epw": check_singular_conics,
    "fano-line-roundtrip": check_fano_roundtrip,
    "gm-ideal-membership": check_gm_membership,
    "a4-family-end-to-end": check_a4_family,
    "groebner-soundness": check_groebner_soundness,
    "invariant-generators": check_generator_invariance,
}


# wall-clock budget of each check in seconds, read by ``selftest all`` and
# by the pytest acceptance module
BUDGET_SECONDS = {
    "gale-composition-zero": 10,
    "lagrangian-sigma-normal-form": 10,
    "frame-dual-basis-and-sigma-identity": 1,
    "cone-projection-roundtrip": 30,
    "overlattice-count-and-orbits": 5,
    "epw-coordinate-planes": 10,
    "epw-line-degree": 30,
    "singular-conic-on-epw": 60,
    "fano-line-roundtrip": 60,
    "gm-ideal-membership": 120,
    "a4-family-end-to-end": 600,
    "groebner-soundness": 60,
    "invariant-generators": 120,
}


def run_check(check_id: str, seed: int = DEFAULT_SEED) -> CheckResult:
    fn = CHECKS[check_id]
    start = time.perf_counter()
    try:
        passed, detail = fn(seed)
    except Exception as exc:   # a crashed check is a failed check
        passed, detail = False, f"exception: {exc}"
    return CheckResult(check_id, passed, detail, time.perf_counter() - start)


def run_all(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    return [run_check(cid, seed) for cid in CHECKS]
