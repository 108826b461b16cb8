"""The four benchmark workloads, written against the public API of galecubics.

Each workload has three parts:

* ``make_inputs(seed, pool)``: every input of a run as ``(shared, items)``,
  generated from the seed before any clock starts (it may call the program,
  e.g. the rank check in ``NonSyzygeticEquation.random``; that work is
  neither timed nor traced);
* ``construct(shared)``: program-side construction that a user pays once,
  before the first item; it counts in ``setup_s``;
* ``run_item(ctx, item)``: one unit of user work with its own exactness
  checks.  It returns the item's canonical output, built from
  ``serialize.*_to_json``; the runner hashes it for the digest gate.

Program functions are always reached through their module (``gale.gale_dual``),
so a tracer that patches module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "galecubics" / "__init__.py").is_file():
    raise ImportError(f"galecubics sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from galecubics import (cli, epw, fields, gale, gmlink, groebner,  # noqa: E402
                        invariants, lagrangian, lattice, poly, serialize)

QQ = fields.QQ
GF101 = fields.PrimeField(101)
GF97 = fields.PrimeField(97)

# A4 parameter points (alpha, beta, gamma, delta, lambda) over GF(97): the
# first 24 draws of random.Random(97) with every entry in 1..96.  Each E-side
# cubic was certified smooth by ``smooth_check`` when this table was made, so
# ``smooth check`` has a known exit code (0) on every seed.
A4_SMOOTH_PARAMS = (
    (25, 55, 48, 7, 74), (3, 72, 6, 3, 96), (35, 48, 4, 10, 82),
    (57, 61, 87, 15, 41), (32, 40, 24, 33, 53), (69, 25, 23, 14, 31),
    (73, 70, 17, 9, 96), (18, 14, 9, 70, 69), (36, 80, 11, 96, 8),
    (58, 10, 31, 24, 3), (75, 20, 65, 26, 47), (11, 90, 76, 32, 2),
    (19, 89, 1, 20, 64), (2, 76, 95, 66, 61), (3, 96, 93, 7, 72),
    (57, 95, 56, 13, 6), (93, 68, 2, 7, 69), (87, 79, 69, 72, 73),
    (31, 71, 55, 53, 46), (23, 57, 16, 79, 94), (46, 78, 37, 44, 7),
    (27, 31, 24, 43, 38), (11, 65, 70, 65, 75), (84, 90, 14, 74, 27),
)


class CheckFailed(Exception):
    """An item's output failed one of its exactness checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


# -- lagrangian-qq --------------------------------------------------------------

class LagrangianQQ:
    """Tuple -> Gale dual -> admissible subspace (all three L choices) -> back,
    the cone projection of one choice, and a JSON write/read of the instance,
    over the rationals."""

    name = "lagrangian-qq"
    pool = 256

    @staticmethod
    def make_inputs(seed: int, pool: int):
        rng = random.Random(f"{seed}:lagrangian-qq")
        return None, [(gale.NonSyzygeticEquation.random(QQ, rng),
                       rng.randint(1, 3)) for _ in range(pool)]

    @staticmethod
    def construct(shared):
        return {"normal": lagrangian.sigma_normal_form(QQ)}

    @staticmethod
    def run_item(ctx, item):
        eq, choice = item
        dual = gale.gale_dual(eq)
        check(gale.composition_is_zero(eq, dual), "dual does not annihilate")
        out = {"dual": serialize.equation_to_json(dual)}
        built = {}
        for i in (1, 2, 3):
            data, pres = lagrangian.lagrangian_from_gale(eq, i)
            check(pres.alpha().is_zero(), f"alpha != 0 for L{i}")
            check(pres.sigma() == ctx["normal"], f"sigma not normal for L{i}")
            built[i] = (data, pres)
            out[f"L{i}"] = serialize.lagrangian_to_json(data)
        data, pres = built[choice]
        plus, minus, _ = lagrangian.gale_from_lagrangian(data)
        check(gale.composition_is_zero(plus, minus), "recovered pair not dual")
        again, _ = lagrangian.lagrangian_from_gale(plus, 1)
        check(data.same_subspace(again), "recovered pair gives another subspace")
        proj_plus, proj_minus, report = invariants.project_cubics(data, pres)
        check(report.ok(), "cone projection check failed")
        text = json.dumps(serialize.make_instance(QQ, eq, data))
        inst = serialize.InstanceFile(json.loads(text))
        check(inst.lagrangian().matrix == data.matrix, "subspace JSON round trip")
        read = inst.equation()
        check(read.sign == eq.sign and
              read.coefficient_matrix() == eq.coefficient_matrix(),
              "equation JSON round trip")
        out["back"] = [serialize.equation_to_json(plus),
                       serialize.equation_to_json(minus)]
        out["projected"] = [serialize.equation_to_json(proj_plus),
                            serialize.equation_to_json(proj_minus)]
        out["instance"] = text
        return out


# -- epw-gf101 --------------------------------------------------------------------

class EpwGF101:
    """Random pencils in the degeneracy locus of a few seeded instances over
    GF(101): the degree-six polynomial, the scan, and the conic / line
    correspondence at every generic member point.

    The subspaces use the first L form, as the acceptance battery does: with
    L2 or L3 the residual conic at a member point of a minus tuple is not
    singular, a defect of the conic construction that this workload would
    otherwise report on every run."""

    name = "epw-gf101"
    pool = 512
    instances = 4

    @staticmethod
    def make_inputs(seed: int, pool: int):
        rng = random.Random(f"{seed}:epw-gf101")
        tuples = [(gale.NonSyzygeticEquation.random(GF101, rng), 1)
                  for _ in range(EpwGF101.instances)]
        pencils = []
        while len(pencils) < pool:
            p0 = epw.EPWPoint.make(GF101, [rng.randrange(101) for _ in range(6)])
            p1 = epw.EPWPoint.make(GF101, [rng.randrange(101) for _ in range(6)])
            if not p0.same_point(p1):
                pencils.append((len(pencils) % EpwGF101.instances, p0, p1))
        return tuples, pencils

    @staticmethod
    def construct(shared):
        return [(eq, i, lagrangian.lagrangian_from_gale(eq, i)[0])
                for eq, i in shared]

    @staticmethod
    def run_item(ctx, item):
        k, p0, p1 = item
        eq, i, data = ctx[k]
        field = data.field
        sextic = epw.epw_line_degree(data, p0, p1)
        scan = epw.epw_points_on_line(data, p0, p1)
        # a member point at t = infinity (p1 itself) lowers the degree in t
        if any(t is None for t, _ in scan):
            check(sextic.total_degree() < 6, "degree six with a root at infinity")
        else:
            check(sextic.total_degree() == 6, "pencil degree is not six")
        roots = {t for t in field.elements() if field.is_zero(sextic.evaluate([t]))}
        check(roots == {t for t, _ in scan if t is not None},
              "roots differ from the membership scan")
        points = []
        for _t, raw in scan:
            pt = epw.conic_covector(eq, raw)
            if (all(field.is_zero(c) for c in pt.e_part)
                    or all(field.is_zero(c) for c in pt.f_part)
                    or not epw.pi_gamma(eq, i, pt).generic()):
                points.append({"point": serialize.vector_to_json(field, pt.coords)})
                continue
            conic = epw.residual_conic(eq, i, pt)
            check(field.is_zero(conic.det()), "conic determinant nonzero")
            split = epw.epw_to_lines(eq, i, pt)
            entry = {"point": serialize.vector_to_json(field, pt.coords),
                     "conic": serialize.matrix_to_json(conic.matrix),
                     "lines": None}
            if split.lines is not None:
                for line in split.lines:
                    check(epw.line_to_epw(eq, i, line).same_point(pt),
                          "line round trip returned another point")
                entry["lines"] = [serialize.matrix_to_json(line.forms)
                                  for line in split.lines]
            points.append(entry)
        return {"sextic": serialize.poly_to_json(sextic), "points": points}


# -- certify-gf97 -------------------------------------------------------------------

class CertifyGF97:
    """One A4 parameter point through the command line (emit, smooth check,
    lagrangian from-gale, epw harvest), beside a library smoothness check of
    a dense cubic threefold and a degree-3 elimination test for decomposable
    vectors in the emitted subspace."""

    name = "certify-gf97"
    pool = 16
    harvest_samples = 4

    @staticmethod
    def make_inputs(seed: int, pool: int):
        rng = random.Random(f"{seed}:certify-gf97")
        monos = poly.monomials_of_degree(5, 3)
        items = []
        for _ in range(pool):
            params = rng.choice(A4_SMOOTH_PARAMS)
            threefold = {m: rng.randrange(97) for m in monos}
            items.append((params, threefold, rng.randint(1, 3),
                          rng.randrange(1 << 30)))
        return None, items

    @staticmethod
    def construct(shared):
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        return {"dir": tempfile.mkdtemp(dir=scratch)}

    @staticmethod
    def cleanup(ctx):
        shutil.rmtree(ctx["dir"], ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_tmp").rmdir()

    @staticmethod
    def run_item(ctx, item):
        params, threefold, choice, harvest_seed = item
        d = ctx["dir"]
        family, smooth_out, lag_out, harvest_out = (
            os.path.join(d, n) for n in ("family.json", "smooth.json",
                                         "lagrangian.json", "harvest.json"))

        def main(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(argv))

        def load(path):
            with open(path) as handle:
                return json.load(handle)

        check(main("a4", "emit", "--field", "prime:97", "--params",
                   ",".join(map(str, params)), "-o", family) == 0, "a4 emit exit code")
        check(main("smooth", "check", "-i", family, "-o", smooth_out) == 0,
              "smooth check exit code")
        check(main("lagrangian", "from-gale", "-i", family, "--choice-of-L",
                   str(choice), "-o", lag_out) == 0, "lagrangian from-gale exit code")
        check(main("epw", "harvest", "-i", family, "--samples",
                   str(CertifyGF97.harvest_samples), "--seed", str(harvest_seed),
                   "-o", harvest_out) == 0, "epw harvest exit code")
        emitted, smooth, lag, harvest = (load(p) for p in (family, smooth_out,
                                                          lag_out, harvest_out))
        check(smooth == {"smooth": True}, "smooth check output")
        check(lag["alpha_zero"] is True and lag["sigma_normal_form"] is True,
              "from-gale normal form")
        check(len(harvest["points"]) == CertifyGF97.harvest_samples,
              "harvest point count")

        variables = tuple(f"y{j}" for j in range(5))
        cubic = poly.MultiPoly(GF97, variables,
                               {m: c for m, c in threefold.items() if c})
        threefold_smooth = groebner.smooth_check(cubic)
        data = serialize.InstanceFile(emitted).lagrangian()
        report = epw.decomposable_vector_check(data, method="elimination",
                                               max_degree=3)
        check(not report.found_decomposable, "decomposable vector found")
        return {"emitted": emitted, "smooth": smooth, "lagrangian": lag,
                "harvest": harvest, "threefold_smooth": threefold_smooth,
                "decomposable": report.detail}


# -- identities-qq ------------------------------------------------------------------

def random_unimodular3(rng: random.Random):
    """Product of six random elementary matrices: determinant exactly one."""
    m = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = random_rational(rng)
        for r in range(3):          # m <- m * (I + c E_ij): column j += c col i
            m[r][j] += c * m[r][i]
    return m


class IdentitiesQQ:
    """Invariance of the five generators and sigma under unimodular pairs over
    the rationals; each run starts with the degree-3 ideal-membership
    certificate of both big cubics and the glue-group count and orbits."""

    name = "identities-qq"
    pool = 1024

    @staticmethod
    def make_inputs(seed: int, pool: int):
        rng = random.Random(f"{seed}:identities-qq")
        pairs = [("pair", random_unimodular3(rng), random_unimodular3(rng))
                 for _ in range(max(pool - 3, 1))]
        return None, [("membership", "E"), ("membership", "F"), ("glue",)] + pairs

    @staticmethod
    def construct(shared):
        return None

    @staticmethod
    def run_item(ctx, item):
        kind = item[0]
        if kind == "membership":
            side = item[1]
            cert = gmlink.big_cubic_membership(QQ, side)
            check(cert is not None, f"no certificate on side {side}")
            xt_e, xt_f = invariants.big_cubics(QQ)
            cubic = xt_e if side == "E" else xt_f
            quadrics = gmlink.Z15Ideal.build(
                QQ, gmlink.E_SIDE if side == "E" else gmlink.F_SIDE).quadrics
            acc = poly.MultiPoly.zero(QQ, cubic.variables)
            for q, ell in zip(quadrics, cert):
                acc = acc + q * ell
            check(acc == cubic, f"certificate fails re-expansion on side {side}")
            return {"side": side, "multipliers": [serialize.poly_to_json(ell)
                                                  for ell in cert]}
        if kind == "glue":
            ctx_ = lattice.GlueContext()
            groups = lattice.enumerate_glue_groups(ctx_)
            check(len(groups) == 24, "glue-group count is not 24")
            structure = lattice.anti_isometric_subgroup_count(ctx_)
            check(tuple(structure) == (2, 12), "structure is not 2 x 12")
            dec = lattice.group_action_orbits(ctx_)
            orbits = sorted(len(o) for o in dec.orbits)
            check(orbits == [12, 12], "orbits are not 12 + 12")
            check(set(dec.stabilizer_orders) == {2}
                  and dec.stabilizers_contain_minus_id, "stabilizers are not +-id")
            check(dec.fm_partner_count == 2, "partner count is not 2")
            return {"groups": len(groups), "structure": list(structure),
                    "orbits": orbits, "partners": dec.fm_partner_count}
        _, g, h = item
        report = invariants.generator_invariance(QQ, g, h)
        check(report.all_invariant(), "a generator is not invariant")
        return {name: QQ.to_json(c) for name, c in sorted(report.scalars.items())}


WORKLOADS = {w.name: w for w in (LagrangianQQ, EpwGF101, CertifyGF97, IdentitiesQQ)}

