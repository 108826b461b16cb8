"""Command-line surface.

Instances travel as JSON (stdin/stdout or -i/-o files); every randomized
subcommand takes --seed with a fixed default so reports are reproducible.
Exit codes: 0 success or check-true, 1 check-false, 2 the input cannot be
served (malformed, or a field the construction does not support; any
``ValueError``, one ``error:`` line).  A traceback means a bug.

Smoothness certificates run over prime fields only: ``smooth check`` on a
rational instance exits 2.  To certify a characteristic-zero cubic, reduce it
at a good prime first and check the reduction (smoothness specialises: a
singular reduction can be a fluke of the prime, a smooth one never is).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import lru_cache

from . import serialize
from .epw import (EPWPoint, LineCorrespondenceError, ProjectiveSubspace,
                  epw_contains, epw_line_degree, harvest_epw_points, line_to_epw,
                  epw_to_lines, residual_conic)
from .equivariant import (A4FamilyParams, a4_family, a4_point_and_covector_maps,
                          a4_relations_hold, equivariance_probe, is_g_lagrangian)
from .fields import parse_field
from .gale import composition_is_zero, gale_dual
from .groebner import smooth_check
from .invariants import build_frame, sigma_quadric, trace_plus_product
from .lagrangian import LagrangianValidationError, lagrangian_from_gale
from .lattice import GlueContext, enumerate_glue_groups, group_action_orbits
from .selftests import BUDGET_SECONDS, DEFAULT_SEED, run_all
from .serialize import InstanceFile, make_instance


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _read_instance(args) -> InstanceFile:
    if args.input:
        try:
            with open(args.input) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise CliError(f"cannot read input: {exc}")
    else:
        text = sys.stdin.read()
        if not text.strip():
            raise CliError("no input instance (use -i FILE or pipe JSON)")
        payload = json.loads(text)
    inst = InstanceFile(payload)
    if args.field and parse_field(args.field) != inst.field:
        raise CliError(f"--field {args.field} does not match the "
                       f"instance field {inst.field.descriptor}")
    return inst


def _write(args, payload) -> None:
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


# -- subcommand implementations ------------------------------------------------

def cmd_gale_dual(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    _write(args, make_instance(eq.field, gale_dual(eq)))
    return 0


def cmd_gale_validate(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    rank = eq.coefficient_matrix().rank()
    valid = eq.is_valid()
    _write(args, {"rank": rank, "l_forms_independent_pair": valid,
                  "ok": bool(valid and rank == 6)})
    return 0 if (valid and rank == 6) else 1


def cmd_lagrangian_from_gale(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    data, pres = lagrangian_from_gale(eq, args.choice_of_l)
    checks = {"sigma_normal_form": pres.sigma_is_normal(),
              "alpha_zero": pres.alpha_is_zero()}
    _write(args, make_instance(eq.field, eq, data, extra=checks))
    return 0 if all(checks.values()) else 1


def cmd_lagrangian_check(args) -> int:
    inst = _read_instance(args)
    try:
        inst.lagrangian()
    except LagrangianValidationError as exc:
        _write(args, {"ok": False, "failures": exc.failures})
        return 1
    _write(args, {"ok": True})
    return 0


def cmd_invariants_selftest(args) -> int:
    field = parse_field(args.field or "rationals")
    frame = build_frame(field)
    ok = sigma_quadric(field, frame) == trace_plus_product(field, frame)
    ok = ok and frame.evaluation_matrix().rank() == 20
    _write(args, {"sigma_identity": ok})
    return 0 if ok else 1


def cmd_epw_contains(args) -> int:
    inst = _read_instance(args)
    data = inst.lagrangian()
    point = inst.point(args.point)
    member, dim = epw_contains(data, point)
    _write(args, {"member": member, "intersection_dim": dim})
    return 0 if member else 1


def cmd_epw_line_degree(args) -> int:
    inst = _read_instance(args)
    data = inst.lagrangian()
    pts = inst.line_points()
    field = inst.field
    p0 = EPWPoint.make(field, pts[0])
    p1 = EPWPoint.make(field, pts[1])
    poly = epw_line_degree(data, p0, p1)
    _write(args, {"degree": poly.total_degree(),
                  "polynomial": serialize.poly_to_json(poly)})
    return 0 if poly.total_degree() == 6 else 1


def cmd_epw_conic(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    point = inst.point(args.point)
    conic = residual_conic(eq, args.choice_of_l, point)
    det = conic.det()
    _write(args, {
        "matrix": serialize.matrix_to_json(conic.matrix),
        "det": eq.field.to_json(det),
        "rank": conic.rank(),
        "singular": eq.field.is_zero(det),
    })
    return 0


def cmd_epw_harvest(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    data, _ = lagrangian_from_gale(eq, args.choice_of_l)
    rng = random.Random(args.seed)
    points = harvest_epw_points(eq, args.choice_of_l, data, rng, args.samples)
    _write(args, {"points": [serialize.vector_to_json(eq.field, hp.point.coords)
                             for hp in points]})
    return 0 if points else 1


def cmd_fano_to_epw(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    pts = inst.line_points()
    line = ProjectiveSubspace.from_points(eq.field, eq.variables, pts)
    point = line_to_epw(eq, args.choice_of_l, line)
    _write(args, {"point": serialize.vector_to_json(eq.field, point.coords)})
    return 0


def cmd_fano_from_epw(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    point = inst.point(args.point)
    split = epw_to_lines(eq, args.choice_of_l, point, expect_on_sextic=False)
    out = {
        "conic_rank": split.conic.rank(),
        "split": split.lines is not None,
    }
    if split.singular_point is not None:
        out["singular_point"] = serialize.vector_to_json(eq.field,
                                                         split.singular_point)
    if split.lines is not None:
        out["lines"] = [serialize.matrix_to_json(line.forms)
                        for line in split.lines]
    elif split.discriminant is not None:
        out["discriminant"] = eq.field.to_json(split.discriminant)
    _write(args, out)
    return 0 if split.lines is not None else 1


def cmd_fano_roundtrip(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    i = args.choice_of_l
    data, _ = lagrangian_from_gale(eq, i)
    rng = random.Random(args.seed)
    points = harvest_epw_points(eq, i, data, rng, args.samples)
    attempted = succeeded = 0
    for hp in points:
        split = epw_to_lines(eq, i, hp.point)
        if split.lines is None:
            continue
        for line in split.lines:
            attempted += 1
            try:
                back = line_to_epw(eq, i, line)
            except LineCorrespondenceError:     # a degenerate sample
                continue
            if back.same_point(hp.point):
                succeeded += 1
    _write(args, {"attempted": attempted, "succeeded": succeeded})
    return 0 if attempted > 0 and attempted == succeeded else 1


def cmd_gm_membership(args) -> int:
    from .gmlink import big_cubic_membership
    field = parse_field(args.field or "rationals")
    cert = big_cubic_membership(field, args.side)
    _write(args, {"side": args.side, "certificate_exists": cert is not None,
                  "multipliers": [serialize.poly_to_json(ell) for ell in cert]
                  if cert else None})
    return 0 if cert is not None else 1


def cmd_lattice_count(args) -> int:
    groups = enumerate_glue_groups()
    print(len(groups))
    return 0 if len(groups) == 24 else 1


def cmd_lattice_orbits(args) -> int:
    ctx = GlueContext()
    dec = group_action_orbits(ctx)
    _write(args, {
        "glue_groups": sum(len(o) for o in dec.orbits),
        "orbit_sizes": [len(o) for o in dec.orbits],
        "stabilizer_orders": dec.stabilizer_orders,
        "stabilizers_contain_minus_id": dec.stabilizers_contain_minus_id,
        "partner_count": dec.fm_partner_count,
    })
    return 0 if dec.fm_partner_count == 2 else 1


def cmd_smooth_check(args) -> int:
    inst = _read_instance(args)
    eq = inst.equation()
    result = smooth_check(eq.cubic_polynomial())
    _write(args, {"smooth": result})
    return 0 if result else 1


def _parse_params(field, text: str) -> A4FamilyParams:
    values = [tok.strip() for tok in text.split(",")]
    if len(values) != 5:
        raise CliError("--params needs five comma-separated values a,b,c,d,l")
    a, b, c, d, l = (field.from_json(serialize._parse_scalar(v)) for v in values)
    return A4FamilyParams(field, a, b, c, d, l, field.cube_root_of_unity())


def cmd_a4_emit(args) -> int:
    field = parse_field(args.field or "prime:97")
    params = (_parse_params(field, args.params) if args.params
              else A4FamilyParams.standard(field))
    family = a4_family(params)
    payload = make_instance(field, family.eq_e, family.lagrangian, extra={
        "equation_dual": serialize.equation_to_json(family.eq_f),
        "generators": [serialize.matrix_to_json(g)
                       for g in family.action.generators6],
        "action_on_variables": [serialize.matrix_to_json(m)
                                for m in family.action.variable_action10],
        "params": {
            "alpha": field.to_json(params.alpha), "beta": field.to_json(params.beta),
            "gamma": field.to_json(params.gamma), "delta": field.to_json(params.delta),
            "lambda": field.to_json(params.lam), "xi": field.to_json(params.xi),
        },
    })
    _write(args, payload)
    return 0


def cmd_a4_verify(args) -> int:
    field = parse_field(args.field or "prime:97")
    params = (_parse_params(field, args.params) if args.params
              else A4FamilyParams.standard(field))
    family = a4_family(params)    # raises on any inconsistency
    report = {
        "gale_dual": composition_is_zero(family.eq_e, family.eq_f),
        "relations": a4_relations_hold(family.action),
        "stable_subspace": is_g_lagrangian(family.lagrangian, family.action),
        "invariance_scalars_one": all(
            c == field.one() for lst in family.invariance_scalars.values()
            for c in lst),
    }
    if args.probe:
        rng = random.Random(args.seed)
        pmaps, cmaps = a4_point_and_covector_maps(family, "E")
        probe = equivariance_probe(family.eq_e, 1, family.lagrangian,
                                   pmaps, cmaps, rng, samples=args.samples)
        report["equivariance_points"] = probe.points_tested
        report["equivariance_ok"] = probe.all_commute()
    _write(args, report)
    return 0 if all(v is not False for v in report.values()) else 1


def cmd_selftest_all(args) -> int:
    results = run_all(args.seed)
    table = {r.check_id: {"pass": r.passed, "detail": r.detail,
                          "seconds": round(r.seconds, 2)} for r in results}
    _write(args, table)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check_id} ({r.seconds:.1f}s of "
              f"{BUDGET_SECONDS[r.check_id]}s) {r.detail}",
              file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other invalid input: one
    ``error:`` line on stderr and exit code 2 (subparsers inherit this)."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


#: (group, subcommand); each is served by ``cmd_<group>_<subcommand>``, with
#: dashes as underscores, looked up when it runs
COMMANDS = (
    ("gale", "dual"), ("gale", "validate"),
    ("lagrangian", "from-gale"), ("lagrangian", "check"),
    ("invariants", "selftest"),
    ("epw", "contains"), ("epw", "line-degree"), ("epw", "conic"),
    ("epw", "harvest"),
    ("fano", "to-epw"), ("fano", "from-epw"), ("fano", "roundtrip"),
    ("gm", "membership"),
    ("lattice", "count"), ("lattice", "orbits"),
    ("smooth", "check"),
    ("a4", "emit"), ("a4", "verify"),
    ("selftest", "all"),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--input", help="instance file (default stdin)")
    common.add_argument("-o", "--output", help="output file (default stdout)")
    common.add_argument("--field", help="field descriptor, e.g. rationals, "
                                        "prime:97, cyclotomic3:101")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--samples", type=_positive_int, default=20)
    common.add_argument("--choice-of-L", dest="choice_of_l", type=int,
                        default=1, choices=(1, 2, 3))
    common.add_argument("--params", help="a,b,c,d,l for the group family")
    common.add_argument("--point", help="comma-separated covector coordinates")
    common.add_argument("--side", choices=("E", "F"), default="E")
    common.add_argument("--probe", action="store_true",
                        help="run the equivariance probe in 'a4 verify'")

    parser = _Parser(
        prog="galecubics",
        description="Exact computations for Gale dual cubic fourfolds")
    sub = parser.add_subparsers(dest="command")
    groups = {}
    for group, name in COMMANDS:
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest=f"{group}_sub")
        sp = groups[group].add_parser(name, parents=[common])
        sp.set_defaults(handler=f"cmd_{group}_{name.replace('-', '_')}")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return globals()[handler](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
