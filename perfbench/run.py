"""Benchmark of galecubics: four seeded exact-arithmetic workloads.

    python3 perfbench/run.py --workload lagrangian-qq --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (stdlib only, nothing to install).
Every measured run is a fresh process (``worker.py``) driven as one closed
loop client: the next item starts when the previous one returns.

``--trace 0`` reports the end-to-end metrics: set-up time (median over
several fresh processes), throughput, median and tail item latency and peak
memory.  ``--trace 1`` runs a fixed number of items twice under the span
tracer, in two processes with the same ``PYTHONHASHSEED``, fails if any count
differs between them, and reports the per-layer metrics with the overhead
of tracing against an untraced pass over the same items.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it give
each metric as ``metric <name> <value> <unit>`` and describe the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("lagrangian-qq", "epw-gf101", "certify-gf97", "identities-qq")
DEADLINE_S = 170.0        # every run must end within 180 s
SETUP_SAMPLES = 9         # fresh processes whose set-up time is the median

# (name, unit): the end-to-end metrics of a --trace 0 run
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))

LAYERS = ("fields", "linalg", "poly", "exterior", "gale", "lagrangian",
          "invariants", "epw", "gmlink", "lattice", "groebner", "equivariant",
          "serialize", "cli")
RREF_SHAPES = ("6x12", "10x20", "4x20", "10x10", "15x10", "10x15")

# per-layer metrics of a --trace 1 run, besides <layer>.calls / <layer>.self_s
PER_LAYER = (
    ("fields.rationals.ops", "count"), ("fields.prime.ops", "count"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    *((f"linalg.rref.calls.{s}", "count") for s in RREF_SHAPES),
    ("linalg.rref.calls.other", "count"),
    ("linalg.det.calls", "count"), ("linalg.det.self_s", "s"),
    ("linalg.mul.calls", "count"), ("linalg.mul.self_s", "s"),
    ("gale.gale_dual.calls", "count"),
    ("gale.change_coordinates.calls", "count"),
    ("gale.change_coordinates.self_s", "s"),
    ("gale.solve_sparse_combination.self_s", "s"),
    ("lagrangian.validate.calls", "count"), ("lagrangian.validate.self_s", "s"),
    ("lagrangian.qtp.calls", "count"),
    ("exterior.contract.calls", "count"), ("exterior.contract.self_s", "s"),
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.subs.calls", "count"), ("poly.subs.self_s", "s"),
    ("poly.univariate_gcd.self_s", "s"), ("poly.lagrange_interpolate.self_s", "s"),
    ("epw.epw_line_degree.self_s", "s"), ("epw.epw_points_on_line.self_s", "s"),
    ("epw.residual_conic.self_s", "s"), ("epw.epw_to_lines.self_s", "s"),
    ("epw.line_to_epw.self_s", "s"), ("epw.epw_contains.calls", "count"),
    ("epw.divisor_fallback.calls", "count"),
    ("epw.decomposable_vector_check.self_s", "s"),
    ("epw.harvest_epw_points.self_s", "s"), ("epw.harvest.useful_ratio", "ratio"),
    ("groebner.buchberger.calls", "count"), ("groebner.buchberger.self_s", "s"),
    ("groebner.normal_form.calls", "count"), ("groebner.normal_form.self_s", "s"),
    ("groebner.s_polynomial.calls", "count"),
    ("groebner.leading_monomial.calls", "count"),
    ("groebner.reductions_to_zero", "count"), ("groebner.useful_ratio", "ratio"),
    ("invariants.generator_invariance.self_s", "s"),
    ("invariants.project_cubics.self_s", "s"),
    ("gmlink.ideal_membership_deg3.self_s", "s"),
    ("gmlink.ideal_membership_deg3.total_s", "s"),
    ("lattice.enumerate_glue_groups.self_s", "s"),
    ("lattice.enumerate_glue_groups.total_s", "s"),
    ("lattice.group_action_orbits.self_s", "s"),
    ("lattice.group_action_orbits.total_s", "s"),
    ("serialize.read.self_s", "s"), ("serialize.write.self_s", "s"),
    ("cli.main.self_s", "s"), ("equivariant.a4_family.self_s", "s"),
    *((f"{layer}.calls", "count") for layer in LAYERS),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"), ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; reported without a result line."""


# -- processes ----------------------------------------------------------------

def worker(mode: str, args, deadline: float, *extra: str) -> dict:
    spawned = time.monotonic_ns()
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--spawned", str(spawned), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:   # run() kills and reaps the child
        raise BenchError(f"{mode} process exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- end-to-end ---------------------------------------------------------------

def tail(times):
    """Highest percentile with at least ten items beyond it (the maximum when
    there are fewer than eleven items), as (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(args, deadline: float):
    """Item times are scaled to the reference speed of the calibration
    kernel, read during each item (see calibrate.py); the raw figures are
    printed on a line of their own."""
    ref = calibrate.REFERENCE_S
    run = worker("run", args, deadline, "--seconds", str(args.seconds))
    raw, cal = run["times"], run["cal"]
    if None in cal:
        raise BenchError("no speed reading during the run")
    times = [t * ref / c for t, c in zip(raw, cal)]
    # set-up is not scaled: process start and imports fault in pages and
    # read files, which the kernel's phases do not predict
    setups = [run["setup_s"]]
    while len(setups) < args.setup_samples:
        setups.append(worker("setup", args, deadline)["setup_s"])
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1000 * statistics.median(times),
        "item_tail_ms": 1000 * tail_s,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    notes = {"item_tail_ms": f"p{pct:.1f} of n={len(times)}",
             "setup_s": f"median of {len(setups)} processes"}
    print(f"raw items_per_s {len(raw) / sum(raw)} 1/s, item_p50_ms "
          f"{1000 * statistics.median(raw)} ms; speed {ref / statistics.median(cal)} "
          f"x reference")
    return metrics, notes, len(times), run["failed"], run["errors"], True


# -- traced -------------------------------------------------------------------

def layer_metrics(trace: dict, traced_s: float, untraced_s: float) -> dict:
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    rref_calls = calls.get("linalg.rref", 0)
    shapes = {s: counts.get(f"linalg.rref.calls.{s}", 0) for s in RREF_SHAPES}
    s_reduced = counts.get("groebner.s_reduced", 0)
    zero = counts.get("groebner.reductions_to_zero", 0)
    write = sum(v for k, v in self_s.items() if k.startswith("serialize.")
                and (k.endswith("_to_json") or k == "serialize.make_instance"))
    derived = {
        "linalg.rref.calls.other": rref_calls - sum(shapes.values()),
        **{f"linalg.rref.calls.{s}": c for s, c in shapes.items()},
        "groebner.reductions_to_zero": zero,
        "groebner.useful_ratio": ratio(s_reduced - zero, s_reduced),
        "epw.harvest.useful_ratio": ratio(counts.get("epw.harvest.kept", 0),
                                          counts.get("epw.harvest.scanned", 0)),
        "serialize.write.self_s": write,
        "serialize.read.self_s": layer_sum(self_s, "serialize") - write,
        "trace.spans": trace["spans"],
        "trace.overhead_ratio": traced_s / untraced_s - 1,
        **{f"{layer}.calls": layer_sum(calls, layer) for layer in LAYERS},
        **{f"{layer}.self_s": layer_sum(self_s, layer) for layer in LAYERS},
    }
    out = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name in counts:
            out[name] = counts[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".total_s"):
            out[name] = trace["total_s"].get(name[:-len(".total_s")], 0.0)
        else:
            out[name] = 0
    return out


def deterministic(name: str) -> bool:
    unit = dict(PER_LAYER)[name]
    return unit == "count" or (unit == "ratio" and name != "trace.overhead_ratio")


def traced(args, deadline: float):
    items = "1" if args.smoke else str(TRACE_ITEMS[args.workload])
    first = worker("trace", args, deadline, "--items", items, "--untraced")
    second = worker("trace", args, deadline, "--items", items)
    metrics = layer_metrics(first["trace"], first["traced_s"], first["untraced_s"])
    again = layer_metrics(second["trace"], second["traced_s"], first["untraced_s"])
    errors = first["errors"] + second["errors"]
    differ = [n for n in metrics if deterministic(n) and metrics[n] != again[n]]
    if differ:
        errors.append("counts differ between two traced runs: " + ", ".join(differ))
    notes = {"trace.overhead_ratio":
             f"traced {first['traced_s']:.3f} s / untraced {first['untraced_s']:.3f} s"}
    return (metrics, notes, 2 * int(items), first["failed"] + second["failed"],
            errors, not differ)


# items of one traced pass: a few seconds untraced (one A4 point for certify)
TRACE_ITEMS = {"lagrangian-qq": 12, "epw-gf101": 24, "certify-gf97": 1,
               "identities-qq": 40}


# -- output -------------------------------------------------------------------

def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe_machine(args) -> None:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"env workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"cpu={cpu_model()!r} revision={git_revision()} loadavg={load}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.setup_samples = 1 if args.smoke else SETUP_SAMPLES
    if not (ROOT / "src" / "galecubics" / "__init__.py").is_file():
        print(f"error: no galecubics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    describe_machine(args)
    try:
        metrics, notes, attempted, failed, errors, ok = (
            traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {value} {units[name]}{note}")
    print(f"metric failed_ratio {failed / attempted} ratio  (failed {failed} of {attempted})")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    result = {"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
