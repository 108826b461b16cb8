"""One fresh benchmark process: generate inputs, construct, run items.

    python3 perfbench/worker.py run   --workload W --seed S --seconds T --spawned NS
    python3 perfbench/worker.py setup --workload W --seed S --spawned NS
    python3 perfbench/worker.py trace --workload W --seed S --items N [--untraced]
    python3 perfbench/worker.py digests --workload W --seed S

``--spawned`` is the parent's ``time.monotonic_ns()`` just before it started
this process, so set-up is measured from process start.  The result is one
JSON object on the last line of standard output.  ``run.py`` starts this
script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_digests(name: str, seed: int):
    """Pinned per-item digests for this workload, or None for other seeds."""
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        return None
    return ref["digests"].get(name)


class ItemRunner:
    """Runs items in order, cycling through the pool, and keeps per-item
    time, failures and the first few error messages."""

    def __init__(self, workload, ctx, items, reference):
        self.workload, self.ctx, self.items = workload, ctx, items
        self.reference = reference
        self.spans: list = []       # (start, end) perf_counter of each item
        self.digests: list = []
        self.failed = 0
        self.errors: list = []

    def run(self, k: int, call=None):
        index = k % len(self.items)
        call = call or (lambda fn, *a: fn(*a))
        start = time.perf_counter()
        try:
            out = call(self.workload.run_item, self.ctx, self.items[index])
            error = None
        except Exception as exc:  # a raising item is a failed item
            out, error = None, f"{type(exc).__name__}: {exc}"
        self.spans.append((start, time.perf_counter()))
        if error is None:
            d = digest(out)
            self.digests.append(d)
            if self.reference is not None and index < len(self.reference) \
                    and self.reference[index] != d:
                error = f"digest mismatch at item {index}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"item {index}: {error}")

    def seconds(self) -> float:
        return sum(end - start for start, end in self.spans)


def prepare(args, pool=None):
    w = workloads.WORKLOADS[args.workload]
    pool = w.pool if pool is None else pool
    start = time.monotonic()
    shared, items = w.make_inputs(args.seed, pool)
    gen_s = time.monotonic() - start
    return w, w.construct(shared), items, gen_s


def cleanup(w, ctx):
    if hasattr(w, "cleanup"):
        w.cleanup(ctx)


def cmd_run(args) -> dict:
    w, ctx, items, gen_s = prepare(args)
    ready_ns = time.monotonic_ns()
    runner = ItemRunner(w, ctx, items, reference_digests(w.name, args.seed))
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < args.seconds:
            runner.run(k)
            k += 1
    cleanup(w, ctx)
    times, cal = [], []
    for (begin, end) in runner.spans:
        spent, reading = sampler.window(begin, end)
        times.append(end - begin - spent)
        cal.append(reading)
    return {"times": times, "cal": cal, "failed": runner.failed,
            "errors": runner.errors, "setup_s": (ready_ns - args.spawned) / 1e9 - gen_s,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def cmd_setup(args) -> dict:
    w, ctx, _items, gen_s = prepare(args, 1)
    ready_ns = time.monotonic_ns()
    cleanup(w, ctx)
    return {"setup_s": (ready_ns - args.spawned) / 1e9 - gen_s}


def cmd_trace(args) -> dict:
    w, ctx, items, _ = prepare(args, args.items)
    reference = reference_digests(w.name, args.seed)
    tracer = Tracer([workloads])
    runner = ItemRunner(w, ctx, items, reference)
    tracer.install()
    try:
        for k in range(args.items):
            runner.run(k, lambda fn, *a, k=k: tracer.run_item(k, fn, *a))
    finally:
        tracer.uninstall()
    cleanup(w, ctx)
    out = {"traced_s": runner.seconds(), "failed": runner.failed,
           "errors": runner.errors, "trace": tracer.report()}
    if args.untraced:
        # fresh inputs, so nothing the traced pass left on them is reused
        w, ctx, items, _ = prepare(args, args.items)
        plain = ItemRunner(w, ctx, items, reference)
        for k in range(args.items):
            plain.run(k)
        cleanup(w, ctx)
        out["untraced_s"] = plain.seconds()
        out["failed"] += plain.failed
        out["errors"] += plain.errors
    return out


def cmd_digests(args) -> dict:
    """Every pool item once, for pinning the reference digests."""
    w, ctx, items, _ = prepare(args)
    runner = ItemRunner(w, ctx, items, None)
    for k in range(len(items)):
        runner.run(k)
    cleanup(w, ctx)
    return {"digests": runner.digests, "failed": runner.failed,
            "errors": runner.errors}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup", "trace", "digests"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned", type=int, default=0)
    parser.add_argument("--items", type=int, default=1)
    parser.add_argument("--untraced", action="store_true")
    args = parser.parse_args(argv)
    result = {"run": cmd_run, "setup": cmd_setup, "trace": cmd_trace,
              "digests": cmd_digests}[args.mode](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
