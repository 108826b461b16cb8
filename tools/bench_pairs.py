"""Alternating parent/change benchmark pairs, summarised as one JSON file.

    python3 tools/bench_pairs.py --parent REV [--change REV] \
        --pairs identities-qq=10 --pairs certify-gf97=3 --seed 1 --seed 2 \
        --claim identities-qq:items_per_s --out BENCH.json

Stdlib only; run from anywhere inside a git checkout.  Both revisions are
cloned afresh into a work directory (``--workdir``, a temporary one by
default) and byte-compiled once, so no run pays for compiling the sources.
Each pair runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
once per side, from the side's clone, so the benchmark's own default sets
the run length; odd pairs run the parent first, even pairs the change
first.  ``--pairs W=N`` runs N pairs of workload W for each seed.

The output holds every run (its ``env`` lines and final JSON result) and,
per workload and seed, each end-to-end metric's median, quartiles and the
number of pairs the change won, a win being judged by the metric's
``better`` direction in the change's ``BENCHMARK.json``.  ``--claim W:M``
copies that workload's summary of metric M, first seed, to the top.  The
file is rewritten after each workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def checkout(source: Path, rev: str, dest: Path) -> str:
    """A fresh clone of ``source`` at ``rev``, byte-compiled; its full hash."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(source), str(dest)],
                   check=True)
    git("checkout", "--quiet", rev, cwd=dest)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, check=True, stdout=subprocess.DEVNULL)
    return git("rev-parse", "HEAD", cwd=dest)


def run_once(clone: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", "0"],
        cwd=clone, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "stderr": proc.stderr[-2000:]}
    return {"env": [l for l in lines if l.startswith("env ")],
            "exit_code": proc.returncode, "result": result}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarise(pairs: list, metrics: dict) -> dict:
    out = {"pairs": len(pairs)}
    for name, better in metrics.items():
        sides = {side: [p[side]["result"]["metrics"].get(name, {}).get("value")
                        for p in pairs] for side in ("parent", "change")}
        if any(v is None for vs in sides.values() for v in vs):
            continue
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"parent_median": round(statistics.median(sides["parent"]), 4),
                     "change_median": round(statistics.median(sides["change"]), 4),
                     "change_wins": wins,
                     "parent_q1_q3": quartiles(sides["parent"]),
                     "change_q1_q3": quartiles(sides["change"])}
    for key in ("failed", "attempted", "correct"):
        out[key] = {side: [p[side]["result"][key] for p in pairs]
                    for side in ("parent", "change")}
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--pairs", action="append", required=True, metavar="W=N")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--claim", metavar="W:M")
    ap.add_argument("--description", default="")
    ap.add_argument("--workdir")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = args.seed or [1]
    plan = [(w, int(n)) for w, n in (p.split("=", 1) for p in args.pairs)]

    source = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    clones = {side: work / side for side in ("parent", "change")}
    revs = {side: checkout(source, rev, clones[side])
            for side, rev in (("parent", args.parent), ("change", args.change))}
    spec = json.loads((clones["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report = {
        "description": args.description,
        "parent_revision": revs["parent"], "change_revision": revs["change"],
        "machine": f"{cpu_model()} (nproc {os.cpu_count()}), Python "
                   f"{platform.python_version()}; each side run from a fresh clone "
                   "of its revision, byte-compiled first",
        "script": "tools/bench_pairs.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "command": None,   # filled in from the first run's own env line
        "order": "pairs alternate which side runs first: odd pairs parent first, "
                 "even pairs change first",
        "summary": {}, "runs": {},
    }
    for workload, count in plan:
        for k, seed in enumerate(seeds):
            key = workload if k == 0 else f"{workload}/seed{seed}"
            pairs = []
            for i in range(1, count + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {side: run_once(clones[side], workload, seed)
                        for side in order}
                env = " ".join(pair[order[0]]["env"])
                if report["command"] is None and "seconds=" in env:
                    seconds = env.split("seconds=")[1].split()[0]
                    report["command"] = ("python3 perfbench/run.py --workload W --seed S "
                                         f"--trace 0 (default --seconds {seconds})")
                pairs.append(pair)
                print(f"{key} pair {i}: " + ", ".join(
                    f"{side} {pair[side]['result']['metrics'].get('items_per_s', {}).get('value', 0):.2f}"
                    for side in order), file=sys.stderr, flush=True)
            report["runs"][key] = pairs
            report["summary"][key] = summarise(pairs, metrics)
            if args.claim and args.claim.split(":")[0] == key:
                metric = args.claim.split(":", 1)[1]
                report["claim"] = {"workload": key, "metric": metric,
                                   **report["summary"][key][metric],
                                   "pairs": len(pairs)}
            # written after every workload and seed, so a cut run keeps its pairs
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
