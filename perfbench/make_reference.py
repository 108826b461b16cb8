"""Pin the per-item output digests of every workload for the reference seed.

    python3 perfbench/make_reference.py

Runs each pool item of each workload once (about ten minutes) and rewrites
``perfbench/reference.json``.  Only run it when a change is meant to alter
the outputs; the digest gate exists to catch every other change to them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 1
WORKLOADS = ("lagrangian-qq", "epw-gf101", "certify-gf97", "identities-qq")


def main() -> int:
    digests = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "digests", "--workload", name,
             "--seed", str(REFERENCE_SEED)],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"]:
            print(f"{name}: {result['failed']} items failed: {result['errors']}",
                  file=sys.stderr)
            return 1
        digests[name] = result["digests"]
        print(f"{name}: {len(result['digests'])} digests")
    text = json.dumps({"seed": REFERENCE_SEED, "digests": digests}, indent=1)
    (HERE / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
