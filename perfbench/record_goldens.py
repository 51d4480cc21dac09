"""Write goldens.json: the output digest of every operation of seeds 0..3.

    python3 perfbench/record_goldens.py

Run it only when the program's outputs are meant to change.  Every
recorded output must pass the benchmark's independent check first, and an
operation met under several seeds must give one digest each time.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import workloads  # noqa: E402
from worker import GOLDENS, run_ops  # noqa: E402

SEEDS = 4


def main() -> int:
    goldens: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        found = goldens.setdefault(workload, {})
        for seed in range(SEEDS):
            for r in run_ops(workloads.build(workload, seed), {}):
                if r["error"]:
                    raise SystemExit(f"{workload} seed {seed} {r['key']}: {r['error']}")
                if found.setdefault(r["key"], r["digest"]) != r["digest"]:
                    raise SystemExit(f"{workload} {r['key']}: output depends on the seed")
            print(f"{workload} seed {seed}: {len(found)} goldens", file=sys.stderr)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({w: dict(sorted(g.items())) for w, g in goldens.items()}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
