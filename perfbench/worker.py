"""One pass of one workload, in the interpreter this script starts.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|setup
                                --trace 0|1

run.py starts it with a clean environment and reads the JSON object on
the last line of its standard output.  `--mode setup` stops after set-up,
so run.py can take several set-up samples in one run.  A traced pass
writes its spans to perfbench/out/spans-<workload>-seed<n>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDENS = os.path.join(HERE, "goldens.json")
OUT = os.path.join(HERE, "out")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def load_goldens(workload: str) -> dict[str, str]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def run_ops(ops, goldens: dict[str, str], tracer=None) -> list[dict]:
    """Run ops in order, one after the other, and check each output.

    An operation fails when it raises, when its output differs from its
    golden digest, or when the independent check rejects it; a result with
    neither a golden nor a check also fails.  Only the call itself is timed.

    Before each call the heap is collected and what survives is frozen, so
    the collector's work inside an operation, and the peak memory, depend
    on that operation alone and not on the garbage its predecessors left.
    """
    records = []
    for index, op in enumerate(ops):
        error = result = None
        gc.collect()
        gc.freeze()
        start = perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.run)
        except Exception as exc:  # every failure of the program is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        out = None
        if error is None:
            try:
                out = digest(op.canon(result))
                golden = goldens.get(op.key)
                if golden is not None and golden != out:
                    error = f"output digest {out} differs from golden {golden}"
                elif op.check is not None:
                    error = op.check(result)
                elif golden is None:
                    error = "no golden and no independent check"
            except Exception as exc:
                error = f"checking the output raised {type(exc).__name__}: {exc}"
        records.append({"key": op.key, "s": seconds, "digest": out, "error": error})
    return records


def combined_digest(records: list[dict]) -> str:
    """One digest of every output in operation order."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r['key']}={r['digest']}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = perf_counter()
    import extlift
    import numpy
    import_s = perf_counter() - start
    where = os.path.realpath(os.path.dirname(extlift.__file__))
    if where != os.path.realpath(os.path.join(SRC, "extlift")):
        print(f"extlift imported from {where}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    start = perf_counter()
    ops = workloads.build(args.workload, args.seed)
    setup_s = import_s + perf_counter() - start
    out = {"setup_s": setup_s, "import_s": import_s, "numpy": numpy.__version__,
           "python": sys.version.split()[0]}
    if args.mode == "pass":
        records = run_ops(ops, load_goldens(args.workload), tracer)
        out.update({
            "wall_s": sum(r["s"] for r in records),
            "records": records,
            "digest": combined_digest(records),
        })
        if tracer is not None:
            layers, calls = tracer.metrics()
            out["layers"] = layers
            out["missing_layers"] = tracer.missing(args.workload, calls)
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
