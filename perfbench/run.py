"""extlift benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload corpus_small|quotient_large|aut_enum
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; extlift is imported from its
src/.  Every pass runs in a fresh interpreter (worker.py), one at a time,
so each pass starts with cold caches and a closed loop of one caller.

--trace 0 runs passes until the next one would end after S seconds (at
least one), plus set-up-only interpreters up to SETUP_SAMPLES set-up
samples, and reports the end-to-end metrics.  --trace 1 runs one untraced
and one traced pass and reports the per-layer metrics of the traced one,
with trace.overhead_s = traced wall_s - untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See NOTES.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from spans import per_layer_names
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 5
MIN_OPS = 100
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB"}


def percentile(values, pct: int) -> float:
    """Harrell-Davis estimate of percentile `pct` (an integer 1..99).

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    distribution, p = pct/100.  Unlike a single order statistic it does not
    jump when two operations' latencies swap places across a gap in a
    sparse tail.  Refuses when fewer than ten samples lie beyond the
    percentile, e.g. p90 of fewer than 100 samples.
    """
    if not 0 < pct < 100:
        raise ValueError("pct must lie strictly between 0 and 100")
    n = len(values)
    if n * (100 - pct) < 10 * 100:
        raise ValueError(f"p{pct} needs at least {math.ceil(1000 / (100 - pct))} "
                         f"samples, got {n}")
    a, b = pct / 100 * (n + 1), (100 - pct) / 100 * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64                       # midpoint rule inside each (i-1)/n..i/n
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(mass)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, sorted(values))) / total


def worker_env() -> dict:
    """The parent's environment, minus what would change the workload."""
    env = dict(os.environ)
    env.pop("EXTLIFT_MAX_ORDER", None)      # config.max_order() reads it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, trace: int) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "loadavg_start": os.getloadavg()}


def failures(passes: list[dict]) -> list[str]:
    out = []
    for p in passes:
        out += [f"{r['key']}: {r['error']}" for r in p["records"] if r["error"]]
        if len(p["records"]) < MIN_OPS:
            out.append(f"a pass ran {len(p['records'])} operations, fewer than {MIN_OPS}")
    if len({p["digest"] for p in passes}) > 1:
        out.append("passes with one seed gave different outputs")
    return out


def end_to_end(args, started: float) -> tuple[list[dict], dict]:
    passes = [run_worker(args, "pass", 0)]
    while True:
        elapsed = perf_counter() - started
        if elapsed + statistics.median(p["wall_s"] for p in passes) > args.seconds:
            break
        passes.append(run_worker(args, "pass", 0))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args, "setup", 0)["setup_s"])
    latencies = [r["s"] for p in passes for r in p["records"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": percentile(latencies, 50),
        "op_p90_s": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced(args) -> tuple[list[dict], dict, list[str]]:
    plain = run_worker(args, "pass", 0)
    trace = run_worker(args, "pass", 1)
    layers = dict(trace["layers"])
    layers["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    units = per_layer_names()
    problems = [f"per-layer metric {layer} never fired on {args.workload}"
                for layer in trace["missing_layers"]]
    return [plain, trace], {k: (layers[k], units[k]) for k in units}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "extlift", "__init__.py")):
        print(f"no extlift sources under {SRC}", file=sys.stderr)
        return 2

    started = perf_counter()
    facts = machine()
    try:
        if args.trace:
            passes, metrics, problems = traced(args)
        else:
            passes, metrics = end_to_end(args, started)
            problems = []
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    facts["loadavg_end"] = os.getloadavg()
    facts["numpy"] = passes[0]["numpy"]
    bad = failures(passes)
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(1 for p in passes for r in p["records"] if r["error"])

    print("machine " + json.dumps(facts))
    for line in bad[:20]:
        print("failure " + line)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    print(f"output_digest {passes[0]['digest']}")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
