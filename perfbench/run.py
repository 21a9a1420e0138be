"""addcomp benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; addcomp is imported from ./src.  Workloads
(see README.md and workloads.py): closed_form, windowed, minimality.

--trace 0 runs one untraced pass of the workload in a fresh interpreter,
with set-up time measured between its rounds (median of several fresh
interpreters that import addcomp and answer a one-point `eval` through
cli.main).  --trace 1 runs an untraced pass and a traced pass, each in its
own fresh interpreter, and reports the per-layer metrics plus the tracing
overhead.  Times are calibrated against two fixed kernels timed during
each pass (see README.md and worker.py).  Every answer is checked against
the reference; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--setup-probes", str(0 if trace else SETUP_PROBES)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(done.stderr[-4000:])
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        raise BenchError(f"worker exited with {done.returncode}")
    for line in lines[:-1]:
        print(("traced " if trace else "") + line)
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    problems = selftest.run()
    if problems:
        print("reference self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    if not (ROOT / "src" / "addcomp" / "__init__.py").is_file():
        print(f"no addcomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if args.trace:
            base = worker(args.workload, args.seed, args.seconds, 0)
            traced = worker(args.workload, args.seed, args.seconds, 1)
            metrics = {k: metric(v, tracer.unit_of(k)) for k, v in traced["layers"].items()}
            overhead = 1 - traced["queries_per_s"] / base["queries_per_s"]
            metrics["trace.overhead_share"] = metric(overhead, "ratio")
            runs = (base, traced)
        else:
            res = worker(args.workload, args.seed, args.seconds, 0)
            print(f"samples={res['attempted']} rounds={res['rounds']} busy_s={res['busy_s']:.3f}")
            metrics = {
                "setup_s": metric(res["setup_s"], "s"),
                "queries_per_s": metric(res["queries_per_s"], "1/s"),
                "latency_p50_ms": metric(res["latency_p50_ms"], "ms"),
                "latency_p90_ms": metric(res["latency_p90_ms"], "ms"),
                "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
                "correct_share": metric(1 - res["failed"] / res["attempted"], "ratio"),
            }
            runs = (res,)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
