"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client, no threads: each query is sent only after the
previous answer came back.  Whole rounds run until the summed query time
reaches --seconds.  A query's time covers parsing its set expressions and
the call (or the whole cli.main run, stdout captured); every answer is
checked against the reference between rounds, outside the clock.  Throughput is the
median over rounds of each round's queries per second of query time (every
round holds the same query mix).  With --setup-probes N, N set-up probes
(fresh interpreters) run between rounds, spread over the run.  The last
stdout line is a JSON summary for run.py.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import addcomp  # noqa: E402
import addcomp.cli  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from addcomp import cli; "
    "sys.exit(cli.main(['eval', '--set', 'finite{0}', '--window=0:0']))"
)
# peak memory is read, and a digest of the inputs so far taken, after a
# fixed number of rounds, so both cover the same work whatever the speed of
# the machine or of the program
RSS_ROUNDS = 4

# The shared machine this benchmark was built on drifts: over minutes it
# runs up to 1.7x slower or faster, so ten 20-s runs of one workload spread
# by 30-40% in raw time, more than any change worth measuring.  Each pass
# therefore also times two fixed kernels that do not touch addcomp (an
# interpreted loop and modular powers of 40-bit integers, the program's two
# regimes) at CALIBRATION_SAMPLES points spread over the pass.  speed is
# the geometric mean of reference time / median time over both; reported
# times are measured times x speed (rates / speed), i.e. seconds at the
# reference speed.  The measured values are printed alongside.
CALIBRATION_SAMPLES = 40
KERNEL_REF_S = (0.0015, 0.0025)

PREDICATES = {
    "complement": "is_complement",
    "ac": "is_asymptotic_complement",
    "aes": "asymptotic_exceptional_set",
    "mc": "is_minimal_complement",
    "mac": "is_minimal_asymptotic_complement",
}


def _verdict(v) -> dict:
    return {
        "status": v.status,
        "exact": v.exact,
        "witnesses": list(v.witnesses),
        "evidence": None if v.evidence is None else list(v.evidence),
        "removals": [(x, list(w)) for x, w in v.removals],
    }


def execute(q: dict):
    """Send one query; returns the raw answer.  Functions are looked up on
    the package at call time so the traced pass sees its wrappers."""
    A = addcomp
    op = q["op"]
    if "argv" in q:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = A.cli.main(list(q["argv"]))
        return code, out.getvalue()
    w = A.parse_set(q["w_dsl"]) if "w_dsl" in q else None
    c = A.parse_set(q["c_dsl"]) if "c_dsl" in q else None
    win = A.Window(*q["win"]) if "win" in q else None
    if op == "verdict":
        return getattr(A, PREDICATES[q["pred"]])(w, c, win)
    if op in ("ws_uncovered", "ws_runs"):
        mask = A.windowed_sumset(w, c, win, q.get("radius"))
        return mask, (mask.runs() if op == "ws_runs" else mask.uncovered_interior())
    if op == "gaps":
        return A.cy_gap_classifier(w, q["horizon"])
    if op == "redundant":
        return A.redundant_elements(w, c, win)
    if op == "subsets":
        return A.minimal_subset_search(w, c)
    if op == "thmA1":
        return A.thmA1_shrink(w, c, q["f"])
    raise ValueError(op)


def answer_data(q: dict, raw):
    """Plain data for the checker, read from the program's result objects."""
    op = q["op"]
    if "argv" in q:
        return raw
    if op == "verdict":
        return _verdict(raw)
    if op in ("ws_uncovered", "ws_runs"):
        mask, result = raw
        return mask.bits, mask.interior_margin, result
    if op == "subsets":
        return [s.elements for s in raw[0]], [s.elements for s in raw[1]]
    if op == "thmA1":
        return _verdict(raw[1])
    return raw


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports addcomp and answers a
    one-point eval through cli.main."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - t0
    if done.returncode != 0 or done.stdout != "element\n0\n":
        raise RuntimeError(f"set-up eval failed ({done.returncode}): {done.stderr[-500:]}")
    return elapsed


def kernel_times() -> tuple[float, float]:
    """Wall times of the two calibration kernels."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(12_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    t1 = perf_counter()
    for i in range(300):
        acc ^= pow(1_000_003 + 2 * i, 999_999_999_988, 999_999_999_989)
    return t1 - t0, perf_counter() - t1


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check(answers: list[tuple]) -> list[str]:
    """Check answers against the reference; one message per failed query."""
    failures = []
    for q, error, answer in answers:
        if error is None:
            try:
                problems = verify.check(q, answer)
            except Exception:  # output the checker cannot read is wrong output
                problems = [traceback.format_exc(limit=3)]
        else:
            problems = [error]
        if problems:
            failures.append(f"FAILED {q['op']} {json.dumps(q)[:300]}: {problems[0]}")
    return failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probes", type=int, default=0)
    args = ap.parse_args()
    if not Path(addcomp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"addcomp imported from {addcomp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    digest = hashlib.sha256()
    latencies: list[float] = []
    round_rates: list[float] = []
    answers: list[tuple] = []
    setup: list[float] = []
    kernels: list[tuple[float, float]] = []
    failures: list[str] = []
    attempted = rounds = output_bytes = 0
    busy = 0.0
    peak_rss_mb = prefix = None
    while busy < args.seconds:
        # set-up probes are spread over the run so that one slow spell of
        # the machine does not decide their median
        if len(setup) < args.setup_probes and busy >= len(setup) * args.seconds / args.setup_probes:
            setup.append(setup_probe())
        if busy >= len(kernels) * args.seconds / CALIBRATION_SAMPLES:
            kernels.append(kernel_times())
        queries = workloads.round_queries(args.workload, args.seed, rounds)
        digest.update(json.dumps(queries, sort_keys=True).encode())
        if rounds + 1 == RSS_ROUNDS:
            prefix = digest.hexdigest()
        round_busy = 0.0
        for q in queries:
            if tracer is not None:
                tracer.qid = attempted
            attempted += 1
            error = None
            t0 = perf_counter()
            try:
                raw = execute(q)
            except Exception:  # a raised query is a failed query
                error = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            round_busy += dt
            latencies.append(dt)
            if error is None and "argv" in q:
                output_bytes += len(raw[1].encode())
            answers.append((q, error, None if error else answer_data(q, raw)))
        busy += round_busy
        round_rates.append(len(queries) / round_busy)
        rounds += 1
        if rounds == RSS_ROUNDS:
            peak_rss_mb = max_rss_mb()
        if peak_rss_mb is not None:
            # checking between rounds (never inside the clock, and only once
            # peak memory has been read) spreads the timed rounds over a
            # longer stretch of the machine's slow and fast spells
            failures += check(answers)
            answers.clear()
    while len(setup) < args.setup_probes:
        setup.append(setup_probe())
    if peak_rss_mb is None:
        peak_rss_mb = max_rss_mb()
    failures += check(answers)
    for line in failures[:5]:
        print(line, file=sys.stderr)

    print(f"inputs workload={args.workload} seed={args.seed} rounds={rounds} "
          f"queries={attempted} sha256={digest.hexdigest()} "
          f"first{RSS_ROUNDS}_sha256={prefix or '-'}")
    measured = {
        "queries_per_s": statistics.median(round_rates),
        "latency_p50_ms": 1000 * percentile(latencies, 0.50),
        "latency_p90_ms": 1000 * percentile(latencies, 0.90),
    }
    if setup:
        measured["setup_s"] = statistics.median(setup)
    speed = math.prod(ref / statistics.median(k) for ref, k in zip(KERNEL_REF_S, zip(*kernels))) ** 0.5
    print("measured " + " ".join(f"{k}={v:.6g}" for k, v in measured.items()) + f" speed={speed:.4f}")
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "rounds": rounds,
        "busy_s": busy,
        "speed": speed,
        "peak_rss_mb": peak_rss_mb,
        **{k: v / speed if k == "queries_per_s" else v * speed for k, v in measured.items()},
    }
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl.gz")
        layers = tracer.metrics(attempted)
        result["layers"] = {k: v * speed if k.endswith("_s") else v for k, v in layers.items()}
        result["layers"]["cli.main.output_bytes"] = output_bytes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
