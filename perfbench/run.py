"""Benchmark for the schubert library: seeded verification sweeps, each run
in fresh single-threaded worker processes, one after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and the metrics with their units are those of BENCHMARK.json
at the root of the checkout; workloads.py builds their items.

Untraced (--trace 0): WORKERS workers run one after another, each after a
set-up-only launch, and share the S seconds.  A worker makes rounds until
its share is spent (one at least): each round empties every module cache,
times each item in a cold pass and again in a warm pass.  Each item's
latency is its fastest over all rounds of the run: a shared host
alternates between fast and slow phases, and the fastest measurement is
the one other load disturbed least.  Many short rounds in several
processes over a long run give every item samples in the run's fast
phases and in more than one memory layout.  A slow phase that lasts the
whole run (they last from seconds to minutes) still reads slow.  Reported: setup_s (the shortest time from process launch to
ready over all the run's launches), wall_s and warm_s (the sums of the items'
cold and warm latencies, that is the time of a pass with each item at its
fastest), item_p50_ms and item_p90_ms (over the items' cold latencies) and
peak_rss_mb (the median of the workers' ru_maxrss).  setup_s is a minimum
for the same reason as the latencies: launching and importing swing by half
with the host's load, and the median over a run's launches moved by 25-40%
between two sets of runs of the same code.

Traced (--trace 1): one worker makes an untraced cold pass, installs the
layer tracer, then makes a cold pass and a warm pass; reports the tracer's
per-layer metrics and trace.overhead_ratio, the traced cold pass over the
untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's details
(seed, item count, Python version, nproc, fail_ratio, sample counts).
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
WORKERS = 6  # measuring processes per run, one after another


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, extra: list[str]) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its measurements."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence work counts, repeats
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "READY":
            raise BenchError(f"worker did not get ready: {ready!r}")
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if "--setup-only" in extra:
        return setup, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no measurements")
    return setup, json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, extra: list[str]) -> tuple[dict, list[dict], list[float]]:
    setups, runs = [], []
    deadline = time.perf_counter() + args.seconds
    for left in range(WORKERS, 0, -1):
        setups.append(run_worker(args.workload, args.seed, extra + ["--setup-only"])[0])
        share = max(0.0, (deadline - time.perf_counter()) / left - setups[-1])
        setup, out = run_worker(args.workload, args.seed, extra + ["--seconds", f"{share:.3f}"])
        setups.append(setup)
        runs.append(out)
    cold = [min(item) for item in zip(*(p for r in runs for p in r["cold_latencies_s"]))]
    warm = [min(item) for item in zip(*(p for r in runs for p in r["warm_latencies_s"]))]
    metrics = {
        "setup_s": min(setups),
        "wall_s": sum(cold),
        "item_p50_ms": 1000 * quantile(cold, 50),
        "item_p90_ms": 1000 * quantile(cold, 90),
        "warm_s": sum(warm),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024,
    }
    return metrics, runs, setups


def measure_traced(args, extra: list[str]) -> tuple[dict, list[dict], list[float]]:
    setup, traced = run_worker(args.workload, args.seed, extra + ["--trace"])
    metrics = dict(traced["counters"])
    metrics["trace.overhead_ratio"] = sum(traced["cold_latencies_s"][0]) / traced["untraced_cold_s"]
    return metrics, [traced], [setup]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None, help="items per pass (self-test sizes)")
    ap.add_argument("--corrupt", action="store_true", help="flip the first item's expected value")
    args = ap.parse_args()
    if args.seconds <= 0 or (args.items is not None and args.items < 1):
        ap.error("--seconds and --items must be positive")
    if not (ROOT / "src" / "schubert" / "__init__.py").is_file():
        print(f"error: no schubert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    extra = (["--items", str(args.items)] if args.items else []) + (["--corrupt"] if args.corrupt else [])
    try:
        values, runs, setups = (measure_traced if args.trace else measure)(args, extra)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        }
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items": runs[0]["items"],
        "workers": len(runs),
        "rounds": sum(len(r["cold_latencies_s"]) for r in runs),
        "round_cold_s": [round(sum(p), 3) for r in runs for p in r["cold_latencies_s"]],
        "setup_median_s": statistics.median(setups),
        "setups": len(setups),
        "fail_ratio": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]][:10],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
