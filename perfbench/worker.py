"""One measured process: set up a workload, signal readiness, then run rounds
of a cold pass and a warm pass over its items and print the measurements as
JSON.

Started by run.py with ``src`` on PYTHONPATH.  Runs single-threaded.  Each
round empties every module cache and collects garbage, makes the cold pass,
then repeats the same items in the warm pass on the caches the cold pass
filled.  Both passes time every item.  Rounds repeat until the next one
would end more than --seconds after readiness (one round at least).  A
traced worker makes one round: first an untraced reference cold pass, then,
with the caches emptied again and the tracer installed, its cold and warm
passes.

    python3 worker.py --workload NAME --seed N [--seconds S] [--items K]
                      [--corrupt] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
import time

import schubert
import schubert.cli  # noqa: F401  (its import cost belongs to set-up)
from schubert import hilbert

import layertrace
import workloads


def clear_caches() -> None:
    for name in layertrace.LAYERS:
        module = getattr(schubert, name)
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    hilbert._K_CACHE.clear()
    gc.collect()


def run_pass(items, failures: list) -> list[float]:
    """Run every item once; return each item's latency in seconds."""
    latencies = []
    for item in items:
        t = time.perf_counter()
        try:
            if item.fn(*item.args) != item.expected:
                failures.append(f"{item.label}: disagrees with its oracle")
        except Exception as exc:  # an item that raises is a failed item
            failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
    return latencies


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--items", type=int, default=None)
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    items = workloads.make_items(args.workload, args.seed, args.items)
    if args.corrupt:
        items[0] = dataclasses.replace(items[0], expected=not items[0].expected)
    clear_caches()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    failures: list[str] = []
    out = {}
    if args.trace:
        out["untraced_cold_s"] = sum(run_pass(items, failures))
        clear_caches()
        tracer = layertrace.Tracer()
        tracer.install()
        cold, warm = [run_pass(items, failures)], [run_pass(items, failures)]
    else:
        ready, cold, warm = time.perf_counter(), [], []
        while True:
            start = time.perf_counter()
            clear_caches()
            cold.append(run_pass(items, failures))
            warm.append(run_pass(items, failures))
            now = time.perf_counter()
            if now - ready + (now - start) > args.seconds:
                break
    passes = 2 * len(cold) + (1 if args.trace else 0)
    out.update(
        items=len(items),
        cold_latencies_s=cold,
        warm_latencies_s=warm,
        attempted=passes * len(items),
        failed=len(failures),
        failures=failures[:10],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if args.trace:
        out["counters"] = tracer.report()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
