"""Self-test of the benchmark at tiny sizes (under a minute, one core).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and no failures, that a traced run
prints every per-layer metric with its unit, that two traced runs with the
same seed report equal work counts, and that a corrupted expected value
drives fail_ratio above 0.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {"theorem-b": 12, "formulas": 12}
SEED = 7


def run(workload: str, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--items", str(TINY[workload]), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    info_line, result_line = out.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def units(specs: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in specs}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = units(spec["end_to_end"]), units(spec["per_layer"])
    problems = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in TINY:
        info, result = run(workload, "--trace", "0")
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == end_to_end, f"{workload}: end-to-end metrics and units")
        check(all(v["value"] > 0 for v in result["metrics"].values()), f"{workload}: end-to-end values > 0")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: no failures")
        check({"seed", "items", "python", "nproc", "fail_ratio"} <= set(info), f"{workload}: run details")

        _, first = run(workload, "--trace", "1")
        _, second = run(workload, "--trace", "1")
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        check(got == per_layer, f"{workload}: per-layer metrics and units")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in (first, second)
        ]
        check(counts[0] == counts[1] and any(counts[0].values()), f"{workload}: work counts repeat")

        info, result = run(workload, "--trace", "0", "--corrupt")
        check(info["fail_ratio"] > 0 and not result["correct"], f"{workload}: corrupted expectation fails")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
