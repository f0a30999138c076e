"""Repeat bench/run.py over seeds and summarise each metric's spread.

    python3 bench/collect.py --seeds 1-10 [--traced-seed N] [--out summary.json]

Every workload of BENCHMARK.json runs at its run_seconds.  For each
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the interquartile spread as a share of the
median, next to a third of the metric's bound in BENCHMARK.json.  With
--traced-seed it also makes one traced run per workload.  --out writes every
value, as bench/baseline.json was written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:12s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {spread:6.2%}  bound/3 {bound / 3:6.2%}  {flag}")
        if args.traced_seed is not None:
            traced = run(workload, args.traced_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
