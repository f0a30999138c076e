"""hpnc benchmark: drives the hpnc CLI over one workload and prints its metrics.

    python3 bench/run.py --workload paper-sweep|deep-code|analytic \\
        --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; nothing needs installing.  The
benchmark seed reaches the program only as the CLI's --seed, as 2*N (the
committed reference estimates use odd CLI seeds, so they never coincide).

--trace 0 times set-up in SETUP_PROBES fresh interpreters, then runs the
workload in one more fresh interpreter for S seconds and reports the
end-to-end metrics.  Its timings are rescaled to reference machine speed
with the calibration loop in speed.py.  --trace 1 skips the set-up probes,
alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for the workloads, the metrics and the
baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 5
# a seed set aside for confirming a claimed gain on a seed the change was not
# tuned on (choosing-metrics guide, section 6.3); do not develop against it
HELD_OUT_SEED = 7919
SETUP_TIMEOUT_S = 60


def child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run the worker in a fresh interpreter; (its JSON result, wall seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark worker timed out after {timeout:g} s: {' '.join(args)}")
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed (exit {proc.returncode}): {' '.join(args)}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper-sweep", "deep-code", "analytic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hpnc" / "cli.py").is_file():
        raise SystemExit(f"hpnc sources not found under {ROOT / 'src'}")

    run_args = [
        "--workload", args.workload, "--cli-seed", str(2 * args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # the worker overshoots --seconds by at most a pass or two, plus set-up
    run_timeout = 2 * args.seconds + 60
    if args.trace:
        result, _ = child(run_args, run_timeout)
        metrics = {name: (value, _unit(name)) for name, value in result["layers"].items()}
        extra = {}
    else:
        probe = ["--workload", args.workload, "--setup-only"]
        # the first probe also fills the file cache and writes bytecode; drop it
        child(probe, SETUP_TIMEOUT_S)
        setup = []
        for _ in range(SETUP_PROBES):
            before = speed.calibrate()
            wall = child(probe, SETUP_TIMEOUT_S)[1]
            setup.append(speed.rescale(wall, before, speed.calibrate()))
        result, _ = child(run_args, run_timeout)
        metrics = {
            "wall_s": (result["wall_s"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        extra = {"failed_frac": (result["failed"] / result["attempted"], "1")}
        if result["rounds_per_pass"]:
            extra["rounds_per_s"] = (result["rounds_per_pass"] / result["wall_s"], "1/s")

    for problem in result["problems"]:
        print(f"FAILED CHECK {problem}", file=sys.stderr)
    walls = ", ".join(f"{w:.3f}" for w in result["pass_walls"])
    print(f"# {args.workload} seed={args.seed} cli-seed={2 * args.seed} "
          f"held-out-seed={HELD_OUT_SEED} untraced pass walls (s): {walls}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.startswith("sim.rounds_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if "downlink_fill" in name or name.endswith("_frac"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
