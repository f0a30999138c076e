"""One benchmark run of the hpnc CLI inside a fresh interpreter.

bench/run.py starts this file as a child process:

    python3 bench/worker.py --workload NAME --cli-seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only

The first form sets up (import and cold builds), then calls
``hpnc.cli.main(argv)`` for every invocation of the workload, pass after
pass, for about S seconds, checking every output against the committed
reference.  Each invocation is timed between two runs of the calibration
loop in speed.py and rescaled to reference speed.  With ``--trace 1``
untraced and traced passes alternate; the traced passes record spans around
the calls into each module and yield the per-layer metrics.  The second form only
sets up and exits, so the parent can time set-up from interpreter start.
Either form prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# one closed-loop caller on a 2-core machine: keep numpy's pools single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hpnc.cli as cli  # noqa: E402
import hpnc.huffman as huffman  # noqa: E402
import hpnc.sim as sim  # noqa: E402
import hpnc.validation as validation  # noqa: E402
from hpnc.model import SystemParams, equal_factor  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402

ROUNDS = 100_000
RATE_TABLE_N_STOP = 13
SNR_DB = (0.0, 10.0)


def sweep(cmd: str, n: int, rs: tuple[str, ...], scheme: str, step: float) -> dict:
    """A sweep invocation; the worker appends --seed and --out."""
    argv = [cmd, "--n", str(n)]
    for r in rs:
        argv += ["--r", r]
    argv += [
        "--snr-db-start", f"{SNR_DB[0]:g}",
        "--snr-db-stop", f"{SNR_DB[1]:g}",
        "--snr-db-step", f"{step:g}",
        "--scheme", scheme,
        "--chunks", "8",
        "--rounds", str(ROUNDS),
    ]
    snrs = []
    snr = SNR_DB[0]
    while snr <= SNR_DB[1] + 1e-9:
        snrs.append(snr)
        snr += step
    return {"argv": argv, "n": n, "r": rs, "scheme": scheme, "snr_db": snrs}


# Each workload is a list of CLI invocations run in sequence by one caller.
# Every cache is cleared before each invocation.  Unless `cold` is set, the
# invocation's codebooks are then built again, untimed, as set-up would; for
# the analytic workload the builds are the work a fresh CLI process pays for.
WORKLOADS = {
    "paper-sweep": {
        "calls": [sweep("bler-sweep", 6, ("0.4", "0.6", "0.7", "0.8", "0.9"), "both", 2.0)],
        "cold": False,
    },
    "deep-code": {
        "calls": [
            sweep("throughput-sweep", 12, ("0.95",), "both", 5.0),
            sweep("throughput-sweep", 6, ("1.0",), "hpnc", 5.0),
        ],
        "cold": False,
    },
    "analytic": {
        "calls": [
            {"argv": ["rate-table", "--n-start", "1", "--n-stop", str(RATE_TABLE_N_STOP)]},
            {"argv": ["validate", "--checks", "all"]},
            {"argv": ["export-codebook", "--n", "12", "--r", "1.0"]},
        ],
        "cold": True,
    },
}


def sim_cases(calls) -> list[tuple[str, str, dict]]:
    """(case name, scheme, call) for every simulated (scheme, n, r) case.

    The conventional baseline ignores r, so the CLI simulates it once per n.
    """
    cases = []
    for call in calls:
        if "n" not in call:
            continue
        if call["scheme"] in ("hpnc", "both"):
            cases += [(f"hpnc.n{call['n']}.r{r}", "hpnc", call) for r in call["r"]]
        if call["scheme"] in ("conventional", "both"):
            cases.append((f"conventional.n{call['n']}", "conventional", call))
    return cases


ALL_CALLS = [call for spec in WORKLOADS.values() for call in spec["calls"]]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in print order."""
    names = [
        "cli.self_s", "cli.calls", "cli.output_bytes",
        "sim.estimate_s", "sim.self_s", "sim.calls", "sim.rounds",
        "sim.rounds_per_s", "sim.downlink_fill",
    ]
    for case, scheme, _ in sim_cases(ALL_CALLS):
        names.append(f"sim.rounds_per_s.{case}")
        if scheme == "hpnc":
            names.append(f"sim.downlink_fill.{case}")
    names += [
        "huffman.build_codebook_s", "huffman.self_s", "huffman.cold_builds",
        "huffman.cache_hits", "huffman.length_distribution_s",
        "huffman.codebook_to_table_s", "huffman.cross_check_optimality_s",
        "huffman.max_len", "huffman.setup_build_codebook_s", "huffman.setup_cold_builds",
        "pnc.optimal_threshold_s", "pnc.symbol_error_numeric_s",
        "pnc.symbol_error_numeric_calls", "pnc.self_s",
        "analysis.bler_point_s", "analysis.calls", "analysis.self_s",
        "validation.threshold_checks_s", "validation.codebook_checks_s",
        "validation.formula_checks_s", "validation.checks_total",
        "validation.checks_failed", "validation.self_s",
        "trace.overhead_s", "trace.overhead_frac", "trace.spans",
    ]
    return names


# Counts that must repeat exactly between passes of the same code and seed.
EXACT_REPEAT = (
    "sim.rounds", "sim.downlink_fill", "huffman.max_len", "huffman.cold_builds",
    "validation.checks_total", "pnc.symbol_error_numeric_calls",
)


def setup(calls) -> tuple[float, int]:
    """Cold-build every codebook and relay threshold the given sweeps use.

    Returns the build time and the number of cold builds.
    """
    build_s = 0.0
    misses = huffman.build_codebook.cache_info().misses
    for call in calls:
        if "n" not in call:
            continue
        for snr_db in call["snr_db"]:
            gamma = 10.0 ** (snr_db / 10.0)
            if call["scheme"] in ("conventional", "both"):
                sim.optimal_threshold(gamma, 0.5)
            if call["scheme"] in ("hpnc", "both"):
                for r in call["r"]:
                    sim.relay_threshold(SystemParams(n=call["n"], r=float(r), gamma=gamma))
        if call["scheme"] in ("hpnc", "both"):
            for r in call["r"]:
                start = time.perf_counter()
                huffman.build_codebook(call["n"], equal_factor(float(r)))
                build_s += time.perf_counter() - start
    return build_s, huffman.build_codebook.cache_info().misses - misses


def clear_caches() -> None:
    """Empty every functools cache of the hpnc modules, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name != "hpnc" and not name.startswith("hpnc."):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Tracer:
    """Spans kept in memory as [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, parent, time.perf_counter(), 0.0, None])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][3] = time.perf_counter()
            if attrs is not None:
                self.spans[index][4] = attrs(args, result)
            return result

        return traced


def _estimate_attrs(args, est):
    return (est.scheme, est.params, est.rounds, est.mean_downlink_bits)


def _codebook_attrs(args, cb):
    return (cb.n, cb.rho, cb.max_len)


# (module, attribute, span name, attrs): the call sites the traced run wraps
TRACED_CALLS = (
    (cli, "estimate", "sim.estimate", _estimate_attrs),
    (cli, "build_codebook", "huffman.build_codebook", _codebook_attrs),
    (cli, "length_distribution", "huffman.length_distribution", None),
    (cli, "codebook_to_table", "huffman.codebook_to_table", None),
    (cli, "hpnc_bler_point", "analysis.bler_point", None),
    (cli, "conv_bler_point", "analysis.bler_point", None),
    (sim, "optimal_threshold", "pnc.optimal_threshold", None),
    (validation, "threshold_checks", "validation.threshold_checks", None),
    (validation, "codebook_checks", "validation.codebook_checks", None),
    (validation, "formula_checks", "validation.formula_checks", None),
    (validation, "optimal_threshold", "pnc.optimal_threshold", None),
    (validation, "pnc_symbol_error_numeric", "pnc.symbol_error_numeric", None),
    (validation, "build_codebook", "huffman.build_codebook", _codebook_attrs),
    (validation, "codebook_to_table", "huffman.codebook_to_table", None),
    (validation, "cross_check_optimality", "huffman.cross_check_optimality", None),
)


@contextlib.contextmanager
def traced_calls(tracer: Tracer):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACED_CALLS]
    try:
        for module, attr, name, attrs in TRACED_CALLS:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def run_pass(workload: str, cli_seed: int, outdir: Path, tracer: Tracer | None):
    """Every invocation of the workload once.

    Returns (seconds of each, the same rescaled to reference speed, outputs,
    (cold builds, cache hits)), the codebook cache counts summed over the
    invocations.
    """
    spec = WORKLOADS[workload]
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    walls = []
    scaled = []
    outputs = []
    misses = hits = 0
    for index, call in enumerate(spec["calls"]):
        out_path = outdir / f"{index}.out"
        argv = list(call["argv"])
        if "n" in call:
            argv += ["--seed", str(cli_seed)]
        argv += ["--out", str(out_path)]
        # every invocation starts with the caches a fresh CLI process has
        # after set-up, and without the previous invocation's garbage
        clear_caches()
        if not spec["cold"]:
            setup([call])
        gc.collect()
        before = huffman.build_codebook.cache_info()
        speed_before = speed.calibrate()
        stdout = io.StringIO()
        with traced_calls(tracer) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the program failed; count it, keep measuring
                traceback.print_exc()
                code = 1
            walls.append(time.perf_counter() - start)
        scaled.append(speed.rescale(walls[-1], speed_before, speed.calibrate()))
        after = huffman.build_codebook.cache_info()
        misses += after.misses - before.misses
        hits += after.hits - before.hits
        data = out_path.read_bytes() if out_path.exists() else b""
        outputs.append((argv, code, stdout.getvalue(), data))
        if out_path.exists():
            out_path.unlink()
    return walls, scaled, outputs, (misses, hits)


def typical_pass(passes: list[list[float]]) -> float:
    """Sum over the invocations of each one's median time across passes.

    The times are rescaled to reference speed (speed.py), which divides out
    the machine's slow and fast phases; the median drops the passes that a
    phase change during the call made the rescaling miss.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def check_pass(reference, workload: str, cli_seed: int, outputs) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for index, (argv, code, _, data) in enumerate(outputs):
        a, f, p = check.check_call(reference, f"{workload}/{index}", argv, code, data, cli_seed, ROUNDS)
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems


def layer_metrics(tracer: Tracer, outputs, cache_delta: tuple[int, int]) -> dict:
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for index, (name, _, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[index]

    max_len = {}
    for name, _, _, _, attrs in spans:
        if name == "huffman.build_codebook":
            n, rho, length = attrs
            max_len[(n, rho)] = length

    case_rounds: dict[str, int] = {}
    case_time: dict[str, float] = {}
    case_bits: dict[str, float] = {}
    case_slots: dict[str, float] = {}
    for name, _, start, end, attrs in spans:
        if name != "sim.estimate":
            continue
        scheme, params, rounds, mean_bits = attrs
        if scheme == "hpnc":
            case = f"hpnc.n{params.n}.r{params.r}"
            case_bits[case] = case_bits.get(case, 0.0) + mean_bits * rounds
            case_slots[case] = case_slots.get(case, 0.0) + max_len[(params.n, params.rho)] * rounds
        else:
            case = f"conventional.n{params.n}"
        case_rounds[case] = case_rounds.get(case, 0) + rounds
        case_time[case] = case_time.get(case, 0.0) + (end - start)

    cli_bytes = sum(len(stdout.encode()) + len(data) for _, _, stdout, data in outputs)
    checks_total = checks_failed = 0
    for argv, _, _, data in outputs:
        if argv[0] == "validate":
            try:
                report = json.loads(data)
            except ValueError:  # the correctness check reports it
                continue
            checks_total += report["total"]
            checks_failed += report["failed"]

    estimate_s = total.get("sim.estimate", 0.0)
    rounds = sum(case_rounds.values())
    metrics = {
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.calls": calls.get("cli.main", 0),
        "cli.output_bytes": cli_bytes,
        "sim.estimate_s": estimate_s,
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.calls": calls.get("sim.estimate", 0),
        "sim.rounds": rounds,
        "sim.rounds_per_s": rounds / estimate_s if estimate_s else 0.0,
        "sim.downlink_fill": (
            sum(case_bits.values()) / sum(case_slots.values()) if case_slots else 0.0
        ),
    }
    for case, scheme, _ in sim_cases(ALL_CALLS):
        seconds = case_time.get(case, 0.0)
        metrics[f"sim.rounds_per_s.{case}"] = case_rounds.get(case, 0) / seconds if seconds else 0.0
        if scheme == "hpnc":
            slots = case_slots.get(case, 0.0)
            metrics[f"sim.downlink_fill.{case}"] = case_bits[case] / slots if slots else 0.0
    metrics.update({
        "huffman.build_codebook_s": total.get("huffman.build_codebook", 0.0),
        "huffman.self_s": self_s.get("huffman", 0.0),
        "huffman.cold_builds": cache_delta[0],
        "huffman.cache_hits": cache_delta[1],
        "huffman.length_distribution_s": total.get("huffman.length_distribution", 0.0),
        "huffman.codebook_to_table_s": total.get("huffman.codebook_to_table", 0.0),
        "huffman.cross_check_optimality_s": total.get("huffman.cross_check_optimality", 0.0),
        "huffman.max_len": max(max_len.values(), default=0),
        "pnc.optimal_threshold_s": total.get("pnc.optimal_threshold", 0.0),
        "pnc.symbol_error_numeric_s": total.get("pnc.symbol_error_numeric", 0.0),
        "pnc.symbol_error_numeric_calls": calls.get("pnc.symbol_error_numeric", 0),
        "pnc.self_s": self_s.get("pnc", 0.0),
        "analysis.bler_point_s": total.get("analysis.bler_point", 0.0),
        "analysis.calls": calls.get("analysis.bler_point", 0),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "validation.threshold_checks_s": total.get("validation.threshold_checks", 0.0),
        "validation.codebook_checks_s": total.get("validation.codebook_checks", 0.0),
        "validation.formula_checks_s": total.get("validation.formula_checks", 0.0),
        "validation.checks_total": checks_total,
        "validation.checks_failed": checks_failed,
        "validation.self_s": self_s.get("validation", 0.0),
        "trace.spans": len(spans),
    })
    return metrics


def measure(workload: str, cli_seed: int, seconds: float, trace: bool) -> dict:
    reference = check.load_reference()
    setup_build_s, setup_cold = setup(WORKLOADS[workload]["calls"])
    outdir = ROOT / ".bench_out" / f"worker-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    layers: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    raw_walls: list[float] = []
    started = time.perf_counter()
    try:
        while True:
            pass_start = time.perf_counter()
            tracer = Tracer() if trace and len(traced) < len(plain) else None
            walls, scaled, outputs, cache_counts = run_pass(workload, cli_seed, outdir, tracer)
            if tracer is None:
                plain.append(scaled)
                raw_walls.append(sum(walls))
                if len(plain) == 1:
                    # a user's process runs one pass; later passes add the
                    # heap fragmentation of their predecessors
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                traced.append(scaled)
                layers.append(layer_metrics(tracer, outputs, cache_counts))
            a, f, p = check_pass(reference, workload, cli_seed, outputs)
            attempted += a
            failed += f
            problems += p
            # stop when one more pass like this one, with its untimed
            # set-up, calibration and checks, would overrun
            now = time.perf_counter()
            done = (now - started) + (now - pass_start) > seconds
            # a traced run needs two traced passes to compare their counts
            if done and (not trace or len(traced) >= 2):
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    result = {
        "wall_s": typical_pass(plain),
        "pass_walls": raw_walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "rounds_per_pass": ROUNDS * sum(
            len(call["snr_db"]) for _, _, call in sim_cases(WORKLOADS[workload]["calls"])
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        for key in EXACT_REPEAT:
            values = {repr(m[key]) for m in layers}
            if len(values) != 1:
                raise RuntimeError(f"exact-repeat count {key} differs between passes: {sorted(values)}")
        metrics = {
            key: statistics.median(m[key] for m in layers) for key in layers[0]
        }
        metrics["huffman.setup_build_codebook_s"] = setup_build_s
        metrics["huffman.setup_cold_builds"] = setup_cold
        overhead = typical_pass(traced) - typical_pass(plain)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / typical_pass(plain)
        result["layers"] = {name: metrics[name] for name in per_layer_names()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--cli-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        build_s, cold = setup(WORKLOADS[args.workload]["calls"])
        print(json.dumps({"setup_build_s": build_s, "cold_builds": cold}))
        return 0
    result = measure(args.workload, args.cli_seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
