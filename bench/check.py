"""Correctness checks for the benchmark's CLI outputs, and their references.

The references are committed in bench/reference.json.  They were produced by
the hpnc code of the commit that added the benchmark, so a later change that
legally alters the random stream (a new stream layout, say) still passes:

* a sweep row fails when bler_sim or thr_sim is more than Z_LIMIT combined
  standard errors from its reference estimate, or when a deterministic
  column differs from the reference at 12 significant digits;
* rate-table and export-codebook output must be byte-identical (SHA-256);
* validate must exit 0 and report every reference check with the same result.

Regenerate (a few minutes of Monte Carlo; only when the meaning of an output
changes, never to make a failing check pass):

    python3 bench/check.py --regenerate
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
Z_LIMIT = 5.0
DETERMINISTIC = ("bler_exact", "bler_asym13", "bler_asym14", "c_hpnc", "c_theo")
# Reference estimates: REF_SEEDS independent runs of REF_ROUNDS rounds each,
# as many rounds as a benchmark row, so the spread between them is the
# spread of a row.  Reference seeds are odd; the benchmark passes the CLI
# only even seeds.
REF_SEEDS = tuple(2 * k + 1 for k in range(40))
REF_ROUNDS = 100_000


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _same12(a: str, b: str) -> bool:
    return f"{float(a):.12g}" == f"{float(b):.12g}"


def _row_key(row: dict) -> str:
    return ",".join(row[k] for k in ("scheme", "n", "r", "snr_db"))


def _check_sweep(ref: dict, data: bytes, cli_seed: int, rounds: int) -> tuple[int, list[str]]:
    """Number of failed rows and the reasons."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    problems = []
    failed = 0
    seen = set()
    for row in rows:
        key = _row_key(row)
        seen.add(key)
        point = ref["rows"].get(key)
        bad = []
        if point is None:
            bad.append("row not in reference")
        else:
            bad += [c for c in DETERMINISTIC if not _same12(row[c], point[c])]
            if int(row["rounds"]) != rounds or int(row["seed"]) != cli_seed:
                bad.append("rounds/seed")
            for col in ("bler_sim", "thr_sim"):
                mean, sd1 = point[col]
                se = sd1 * math.sqrt(1.0 / rounds + 1.0 / ref["ref_rounds"])
                z = abs(float(row[col]) - mean) / se if se else math.inf
                if z > Z_LIMIT:
                    bad.append(f"{col} {row[col]} vs {mean:.6g} (z={z:.1f})")
        if bad:
            failed += 1
            problems.append(f"{key}: {'; '.join(bad)}")
    missing = set(ref["rows"]) - seen
    if missing:
        failed += len(missing)
        problems.append(f"{len(missing)} reference rows missing, e.g. {sorted(missing)[0]}")
    return failed, problems


def _check_validate(ref: dict, data: bytes) -> list[str]:
    report = json.loads(data)
    problems = [] if report["passed"] else [f"validate: {report['failed']} checks failed"]
    got = {
        (c["name"], json.dumps(c["params"], sort_keys=True)): c["passed"] for c in report["checks"]
    }
    for name, params, passed in ref["checks"]:
        if got.get((name, params)) is not passed:
            problems.append(f"validate: {name} {params} missing or not {passed}")
    return problems


def check_call(reference: dict, label: str, argv: list[str], code: int, data: bytes,
               cli_seed: int, rounds: int) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, reasons) for one CLI call.

    A sweep counts one operation for the invocation plus one per row; every
    other command counts one.
    """
    ref = reference[label]
    rows = len(ref["rows"]) if "rows" in ref else 0
    if code != 0 or not data:
        return 1 + rows, 1 + rows, [f"{label} {argv[0]}: exit {code}, {len(data)} bytes"]
    try:
        if "rows" in ref:
            failed, problems = _check_sweep(ref, data, cli_seed, rounds)
            return 1 + rows, failed, [f"{label} {p}" for p in problems]
        if "checks" in ref:
            problems = _check_validate(ref, data)
        else:
            digest = hashlib.sha256(data).hexdigest()
            problems = [] if digest == ref["sha256"] else [f"{label} {argv[0]}: output differs"]
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return 1 + rows, 1 + rows, [f"{label} {argv[0]}: unreadable output ({exc})"]
    return 1, 1 if problems else 0, problems


def _run(argv: list[str]) -> None:
    import worker

    code = worker.cli.main(argv)
    if code != 0:
        raise SystemExit(f"hpnc {' '.join(argv)} exited {code}")


def regenerate() -> None:
    import tempfile

    import worker

    reference = {}
    (worker.ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.ROOT / ".bench_out") as tmp:
        out = Path(tmp) / "out"
        for workload, spec in worker.WORKLOADS.items():
            for index, call in enumerate(spec["calls"]):
                label = f"{workload}/{index}"
                argv = list(call["argv"])
                if "n" not in call:
                    _run(argv + ["--out", str(out)])
                    data = out.read_bytes()
                    if argv[0] == "validate":
                        report = json.loads(data)
                        reference[label] = {"checks": [
                            [c["name"], json.dumps(c["params"], sort_keys=True), c["passed"]]
                            for c in report["checks"]
                        ]}
                    else:
                        reference[label] = {"sha256": hashlib.sha256(data).hexdigest()}
                    continue
                argv[argv.index("--rounds") + 1] = str(REF_ROUNDS)
                runs: dict[str, list[dict]] = {}
                for seed in REF_SEEDS:
                    _run(argv + ["--seed", str(seed), "--out", str(out)])
                    for row in csv.DictReader(io.StringIO(out.read_text())):
                        runs.setdefault(_row_key(row), []).append(row)
                    print(label, seed, file=sys.stderr)
                reference[label] = {"ref_rounds": REF_ROUNDS * len(REF_SEEDS), "rows": {
                    key: _reference_point(rows) for key, rows in runs.items()
                }}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _reference_point(rows: list[dict]) -> dict:
    """Pooled estimates with a per-round standard deviation for each.

    bler is binomial.  The throughput sd is taken from the spread between
    seeds (the downlink length makes it heavy-tailed, so no closed form is
    used), floored by the binomial part a single block error contributes,
    so that a point with no observed spread still gets a nonzero error.
    """
    total = REF_ROUNDS * len(rows)
    bler = statistics.fmean(float(r["bler_sim"]) for r in rows)
    p = max(bler, 1.0 / total)
    bler_sd1 = math.sqrt(p * (1.0 - p))
    thr = [float(r["thr_sim"]) for r in rows]
    thr_mean = statistics.fmean(thr)
    thr_sd1 = max(
        statistics.stdev(thr) * math.sqrt(REF_ROUNDS),
        thr_mean * bler_sd1 / (2.0 * (1.0 - p)),
    )
    point = {c: rows[0][c] for c in DETERMINISTIC}
    point["bler_sim"] = [bler, bler_sd1]
    point["thr_sim"] = [thr_mean, thr_sd1]
    return point


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
