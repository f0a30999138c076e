"""Command-line experiment runner.

Subcommands: bler-sweep, throughput-sweep, rate-table, validate,
export-codebook.  Sweep configuration comes from flags, optionally layered
over a JSON config file (flags override file values).  Output files are
byte-stable for a fixed configuration and seed: floats are serialised with
12 significant digits and nothing time- or host-dependent is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields

# conv_bler_point is unused here; bench/worker.py wraps it by this module's name
from .analysis import conv_bler_point, hpnc_bler_point  # noqa: F401
# codebook_to_table is unused here; bench/worker.py wraps it by this module's name
from .huffman import (  # noqa: F401
    MAX_BLOCK_LEN,
    build_codebook,
    codebook_table_lines,
    codebook_to_table,
    compression_rate,
    length_distribution,
    rate_gap_within_bound,
    theoretical_rate,
)
from .model import SystemParams, equal_factor
from .sim import SCHEME_CONVENTIONAL, SCHEME_HPNC, estimate
from . import validation

SWEEP_SCHEMA = (
    "scheme",
    "n",
    "r",
    "snr_db",
    "bler_exact",
    "bler_asym13",
    "bler_asym14",
    "bler_sim",
    "bler_sim_se",
    "thr_sim",
    "c_hpnc",
    "c_theo",
    "rounds",
    "seed",
)
# the columns each sweep command prints; both write every SWEEP_SCHEMA column
BLER_COLUMNS = ("bler_exact", "bler_asym13", "bler_asym14", "bler_sim", "bler_sim_se")
THROUGHPUT_COLUMNS = ("thr_sim", "c_hpnc", "c_theo")

# bound on a sweep's SNR grid, so a tiny step cannot ask for an endless sweep
MAX_SNR_POINTS = 10_000
# bound on the chunks per estimate: each costs tens of microseconds of Python
MAX_CHUNKS = 10_000

RATE_SCHEMA = ("n", "r", "mean_len", "c_hpnc", "c_theo", "gap")
DEFAULT_R_GRID = tuple(round(0.1 * k, 1) for k in range(10))

THROUGHPUT_NOTE = (
    "# throughput = correctly decoded blocks * n / channel uses, with n uplink "
    "uses plus the downlink payload per round; noiseless ceilings are 1.0 "
    "(conventional) and 1/c_hpnc (hpnc)"
)


@dataclass
class ExperimentConfig:
    """Sweep configuration shared by bler-sweep and throughput-sweep."""

    scheme: str = "both"
    n: int = 6
    r: tuple[float, ...] = (0.4, 0.6, 0.7, 0.8, 0.9)
    snr_db_start: float = 0.0
    snr_db_stop: float = 10.0
    snr_db_step: float = 2.0
    rounds: int = 100_000
    seed: int = 12345
    chunks: int = 8
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        # a JSON config can hold any type: each check names its field.  The
        # membership tests on scheme and format admit only their strings.
        if self.scheme not in ("hpnc", "conventional", "both"):
            raise ValueError(f"scheme: must be hpnc, conventional or both, got {self.scheme!r}")
        for name in ("n", "rounds", "seed", "chunks"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name}: must be an integer, got {value!r}")
        if not 1 <= self.n <= MAX_BLOCK_LEN:
            raise ValueError(f"n: must be in [1, {MAX_BLOCK_LEN}], got {self.n}")
        if not isinstance(self.r, (list, tuple)) or not all(map(_is_number, self.r)):
            raise ValueError(f"r: must be a list of numbers, got {self.r!r}")
        if not self.r:
            raise ValueError("r: at least one correlation factor is required")
        for value in self.r:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"r: values must be in [0, 1], got {value}")
        for name in ("snr_db_start", "snr_db_stop", "snr_db_step"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name}: must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")
        if self.snr_db_step <= 0.0:
            raise ValueError(f"snr_db_step: must be > 0, got {self.snr_db_step}")
        if self.snr_db_stop < self.snr_db_start:
            raise ValueError("snr_db_stop: must be >= snr_db_start")
        # compared as a float, because the quotient can overflow to inf
        if not self._snr_steps < MAX_SNR_POINTS:
            raise ValueError(
                f"snr_db_step: {self.snr_db_step!r} gives more than {MAX_SNR_POINTS} "
                f"SNR points from {self.snr_db_start!r} to {self.snr_db_stop!r} dB"
            )
        # the grid rises, so its two ends bound every point's linear SNR
        grid = self.snr_grid_db
        for name, snr_db in (("snr_db_start", grid[0]), ("snr_db_stop", grid[-1])):
            if not 0.0 < _linear_snr(snr_db) < math.inf:
                raise ValueError(f"{name}: {snr_db!r} dB gives no positive finite linear SNR")
        if self.rounds < 1:
            raise ValueError(f"rounds: must be >= 1, got {self.rounds}")
        if not 1 <= self.chunks <= MAX_CHUNKS:
            raise ValueError(f"chunks: must be in [1, {MAX_CHUNKS}], got {self.chunks}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out: must be a path, got {self.out!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format: must be csv or json, got {self.format!r}")

    @property
    def _snr_steps(self) -> float:
        # the grid has floor(_snr_steps) + 1 points
        return (self.snr_db_stop - self.snr_db_start) / self.snr_db_step + 1e-9

    @property
    def snr_grid_db(self) -> list[float]:
        count = int(math.floor(self._snr_steps)) + 1
        return [self.snr_db_start + k * self.snr_db_step for k in range(count)]

    @property
    def schemes(self) -> list[str]:
        if self.scheme == "both":
            return [SCHEME_HPNC, SCHEME_CONVENTIONAL]
        return [self.scheme]


def _linear_snr(snr_db: float) -> float:
    # 10 ** x raises OverflowError above about 3082.5 dB
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _rows_text(fmt: str, schema, rows) -> str:
    if fmt == "csv":
        lines = [",".join(_fmt(row[key]) for key in schema) for row in rows]
        return "\n".join([",".join(schema), *lines]) + "\n"
    payload = [{key: _json_value(row[key]) for key in schema} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _write_output(path: str | None, parts: Iterable[str]) -> None:
    """Write the text parts to the --out file, byte for byte, when one is given.

    The parts are written as they come, so a generator of lines never has
    to exist in memory as a whole.
    """
    if path:
        # 1 MiB buffers: a large table goes out in few writes
        with open(path, "w", newline="", buffering=1 << 20) as fh:
            fh.writelines(parts)


def _print_table(rows, columns, widths) -> None:
    print("  ".join(name.ljust(w) for name, w in zip(columns, widths)))
    for row in rows:
        print("  ".join(_fmt(row[name]).ljust(w) for name, w in zip(columns, widths)))


def _rate_point(n: int, r: float):
    """rho, length distribution, c_hpnc and c_theo of the code designed for r."""
    rho = equal_factor(r)
    ld = length_distribution(build_codebook(n, rho), rho)
    return rho, ld, compression_rate(n, ld.mean), theoretical_rate(r)


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """One row per (scheme, r, SNR): analytical columns plus one simulation."""
    cfg.validate()
    grid = [(snr_db, _linear_snr(snr_db)) for snr_db in cfg.snr_grid_db]
    rows = []
    sim_cache: dict = {}
    for scheme in cfg.schemes:
        for r in cfg.r:
            # the baseline is the scheme designed for r = 0, whatever r is:
            # the rho = 0.5 code, every codeword n bits long
            design_r = r if scheme == SCHEME_HPNC else 0.0
            rho, ld, c_hpnc, c_theo = _rate_point(cfg.n, design_r)
            for snr_db, gamma in grid:
                point = hpnc_bler_point(gamma, rho, cfg.n, ld)
                # the baseline's rows share one simulation per SNR point
                key = (scheme, design_r, snr_db)
                if key not in sim_cache:
                    params = SystemParams(n=cfg.n, r=design_r, gamma=gamma)
                    sim_cache[key] = estimate(params, scheme, cfg.rounds, cfg.seed, cfg.chunks)
                est = sim_cache[key]
                # one value per SWEEP_SCHEMA column, in its order
                values = (
                    scheme, cfg.n, r, snr_db,
                    point.exact, point.asym_medium, point.asym_high,
                    est.bler_12, est.bler_12_se, est.throughput,
                    c_hpnc, c_theo, cfg.rounds, cfg.seed,
                )
                rows.append(dict(zip(SWEEP_SCHEMA, values)))
    return rows


def cmd_sweep(args, columns) -> int:
    cfg = _config_from_args(args)
    rows = run_sweep(cfg)
    print(THROUGHPUT_NOTE)
    widths = (12, 3, 5, 7) + (18,) * len(columns)
    _print_table(rows, ("scheme", "n", "r", "snr_db") + columns, widths)
    _write_output(cfg.out, [_rows_text(cfg.format, SWEEP_SCHEMA, rows)])
    return 0


def rate_table_rows(n_start: int, n_stop: int, r_grid) -> list[dict]:
    if not 1 <= n_start <= n_stop <= MAX_BLOCK_LEN:
        raise ValueError(f"n: range must satisfy 1 <= start <= stop <= {MAX_BLOCK_LEN}")
    rows = []
    for n in range(n_start, n_stop + 1):
        for r in r_grid:
            _, ld, c_hpnc, c_theo = _rate_point(n, r)
            gap = c_hpnc - c_theo
            if not rate_gap_within_bound(gap, n, r):
                raise ValueError(f"rate gap out of bounds at n={n}, r={r}: gap={gap!r}")
            values = (n, r, ld.mean, c_hpnc, c_theo, gap)
            rows.append(dict(zip(RATE_SCHEMA, values)))
    return rows


def cmd_rate_table(args) -> int:
    rows = rate_table_rows(args.n_start, args.n_stop, args.r or DEFAULT_R_GRID)
    _print_table(rows, RATE_SCHEMA, (14,) * len(RATE_SCHEMA))
    _write_output(args.out, [_rows_text(args.format, RATE_SCHEMA, rows)])
    return 0


def cmd_validate(args) -> int:
    if not math.isfinite(args.perturb_tau):
        raise ValueError(f"--perturb-tau: must be finite, got {args.perturb_tau}")
    groups = ("thresholds", "codebooks", "formulas") if args.checks == "all" else (args.checks,)
    report = validation.run_checks(groups=groups, tau_offset=args.perturb_tau)
    text = json.dumps(report, indent=2) + "\n"
    print(text, end="")
    _write_output(args.out, [text])
    return 0 if report["passed"] else 1


def cmd_export_codebook(args) -> int:
    lines = codebook_table_lines(build_codebook(args.n, equal_factor(args.r)))
    if args.out:
        _write_output(args.out, lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--scheme", choices=["hpnc", "conventional", "both"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--r", type=float, action="append", help="repeatable")
    parser.add_argument("--snr-db-start", type=float)
    parser.add_argument("--snr-db-stop", type=float)
    parser.add_argument("--snr-db-step", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--chunks", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=["csv", "json"])


def _config_from_args(args) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config: must be a JSON object")
        unknown = set(file_values) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        values.update(file_values)
    for field in fields(ExperimentConfig):
        flag_value = getattr(args, field.name, None)
        if flag_value is not None:
            values[field.name] = flag_value
    cfg = ExperimentConfig(**values)
    cfg.validate()
    cfg.r = tuple(float(x) for x in cfg.r)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpnc",
        description="Compressed-relaying experiments for two-way relay exchange of correlated sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bler-sweep", help="analytical vs simulated block error rates")
    _add_sweep_arguments(p)
    p.set_defaults(run=lambda args: cmd_sweep(args, BLER_COLUMNS))

    p = sub.add_parser("throughput-sweep", help="simulated throughput with noiseless ceilings")
    _add_sweep_arguments(p)
    p.set_defaults(run=lambda args: cmd_sweep(args, THROUGHPUT_COLUMNS))

    p = sub.add_parser("rate-table", help="compression rate vs the entropy floor")
    p.add_argument("--n-start", type=int, default=1)
    p.add_argument("--n-stop", type=int, default=12)
    p.add_argument(
        "--r",
        type=float,
        action="append",
        help="repeatable; default 0.0..0.9 step 0.1",
    )
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(run=cmd_rate_table)

    p = sub.add_parser("validate", help="oracle self-checks; nonzero exit on failure")
    p.add_argument(
        "--checks",
        choices=["thresholds", "codebooks", "formulas", "all"],
        default="all",
    )
    p.add_argument(
        "--perturb-tau",
        type=float,
        default=0.0,
        help="fault-injection offset added to the closed-form threshold; a "
        "nonzero value must make the threshold checks fail",
    )
    p.add_argument("--out")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("export-codebook", help="canonical codebook as a text table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(run=cmd_export_codebook)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
