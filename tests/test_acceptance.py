"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see the lines for
passing tests; failing tests carry the full point-by-point table in their
assertion message).  Monte Carlo checks use a fixed seed, so outcomes are
reproducible bit for bit.
"""

import math

import numpy as np
import pytest

from hpnc.analysis import (
    bler_gain,
    conv_bler_point,
    hpnc_bler,
    hpnc_bler_asym_high,
    hpnc_bler_asym_medium,
)
from hpnc.cli import main
from hpnc.huffman import (
    build_codebook,
    compression_rate,
    cross_check_optimality,
    decode_exact,
    encode,
    length_distribution,
    theoretical_rate,
)
from hpnc.model import SystemParams, int_to_block
from hpnc.sim import estimate
from hpnc import validation

SEED = 12345
CHUNKS = 8
ROUNDS = 1_000_000
N_BITS = 6
R_SET = (0.4, 0.6, 0.7, 0.8, 0.9)
SNR_DB_GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)

_ld_cache: dict = {}
_sim_cache: dict = {}


def ld_for(n: int, r: float):
    key = (n, r)
    if key not in _ld_cache:
        rho = (1.0 + r) / 2.0
        _ld_cache[key] = length_distribution(build_codebook(n, rho), rho)
    return _ld_cache[key]


def sim_point(scheme: str, r: float, snr_db: float, rounds: int = ROUNDS):
    # the baseline ignores r, so its estimates are shared across r values
    key = (scheme, None if scheme == "conventional" else r, snr_db, rounds)
    if key not in _sim_cache:
        params = SystemParams(n=N_BITS, r=r, gamma=10.0 ** (snr_db / 10.0))
        _sim_cache[key] = estimate(params, scheme, rounds, SEED, CHUNKS)
    return _sim_cache[key]


def report(index: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"ACCEPTANCE {index} {name}: {status}")
    assert not failures, f"criterion {index} ({name}):\n" + "\n".join(failures)


def test_criterion_1_analytic_vs_simulated_bler():
    failures = []
    # the baseline's estimate and closed form ignore r, so each of its SNR
    # points is compared once rather than once per r value
    cases = [("hpnc", r, f"hpnc r={r}") for r in R_SET]
    cases.append(("conventional", R_SET[0], "conventional"))
    for scheme, r, label in cases:
        rho = (1.0 + r) / 2.0
        for snr_db in SNR_DB_GRID:
            gamma = 10.0 ** (snr_db / 10.0)
            if scheme == "hpnc":
                expected = hpnc_bler(gamma, rho, N_BITS, ld_for(N_BITS, r))
            else:
                expected = conv_bler_point(gamma, N_BITS).exact
            if expected < 1e-4:
                continue
            est = sim_point(scheme, r, snr_db)
            dev = abs(est.bler_12 - expected)
            if dev > 3.0 * est.bler_12_se:
                failures.append(
                    f"  {label} {snr_db:g} dB: sim={est.bler_12:.6g} "
                    f"exact={expected:.6g} |dev|={dev:.3g} > 3se={3 * est.bler_12_se:.3g}"
                )
    report(1, "analytic vs simulated BLER within 3 standard errors", failures)


def test_criterion_2_asymptote_convergence_at_12db():
    gamma = 10.0 ** 1.2
    failures = []
    for r in R_SET:
        rho = (1.0 + r) / 2.0
        ld = ld_for(N_BITS, r)
        exact = hpnc_bler(gamma, rho, N_BITS, ld)
        medium = hpnc_bler_asym_medium(gamma, rho, N_BITS, ld.mean)
        high = hpnc_bler_asym_high(gamma, rho, N_BITS, ld.mean)
        dev_medium = abs(medium / exact - 1.0)
        dev_high = abs(high / medium - 1.0)
        if dev_medium > 0.05:
            failures.append(
                f"  r={r}: medium/exact - 1 = {dev_medium:+.4%} exceeds 5%"
            )
        if dev_high > 0.05:
            failures.append(
                f"  r={r}: high/medium - 1 = {dev_high:+.4%} exceeds 5%"
            )
    report(2, "asymptotic forms within 5% at 12 dB", failures)


def test_criterion_3_compression_rate_sandwich_and_monotonicity():
    # An optimal block code's redundancy oscillates with n, so the rate may
    # rise from n to n+1.  What optimality does promise is monotonicity along
    # multiples: the XOR bits are i.i.d., so k concatenated n-codewords form a
    # prefix code for kn-blocks, hence L(kn) <= k*L(n) and c(kn) <= c(n).
    failures = []
    n_max = 12
    r_grid = [round(0.1 * k, 1) for k in range(10)]
    for r in r_grid:
        c_theo = theoretical_rate(r)
        rates = {}
        for n in range(1, n_max + 1):
            c = compression_rate(n, ld_for(n, r).mean)
            rates[n] = c
            if not c_theo <= c:
                failures.append(f"  n={n} r={r}: c={c!r} below the entropy floor {c_theo!r}")
            if not c < c_theo + 1.0 / (2.0 * n):
                failures.append(
                    f"  n={n} r={r}: c={c!r} reaches the floor + 1/(2n) bound"
                )
        for n in range(1, n_max // 2 + 1):
            for kn in range(2 * n, n_max + 1, n):
                if rates[kn] > rates[n] + 1e-12:
                    failures.append(
                        f"  r={r}: rate at n={kn} ({rates[kn]!r}) exceeds the "
                        f"rate at its divisor n={n} ({rates[n]!r})"
                    )
    report(3, "rate sandwich exact and non-increasing along block-length multiples", failures)


def test_criterion_4_threshold_optimality():
    snr_grid = tuple(0.5 * k for k in range(20))  # 0 .. 9.5 dB
    rho_grid = tuple((1.0 + r) / 2.0 for r in R_SET)
    checks = validation.threshold_checks(snr_grid, rho_grid)
    failures = [
        f"  {c['name']} at {c['params']}: deviation {c['deviation']:.3g} "
        f"> {c['tolerance']:.3g}"
        for c in checks
        if not c["passed"]
    ]
    report(4, "closed-form threshold matches the quadrature argmin", failures)


def test_criterion_5_gain_formula():
    failures = []
    gamma_any = 10.0
    for n in range(1, 13):
        for r in [round(0.1 * k, 1) for k in range(10)]:
            rho = (1.0 + r) / 2.0
            mean = ld_for(n, r).mean
            gain = bler_gain(compression_rate(n, mean), rho)
            # the baseline is the compressed scheme at rho = 0.5, mean length n
            conv = hpnc_bler_asym_high(gamma_any, 0.5, n, float(n))
            ratio = conv / hpnc_bler_asym_high(gamma_any, rho, n, mean)
            if abs(ratio / gain - 1.0) > 1e-12:
                failures.append(
                    f"  n={n} r={r}: asymptotic ratio {ratio!r} != gain {gain!r}"
                )
    gamma14 = 10.0 ** 1.4
    for r in (0.7, 0.8, 0.9):
        rho = (1.0 + r) / 2.0
        ld = ld_for(N_BITS, r)
        gain = bler_gain(compression_rate(N_BITS, ld.mean), rho)
        conv = conv_bler_point(gamma14, N_BITS).exact
        exact_ratio = conv / hpnc_bler(gamma14, rho, N_BITS, ld)
        dev = abs(exact_ratio / gain - 1.0)
        if dev > 0.10:
            failures.append(
                f"  r={r}: exact ratio at 14 dB {exact_ratio:.6f} vs gain "
                f"{gain:.6f} ({dev:+.4%} beyond 10%)"
            )
    report(5, "gain formula: asymptotic identity and 14 dB ratio", failures)


def test_criterion_6_throughput_asymptote_at_12db():
    failures = []
    conv = sim_point("conventional", 0.4, 12.0)
    throughputs = []
    for r in R_SET:
        est = sim_point("hpnc", r, 12.0)
        throughputs.append(est.throughput)
        c = compression_rate(N_BITS, ld_for(N_BITS, r).mean)
        ratio = est.throughput / conv.throughput
        if abs(ratio * c - 1.0) > 0.05:
            failures.append(
                f"  r={r}: throughput ratio {ratio:.5f} vs 1/c={1 / c:.5f} "
                f"deviates {abs(ratio * c - 1.0):.3%}"
            )
    for (r_a, a), (r_b, b) in zip(
        zip(R_SET, throughputs), list(zip(R_SET, throughputs))[1:]
    ):
        if not b > a:
            failures.append(f"  throughput not increasing from r={r_a} to r={r_b}")
    report(6, "throughput ratio tracks the compression rate at 12 dB", failures)


def test_criterion_7_codebook_integrity():
    failures = []
    rho_grid = [(1.0 + round(0.1 * k, 1)) / 2.0 for k in range(10)]
    for n in range(1, 9):
        for rho in rho_grid:
            total_primary, total_alt = cross_check_optimality(n, rho)
            if total_primary != total_alt:
                failures.append(
                    f"  n={n} rho={rho}: weighted totals differ "
                    f"({total_primary} vs {total_alt})"
                )
            cb = build_codebook(n, rho)
            if cb.kraft_terms() != 1 << cb.max_len:
                failures.append(f"  n={n} rho={rho}: Kraft equality violated")
            words = sorted(cb.codeword_text(v) for v in range(1 << n))
            if any(b.startswith(a) for a, b in zip(words, words[1:])):
                failures.append(f"  n={n} rho={rho}: prefix violation")
            for v in range(1 << n):
                block = int_to_block(v, n)
                decoded = decode_exact(cb, encode(cb, block))
                if decoded is None or not np.array_equal(decoded, block):
                    failures.append(f"  n={n} rho={rho}: round trip failed at {v}")
                    break
    report(7, "codebooks optimal, prefix-free, complete, round-trippable", failures)


def test_criterion_8_byte_identical_outputs(tmp_path, capsys):
    failures = []
    base = [
        "--n", "6", "--r", "0.8", "--r", "0.9",
        "--snr-db-start", "0", "--snr-db-stop", "4", "--snr-db-step", "2",
        "--rounds", "2000", "--seed", "4242", "--chunks", "4",
    ]
    for command in ("bler-sweep", "throughput-sweep"):
        for fmt in ("csv", "json"):
            paths = [tmp_path / f"{command}-{fmt}-{k}.{fmt}" for k in (0, 1)]
            for path in paths:
                code = main([command, *base, "--format", fmt, "--out", str(path)])
                if code != 0:
                    failures.append(f"  {command} ({fmt}) exited {code}")
            if paths[0].read_bytes() != paths[1].read_bytes():
                failures.append(f"  {command} ({fmt}): reruns differ")
    capsys.readouterr()
    report(8, "sweep outputs byte-identical across reruns", failures)
