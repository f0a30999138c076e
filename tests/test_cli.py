"""CLI surface: config handling, output schemas, byte stability, validation."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hpnc
from hpnc import cli
from hpnc.cli import MAX_SNR_POINTS, SWEEP_SCHEMA, ExperimentConfig, main

FAST_SWEEP = [
    "--n", "6",
    "--r", "0.8",
    "--snr-db-start", "4",
    "--snr-db-stop", "8",
    "--snr-db-step", "2",
    "--rounds", "3000",
    "--seed", "77",
    "--chunks", "4",
]


def test_config_defaults_and_grid():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.snr_grid_db == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert cfg.schemes == ["hpnc", "conventional"]
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: the stop is still a point
    assert len(ExperimentConfig(snr_db_stop=0.3, snr_db_step=0.1).snr_grid_db) == 4


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="rounds"):
        ExperimentConfig(rounds=0).validate()
    with pytest.raises(ValueError, match="scheme"):
        ExperimentConfig(scheme="x").validate()
    with pytest.raises(ValueError, match="r"):
        ExperimentConfig(r=(1.5,)).validate()
    with pytest.raises(ValueError, match="snr_db_step"):
        ExperimentConfig(snr_db_step=0.0).validate()
    with pytest.raises(ValueError, match="format"):
        ExperimentConfig(format="xml").validate()
    # validation alone rejects a grid end with no positive finite linear SNR
    with pytest.raises(ValueError, match="snr_db_stop: 3100.0 dB gives no positive finite"):
        ExperimentConfig(snr_db_stop=3100.0).validate()
    with pytest.raises(ValueError, match="snr_db_start: -5000.0 dB gives no positive finite"):
        ExperimentConfig(snr_db_start=-5000.0).validate()
    for name in ("snr_db_start", "snr_db_stop", "snr_db_step"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name}: must be finite"):
                ExperimentConfig(**{name: value}).validate()
    for kw in (
        {"snr_db_step": 1e-300},
        {"snr_db_start": -1e308, "snr_db_stop": 1e308},
        {"snr_db_start": 0.0, "snr_db_stop": float(MAX_SNR_POINTS), "snr_db_step": 1.0},
    ):
        with pytest.raises(ValueError, match="snr_db_step: .* more than 10000 SNR points"):
            ExperimentConfig(**kw).validate()


def test_snr_grid_at_the_cap_is_accepted():
    # inside the range where every point has a positive finite linear SNR
    cfg = ExperimentConfig(snr_db_start=-3000.0, snr_db_stop=1999.5, snr_db_step=0.5)
    cfg.validate()
    assert len(cfg.snr_grid_db) == MAX_SNR_POINTS


def test_invalid_config_sets_exit_code(capsys):
    for args, field in [
        (["--rounds", "0"], "rounds"),
        (["--snr-db-stop", "inf"], "snr_db_stop"),
        (["--snr-db-start=-inf"], "snr_db_start"),
        (["--snr-db-step", "nan"], "snr_db_step"),
        (["--snr-db-step", "inf"], "snr_db_step"),
        (["--snr-db-step", "1e-300"], "snr_db_step"),
        # 10 ** (snr_db / 10) overflows above about 3082.5 dB and is 0 at -5000 dB
        (["--snr-db-start", "3100", "--snr-db-stop", "3100"], "snr_db_start"),
        (["--snr-db-stop", "3100"], "snr_db_stop"),
        (["--snr-db-start=-5000"], "snr_db_start"),
        # the stop is the largest finite SNR, and the last grid point passes it by 1e-7 dB
        (["--snr-db-start", "82.547155699167", "--snr-db-stop", "3082.547155599167",
          "--snr-db-step", "1000"], "snr_db_stop"),
    ]:
        assert main(["bler-sweep", *args]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_rounds_past_int64_per_chunk_exit_2(capsys):
    # 10^20 rounds in one chunk overflow int64 counters: a clean exit 2,
    # and 10^12 rounds in one chunk still run
    base = ["bler-sweep", "--n", "6", "--r", "0.9", "--snr-db-start", "10", "--snr-db-stop", "10", "--chunks", "1"]
    assert main([*base, "--rounds", str(10**20)]) == 2
    assert capsys.readouterr().err.startswith("error: rounds:")
    assert main([*base, "--rounds", str(10**12)]) == 0


def test_sweep_near_the_largest_snr_prints_no_nan(capsys):
    # from about 3079.5 dB, 2 * gamma overflows and the closed form read
    # Q(inf - inf); the relay's per-bit errors take the same limit, 0
    assert main([
        "bler-sweep", "--n", "2", "--r", "0.9", "--r", "1", "--snr-db-start", "3080",
        "--snr-db-stop", "3080", "--rounds", "100", "--chunks", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    header, *rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
    assert sorted((row[0], row[2]) for row in rows) == [
        ("conventional", "0.9"), ("conventional", "1"), ("hpnc", "0.9"), ("hpnc", "1"),
    ]
    assert all(float(row[header.index("bler_sim")]) == 0.0 for row in rows)


def test_missing_files_exit_2_naming_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["bler-sweep", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    out = tmp_path / "nodir" / "x.txt"
    assert main(["export-codebook", "--n", "2", "--r", "0.5", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_config_file_rejects_oversized_snr_grid(tmp_path, capsys, monkeypatch):
    def no_sweep(cfg):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"snr_db_step": 1e-300}')
    assert main(["throughput-sweep", "--config", str(cfg_path)]) == 2
    assert "snr_db_step: 1e-300 gives more than 10000 SNR points" in capsys.readouterr().err


def _fresh_interpreter(code: str):
    """The JSON value `code` prints last, run in a fresh interpreter."""
    src = str(Path(hpnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_deepest_export_streams_in_bounded_memory():
    # n = 16, r = 1 writes 2.1 GB of codewords up to 65 535 bits long; the
    # codebook holds only lengths and tails, so the export needs no copy of
    # them.  VmHWM is the peak of the child's own address space: ru_maxrss
    # keeps the peak of the process that spawned it across exec
    peak_kb = _fresh_interpreter("""
import os
from hpnc.cli import main
assert main(["export-codebook", "--n", "16", "--r", "1.0", "--out", os.devnull]) == 0
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
""")
    assert peak_kb < 100 * 1024


def test_cli_import_leaves_out_scipy_integrate():
    # scipy is a test dependency only: no module of the package, nor of
    # what it imports, loads any scipy module at start-up
    code = """
import json, sys
import {module}
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    assert _fresh_interpreter(code.format(module="hpnc")) == []
    assert _fresh_interpreter(code.format(module="hpnc.cli")) == []


def test_sweeps_tables_and_export_run_without_scipy(tmp_path):
    # with scipy blocked, importing the package and running each of the
    # five subcommands, validate's oracle included, must not need it
    out = str(tmp_path / "out")
    sweep = ["--n", "4", "--r", "0.9", "--snr-db-start", "0", "--snr-db-stop", "4",
             "--snr-db-step", "4", "--rounds", "200", "--chunks", "2", "--out", out]
    argvs = [
        ["bler-sweep", *sweep],
        ["throughput-sweep", *sweep],
        ["rate-table", "--n-start", "1", "--n-stop", "4", "--out", out],
        ["validate"],
        ["export-codebook", "--n", "4", "--r", "0.9", "--out", out],
    ]
    codes = _fresh_interpreter(f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
import hpnc
from hpnc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {argvs!r}]
print(json.dumps(codes))
""")
    assert codes == [0] * len(argvs)


def test_config_file_rejects_infinite_snr(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"snr_db_stop": Infinity}')
    assert main(["bler-sweep", "--config", str(cfg_path)]) == 2
    assert "snr_db_stop: must be finite" in capsys.readouterr().err


def test_bler_sweep_csv_schema_and_stability(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["bler-sweep", *FAST_SWEEP, "--out", str(out_a)]) == 0
    assert main(["bler-sweep", *FAST_SWEEP, "--out", str(out_b)]) == 0
    data = out_a.read_bytes()
    assert data == out_b.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == ",".join(SWEEP_SCHEMA)
    # both schemes over three SNR points
    assert len(lines) == 1 + 2 * 3
    capsys.readouterr()


def test_sweep_json_format(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["bler-sweep", *FAST_SWEEP, "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert all(set(r) == set(SWEEP_SCHEMA) for r in rows)
    assert {r["scheme"] for r in rows} == {"hpnc", "conventional"}
    capsys.readouterr()


def test_conventional_rows_do_not_depend_on_r(tmp_path, capsys):
    out = tmp_path / "rows.json"
    args = [
        "throughput-sweep",
        "--r", "0.4", "--r", "0.9",
        "--scheme", "both",
        "--snr-db-start", "6", "--snr-db-stop", "6", "--snr-db-step", "2",
        "--rounds", "4000",
        "--seed", "5",
        "--chunks", "4",
        "--format", "json",
        "--out", str(out),
    ]
    assert main(args) == 0
    rows = json.loads(out.read_text())
    conv = [r for r in rows if r["scheme"] == "conventional"]
    assert len(conv) == 2
    for key in ("bler_sim", "bler_sim_se", "thr_sim", "bler_exact"):
        assert conv[0][key] == conv[1][key]
    hpnc_rows = [r for r in rows if r["scheme"] == "hpnc"]
    assert hpnc_rows[0]["c_hpnc"] != hpnc_rows[1]["c_hpnc"]
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rounds": 2000, "seed": 9, "r": [0.8],
                                    "snr_db_start": 6.0, "snr_db_stop": 6.0,
                                    "snr_db_step": 2.0, "scheme": "hpnc",
                                    "chunks": 2}))
    out = tmp_path / "o.json"
    assert main(["bler-sweep", "--config", str(cfg_path), "--seed", "10",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["seed"] == 10  # flag wins over file
    assert rows[0]["rounds"] == 2000
    capsys.readouterr()


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"n": 6.5}', "n"),
        ('{"n": true}', "n"),
        ('{"rounds": 10.5}', "rounds"),
        ('{"rounds": "100"}', "rounds"),
        ('{"seed": 1.5}', "seed"),
        ('{"chunks": 2.5}', "chunks"),
        ('{"r": 0.5}', "r"),
        ('{"r": [0.5, null]}', "r"),
        ('{"r": [0.5, "x"]}', "r"),
        ('{"r": [true]}', "r"),
        ('{"snr_db_start": "0"}', "snr_db_start"),
        ('{"scheme": 5}', "scheme"),
        ('{"format": ["csv"]}', "format"),
        ('{"out": true}', "out"),
        ("[6]", "config"),
    ],
)
def test_config_file_rejects_mistyped_field(tmp_path, capsys, monkeypatch, text, field):
    def no_sweep(cfg):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["bler-sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"roux": 1}))
    assert main(["bler-sweep", "--config", str(cfg_path)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_rate_table_values_and_bound(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert main([
        "rate-table", "--n-start", "2", "--n-stop", "6",
        "--r", "0.0", "--r", "0.9", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,r,mean_len,c_hpnc,c_theo,gap"
    rows = [line.split(",") for line in lines[1:]]
    by_key = {(int(r[0]), float(r[1])): r for r in rows}
    assert float(by_key[(2, 0.9)][3]) == pytest.approx(0.786875, abs=1e-12)
    for (n, _), row in by_key.items():
        gap = float(row[5])
        assert 0.0 <= gap < 1.0 / (2.0 * n) + 1e-12
    for row in rows:
        if float(row[1]) == 0.0:
            assert float(row[3]) == 1.0 and float(row[4]) == 1.0
    capsys.readouterr()


def test_throughput_note_in_output_header(capsys):
    assert main([
        "throughput-sweep", "--scheme", "hpnc", "--r", "0.9",
        "--snr-db-start", "8", "--snr-db-stop", "8", "--snr-db-step", "1",
        "--rounds", "2000", "--chunks", "2",
    ]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# throughput")


def test_validate_codebooks_and_formulas_pass(capsys):
    assert main(["validate", "--checks", "codebooks"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["failed"] == 0
    assert main(["validate", "--checks", "formulas"]) == 0
    capsys.readouterr()


def test_validate_negative_control_fails(capsys):
    assert main(["validate", "--checks", "thresholds", "--perturb-tau", "0.05"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] > 0
    names = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "closed_form_tau_is_argmin" in names


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_validate_rejects_non_finite_perturb_tau(value, capsys, monkeypatch):
    def no_checks(**kwargs):
        raise AssertionError("the checks must not start")

    monkeypatch.setattr(cli.validation, "run_checks", no_checks)
    assert main(["validate", f"--perturb-tau={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --perturb-tau: must be finite")


def test_validate_names_the_flag_when_the_offset_makes_a_threshold_negative(capsys):
    # the smallest threshold on the default grid is about 0.429 (0 dB, rho 0.95)
    assert main(["validate", "--checks", "thresholds", "--perturb-tau", "-0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--perturb-tau" in captured.err
    assert "snr_db=0.0, rho=0.95" in captured.err


def test_validate_huge_perturb_tau_fails_with_a_strict_json_report(capsys):
    assert main(["validate", "--checks", "thresholds", "--perturb-tau", "1e300"]) == 1

    def reject(token):
        raise AssertionError(f"non-finite token {token} in the report")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["total"] > 0 and report["failed"] == report["total"]


def test_export_codebook(tmp_path, capsys):
    out = tmp_path / "book.txt"
    assert main(["export-codebook", "--n", "2", "--r", "0.9", "--out", str(out)]) == 0
    assert out.read_text() == "00 1 0\n01 3 110\n10 2 10\n11 3 111\n"
    assert main(["export-codebook", "--n", "2", "--r", "0.9"]) == 0
    assert capsys.readouterr().out == "00 1 0\n01 3 110\n10 2 10\n11 3 111\n"


def test_export_codebook_rejects_bad_r(capsys):
    assert main(["export-codebook", "--n", "2", "--r", "1.5"]) == 2
    assert "r must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert main(["rate-table", "--n-stop", "2", "--r", "-0.1"]) == 2
    assert "r must be in [0, 1], got -0.1" in capsys.readouterr().err


# SHA-256 of the output files; any change to the canonical codeword order,
# the lengths or the number formatting shows up here
PINNED_OUTPUTS = [
    (["export-codebook", "--n", "10", "--r", "1.0"],
     "01d361788b57816f52ca6cd0fa10770987a65c90dfb08765da8d331a7eb16ee2"),
    (["export-codebook", "--n", "8", "--r", "0.9"],
     "11fc8ff37cf3a4aa4e3888e2a194e4aa8345d72ad107b06fbd9e8ba1ecf01c70"),
    # 134 MB: max_len 16 383, codewords far longer than the tails' n + 1 bits
    (["export-codebook", "--n", "14", "--r", "1.0"],
     "f15b332b791345ac6f691cd944a75e3bcc3304a743ad73e4e7e6903dc789cb9f"),
    (["rate-table", "--n-stop", "8"],
     "83afc14b5e1ad58bf87661d74e478d398ac1fd97b2e1a4aaedbd3f87ce9c1c6e"),
]


@pytest.mark.parametrize(
    "args,digest", PINNED_OUTPUTS, ids=[" ".join(args) for args, _ in PINNED_OUTPUTS]
)
def test_output_digest_is_pinned(tmp_path, capsys, args, digest):
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


# SHA-256 of stdout: the fixed-width tables and the stdout export
PINNED_STDOUT = [
    (["bler-sweep", *FAST_SWEEP],
     "d0de21bcdd59a4c38838102d1410e81fa866711850537e49d8d5955d0a4b133a"),
    (["throughput-sweep", *FAST_SWEEP],
     "7154e12cf39d92c1def3731f927501db86f76a569c7ca47efae0ed5a0e15cb27"),
    (["rate-table", "--n-stop", "8"],
     "a62e7c70cff29558d85766fc35ae91d7c6a9d49bd74028e76357d2f790072c66"),
    (["export-codebook", "--n", "8", "--r", "0.9"],
     "11fc8ff37cf3a4aa4e3888e2a194e4aa8345d72ad107b06fbd9e8ba1ecf01c70"),
    # 70 000 rounds per chunk, more than a sub-batch: the relay errs in
    # about 10 400 of them, and a code of one group counts them by class
    (["throughput-sweep", "--n", "4", "--r", "0.9", "--snr-db-start", "0", "--snr-db-stop", "0",
      "--rounds", "140000", "--chunks", "2"],
     "c1e814091e53794156dc8116ec2e6f895b7522437a215321973f2c0fd21d3154"),
    # a code of two groups: of each 10 000-round chunk, hpnc draws about
    # 2 600 relay-wrong rounds one by one and the baseline about 7 500
    (["throughput-sweep", "--n", "12", "--r", "0.95", "--snr-db-start", "0", "--snr-db-stop", "0",
      "--rounds", "20000", "--chunks", "2"],
     "34a4641b95bfe547ddc28c1363f5098087aaf40c96714353ef423f52e2e01884"),
    # integer deviations only, so the report does not depend on the platform
    (["validate", "--checks", "codebooks"],
     "87f74f5e9fc15e7e8edba47c71f98d5823cd2dbc395f84d35681cd29ae6e24b7"),
]


@pytest.mark.parametrize(
    "args,digest", PINNED_STDOUT, ids=[" ".join(args[:3]) for args, _ in PINNED_STDOUT]
)
def test_stdout_digest_is_pinned(capsys, args, digest):
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
