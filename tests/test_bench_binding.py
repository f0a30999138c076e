"""The benchmark in bench/ reaches into the program by name; keep it bound.

bench/worker.py wraps module attributes for its traced run and calls the
relay threshold and codebook builders in its set-up.  A rename or a removed
name would only show when the benchmark runs, so check here that every name
still resolves and that the set-up of every workload runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def worker(monkeypatch):
    # importing worker.py sets the BLAS thread variables, puts src/ first on
    # sys.path and imports check and speed from bench/; undo all of that
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("check", "speed"):
        if name not in before:
            sys.modules.pop(name, None)


def test_traced_calls_resolve(worker):
    for module, attr, _, _ in worker.TRACED_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    originals = [getattr(module, attr) for module, attr, _, _ in worker.TRACED_CALLS]
    with worker.traced_calls(worker.Tracer()):
        pass
    assert [getattr(module, attr) for module, attr, _, _ in worker.TRACED_CALLS] == originals


def test_setup_runs_for_every_workload(worker):
    assert worker.WORKLOADS
    for spec in worker.WORKLOADS.values():
        worker.setup(spec["calls"])


def test_traced_pass_reports_every_layer(worker, monkeypatch, tmp_path):
    # a CLI change that drops a traced call site changes these counts
    monkeypatch.setattr(worker, "ROUNDS", 2000)
    calls = [
        worker.sweep("bler-sweep", 3, ("0.9",), "both", 10.0),
        {"argv": ["rate-table", "--n-stop", "3"]},
        {"argv": ["export-codebook", "--n", "3", "--r", "0.9"]},
    ]
    monkeypatch.setitem(worker.WORKLOADS, "tiny", {"calls": calls, "cold": False})
    tracer = worker.Tracer()
    _, _, outputs, cache_counts = worker.run_pass("tiny", 0, tmp_path, tracer)
    assert [code for _, code, _, _ in outputs] == [0, 0, 0]
    metrics = worker.layer_metrics(tracer, outputs, cache_counts)
    assert metrics["sim.calls"] == 4  # hpnc and the baseline at 0 and 10 dB
    assert metrics["analysis.calls"] == 4
    assert metrics["huffman.max_len"] == 5
