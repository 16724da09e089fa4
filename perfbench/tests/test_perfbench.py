"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q

They run every workload at tiny size through the same command line the
benchmark is registered with.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=cwd)


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    notes = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2]) for line in lines[:-1] if line.startswith("# ")}
    return json.loads(lines[-1]), notes


@pytest.fixture(scope="module")
def runs():
    return {(w, t): parsed(run(w, 5, t)) for w in WORKLOADS for t in (0, 1)}


def test_registered_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_checks(runs, workload, trace):
    result, notes = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    registered = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in registered]
    for m in registered:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]
    assert notes["summary"]["failed_frac"] == 0.0
    assert notes["env"]["blas_threads"] == "1"


def test_every_layer_metric_is_measured_on_some_workload(runs):
    # tiny heavy-tail series converge, so no call reaches the term cap there
    expected_zero = {"bounds.capped_calls"}
    for m in SPEC["per_layer"]:
        if m["name"] in expected_zero:
            continue
        assert any(runs[(w, 1)][0]["metrics"][m["name"]]["value"] for w in WORKLOADS), m["name"]


def test_layer_self_times_add_up_to_traced_wall(runs):
    not_self = {"montecarlo.chunk_busy_s", "trace.wall_s", "trace.overhead_s"}
    for w in WORKLOADS:
        metrics = runs[(w, 1)][0]["metrics"]
        parts = sum(v["value"] for k, v in metrics.items() if v["unit"] == "s" and k not in not_self)
        assert parts == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9), w


@pytest.mark.parametrize("workload", ["clt-golden", "audit-long"])
def test_seed_fixes_monte_carlo_results(runs, workload):
    digest = runs[(workload, 0)][1]["summary"]["digest"]
    assert parsed(run(workload, 5, 0))[1]["summary"]["digest"] == digest
    assert parsed(run(workload, 6, 0))[1]["summary"]["digest"] != digest


def test_without_the_package_source_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_split_instants_between_threads():
    # op [0,10] in the main thread calls run_chunked [1,9]; its two chunks run
    # in two pool threads, A [1,5] with a stream call [2,3] inside, B [2,8]
    names = ["bench", "montecarlo.self_s", "chunk.a", "chunk.b", "rng.self_s"]
    rows = np.array(
        [
            # sid, parent, op, name, start, end
            [1, 0, 1, 0, 0.0, 10.0],
            [2, 1, 1, 1, 1.0, 9.0],
            [3, 2, 1, 2, 1.0, 5.0],
            [4, 2, 1, 3, 2.0, 8.0],
            [5, 3, 1, 4, 2.0, 3.0],
        ]
    )
    got = tracing.self_times(rows, names)
    # [2,3]: stream and B share; [3,5]: A and B share; [8,9]: run_chunked alone
    assert got == pytest.approx({"bench": 2.0, "montecarlo.self_s": 1.0, "chunk.a": 2.0, "chunk.b": 4.5, "rng.self_s": 0.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_pool_thread_spans_keep_their_parent():
    def run_chunked(worker, reps, threads):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [f.result() for f in [pool.submit(worker, lo, lo + 1) for lo in range(reps)]]

    module = SimpleNamespace(run_chunked=run_chunked)
    tracer = tracing.Tracer()
    tracer.wrap_run_chunked(module, "montecarlo.self_s")
    started = threading.Barrier(2, timeout=10)

    def worker(lo, hi):
        started.wait()  # both chunks are open at once, in two threads
        return threading.get_ident()

    try:
        idents = tracer.call(tracing.BENCH, module.run_chunked, (worker, 2, 2))
    finally:
        tracer.restore()
    assert module.run_chunked is run_chunked
    assert len(set(idents)) == 2
    rows = tracer.rows()
    by_sid = {int(r[tracing.SID]): r for r in rows}
    outer = [r for r in rows if r[tracing.PARENT] == 0][0]
    pool_span = [r for r in rows if r[tracing.PARENT] == outer[tracing.SID]][0]
    chunks = [r for r in rows if r[tracing.PARENT] == pool_span[tracing.SID]]
    assert len(chunks) == 2 and len(by_sid) == 4
    counts = tracer.counts()
    assert counts["montecarlo.chunk_busy_s"] > 0.0 and counts["_capacity_s"] > 0.0


def test_operation_times_are_scaled_by_the_probes_around_them(monkeypatch):
    probes = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(bench, "probe", lambda: next(probes))
    done = bench.Pass()
    done.take_probe()
    done.start_round()
    done.add_op(1.0)
    done.add_op(2.0)
    done.take_probe()
    done.start_round()
    done.add_op(4.0)
    done.take_probe()
    ref = bench.PROBE_REFERENCE_S
    assert done.rounds == [3.0, 4.0]
    assert done.scaled == pytest.approx([3.0 * ref / 0.02, 4.0 * ref / 0.025])
    assert done.probes == [0.01, 0.03, 0.02]
