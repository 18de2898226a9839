"""Self-tests of the benchmark: seeding, the audit, freshness, smoke runs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import count
import serve_load
from common import (
    ROOT,
    ack_to_visible,
    audit_point,
    audit_summary,
    inputs_digest,
    regressions,
)
from repro.core.counters import CounterEntry

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]


def _digest(workload: str, seed: int) -> str:
    if workload == "serve-mixed":
        inputs = serve_load.Inputs(seed, seconds=0.5)
        return inputs_digest([inputs.ingest_frames, inputs.query_frames])
    return inputs_digest(
        count.make_inputs(count.WORKLOADS[workload], seed, 20_000).batches
    )


@pytest.mark.parametrize("workload", ["count-int", "count-str-churn", "serve-mixed"])
def test_seed_fixes_the_inputs(workload):
    assert _digest(workload, 7) == _digest(workload, 7)
    assert _digest(workload, 7) != _digest(workload, 8)


def _sequential_answer(stream):
    backend = count.create_backend("sequential", capacity=count.CAPACITY)
    backend.ingest(stream)
    return backend.snapshot()


def test_audit_flags_a_corrupted_answer():
    inputs = count.make_inputs(count.WORKLOADS["count-int"], 3, 50_000)
    stream = [key for batch in inputs.batches for key in batch]
    snap = _sequential_answer(stream)
    args = (inputs.truth, inputs.repeated, len(stream), False)
    assert audit_summary(snap.entries, snap.processed, *args) == 0
    top = snap.entries[0]
    # mutation canary: one estimate below the truth it must upper-bound
    corrupted = [CounterEntry(top.element, top.count - 1, top.error)]
    corrupted += snap.entries[1:]
    assert audit_summary(corrupted, snap.processed, *args) > 0
    # ... and an answer that lost events
    assert audit_summary(snap.entries, snap.processed - 1, *args) > 0


def test_live_answer_check_flags_an_underestimate():
    inputs = serve_load.Inputs(5, seconds=0.5)
    key = inputs.hot[0]
    processed = len(inputs.stream)
    truth = inputs.prefix_truth(key, processed)
    payload = {"kind": "point", "element": key}
    answer = {
        "ok": True, "processed": processed, "error_bound": 10,
        "count": truth, "monitored": True,
    }
    assert serve_load.check_answer(inputs, payload, answer) == 0
    assert serve_load.check_answer(
        inputs, payload, dict(answer, count=truth - 1)
    ) == 1
    assert audit_point(0, False, 11, 10) == 1


def test_freshness_on_a_synthetic_timeline():
    acks = [(1.0, 100), (2.0, 200), (3.0, 300), (5.0, 400)]
    answers = [(0.5, 100), (1.5, 100), (2.2, 200), (2.5, 300), (4.0, 300)]
    samples, never = ack_to_visible(acks, answers)
    assert samples == pytest.approx([0.5, 0.2, 1.0])
    assert never == 1
    assert regressions(answers) == 0
    assert regressions([(0.0, 5), (1.0, 4)]) == 1


def test_fastest_repeat_per_position():
    slow = count.Pass(ack=[2.0, 1.0], query=[0.3, 0.1])
    fast = count.Pass(ack=[1.5, 2.5], query=[0.2, 0.2])
    run = count.Run(passes=[slow, fast])
    # each batch and each call keeps its own fastest repeat
    assert run.fastest("ack") == [1.5, 1.0]
    assert run.fastest("query") == [0.2, 0.1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["count-int", "count-str-churn"])
def test_short_count_run_passes_the_correctness_gate(workload, trace):
    import run

    result = count.run(workload, 1, 0.5, bool(trace), length=150_000)
    assert result["attempted"] > 0 and result["failed"] == 0
    names = [name for name, _ in run.metric_units(trace)]
    if trace:
        assert set(result["metrics"]) <= set(names)
        assert run.write_trace(workload, 1, result)
    else:
        assert set(result["metrics"]) == set(names) | set(run.UNGATED)
        assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_serve_smoke_run_passes_the_correctness_gate(trace):
    import run

    done = subprocess.run(
        RUN + ["--workload", "serve-mixed", "--seed", "1", "--seconds", "1",
               "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [name for name, _ in run.metric_units(trace)]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reaps_every_helper_process():
    import multiprocessing
    from multiprocessing import resource_tracker

    import run

    backend = count.create_backend("mp-shm", capacity=count.CAPACITY, workers=1)
    try:
        backend.ingest(list(range(1000)))
    finally:
        backend.close()
    # shared memory started the tracker; the run must not leave it behind
    assert resource_tracker._resource_tracker._pid is not None
    run.reap_children()
    assert resource_tracker._resource_tracker._pid is None
    assert not multiprocessing.active_children()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-int",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
