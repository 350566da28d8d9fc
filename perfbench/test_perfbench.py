"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import pytest

import hostspeed
import openloop
import run
import workloads
from probes import Recorder, self_times

TINY = {
    "join": {"corpora": 2, "scale": 0.02},
    "join-cluster": {
        "corpora": 2, "scale": 0.02, "backend": "cluster", "workers": 2,
        "spill_threshold": 50,
    },
    "match": {"corpora": 2, "scale": 0.02},
    "serve": {"shards": 2, "scale": 0.01, "rate": 40.0, "warmup": 2},
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # Cluster worker directories follow the temporary directory.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return str(tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, workdir):
    outcome = run.run_workload(name, 3, 0.3, trace, workdir, sizes=TINY)
    result = outcome["result"]
    assert result["correct"], outcome["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = run.metric_units()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(wanted)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == wanted[metric]
        assert math.isfinite(entry["value"]), metric
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in wanted)
    else:
        assert outcome["spans"]
        assert outcome["notes"]["reconciled"]


def test_corrupted_join_reference_counts_every_op_failed(
    workdir, monkeypatch
):
    exact = workloads.exact_similarity_join
    monkeypatch.setattr(
        workloads, "exact_similarity_join",
        lambda *args: exact(*args)[1:],
    )
    result = run.run_workload(
        "join", 3, 0.3, False, workdir, sizes=TINY
    )["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_corrupted_stack_digest_counts_every_op_failed(
    workdir, monkeypatch
):
    monkeypatch.setattr(workloads, "CANARY_DIGEST", "0" * 64)
    result = run.run_workload(
        "match", 3, 0.3, False, workdir, sizes=TINY
    )["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_time_outside_every_layer_fails_reconciliation(
    workdir, monkeypatch
):
    run_op = workloads.Join.run_op

    def slow_run_op(self, runtime, span, case):
        time.sleep(0.05)  # inside the ``op`` span, in no named layer
        return run_op(self, runtime, span, case)

    monkeypatch.setattr(workloads.Join, "run_op", slow_run_op)
    outcome = run.run_workload("join", 3, 0.3, True, workdir, sizes=TINY)
    assert not outcome["notes"]["reconciled"]
    assert not outcome["result"]["correct"]
    assert outcome["result"]["failed"] == 0


def test_a_raising_flush_fails_only_its_own_events():
    class Service:
        async def submit_event(self, event):
            if event == "bad":
                raise RuntimeError("flush failed")
            return SimpleNamespace(rejected=[], dead_lettered=[])

    stream = asyncio.run(
        openloop.run(Service(), ["a", "bad", "c"], rate=500.0, seed=1)
    )
    assert isinstance(stream.reports[1], RuntimeError)
    assert all(latency >= 0 for latency in stream.latencies)
    measurement = workloads.Measurement()
    workloads.Serve._score(stream, True, measurement)
    assert (measurement.attempted, measurement.failed) == (3, 1)


def test_batch_tail_is_one_fixed_percentile_of_all_operations():
    few = [[4.0, 1.0, 2.0, 3.0], [10.0, 30.0, 20.0]]
    summary = workloads.BatchWorkload.summarize(few)
    assert summary["op_s"] == pytest.approx((2.5 + 20.0) / 2)
    # p75 of the seven times, nearest rank: the sixth smallest.
    assert summary["tail_s"] == 20.0
    many = [[float(i) for i in range(1, 21)],
            [float(i) for i in range(21, 41)]]
    assert workloads.BatchWorkload.summarize(many)["tail_s"] == 30.0
    assert summary["tail_percentile"] == 75.0


def test_bracket_scales_by_the_readings_around_each_timing(monkeypatch):
    readings = iter([0.010, 0.030, 0.015])
    monkeypatch.setattr(
        hostspeed, "reference_seconds", lambda: next(readings)
    )
    bracket = hostspeed.Bracket()
    reference = hostspeed.REFERENCE_S
    # The readings around the two timings average 0.020 s, then 0.0225 s.
    assert bracket.scale(1.0) == pytest.approx(reference / 0.020)
    assert bracket.scale(2.0) == pytest.approx(2.0 * reference / 0.0225)


def test_self_time_subtracts_covered_child_intervals():
    recorder = Recorder()
    parent = recorder.record("op", 0.0, 10.0)
    for start, end in ((1.0, 3.0), (2.0, 4.0), (9.0, 12.0)):
        child = recorder.record("storage.read", start, end)
        child.parent_id = parent.span_id
    own = self_times(recorder.spans)
    assert own["op"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["storage.read"] == pytest.approx(2.0 + 2.0 + 3.0)


def test_tail_needs_ten_samples_beyond_it():
    assert workloads.tail(list(range(100))) == (89, 90.0, 100)
    value, percentile, count = workloads.tail([3.0, 1.0, 2.0])
    assert (value, percentile, count) == (2.0, 50.0, 3)


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(run.HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert "no program sources" in done.stderr
