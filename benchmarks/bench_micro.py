"""Micro-benchmarks of the substrate components.

These are conventional pytest-benchmark timings (multiple rounds) of
the building blocks: the MapReduce shuffle, the three similarity-join
engines, the maximal-matching engine, and the centralized solvers.
They track the performance of the simulator itself rather than a paper
figure.
"""

import json
import os
import random

import pytest

from repro.datasets import load_dataset
from repro.graph import random_bipartite
from repro.mapreduce import (
    LocalDiskFileSystem,
    MapReduceJob,
    MapReduceRuntime,
    Pipeline,
)
from repro.matching import (
    greedy_b_matching,
    maximal_b_matching,
    stack_b_matching,
    suitor_b_matching,
)
from repro.simjoin import (
    exact_similarity_join,
    mapreduce_similarity_join,
    scipy_similarity_join,
)


@pytest.fixture(scope="module")
def vectors():
    dataset = load_dataset("flickr-small", seed=1, scale=0.1)
    return dataset.items, dataset.consumers


@pytest.fixture(scope="module")
def mid_graph():
    return random_bipartite(
        120, 80, 0.08, rng=random.Random(5), max_capacity=4
    )


class _WordCount(MapReduceJob):
    has_combiner = True

    def map(self, key, line):
        for word in line.split():
            yield word, 1

    def combine(self, word, counts):
        yield word, sum(counts)

    def reduce(self, word, counts):
        yield word, sum(counts)


def test_runtime_shuffle_wordcount(benchmark):
    rng = random.Random(0)
    words = [f"w{rng.randint(0, 500)}" for _ in range(5000)]
    records = [
        (i, " ".join(words[i : i + 10])) for i in range(0, 5000, 10)
    ]
    runtime = MapReduceRuntime()
    result = benchmark(lambda: runtime.run(_WordCount(), records))
    assert result


@pytest.mark.parametrize("backend", ["serial", "cluster"])
def test_runtime_backend_comparison(benchmark, backend):
    """Same wordcount on each execution backend (results identical).

    The interesting quantity is the relative wall time: ``cluster``
    measures pickling and TCP frames plus true CPU parallelism across
    8 map / 8 reduce tasks.
    """
    rng = random.Random(0)
    words = [f"w{rng.randint(0, 2000)}" for _ in range(40000)]
    records = [
        (i, " ".join(words[i : i + 20])) for i in range(0, 40000, 20)
    ]
    runtime = MapReduceRuntime(
        num_map_tasks=8, num_reduce_tasks=8, backend=backend
    )
    result = benchmark.pedantic(
        lambda: runtime.run(_WordCount(), records),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    baseline = MapReduceRuntime(
        num_map_tasks=8, num_reduce_tasks=8
    ).run(_WordCount(), records)
    assert result == baseline


# -- storage / external-shuffle micro-benchmark -----------------------------
#
# Same wordcount pipeline on each storage configuration: in-memory
# datasets, disk-backed datasets, and disk-backed datasets with the
# external sort-and-spill shuffle at several thresholds.  Results are
# identical by contract; the interesting quantities are the relative
# wall times (the cost of dataset IO and of spilling) and the spill
# counters.  Rows accumulate in _STORAGE_RESULTS and the final test
# writes them to BENCH_storage.json next to this file.

_STORAGE_RESULTS = {}

_STORAGE_CONFIGS = [
    ("memory", "memory", None),
    ("disk", "disk", None),
    ("disk-spill-4000", "disk", 4000),
    ("disk-spill-400", "disk", 400),
    ("disk-spill-40", "disk", 40),
]


def _shuffle_corpus():
    rng = random.Random(0)
    words = [f"w{rng.randint(0, 2000)}" for _ in range(20000)]
    return [
        (i, " ".join(words[i : i + 20])) for i in range(0, 20000, 20)
    ]


@pytest.mark.parametrize(
    "label,storage,threshold",
    _STORAGE_CONFIGS,
    ids=[label for label, _, _ in _STORAGE_CONFIGS],
)
def test_storage_shuffle_spill(benchmark, tmp_path, label, storage, threshold):
    records = _shuffle_corpus()

    def run():
        if storage == "memory":
            fs = None
        else:
            fs = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
        runtime = MapReduceRuntime(
            num_map_tasks=8,
            num_reduce_tasks=8,
            storage=fs,
            spill_threshold=threshold,
            spill_dir=str(tmp_path / "spills"),
        )
        pipeline = Pipeline(runtime=runtime)
        pipeline.filesystem.write("/in", records, overwrite=True)
        pipeline.add(_WordCount(), ["/in"], "/counts")
        output = pipeline.run()
        return output, runtime

    captured = {}

    def timed_run():
        output, runtime = run()
        captured["output"] = output
        captured["runtime"] = runtime
        return output

    baseline = MapReduceRuntime(
        num_map_tasks=8, num_reduce_tasks=8
    ).run(_WordCount(), records)
    result = benchmark.pedantic(
        timed_run, rounds=3, iterations=1, warmup_rounds=1
    )
    assert result == baseline  # the storage contract, under load
    output, runtime = captured["output"], captured["runtime"]
    stats = benchmark.stats.stats  # warmed rounds, not a cold run
    _STORAGE_RESULTS[label] = {
        "storage": storage,
        "spill_threshold": threshold,
        "seconds": round(stats.mean, 4),
        "seconds_min": round(stats.min, 4),
        "records_out": len(output),
        "shuffle_records": runtime.counters.get(
            "runtime", "shuffle.records"
        ),
        "spilled_records": runtime.counters.get(
            "runtime", "spilled_records"
        ),
        "spill_files": runtime.counters.get("runtime", "spill_files"),
        "spilled_bytes": runtime.counters.get("runtime", "spilled_bytes"),
    }
    # Merge into the results file after every configuration, so both a
    # partial/filtered run and a full one preserve previously recorded
    # rows (each label overwrites only itself).
    recorded = {}
    if os.path.exists(_STORAGE_JSON):
        try:
            with open(_STORAGE_JSON, "r", encoding="utf-8") as handle:
                recorded = json.load(handle)
        except ValueError:
            recorded = {}
    recorded.update(_STORAGE_RESULTS)
    with open(_STORAGE_JSON, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")


_STORAGE_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_storage.json"
)


def test_storage_bench_report(report):
    """Print the accumulated BENCH_storage.json rows."""
    if not _STORAGE_RESULTS:
        pytest.skip("storage benchmarks did not run")
    lines = ["storage shuffle/spill micro-benchmark:"]
    for label, _, _ in _STORAGE_CONFIGS:
        row = _STORAGE_RESULTS.get(label)
        if row is None:
            continue
        lines.append(
            f"  {label:>16}: {row['seconds']:.3f}s "
            f"spilled={row['spilled_records']} "
            f"runs={row['spill_files']}"
        )
    lines.append(f"  -> {_STORAGE_JSON}")
    report("\n".join(lines))


def test_simjoin_exact(benchmark, vectors):
    items, consumers = vectors
    rows = benchmark(lambda: exact_similarity_join(items, consumers, 2.0))
    assert rows


def test_simjoin_scipy(benchmark, vectors):
    items, consumers = vectors
    rows = benchmark(lambda: scipy_similarity_join(items, consumers, 2.0))
    assert rows


def test_simjoin_mapreduce(benchmark, vectors):
    items, consumers = vectors
    rows = benchmark.pedantic(
        lambda: mapreduce_similarity_join(items, consumers, 2.0),
        rounds=1,
        iterations=1,
    )
    assert rows


def test_maximal_matching_centralized(benchmark, mid_graph):
    result = benchmark(
        lambda: maximal_b_matching(mid_graph, rng=random.Random(1))
    )
    assert result


def test_greedy_centralized(benchmark, mid_graph):
    result = benchmark(lambda: greedy_b_matching(mid_graph))
    assert result.value > 0


def test_suitor_centralized(benchmark, mid_graph):
    result = benchmark(lambda: suitor_b_matching(mid_graph))
    # b-Suitor must reproduce the greedy matching (same edge set; the
    # float totals may differ in the last ulp from summation order)
    assert set(result.matching) == set(
        greedy_b_matching(mid_graph).matching
    )


def test_stack_centralized(benchmark, mid_graph):
    result = benchmark.pedantic(
        lambda: stack_b_matching(mid_graph, epsilon=1.0, seed=1),
        rounds=1,
        iterations=1,
    )
    assert result.value > 0
