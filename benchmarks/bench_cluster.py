"""Cluster backend vs the serial backend on the end-to-end join.

The socket-based cluster backend pays real costs the serial backend
doesn't — pickling, frame serialization, TCP round trips, one daemon
process per worker — in exchange for CPU parallelism, worker-death
recovery and shuffle locality.  This benchmark records that tax
honestly and gates it:

1. **correctness (exact)** — ``mapreduce_similarity_join`` on a
   flickr-small corpus must return *row-for-row identical* results on
   the cluster backend and the serial backend (the deterministic half
   of the gate; any divergence is a hard failure, not a ratio);
2. **wall-clock ceiling (wide)** — the cluster join must finish within
   ``CEILING`` × the serial-backend wall-clock.  The ceiling is
   deliberately wide (localhost sockets on a loaded single-core CI
   runner are noisy); it exists to catch pathological regressions — an
   accidental reconnect-per-task, a lost-wakeup stall, a respawn storm
   — which show up as order-of-magnitude blowups, not percentages.

Usage::

    python benchmarks/bench_cluster.py                    # full run
    python benchmarks/bench_cluster.py --quick            # smaller corpus
    python benchmarks/bench_cluster.py --write            # update JSON
    python benchmarks/bench_cluster.py --quick --check-regression

``--check-regression`` (the CI gate) re-checks row identity and the
wall-clock ratio against ``CEILING`` — both halves computed from the
current run, so the gate needs no machine-comparable committed numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # runnable without an installed package
    sys.path.insert(0, REPO_SRC)

from repro.mapreduce import (  # noqa: E402
    Counters,
    MapReduceRuntime,
    resolve_executor,
)

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_perf.json"
)

#: Cluster wall-clock must stay under CEILING x the serial backend.
#: Wide on purpose: the gate is for order-of-magnitude pathologies
#: (reconnect-per-task, respawn storms), not for socket-vs-pipe noise.
CEILING = 5.0


def _noop(value):
    return value


def _runtime(backend: str, workers: int) -> MapReduceRuntime:
    return MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=4,
        counters=Counters(),
        backend=backend,
        max_workers=workers,
    )


def _timed_join(backend, workers, items, consumers, sigma, repeats):
    from repro.simjoin import mapreduce_similarity_join

    best = None
    rows = None
    for _ in range(repeats):
        runtime = _runtime(backend, workers)
        start = time.perf_counter()
        rows = mapreduce_similarity_join(
            items, consumers, sigma, runtime=runtime
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return rows, best


def bench_cluster_join(
    scale: float, sigma: float, workers: int, repeats: int
) -> Dict:
    from repro.datasets import load_dataset

    dataset = load_dataset("flickr-small", seed=1, scale=scale)
    items, consumers = dataset.items, dataset.consumers
    # Warm the shared fleet outside the timed region, so the cluster
    # number measures dispatch, not one-time process spawning.
    resolve_executor("cluster", max_workers=workers).run_tasks(
        _noop, [(0,)]
    )
    serial_rows, serial_seconds = _timed_join(
        "serial", workers, items, consumers, sigma, repeats
    )
    cluster_rows, cluster_seconds = _timed_join(
        "cluster", workers, items, consumers, sigma, repeats
    )
    return {
        "dataset": "flickr-small",
        "scale": scale,
        "sigma": sigma,
        "workers": workers,
        "rows": len(serial_rows),
        "rows_identical": serial_rows == cluster_rows,
        "serial_seconds": round(serial_seconds, 4),
        "cluster_seconds": round(cluster_seconds, 4),
        "slowdown": round(cluster_seconds / serial_seconds, 2),
        "ceiling": CEILING,
    }


def check_regression(result: Dict) -> int:
    """Exit 1 on row divergence or a wall-clock ratio past CEILING."""
    if not result["rows_identical"]:
        print(
            "FAIL: cluster join rows diverge from the serial "
            "backend (bit-identity contract broken)"
        )
        return 1
    print(
        f"regression check: cluster {result['cluster_seconds']:.3f}s vs "
        f"serial {result['serial_seconds']:.3f}s — "
        f"{result['slowdown']:.2f}x (ceiling {result['ceiling']:.1f}x)"
    )
    if result["slowdown"] > result["ceiling"]:
        print(
            "FAIL: cluster dispatch overhead exceeds the "
            f"{result['ceiling']:.1f}x wall-clock ceiling"
        )
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller corpus and fewer repeats (the CI mode)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="flickr-small scale (default 0.3, quick 0.1)",
    )
    parser.add_argument(
        "--sigma", type=float, default=2.0, help="join threshold"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="cluster fleet size (default 2)",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"update {os.path.basename(BENCH_JSON)} with the results",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="exit 1 on row divergence or a past-ceiling slowdown",
    )
    args = parser.parse_args(argv)

    scale = args.scale or (0.1 if args.quick else 0.3)
    repeats = 2 if args.quick else 3
    key = "cluster_join_quick" if args.quick else "cluster_join"
    result = bench_cluster_join(scale, args.sigma, args.workers, repeats)
    print(
        f"join e2e ({result['rows']} rows @ sigma {result['sigma']}, "
        f"{result['workers']} workers): serial "
        f"{result['serial_seconds']:.3f}s -> cluster "
        f"{result['cluster_seconds']:.3f}s  "
        f"({result['slowdown']:.2f}x, identical="
        f"{result['rows_identical']})"
    )
    if args.write:
        recorded: Dict = {}
        if os.path.exists(BENCH_JSON):
            try:
                with open(BENCH_JSON, "r", encoding="utf-8") as handle:
                    recorded = json.load(handle)
            except ValueError:
                recorded = {}
        recorded[key] = result
        with open(BENCH_JSON, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-> {BENCH_JSON}")
    if args.check_regression:
        return check_regression(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
