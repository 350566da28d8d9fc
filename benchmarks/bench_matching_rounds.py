"""Delta-plane iteration benchmark for the matching layer.

Runs GreedyMR (the Figure-5 any-time workload) and StackMR on a
flickr-small Problem-1 instance and records the numbers to
``benchmarks/BENCH_matching.json``:

* **per-round** wall-clock and shuffled records/bytes for GreedyMR —
  the delta plane's frontier shrinks as the Figure-5 curve flattens;
* **totals** — wall-clock (best of N), shuffled records, shuffled
  bytes (keys + pickled values, from a separate metered run), and the
  delta plane's quiescent ratio;
* for StackMR, both iteration planes (its full-state plane is the
  reference the benchmark and matrix tests compare against).

GreedyMR runs only on the delta plane.  Its committed ``full_*``
fields (and ``speedup``/``shuffle_ratio``) are frozen history from
when a full-state plane existed; ``--write`` refreshes only the
delta-side fields.  The GreedyMR matching is asserted equal to the
sequential greedy's, and StackMR's two planes bit-identical, before
anything is timed or written — a benchmark of a wrong answer is
worthless.

Usage::

    python benchmarks/bench_matching_rounds.py             # full run
    python benchmarks/bench_matching_rounds.py --quick     # small scale
    python benchmarks/bench_matching_rounds.py --write     # update JSON
    python benchmarks/bench_matching_rounds.py --quick --check-regression

``--check-regression`` (the CI smoke) gates on the **shuffle ratio** —
the committed full-state shuffled records over the measured delta
shuffled records — against the committed ratio, failing on a >10%
drop.  The full-state count is a constant of the seeded workload, and
unlike wall-clock (the quick runs are tens of milliseconds, where
scheduling noise dominates) the delta count is deterministic: it
moves only when the delta protocol itself ships more records, which
is exactly the regression the gate exists to catch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Dict, List

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # runnable without an installed package
    sys.path.insert(0, REPO_SRC)

from repro.datasets import load_dataset  # noqa: E402
from repro.mapreduce import Counters, MapReduceRuntime  # noqa: E402
from repro.matching import (  # noqa: E402
    greedy_b_matching,
    greedy_mr_b_matching,
    stack_mr_b_matching,
)

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_matching.json"
)


def _flickr_graph(scale: float, sigma: float):
    dataset = load_dataset("flickr-small", seed=1, scale=scale)
    return dataset.graph(sigma=sigma, alpha=2.0)


def _best_of(repeats: int, fn) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _greedy_round_trace(graph) -> Dict:
    """One instrumented run: per-round wall/records/bytes + result."""
    runtime = MapReduceRuntime(counters=Counters(), meter_bytes=True)
    counters = runtime.counters
    rounds: List[Dict] = []
    previous = {"records": 0, "bytes": 0, "time": time.perf_counter()}

    def on_round_end(_state, _round_number):
        now = time.perf_counter()
        records = counters.get("runtime", "shuffle.records")
        shuffled = counters.get("greedy-round", "shuffle.bytes")
        rounds.append(
            {
                "seconds": round(now - previous["time"], 6),
                "shuffled_records": records - previous["records"],
                "shuffled_bytes": shuffled - previous["bytes"],
            }
        )
        previous.update(
            {"records": records, "bytes": shuffled, "time": now}
        )

    result = greedy_mr_b_matching(
        graph, runtime=runtime, on_round_end=on_round_end
    )
    quiescent = counters.get("runtime", "iteration.quiescent_records")
    resident = counters.get("runtime", "iteration.resident_records")
    return {
        "result": result,
        "rounds": rounds,
        "shuffled_records": counters.get("runtime", "shuffle.records"),
        "shuffled_bytes": counters.get("greedy-round", "shuffle.bytes"),
        "quiescent_ratio": round(quiescent / resident, 4)
        if resident
        else 0.0,
    }


def bench_greedy(scale: float, sigma: float, repeats: int) -> Dict:
    graph = _flickr_graph(scale, sigma)
    trace = _greedy_round_trace(graph)
    result = trace["result"]
    assert sorted(result.matching.edges()) == sorted(
        greedy_b_matching(graph).matching.edges()
    )
    seconds = _best_of(
        repeats,
        lambda: greedy_mr_b_matching(
            graph, runtime=MapReduceRuntime(counters=Counters())
        ),
    )
    return {
        "workload": "flickr-small greedy_mr (Figure 5)",
        "scale": scale,
        "sigma": sigma,
        "nodes": len(graph.capacities()),
        "edges": graph.num_edges,
        "rounds": result.rounds,
        "matching_value": result.value,
        "delta_seconds": round(seconds, 4),
        "delta_shuffled_records": trace["shuffled_records"],
        "delta_shuffled_bytes": trace["shuffled_bytes"],
        "quiescent_ratio": trace["quiescent_ratio"],
        "per_round": {"delta": trace["rounds"]},
    }


def bench_stack(scale: float, sigma: float, repeats: int) -> Dict:
    graph = _flickr_graph(scale, sigma)
    results = {}
    counters = {}
    for delta in (False, True):
        runtime = MapReduceRuntime(counters=Counters())
        results[delta] = stack_mr_b_matching(
            graph, seed=7, runtime=runtime, delta=delta
        )
        counters[delta] = runtime.counters
    full, lean = results[False], results[True]
    assert sorted(full.matching.edges()) == sorted(lean.matching.edges())
    assert full.duals == lean.duals
    assert (full.rounds, full.mr_jobs) == (lean.rounds, lean.mr_jobs)
    timings = {}
    for delta in (False, True):
        timings[delta] = _best_of(
            repeats,
            lambda delta=delta: stack_mr_b_matching(
                graph,
                seed=7,
                runtime=MapReduceRuntime(counters=Counters()),
                delta=delta,
            ),
        )
    return {
        "workload": "flickr-small stack_mr",
        "scale": scale,
        "sigma": sigma,
        "rounds": full.rounds,
        "layers": full.layers,
        "mr_jobs": full.mr_jobs,
        "full_seconds": round(timings[False], 4),
        "delta_seconds": round(timings[True], 4),
        "speedup": round(timings[False] / timings[True], 2),
        "full_shuffled_records": counters[False].get(
            "runtime", "shuffle.records"
        ),
        "delta_shuffled_records": counters[True].get(
            "runtime", "shuffle.records"
        ),
    }


# -- reporting / regression gate ---------------------------------------------


def _load_committed() -> Dict:
    if not os.path.exists(BENCH_JSON):
        return {}
    with open(BENCH_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_regression(
    results: Dict, key: str, tolerance: float = 0.10
) -> int:
    """Exit status 1 when the delta shuffle ratio dropped > tolerance.

    The ratio (committed full-state shuffled records / measured delta
    shuffled records) is a pure function of the protocol and the
    seeded workload — no wall-clock noise — so the tolerance only
    needs to absorb deliberate small protocol tweaks, not scheduler
    jitter.
    """
    committed = _load_committed().get(key, {})
    baseline = committed.get("shuffle_ratio")
    full_records = committed.get("full_shuffled_records")
    if not baseline or not full_records:
        print(f"committed baseline has no {key} shuffle_ratio; skipping")
        return 0
    delta_records = results[key]["delta_shuffled_records"]
    measured = full_records / max(1, delta_records)
    floor = baseline * (1.0 - tolerance)
    print(
        f"regression check: committed full-state {full_records} / "
        f"measured delta {delta_records} shuffle records = "
        f"{measured:.2f}x vs committed {baseline:.2f}x "
        f"(floor {floor:.2f}x)"
    )
    if measured < floor:
        print(
            "FAIL: the delta plane ships more shuffle records than "
            f"the committed baseline allows (>{tolerance:.0%} drop)"
        )
        return 1
    print("OK")
    return 0


def _print_row(name: str, row: Dict) -> None:
    print(
        f"{name:18s} full {row['full_seconds']:.3f}s -> delta "
        f"{row['delta_seconds']:.3f}s  ({row['speedup']:.2f}x), "
        f"shuffle {row['full_shuffled_records']} -> "
        f"{row['delta_shuffled_records']} records"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller graph, greedy only (the CI smoke configuration)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--sigma", type=float, default=2.0)
    parser.add_argument(
        "--repeats", type=int, default=None, help="best-of timing runs"
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"update {os.path.basename(BENCH_JSON)} with the results",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="compare against the committed JSON; exit 1 on >10% "
        "shuffle-ratio regression (deterministic, no wall-clock)",
    )
    args = parser.parse_args(argv)
    scale = args.scale or (0.12 if args.quick else 0.3)
    repeats = args.repeats or (5 if args.quick else 4)

    greedy_key = "greedy_rounds_quick" if args.quick else "greedy_rounds"
    results: Dict = {}
    greedy = bench_greedy(scale, args.sigma, repeats)
    results[greedy_key] = greedy
    print(
        f"{'greedy_mr':18s} delta {greedy['delta_seconds']:.3f}s, "
        f"shuffle {greedy['delta_shuffled_records']} records / "
        f"{greedy['delta_shuffled_bytes']} bytes, quiescent ratio "
        f"{greedy['quiescent_ratio']:.2%}"
    )
    if not args.quick:
        stack = bench_stack(scale, args.sigma, repeats)
        results["stack_rounds"] = stack
        _print_row("stack_mr", stack)
    if args.write:
        recorded = _load_committed()
        for key, row in results.items():
            # Merge into the committed row so GreedyMR's frozen
            # full-state fields (and per-round trace) survive.
            entry = recorded.setdefault(key, {})
            per_round = {
                **entry.get("per_round", {}),
                **row.get("per_round", {}),
            }
            entry.update(row)
            if per_round:
                entry["per_round"] = per_round
        with open(BENCH_JSON, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-> {BENCH_JSON}")
    if args.check_regression:
        return check_regression(results, greedy_key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
