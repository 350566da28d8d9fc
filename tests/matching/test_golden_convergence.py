"""Golden Figure-5 convergence curves for GreedyMR and StackMR.

``golden_convergence.json`` pins the full ``value_history`` sequence
(plus rounds, layers, and the certified dual bound) of the two
MapReduce matching algorithms on seeded flickr-small and zipf
workloads, mirroring ``tests/mapreduce/golden_hashes.json``: the
matrix tests prove the cells agree with *each other*, the golden file
proves they agree with *yesterday* — a refactor that silently changes
round dynamics (an extra round, a different tie-break, a reordered
float sum) fails here even if it stays self-consistent.

Both of StackMR's iteration planes are checked against the same pinned
curves, and the curves were pinned when GreedyMR still had a full-state
plane too, so the file doubles as a cross-machine bit-identity witness
for the delta plane.  ``test_hash_seed.py`` re-runs these measurements
under two ``PYTHONHASHSEED`` values.

Regenerate (only for a deliberate, CHANGES.md-worthy semantic change)::

    PYTHONPATH=src python tests/matching/test_golden_convergence.py
"""

import json
import os
import random

import pytest

from repro.graph import random_bipartite
from repro.matching import greedy_mr_b_matching, stack_mr_b_matching

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_convergence.json"
)


def _flickr_graph():
    """A small but non-trivial Problem-1 instance (§6 generative model)."""
    from repro.datasets import load_dataset

    dataset = load_dataset("flickr-small", seed=1, scale=0.05)
    return dataset.graph(sigma=2.0, alpha=2.0)


def _zipf_graph():
    """A power-law-weighted bipartite instance (Figure 6's heavy tail)."""
    from repro.datasets.zipf import discrete_power_law

    rng = random.Random(20110829)  # the paper's VLDB year, why not

    def zipf_weight(r: random.Random) -> float:
        return float(discrete_power_law(r, 1.8, minimum=1, maximum=60))

    return random_bipartite(
        num_items=40,
        num_consumers=25,
        edge_probability=0.18,
        rng=rng,
        weight_sampler=zipf_weight,
        max_capacity=4,
    )


WORKLOADS = {
    "flickr-small": _flickr_graph,
    "zipf": _zipf_graph,
}


def _measurements(graph):
    greedy = greedy_mr_b_matching(graph)
    rows = {}
    for delta in (False, True):
        stack = stack_mr_b_matching(graph, seed=7, delta=delta)
        rows[f"delta={delta}"] = {
            "stack_value_history": stack.value_history,
            "stack_rounds": stack.rounds,
            "stack_layers": stack.layers,
            "stack_mr_jobs": stack.mr_jobs,
            "stack_dual_upper_bound": stack.dual_upper_bound,
        }
    # StackMR's planes must agree before anything is pinned or compared.
    assert rows["delta=False"] == rows["delta=True"]
    return {
        "greedy_value_history": greedy.value_history,
        "greedy_rounds": greedy.rounds,
        "greedy_mr_jobs": greedy.mr_jobs,
        **rows["delta=False"],
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_convergence_curves_pinned(workload):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    expected = golden[workload]
    measured = _measurements(WORKLOADS[workload]())
    # Compare curve prefixes first for a readable failure, then all.
    assert measured["greedy_rounds"] == expected["greedy_rounds"]
    assert measured["stack_rounds"] == expected["stack_rounds"]
    assert (
        measured["greedy_value_history"]
        == expected["greedy_value_history"]
    )
    assert measured == expected


def test_golden_curves_are_nontrivial():
    """The pinned workloads must actually exercise convergence."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    for workload, row in golden.items():
        assert row["greedy_rounds"] >= 4, workload
        assert len(row["greedy_value_history"]) == row["greedy_rounds"]
        history = row["greedy_value_history"]
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert row["stack_layers"] >= 1


def _regenerate() -> None:
    golden = {
        name: _measurements(builder())
        for name, builder in sorted(WORKLOADS.items())
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"-> {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
