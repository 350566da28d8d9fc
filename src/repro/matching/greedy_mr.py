"""GreedyMR: the MapReduce adaptation of the greedy algorithm (§5.4).

One MapReduce job per iteration (Algorithm 3 of the paper):

* **map** — each node ``v`` proposes its ``b(v)`` incident edges of
  maximum weight to its neighbors;
* **reduce** — each node intersects its own proposals with those of its
  neighbors; mutually proposed edges enter the matching, capacities
  shrink, saturated nodes leave the graph.

Determinism: proposals use the strict total edge order of
:func:`repro.graph.edges.edge_sort_key` (weight descending, edge key
ascending), so the parallel process simulates the sequential greedy —
``greedy_mr_b_matching`` returns exactly the matching of
:func:`repro.matching.greedy.greedy_b_matching` (property-tested), and
therefore inherits its ½-approximation guarantee.

Two properties the paper highlights are surfaced here:

* **any-time availability**: the matching is feasible after every
  iteration; ``value_history`` records the Figure 5 convergence curve;
* **worst case**: on an ascending-weight path the number of rounds is
  linear in the graph size (see ``repro.graph.generators.ascending_path``
  and the ablation benchmark).

Delta rounds
------------

The any-time curve of Figure 5 flattens fast: after the first few
rounds most nodes are *quiescent* — same capacity, same edges, same
proposals — yet the classic formulation re-ships every node record and
every proposal through the shuffle each round.  GreedyMR therefore runs
Algorithm 3 on the runtime's delta iteration plane
(:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`,
frontier mode):

* node records live in a partition-aligned
  :class:`~repro.mapreduce.state.ResidentStateStore` and never enter
  the shuffle;
* each round, only nodes whose state *changed* last round run map
  — they re-propose to their neighbors and ping themselves — while each
  node's resident ``inbox`` caches the last proposal received from
  every live neighbor, so quiescent neighbors need not re-send;
* a node that leaves the graph retires with explicit death notices
  (:class:`~repro.mapreduce.state.Retired`) to its surviving
  neighbors;
* convergence is an empty delta stream.

Matchings, ``value_history``, round counts, and job counts equal
those of the full-state formulation (pinned by the golden convergence
curves); only the shuffle volume shrinks, and
``iteration.quiescent_records`` meters what the frontier skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..graph.bipartite import Graph
from ..graph.edges import edge_key, edge_sort_key
from ..mapreduce import (
    IterativeDriver,
    KeyValue,
    MapReduceJob,
    MapReduceRuntime,
    Quiet,
    Retired,
)
from .types import Matching, MatchingResult

__all__ = [
    "GreedyDeltaNode",
    "GreedyDeltaRoundJob",
    "default_max_rounds",
    "greedy_mr_b_matching",
]


@dataclass(frozen=True)
class GreedyDeltaNode:
    """A resident node record: residual capacity ``b`` and live
    incident edges ``adj``, plus the incremental bookkeeping that lets
    quiescent neighbors stay silent:

    * ``inbox`` — the last proposal bit received from each live
      neighbor;
    * ``props`` — the node's own current proposal set, which is also
      exactly what its neighbors' inboxes hold (``None`` until first
      computed).  Proposals are a pure function of ``(b, adj)``, so
      this caches the ranking sort until the core actually changes;
    * ``flips`` — the neighbors whose proposal bit changed with the
      last core change: the only ones the next map must message.
    """

    b: int
    adj: Dict[str, float]
    inbox: Dict[str, bool]
    props: Optional[FrozenSet[str]] = None
    flips: Tuple[str, ...] = ()


def _proposals(node: str, b: int, adj: Dict[str, float]) -> Set[str]:
    """The neighbors of ``v``'s top-``b(v)`` edges by the global order.

    Called identically from map and reduce, so both phases agree without
    extra communication.
    """
    if b <= 0:
        return set()
    ranked = sorted(
        adj.items(),
        key=lambda item: edge_sort_key(
            edge_key(node, item[0]), item[1]
        ),
    )
    return {neighbor for neighbor, _ in ranked[:b]}


class GreedyDeltaRoundJob(MapReduceJob):
    """One GreedyMR iteration (Algorithm 3's parallel loop body) on
    the delta plane, frontier mode.

    Only changed nodes map, proposals from quiescent neighbors come
    from the resident inbox, and departures are announced with
    explicit ``("dead", node)`` notices.
    """

    name = "greedy-round"

    def map_delta(self, node: str, delta) -> Iterable[KeyValue]:
        if isinstance(delta, Retired):
            for neighbor in delta.notify:
                yield neighbor, ("dead", node)
            return
        # The self-ping guarantees a changed node re-evaluates even
        # when all its neighbors stayed quiet (its own proposal set may
        # now form a mutual pair with a cached inbox entry).
        yield node, ("ping",)
        if delta.props is None:
            # First broadcast: every neighbor needs every bit.
            proposals = _proposals(node, delta.b, delta.adj)
            for neighbor in delta.adj:
                yield neighbor, ("prop", node, neighbor in proposals)
            return
        # Incremental broadcast: neighbors whose bit did not flip
        # already hold the correct value in their inbox.
        for neighbor in delta.flips:
            yield neighbor, ("prop", node, neighbor in delta.props)

    def reduce_state(
        self, node: str, state: Optional[GreedyDeltaNode], values: List
    ) -> Tuple[object, List[KeyValue]]:
        if state is None:
            return None, []  # stray messages to a departed node
        inbox = dict(state.inbox)
        dead: Set[str] = set()
        for value in values:
            tag = value[0]
            if tag == "prop":
                if value[1] in state.adj:
                    inbox[value[1]] = value[2]
            elif tag == "dead":
                dead.add(value[1])
        if state.props is not None:
            my_proposals: FrozenSet[str] = state.props
        else:
            my_proposals = frozenset(
                _proposals(node, state.b, state.adj)
            )
        new_adj: Dict[str, float] = {}
        matched: List[Tuple[str, float]] = []
        for neighbor, weight in state.adj.items():
            if neighbor in dead:
                continue  # the neighbor died: retract the edge
            if neighbor in my_proposals and inbox.get(neighbor, False):
                matched.append((neighbor, weight))
            else:
                new_adj[neighbor] = weight
        outputs: List[KeyValue] = [
            (("matched", node, neighbor), weight)
            for neighbor, weight in matched
            if node < neighbor
        ]
        new_b = state.b - len(matched)
        if new_b > 0 and new_adj:
            new_inbox = {nbr: inbox[nbr] for nbr in new_adj}
            if new_b != state.b or new_adj != state.adj:
                # Core change: recompute proposals once, diff against
                # what the neighbors' inboxes hold (= my_proposals),
                # and schedule messages only for the flipped bits.
                new_props = frozenset(_proposals(node, new_b, new_adj))
                flips = tuple(
                    sorted(
                        nbr
                        for nbr in new_adj
                        if (nbr in new_props) != (nbr in my_proposals)
                    )
                )
                return (
                    GreedyDeltaNode(
                        b=new_b,
                        adj=new_adj,
                        inbox=new_inbox,
                        props=new_props,
                        flips=flips,
                    ),
                    outputs,
                )
            new_state = GreedyDeltaNode(
                b=new_b,
                adj=new_adj,
                inbox=new_inbox,
                props=my_proposals,
                flips=(),
            )
            if new_state != state:
                # Inbox-only change (or a first proposal computation):
                # nothing this node sends can change — remember the
                # bookkeeping, stay off the frontier.
                return Quiet(new_state), outputs
            return state, outputs
        # The node leaves; survivors it still held edges to must hear
        # about it (the runtime prunes peers that left this same round).
        return Retired(tuple(sorted(new_adj))), outputs


def default_max_rounds(graph: Graph) -> int:
    """The round cap derived from the delta plane's progress guarantee.

    Every GreedyMR round with live edges matches at least one edge (the
    globally maximum edge in the residual graph is mutually proposed),
    and matched edges never return — equivalently, no round's delta
    stream is empty before convergence.  Rounds are therefore bounded
    by the number of edges; the ``+ 1`` covers the empty graph.  The
    previous default (``2·|E| + 4``) was loose enough to make
    :class:`~repro.mapreduce.errors.RoundLimitExceeded` effectively
    unreachable on adversarial inputs like ``ascending_path``.
    """
    return graph.num_edges + 1


def _initial_records(graph: Graph) -> List[KeyValue]:
    """Seed records for every capacitated node with live edges."""
    capacities = graph.capacities()
    records: List[KeyValue] = []
    for node in sorted(capacities):
        if capacities[node] <= 0 or graph.degree(node) == 0:
            continue
        adj = {
            nbr: w
            for nbr, w in graph.incident(node)
            if capacities.get(nbr, 0) > 0
        }
        if adj:
            records.append(
                (
                    node,
                    GreedyDeltaNode(b=capacities[node], adj=adj, inbox={}),
                )
            )
    return records


def greedy_mr_b_matching(
    graph: Graph,
    runtime: Optional[MapReduceRuntime] = None,
    max_rounds: Optional[int] = None,
    on_round_end=None,
) -> MatchingResult:
    """Run GreedyMR on ``graph`` and return the matching with its history.

    ``value_history[i]`` is the (feasible) matching value after round
    ``i+1`` — the any-time property of §5.4 and the series of Figure 5.

    ``on_round_end(state, round_number)`` is forwarded to the
    :class:`IterativeDriver` for per-round instrumentation.
    """
    runtime = runtime or MapReduceRuntime()
    if max_rounds is None:
        max_rounds = default_max_rounds(graph)
    jobs_before = runtime.jobs_executed
    seeds = _initial_records(graph)
    matching = Matching()
    history: List[float] = []
    if not seeds:
        return MatchingResult(
            matching=matching,
            algorithm="GreedyMR",
            rounds=0,
            mr_jobs=0,
            value_history=history,
        )
    driver: IterativeDriver = IterativeDriver(
        runtime,
        name="greedy-mr",
        max_rounds=max_rounds,
        on_round_end=on_round_end,
    )
    job = GreedyDeltaRoundJob()
    driver.create_store(seeds)

    def step(deltas, round_number):
        output, next_deltas = driver.run_stateful(job, deltas=deltas)
        for (_, node, neighbor), weight in output:
            matching.add(node, neighbor, weight)
        history.append(matching.value)
        return next_deltas, not next_deltas

    try:
        driver.iterate(step, seeds)
    finally:
        driver.close()
    return MatchingResult(
        matching=matching,
        algorithm="GreedyMR",
        rounds=driver.rounds_completed,
        mr_jobs=runtime.jobs_executed - jobs_before,
        value_history=history,
    )
