"""The benchmark's four workloads, their inputs and their references.

Inputs come only from the ``--seed`` argument.  A batch workload holds
``corpora`` seeded ``flickr-small`` corpora: corpus ``i`` of seed ``s``
is ``flickr-small`` with generator seed ``1000*s + i``, each one the
input of one ``repro join`` or ``repro match`` run.  Its operations
cycle through them.  One corpus's join and matching work swings by a
quarter from seed to seed, so a run reports the mean over its corpora
of each corpus's median operation time, whose swing shrinks with the
square root of the corpus count.  Batch operation times and set-up
times are scaled to reference host speed (:mod:`hostspeed`); serving
latencies stay wall-clock, because most of an event's latency is the
service's batching delay and queueing, not computation.

Each batch operation is one user operation on one corpus, checked
against a reference built in set-up by an independent code path:

* ``join`` -- ``candidate_edges(method="mapreduce")`` on the serial
  backend with memory storage, against ``exact_similarity_join``;
* ``join-cluster`` -- the same join on the cluster backend (two worker
  daemons), disk storage and a spilling shuffle, against the same
  reference;
* ``match`` -- ``greedy_mr`` then ``stack_mr`` on the delta plane,
  against centralized ``greedy_b_matching``, Theorem 1's capacity
  bound, the full-state StackMR plane and a pinned canary digest.

``serve`` streams seeded Zipf events open loop through
``MatchingService`` (see :mod:`openloop`) into one matcher whose graph
is the union of ``shards`` seeded shards in one shared tag space, and
is checked by ``OnlineMatcher.verify`` with no rejected or
dead-lettered event.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import statistics
import tempfile
import time
import traceback
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.datasets import load_dataset
from repro.datasets.base import Dataset
from repro.mapreduce import (
    InMemoryFileSystem,
    LocalDiskFileSystem,
    MapReduceRuntime,
)
from repro.matching import (
    greedy_b_matching,
    greedy_mr_b_matching,
    stack_mr_b_matching,
)
from repro.service import MatchingService, OnlineMatcher
from repro.simjoin import candidate_edges, exact_similarity_join
from repro.telemetry import Tracer
from repro.telemetry.loadgen import zipf_events

import openloop
from hostspeed import Bracket
from probes import Recorder, TimingFileSystem, self_times, wrap_method

SIGMA = 2.0
ALPHA = 2.0
EPSILON = 1.0
#: Relative tolerance on join weights: the MapReduce join sums the
#: partial products in another order than the exact reference.
WEIGHT_RTOL = 1e-9
#: ``MatchingService`` defaults, kept explicit here.
MAX_BATCH = 16
MAX_DELAY_S = 0.05
ZIPF_SKEW = 1.1
#: An event slower than this from its due time counts as failed.
LATENCY_LIMIT_S = 2.0
#: The traced run's reported layer self times must add up to the
#: untraced end-to-end time within this share of it.
RECONCILE_TOLERANCE = 0.15
#: The fixed percentile of a batch workload's ``tail_ms``, taken over
#: all of a run's operations: a 20 s run has 49-121 of them, so at
#: least twelve lie beyond it.
BATCH_TAIL_PERCENTILE = 75.0

#: Run sizes.  ``rate`` is the serve workload's fixed offered load in
#: events/s, about half of what this graph size's flushes absorb one
#: event at a time on a 2-core x86 box.
SIZES: Dict[str, Dict[str, Any]] = {
    "join": {"corpora": 16, "scale": 0.085},
    "join-cluster": {
        "corpora": 16, "scale": 0.085, "backend": "cluster", "workers": 2,
        "spill_threshold": 2000,
    },
    "match": {"corpora": 12, "scale": 0.07},
    "serve": {"shards": 8, "scale": 0.008, "rate": 24.0, "warmup": 4},
}

#: sha256 of StackMR's matching on the canary instance (flickr-small
#: seed 0, scale 0.02, sigma 2, alpha 2, epsilon 1, StackMR seed 0).
#: StackMR is bit-identical across backends, storage and planes, so
#: this only moves when its semantics do.
CANARY_DIGEST = (
    "d29de1c06dff04cfbd6c3446edb674f69b1d37e10bff6120a23c2c6a5052b6db"
)

#: ``runtime`` counters whose change the traced run reports.
_COUNTERS = (
    "jobs",
    "shuffle.records",
    "shuffle.encoded_bytes",
    "spilled_records",
    "iteration.resident_records",
    "iteration.delta_records",
    "iteration.quiescent_records",
)

#: Per-layer metrics only one kind of workload produces; the others
#: report them as 0.
_SERVE_ONLY = (
    "service.queue_wait_p50_ms",
    "service.queue_wait_tail_ms",
    "service.batch_events",
    "matcher.flush_p50_ms",
    "matcher.flush_tail_ms",
    "matcher.admit_s",
    "matcher.reconverge_s",
    "matcher.rounds_per_flush",
    "matcher.shuffle_records_per_flush",
    "matcher.affected_nodes_per_flush",
    "loadgen.late_ms",
    "loadgen.backlog",
)
_MATCH_ONLY = tuple(
    f"matching.{algorithm}.{figure}"
    for algorithm in ("greedy_mr", "stack_mr")
    for figure in ("rounds", "mr_jobs")
)

Span = Callable[[str], Any]


def _no_span(name: str):
    return nullcontext()


def corpora(seed: int, size: Dict[str, Any]) -> List[Dataset]:
    """``size["corpora"]`` seeded flickr-small corpora."""
    return [
        load_dataset("flickr-small", seed=1000 * seed + i,
                     scale=size["scale"])
        for i in range(size["corpora"])
    ]


def corpus(seed: int, size: Dict[str, Any]) -> Dataset:
    """The union of ``size["shards"]`` seeded flickr-small shards in
    one tag space, their ids prefixed ``s<i>/``."""
    items: Dict[str, Any] = {}
    consumers: Dict[str, Any] = {}
    activity: Dict[str, float] = {}
    quality: Dict[str, float] = {}
    for shard in range(size["shards"]):
        part = load_dataset(
            "flickr-small", seed=1000 * seed + shard, scale=size["scale"]
        )
        prefix = f"s{shard}/"
        for target, source in (
            (items, part.items), (consumers, part.consumers)
        ):
            target.update(
                (prefix + doc, vector) for doc, vector in source.items()
            )
        activity.update(
            (prefix + k, v) for k, v in part.consumer_activity.items()
        )
        quality.update(
            (prefix + k, v) for k, v in part.item_quality.items()
        )
    return Dataset(
        name=f"flickr-small-x{size['shards']}",
        items=items,
        consumers=consumers,
        consumer_activity=activity,
        item_quality=quality,
        join_method="exact",
    )


def matching_digest(edges: List[Tuple[str, str, float]]) -> str:
    lines = "".join(f"{u}\t{v}\t{w!r}\n" for u, v, w in sorted(edges))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def canary_digest() -> str:
    data = load_dataset("flickr-small", seed=0, scale=0.02)
    graph = data.graph(sigma=SIGMA, alpha=ALPHA)
    result = stack_mr_b_matching(
        graph, epsilon=EPSILON, seed=0, runtime=MapReduceRuntime()
    )
    return matching_digest(result.matching.edges())


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` for the highest percentile with at
    least ten samples beyond it.

    A sample of fewer than 21 supports no such percentile above the
    median, and then the median (nearest rank) is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def runtime_snapshot(runtime: MapReduceRuntime) -> Dict[str, float]:
    """The runtime's cumulative counters and gauges the layers use."""
    counters = runtime.counters
    snap: Dict[str, float] = {
        name: counters.get("runtime", name) for name in _COUNTERS
    }
    snap["respawns"] = counters.get("faults", "pool.respawns")
    snap["resubmits"] = counters.get("faults", "task.resubmits")
    for phase, seconds in runtime.phase_timings.items():
        snap[f"phase.{phase}"] = seconds
    for stage in ("admit", "reconverge"):
        snap[stage] = runtime.metrics.gauge(
            "service", f"{stage}_seconds"
        ).value
    return snap


def _delta(after: Dict[str, float], before: Dict[str, float]):
    return {key: after[key] - before[key] for key in after}


def instrument(runtime: MapReduceRuntime, recorder: Recorder) -> None:
    """Install the runtime and executor probes on one instance and
    attach a fresh runtime ``Tracer`` for the in-task seconds."""
    for method in ("run", "run_iter", "run_stateful"):
        wrap_method(runtime, method, recorder, f"runtime.{method}")
    wrap_method(
        runtime.executor, "run_tasks", recorder, "executor.run_tasks",
        count_arg=1,
    )
    runtime.tracer = Tracer()


#: The reported per-layer self times that partition a batch
#: operation.  Their sum is reconciled with the untraced operation
#: time; time no named layer covers (the ``op`` span's own) is missing
#: from it and shows as reconcile error.
SELF_TIMES = (
    "simjoin.self_s",
    "storage.write_s",
    "storage.read_s",
    "storage.du_s",
    "storage.other_s",
    "runtime.self_s",
    "executor.run_tasks_s",
    "matching.greedy_mr.self_s",
    "matching.stack_mr.self_s",
)


def layer_metrics(spans, task_spans, delta: Dict[str, float],
                  ops: int) -> Dict[str, float]:
    """Per-operation layer figures from one traced stretch of work.

    ``spans`` are the benchmark's boundary spans, ``task_spans`` the
    runtime ``Tracer``'s task leaves (in dispatch order) and ``delta``
    the change of :func:`runtime_snapshot` over the stretch.
    """
    own = self_times(spans)
    per = 1.0 / max(ops, 1)
    overhead = 0.0
    cursor = 0
    for dispatch in (s for s in spans if s.name == "executor.run_tasks"):
        count = dispatch.attrs["items"]
        busy: Dict[Any, float] = {}
        for task in task_spans[cursor:cursor + count]:
            worker = task.attrs.get("worker")
            busy[worker] = busy.get(worker, 0.0) + task.seconds
        cursor += count
        # A dispatch waits for its busiest worker; the rest is dispatch
        # cost: pickling, frames, queueing and result handling.
        overhead += dispatch.seconds - max(busy.values(), default=0.0)
    runtime_ids = {
        s.span_id for s in spans if s.name.startswith("runtime.")
    }
    runtime_calls = sum(
        s.seconds for s in spans
        if s.name.startswith("runtime.") and s.parent_id not in runtime_ids
    )
    jobs = delta["jobs"]
    resident = delta["iteration.resident_records"]
    layers = {
        "simjoin.self_s": own.get("simjoin", 0.0) * per,
        "storage.write_s": own.get("storage.write", 0.0) * per,
        "storage.read_s": own.get("storage.read", 0.0) * per,
        "storage.du_s": own.get("storage.du", 0.0) * per,
        "storage.other_s": sum(
            own.get(f"storage.{call}", 0.0)
            for call in ("exists", "delete", "list_paths")
        ) * per,
        "storage.calls":
            sum(1 for s in spans if s.name.startswith("storage.")) * per,
        "runtime.self_s": own.get("runtime", 0.0) * per,
        "runtime.map_s": delta["phase.map"] * per,
        "runtime.shuffle_s": delta["phase.shuffle"] * per,
        "runtime.reduce_s": delta["phase.reduce"] * per,
        "runtime.spill_s": delta["phase.spill"] * per,
        "runtime.jobs": jobs * per,
        "runtime.shuffle_records": delta["shuffle.records"] * per,
        "runtime.shuffle_encoded_bytes":
            delta["shuffle.encoded_bytes"] * per,
        "runtime.spilled_records": delta["spilled_records"] * per,
        "runtime.per_job_ms":
            1000.0 * runtime_calls / jobs if jobs else 0.0,
        "executor.run_tasks_s": own.get("executor", 0.0) * per,
        "executor.task_s": sum(t.seconds for t in task_spans) * per,
        "executor.overhead_s": overhead * per,
        "executor.tasks": len(task_spans) * per,
        "executor.respawns": delta["respawns"] * per,
        "executor.resubmits": delta["resubmits"] * per,
        "state.resident_records": resident * per,
        "state.delta_records": delta["iteration.delta_records"] * per,
        "state.quiescent_ratio": (
            delta["iteration.quiescent_records"] / resident
            if resident else 0.0
        ),
        "matching.greedy_mr.self_s":
            own.get("matching.greedy_mr", 0.0) * per,
        "matching.stack_mr.self_s":
            own.get("matching.stack_mr", 0.0) * per,
    }
    return layers


class Measurement:
    """What one timed or traced stretch of a workload produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Untraced seconds per operation, one list per corpus, scaled
        #: to reference host speed in a timed run (one list of
        #: wall-clock per-event latencies on ``serve``).
        self.op_seconds: List[List[float]] = []
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, Any] = {}
        self.spans: List[Any] = []

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


# -- batch workloads ---------------------------------------------------------


class BatchWorkload:
    """Set up once, then repeat checked operations, cycling through
    the corpora, for a while."""

    name = ""

    def __init__(self, seed: int, size: Dict[str, Any], workdir: str,
                 seconds: float) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.recorder = Recorder()
        self.runtimes: List[MapReduceRuntime] = []
        self.cases: List[Any] = []
        self.plain: Optional[MapReduceRuntime] = None
        self.probed: Optional[MapReduceRuntime] = None

    # Subclasses define build_case(data) -> case, run_op(runtime, span,
    # case) and check(case, output), and may override storage() and
    # extra_layers().

    def storage(self):
        return InMemoryFileSystem()

    def extra_layers(self, outputs: List[Any]) -> Dict[str, float]:
        return {}

    @staticmethod
    def summarize(op_seconds: List[List[float]]) -> Dict[str, float]:
        """``op_s``: the mean over corpora of each corpus's median
        operation time; ``tail_s``: the fixed percentile of all the
        operation times."""
        return {
            "op_s": statistics.fmean(
                statistics.median(times) for times in op_seconds
            ),
            "tail_s": percentile(
                [t for times in op_seconds for t in times],
                BATCH_TAIL_PERCENTILE,
            ),
            "tail_percentile": BATCH_TAIL_PERCENTILE,
            "samples": sum(len(times) for times in op_seconds),
        }

    def _subdir(self, stem: str) -> str:
        return tempfile.mkdtemp(prefix=f"{stem}-", dir=self.workdir)

    def _runtime(self, probed: bool) -> MapReduceRuntime:
        storage = self.storage()
        if probed:
            storage = TimingFileSystem(storage, self.recorder)
        runtime = MapReduceRuntime(
            backend=self.size.get("backend", "serial"),
            max_workers=self.size.get("workers"),
            storage=storage,
            spill_threshold=self.size.get("spill_threshold"),
            spill_dir=self._subdir("spill"),
        )
        self.runtimes.append(runtime)
        if probed:
            instrument(runtime, self.recorder)
        return runtime

    def setup(self, measurement: Measurement, traced: bool) -> None:
        """Inputs, references, runtimes and one warm-up operation."""
        self.cases = [
            self.build_case(data) for data in corpora(self.seed, self.size)
        ]
        self.plain = self._runtime(probed=False)
        self._op(self.plain, _no_span, 0, measurement)
        if traced:
            self.probed = self._runtime(probed=True)
            self._op(self.probed, self.recorder.span, 0, measurement)
            self.recorder.clear()

    def _op(self, runtime: MapReduceRuntime, span: Span, index: int,
            measurement: Measurement) -> Tuple[float, Any]:
        case = self.cases[index % len(self.cases)]
        gc.collect()
        started = time.perf_counter()
        try:
            with span("op"):
                output = self.run_op(runtime, span, case)
        except Exception:  # a crashed operation is a failed one
            traceback.print_exc()
            measurement.count(False)
            return time.perf_counter() - started, None
        seconds = time.perf_counter() - started
        measurement.count(self.check(case, output))
        return seconds, output

    def measure(self, seconds: float) -> Measurement:
        """Operations until ``seconds`` have passed, and at least one
        on every corpus.

        ``op_seconds`` holds the times scaled to reference host speed
        (:mod:`hostspeed`); the notes keep the wall-clock figures.
        """
        result = Measurement()
        result.op_seconds = [[] for _ in self.cases]
        wall: List[List[float]] = [[] for _ in self.cases]
        bracket = Bracket()
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline or index < len(self.cases):
            elapsed, _ = self._op(self.plain, _no_span, index, result)
            slot = index % len(self.cases)
            result.op_seconds[slot].append(bracket.scale(elapsed))
            wall[slot].append(elapsed)
            index += 1
        summary = self.summarize(wall)
        result.notes.update(
            wall_op_ms=1000.0 * summary["op_s"],
            wall_tail_ms=1000.0 * summary["tail_s"],
        )
        return result

    def measure_traced(self, seconds: float) -> Measurement:
        """Alternate an untraced and a traced operation on each corpus.

        The untraced ones are the base of the overhead ratio and of
        the reconciliation; the traced ones give the layer figures.
        """
        result = Measurement()
        untraced: List[float] = []
        traced: List[float] = []
        outputs: List[Any] = []
        spans: List[Any] = []
        task_spans: List[Any] = []
        before = runtime_snapshot(self.probed)
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline or index < len(self.cases):
            elapsed, _ = self._op(self.plain, _no_span, index, result)
            untraced.append(elapsed)
            self.probed.tracer = Tracer()
            elapsed, output = self._op(
                self.probed, self.recorder.span, index, result
            )
            traced.append(elapsed)
            outputs.append(output)
            spans.extend(self.recorder.clear())
            task_spans.extend(
                s for s in self.probed.tracer.spans if s.kind == "task"
            )
            index += 1
        delta = _delta(runtime_snapshot(self.probed), before)
        layers = layer_metrics(spans, task_spans, delta, len(traced))
        layers.update(dict.fromkeys(_SERVE_ONLY + _MATCH_ONLY, 0.0))
        layers.update(self.extra_layers(outputs))
        # Each traced operation is paired with an untraced one on the
        # same corpus, so means compare like with like.
        base = statistics.fmean(untraced)
        layers["trace.overhead_ratio"] = statistics.median(
            t / u for t, u in zip(traced, untraced)
        )
        accounted = sum(layers[metric] for metric in SELF_TIMES)
        layers["trace.reconcile_error"] = abs(accounted - base) / base
        result.op_seconds = [untraced]
        result.layers = layers
        result.spans = spans
        return result

    def close(self) -> None:
        for runtime in self.runtimes:
            runtime.executor.close()
        self.runtimes = []


class Join(BatchWorkload):
    name = "join"

    def build_case(self, data: Dataset):
        reference = exact_similarity_join(
            data.items, data.consumers, SIGMA
        )
        return data.items, data.consumers, reference

    def run_op(self, runtime: MapReduceRuntime, span: Span, case):
        items, consumers, _ = case
        with span("simjoin"):
            return candidate_edges(
                items, consumers, SIGMA, method="mapreduce",
                runtime=runtime,
            )

    def check(self, case, rows) -> bool:
        reference = case[2]
        return len(rows) == len(reference) and all(
            (t, c) == (rt, rc) and math.isclose(w, rw, rel_tol=WEIGHT_RTOL)
            for (t, c, w), (rt, rc, rw) in zip(rows, reference)
        )


class JoinCluster(Join):
    name = "join-cluster"

    def storage(self):
        return LocalDiskFileSystem(root=self._subdir("dfs"))


class MatchCase:
    """One corpus's Problem-1 graph and its matching references."""

    def __init__(self, data: Dataset, seed: int) -> None:
        self.graph = data.graph(sigma=SIGMA, alpha=ALPHA)
        self.capacities = self.graph.capacities()
        self.greedy_reference = sorted(
            greedy_b_matching(self.graph).matching.edges()
        )
        full_state = stack_mr_b_matching(
            self.graph, epsilon=EPSILON, seed=seed,
            runtime=MapReduceRuntime(), delta=False,
        )
        self.stack_reference = matching_digest(
            full_state.matching.edges()
        )


class Match(BatchWorkload):
    name = "match"

    def setup(self, measurement: Measurement, traced: bool) -> None:
        self.canary_ok = canary_digest() == CANARY_DIGEST
        super().setup(measurement, traced)

    def build_case(self, data: Dataset) -> MatchCase:
        return MatchCase(data, self.seed)

    def run_op(self, runtime: MapReduceRuntime, span: Span,
               case: MatchCase):
        with span("matching.greedy_mr"):
            greedy = greedy_mr_b_matching(case.graph, runtime=runtime)
        with span("matching.stack_mr"):
            stack = stack_mr_b_matching(
                case.graph, epsilon=EPSILON, seed=self.seed,
                runtime=runtime,
            )
        return greedy, stack

    def check(self, case: MatchCase, output) -> bool:
        greedy, stack = output
        if sorted(greedy.matching.edges()) != case.greedy_reference:
            return False
        # Theorem 1: StackMR overflows a node by at most one stack
        # layer, max(1, ceil(eps * b(v))) edges.
        for node, degree in stack.matching.degrees().items():
            cap = case.capacities[node]
            if degree > cap + max(1, math.ceil(EPSILON * cap)):
                return False
        return self.canary_ok and (
            matching_digest(stack.matching.edges()) == case.stack_reference
        )

    def extra_layers(self, outputs: List[Any]) -> Dict[str, float]:
        layers = {}
        done = [output for output in outputs if output is not None]
        for index, algorithm in enumerate(("greedy_mr", "stack_mr")):
            results = [output[index] for output in done]
            layers[f"matching.{algorithm}.rounds"] = statistics.fmean(
                r.rounds for r in results
            ) if results else 0.0
            layers[f"matching.{algorithm}.mr_jobs"] = statistics.fmean(
                r.mr_jobs for r in results
            ) if results else 0.0
        return layers


# -- serving ------------------------------------------------------------------


class Serve:
    """An open-loop event stream against a bootstrapped online matcher.

    Its operation is one event, timed from when it was due until the
    flush that admitted it has converged.
    """

    name = "serve"

    def __init__(self, seed: int, size: Dict[str, Any], workdir: str,
                 seconds: float) -> None:
        self.seed = seed
        self.size = size
        self.count = max(2, round(size["rate"] * seconds))
        self.recorder = Recorder()
        self.matcher: Optional[OnlineMatcher] = None

    def setup(self, measurement: Measurement, traced: bool) -> None:
        """Corpus graph, event stream, matcher bootstrap, warm-up flush."""
        data = corpus(self.seed, self.size)
        graph = data.graph(sigma=SIGMA, alpha=ALPHA)
        warmup = self.size["warmup"]
        self.events, _ = zipf_events(
            graph, warmup + self.count, seed=self.seed, skew=ZIPF_SKEW
        )
        self.runtime = MapReduceRuntime(storage=InMemoryFileSystem())
        self.matcher = OnlineMatcher(runtime=self.runtime, graph=graph)
        report = self.matcher.flush(self.events[:warmup])
        for _ in range(warmup):
            measurement.count(
                not report.rejected and not report.dead_lettered
            )

    def close(self) -> None:
        if self.matcher is not None:
            self.matcher.close()
            self.matcher = None

    @staticmethod
    def summarize(op_seconds: List[List[float]]) -> Dict[str, float]:
        """``op_s``: the median event latency; ``tail_s``: the highest
        percentile with at least ten events beyond it."""
        (latencies,) = op_seconds
        value, percentile_, samples = tail(latencies)
        return {
            "op_s": statistics.median(latencies),
            "tail_s": value,
            "tail_percentile": percentile_,
            "samples": samples,
        }

    def measure(self, seconds: float) -> Measurement:
        return self._measure(self.events[self.size["warmup"]:], None)

    def measure_traced(self, seconds: float) -> Measurement:
        """An untraced half-stream, then a traced one on the same
        matcher, with the probes installed while it is idle."""
        events = self.events[self.size["warmup"]:]
        half = len(events) // 2
        return self._measure(events[:half], events[half:])

    def _measure(self, events, traced_events) -> Measurement:
        result = Measurement()
        rate = self.size["rate"]

        async def session():
            service = MatchingService(
                self.matcher, max_batch=MAX_BATCH, max_delay=MAX_DELAY_S
            )
            plain = await openloop.run(service, events, rate, self.seed)
            probed = None
            if traced_events is not None:
                await service.drain()
                flushes = self._probe(service)
                before = runtime_snapshot(self.runtime)
                stream = await openloop.run(
                    service, traced_events, rate, self.seed + 1
                )
                await service.drain()
                delta = _delta(runtime_snapshot(self.runtime), before)
                probed = (stream, flushes, delta)
            # verify() must run before close() releases the stores.
            identical, _ = self.matcher.verify()
            return plain, probed, identical

        plain, probed, identical = asyncio.run(session())
        self._score(plain, identical, result)
        result.op_seconds = [plain.latencies]
        if probed is not None:
            stream, flushes, delta = probed
            self._score(stream, identical, result)
            result.layers = self._layers(plain, stream, flushes, delta)
            result.spans = self.recorder.clear()
        result.notes.update(
            late_ms=1000.0 * plain.max_late,
            backlog=plain.backlog,
            flushes=plain.flushes,
        )
        return result

    @staticmethod
    def _score(stream, identical: bool, result: Measurement) -> None:
        for latency, report in zip(stream.latencies, stream.reports):
            result.count(
                identical
                and not isinstance(report, BaseException)
                and latency <= LATENCY_LIMIT_S
                and not report.rejected
                and not report.dead_lettered
            )

    def _probe(self, service: MatchingService):
        """Install the serving probes; returns the flush log they fill
        with ``(start, end, event ids, report)`` per flush."""
        recorder = self.recorder
        recorder.clear()
        flushes: List[Tuple[float, float, List[int], Any]] = []
        inner_flush = self.matcher.flush

        def flush(events):
            with recorder.span("matcher.flush") as span:
                report = inner_flush(events)
            flushes.append(
                (span.start, span.end, [id(e) for e in events], report)
            )
            return report

        self.matcher.flush = flush
        inner_submit = service.submit_event

        async def submit_event(event):
            started = time.perf_counter()
            report = await inner_submit(event)
            recorder.record(
                "service.submit_event", started, time.perf_counter()
            )
            return report

        service.submit_event = submit_event
        instrument(self.runtime, recorder)
        # The state stores took the runtime's filesystem when the
        # matcher was built; they get the timed one too.
        inner = self.runtime.filesystem
        timed = TimingFileSystem(inner, recorder)
        self.runtime.filesystem = timed
        for store in (self.matcher.graph_store, self.matcher.match_store):
            if store.filesystem is inner:
                store.filesystem = timed
        return flushes

    def _layers(self, plain, stream, flushes, delta) -> Dict[str, float]:
        window = {}
        for start, end, ids, _ in flushes:
            for event_id in ids:
                window[event_id] = (start, end)
        waits = []
        for event, due in zip(stream.events, stream.due):
            if id(event) in window:  # else its flush raised
                waits.append(window[id(event)][0] - due)
        flush_count = len(flushes)
        layers = layer_metrics(
            [
                s for s in self.recorder.spans
                if s.name != "service.submit_event"
            ],
            [s for s in self.runtime.tracer.spans if s.kind == "task"],
            delta,
            flush_count,
        )
        per = 1.0 / max(flush_count, 1)
        durations = [end - start for start, end, _, _ in flushes]
        reports = [report for _, _, _, report in flushes]
        untraced_p50 = statistics.median(plain.latencies)
        # An event waits in the service, then rides one flush.
        accounted = statistics.median(waits) + statistics.median(durations)
        layers.update(dict.fromkeys(_MATCH_ONLY, 0.0))
        layers.update({
            "service.queue_wait_p50_ms": 1000.0 * statistics.median(waits),
            "service.queue_wait_tail_ms": 1000.0 * tail(waits)[0],
            "service.batch_events": len(stream.events) * per,
            "matcher.flush_p50_ms": 1000.0 * statistics.median(durations),
            "matcher.flush_tail_ms": 1000.0 * tail(durations)[0],
            "matcher.admit_s": delta["admit"] * per,
            "matcher.reconverge_s": delta["reconverge"] * per,
            "matcher.rounds_per_flush":
                sum(r.rounds for r in reports) * per,
            "matcher.shuffle_records_per_flush":
                delta["shuffle.records"] * per,
            "matcher.affected_nodes_per_flush":
                sum(r.affected_nodes for r in reports) * per,
            "trace.overhead_ratio":
                statistics.median(stream.latencies) / untraced_p50,
            "trace.reconcile_error":
                abs(accounted - untraced_p50) / untraced_p50,
            "loadgen.late_ms": 1000.0 * plain.max_late,
            "loadgen.backlog": float(plain.backlog),
        })
        return layers


WORKLOADS = {
    cls.name: cls for cls in (Join, JoinCluster, Match, Serve)
}
