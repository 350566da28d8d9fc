"""Pluggable task-execution backends for the MapReduce runtime.

The runtime decomposes every job into *independent tasks* (map tasks,
reduce tasks) and hands each batch to an :class:`Executor`.  Two
backends are provided:

* :class:`SerialExecutor` — run tasks inline, one after another (the
  default; zero overhead, ideal for small inputs and for debugging);
* ``"cluster"`` — worker daemon processes served over localhost TCP
  sockets (see :mod:`repro.mapreduce.cluster`), with worker-local
  result storage, heartbeats, death detection with task re-execution,
  and speculative backups.  It resolves lazily, so importing this
  module never pays for the cluster plane.

The contract every backend obeys — and the reason results are
bit-identical across backends — is:

1. ``run_tasks(fn, tasks)`` returns ``[fn(*task) for task in tasks]``
   *in input order*, regardless of completion order;
2. an exception raised by a task propagates to the caller as the
   original exception instance (the first one in task order);
3. backends never share mutable state between tasks: each task meters
   into its own :class:`~repro.mapreduce.counters.Counters`, and the
   runtime merges them deterministically in task-index order.

The cluster's worker fleet is lazy, module-level, and shared across
executor instances, so constructing many runtimes — as property-based
tests do — does not spawn a fleet per instance.  Individual executors
may release it early with :meth:`Executor.close`; the global release
point is :func:`shutdown_shared_pools` (also registered ``atexit``).
Either way the fleet is lazily recreated on the next use.
"""

from __future__ import annotations

import atexit
import sys
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from .errors import ExecutorError

__all__ = [
    "Executor",
    "SerialExecutor",
    "EXECUTOR_BACKENDS",
    "resolve_executor",
    "shutdown_shared_pools",
]

#: One task: the positional arguments applied to the task function.
Task = Tuple[Any, ...]
TaskFunction = Callable[..., Any]

#: Canonical backend names accepted by :func:`resolve_executor` (and
#: therefore by ``MapReduceRuntime(backend=...)`` and the CLI).
EXECUTOR_BACKENDS = ("serial", "cluster")


class Executor:
    """Strategy interface for executing a batch of independent tasks."""

    #: Canonical backend name, e.g. ``"serial"``.
    name: str = "abstract"

    #: ``True`` when task arguments cross a process boundary and must
    #: therefore pickle.  The runtime uses this to decide whether a
    #: reduce task may consume a lazy (unpicklable) record stream from
    #: the external shuffle or needs a materialized list.
    picklable_tasks: bool = False

    def run_tasks(
        self, fn: TaskFunction, tasks: Sequence[Task]
    ) -> List[Any]:
        """Return ``[fn(*task) for task in tasks]`` in input order."""
        raise NotImplementedError

    def run_tasks_speculative(
        self, fn: TaskFunction, tasks: Sequence[Task], timeout: float
    ) -> Tuple[List[Any], int]:
        """Like :meth:`run_tasks`, plus straggler mitigation.

        Tasks still running ``timeout`` seconds after dispatch get a
        backup attempt; whichever attempt finishes first supplies the
        result and the loser is discarded.  Returns ``(results,
        backup_wins)``.  Backends without real parallelism have no
        stragglers to race, so the base implementation just runs the
        batch.
        """
        return self.run_tasks(fn, tasks), 0

    def close(self) -> None:
        """Release any worker pool this executor was using.

        Safe to call repeatedly; the pool is lazily recreated on the
        next use.  The serial backend holds no resources.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every task inline in the calling thread (default backend)."""

    name = "serial"

    def run_tasks(
        self, fn: TaskFunction, tasks: Sequence[Task]
    ) -> List[Any]:
        return [fn(*task) for task in tasks]


# -- shared worker fleet ---------------------------------------------------


def shutdown_shared_pools() -> None:
    """Shut down the shared cluster worker fleet (also registered atexit).

    The fleet lives beside :class:`~repro.mapreduce.cluster.executor.
    ClusterExecutor`.  The cluster plane is imported lazily, so while
    its module is not loaded no fleet exists and there is nothing to
    reap — serial users never pay for the import.
    """
    cluster = sys.modules.get(f"{__package__}.cluster.executor")
    if cluster is not None:
        cluster.shutdown_fleet()


atexit.register(shutdown_shared_pools)


_BACKEND_ALIASES = {
    "serial": "serial",
    "sequential": "serial",
    "sync": "serial",
    "cluster": "cluster",
    "distributed": "cluster",
}


def resolve_executor(
    backend: Union[str, Executor, None],
    max_workers: Optional[int] = None,
) -> Executor:
    """Turn a backend name (or an :class:`Executor`) into an executor.

    ``None`` selects the serial backend.  Unknown names raise
    :class:`ExecutorError` listing :data:`EXECUTOR_BACKENDS`.
    """
    if backend is None:
        return SerialExecutor()
    if isinstance(backend, Executor):
        return backend
    if isinstance(backend, str):
        canonical = _BACKEND_ALIASES.get(backend.strip().lower())
        if canonical == "serial":
            return SerialExecutor()
        if canonical == "cluster":
            # Lazy: only cluster users pay the cluster plane's import.
            from .cluster.executor import ClusterExecutor

            return ClusterExecutor(max_workers=max_workers)
    raise ExecutorError(
        f"unknown executor backend {backend!r}; "
        f"known backends: {', '.join(EXECUTOR_BACKENDS)}"
    )
