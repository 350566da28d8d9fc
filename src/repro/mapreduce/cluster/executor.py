"""``backend="cluster"``: the Executor adapter over the shared driver.

:class:`ClusterExecutor` satisfies the existing
:class:`~repro.mapreduce.executors.Executor` contract, so the runtime,
the iterative driver, the matching layer, the serving layer, and the
CLI all gain the distributed backend without any API change — and the
cluster joins the bit-identical-across-backends verification battery
for free.

The heavy resource (the :class:`~repro.mapreduce.cluster.driver.
ClusterDriver` and its worker fleet) is shared process-wide:
constructing many runtimes — as property-based tests do — shares one
fleet, asking for a different size evicts the stale fleet first,
:meth:`~ClusterExecutor.close` evicts it, and
``shutdown_shared_pools()`` / ``atexit`` reap the worker processes at
interpreter exit, so ``pytest -x`` leaves no orphaned daemons.

The recovery meters (``pool_respawns`` / ``resubmitted_tasks``) proxy
the shared driver's lifetime counts, so the runtime's delta metering
into the volatile ``faults`` counter group (``pool.respawns`` /
``task.resubmits``) covers cluster recovery.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..executors import Executor
from .driver import ClusterDriver, _default_cluster_workers

__all__ = ["ClusterExecutor", "shutdown_fleet"]


# -- the shared fleet --------------------------------------------------------

_FLEET_LOCK = threading.Lock()
_FLEET: Optional[ClusterDriver] = None


def _shared_fleet(num_workers: int) -> ClusterDriver:
    """Return (creating lazily) the shared fleet of ``num_workers``.

    At most one fleet stays alive: asking for a different size evicts
    the stale one, so alternating runtimes with different sizes cannot
    accumulate idle worker daemons.  Workers only start on the first
    dispatch, so creating the driver under the lock is cheap.
    """
    global _FLEET
    stale = None
    with _FLEET_LOCK:
        if _FLEET is None or _FLEET.num_workers != num_workers:
            stale = _FLEET
            _FLEET = ClusterDriver(num_workers=num_workers)
        fleet = _FLEET
    if stale is not None:  # shutdown outside the lock; it can block
        stale.shutdown(wait=False)
    return fleet


def _peek_fleet(num_workers: int) -> Optional[ClusterDriver]:
    """The shared fleet if it has ``num_workers`` — without creating one."""
    with _FLEET_LOCK:
        if _FLEET is not None and _FLEET.num_workers == num_workers:
            return _FLEET
    return None


def _evict_fleet(num_workers: Optional[int], wait: bool = False) -> None:
    """Shut the shared fleet down if its size is ``num_workers``
    (whatever its size when ``None``)."""
    global _FLEET
    with _FLEET_LOCK:
        fleet = _FLEET
        if fleet is None or (
            num_workers is not None and fleet.num_workers != num_workers
        ):
            return
        _FLEET = None
    fleet.shutdown(wait=wait)


def shutdown_fleet() -> None:
    """Reap the shared fleet, if any (``shutdown_shared_pools`` calls it)."""
    _evict_fleet(None, wait=True)


class ClusterExecutor(Executor):
    """Run tasks on a shared localhost worker fleet over TCP frames.

    Task functions, jobs (including side data), and all records must
    be picklable: task units cross a process boundary.
    """

    name = "cluster"
    picklable_tasks = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers or _default_cluster_workers()

    def _driver(self) -> ClusterDriver:
        return _shared_fleet(self.max_workers)

    def _peek_driver(self) -> Optional[ClusterDriver]:
        """The shared driver if it exists — without creating one."""
        return _peek_fleet(self.max_workers)

    # -- the Executor contract ---------------------------------------------

    def run_tasks(
        self, fn: Callable, tasks: Sequence[Tuple]
    ) -> List[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        return self._driver().run_tasks(fn, tasks)

    def run_tasks_speculative(
        self, fn: Callable, tasks: Sequence[Tuple], timeout: float
    ) -> Tuple[List[Any], int]:
        tasks = list(tasks)
        if not tasks:
            return [], 0
        return self._driver().run_tasks_speculative(fn, tasks, timeout)

    def close(self) -> None:
        _evict_fleet(self.max_workers)

    # -- recovery meters (proxied from the shared driver) -------------------

    @property
    def pool_respawns(self) -> int:
        driver = self._peek_driver()
        return driver.pool_respawns if driver is not None else 0

    @property
    def resubmitted_tasks(self) -> int:
        driver = self._peek_driver()
        return driver.resubmitted_tasks if driver is not None else 0

    @property
    def last_task_workers(self) -> List[Optional[int]]:
        """Worker slot per accepted result of the latest dispatch."""
        driver = self._peek_driver()
        return driver.last_task_workers if driver is not None else []

    def publish_metrics(self, registry: Any) -> None:
        """Export fleet health as (volatile) telemetry gauges.

        Task→worker assignment is timing-dependent, so everything here
        is a gauge — excluded from the bit-identity contract by
        ``strip_volatile_counters`` wholesale.
        """
        driver = self._peek_driver()
        if driver is None:
            return
        stats = driver.worker_stats()
        registry.gauge("cluster", "workers").set(stats["workers"])
        registry.gauge("cluster", "worker.respawns").set(
            stats["respawns"]
        )
        registry.gauge("cluster", "task.resubmits").set(
            stats["resubmits"]
        )
        registry.gauge("cluster", "queue_depth.highwater").set(
            stats["queue_depth_highwater"]
        )
        for slot, count in sorted(stats["tasks_by_worker"].items()):
            registry.gauge("cluster", f"worker.{slot}.tasks").set(
                count
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterExecutor(max_workers={self.max_workers})"
