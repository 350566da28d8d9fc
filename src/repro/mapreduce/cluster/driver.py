"""The cluster driver: task assignment, supervision, and recovery.

:class:`ClusterDriver` owns a fleet of worker daemon processes (see
:mod:`~repro.mapreduce.cluster.worker`) and plays the JobTracker role:
it assigns task units to workers over the frame protocol, pings every
worker on a heartbeat cadence, declares silent workers dead and
re-executes their in-flight tasks elsewhere, respawns dead workers
(each into a fresh generation directory), and races straggling tasks
with speculative backup attempts.  Every task result returns inline
on the worker's control connection.

The driver is *also* the shared fleet behind ``backend="cluster"``
(see :mod:`~repro.mapreduce.cluster.executor`), and its
``pool_respawns`` / ``resubmitted_tasks`` lifetime meters feed the
runtime's recovery metering (``pool.respawns`` / ``task.resubmits`` in
the volatile ``faults`` group).

Dispatch model
--------------

One dispatch at a time (the runtime is phase-synchronous anyway): the
batch becomes a shared pending deque, one driver-side serving thread
per worker pulls from it, executes over that worker's control
connection, and stores the outcome under the task's index — so results
come back in input order and the first task-order failure raises,
preserving the backend bit-identity contract.  A thread whose
interaction fails (connection drop, worker death) re-queues
the task and runs recovery on its worker: reconnect if the process is
alive (a dropped frame), respawn it if not, giving up with
:class:`WorkerDied` once the dispatch's respawn budget is spent.

When the batch completes while a discarded attempt is still running
(a speculative loser, or a task re-executed past a slow primary), the
driver *abandons* it: the worker's control connection is closed —
unblocking the serving thread — and lazily reopened on the next
dispatch.  The worker finishes the attempt, fails to reply into the
closed socket, and simply keeps serving; its result was never going to
be read.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import shutil
import socket as _socket
import tempfile
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutorError
from .heartbeat import DEAD, HeartbeatMonitor
from .protocol import (
    _MAX_PAYLOAD,
    ProtocolError,
    connect,
    recv_frame,
    request,
    send_frame,
)
from .worker import READY_FILE, worker_main

__all__ = ["ClusterDriver", "TaskLost", "WorkerDied"]


class TaskLost(ConnectionError):
    """A task attempt's result is unrecoverable (dead worker, dropped
    frame, undecodable reply); the task will be re-executed."""


class WorkerDied(ExecutorError):
    """Workers kept dying past the dispatch's respawn budget."""


def _default_cluster_workers() -> int:
    # Each worker is a full daemon process with its own socket server,
    # so the fleet stays small even on many-core machines.
    return min(os.cpu_count() or 1, 4)


class _WorkerHandle:
    """Driver-side bookkeeping for one worker slot."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.generation = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        #: This generation's private directory (holds the worker's
        #: ``ready.json`` announcement).
        self.generation_dir: Optional[str] = None
        #: Serializes respawn/declare-dead decisions for this slot.
        self.lock = threading.Lock()
        #: Guards the socket attributes (assigned and closed from
        #: different threads).
        self.sock_lock = threading.Lock()
        self.control: Optional[Any] = None
        self.ping: Optional[Any] = None
        #: True while a serving thread is inside a task interaction —
        #: tells the abandonment path which connections to sever.
        self.in_flight = False
        #: Generation already declared dead (so the heartbeat kills a
        #: wedged worker once, not every cadence tick).
        self.dead_generation = -1

    def close_sockets(self) -> None:
        with self.sock_lock:
            for attr in ("control", "ping"):
                sock = getattr(self, attr)
                if sock is not None:
                    try:
                        # shutdown() before close(): close() alone
                        # does not wake another thread blocked in
                        # recv() on this socket.
                        sock.shutdown(_socket.SHUT_RDWR)
                    except OSError:
                        pass
                    try:
                        sock.close()
                    except OSError:
                        pass
                    setattr(self, attr, None)


class _Dispatch:
    """Shared state of one batch: the pending queue and the outcomes."""

    def __init__(self, frames: List[bytes], respawn_budget: int) -> None:
        self.frames = frames
        count = len(frames)
        self.pending: deque = deque(
            (index, 0) for index in range(count)
        )
        self.done = [False] * count
        self.outcomes: List[Any] = [None] * count
        self.workers: List[Optional[int]] = [None] * count
        self.failures = [0] * count
        self.completed = 0
        self.wins = 0
        self.resubmits = 0
        self.respawns_left = respawn_budget
        self.finished = False
        self.abandoned = False
        self.failure: Optional[BaseException] = None
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)


class ClusterDriver:
    """Supervise a localhost worker fleet and execute task batches.

    Parameters
    ----------
    num_workers:
        Fleet size (default: ``min(cpu_count, 4)``).
    heartbeat_interval, miss_limit:
        Ping cadence and the silent-interval budget before a worker is
        declared dead (see :class:`~repro.mapreduce.cluster.heartbeat.
        HeartbeatMonitor`).
    max_worker_respawns:
        Worker deaths tolerated per dispatch before the batch fails
        with :class:`WorkerDied`.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        heartbeat_interval: float = 0.5,
        miss_limit: int = 10,
        max_worker_respawns: int = 6,
        connect_timeout: float = 10.0,
        start_timeout: float = 20.0,
        max_task_failures: int = 10,
    ) -> None:
        self.num_workers = num_workers or _default_cluster_workers()
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        self.max_worker_respawns = max_worker_respawns
        self.connect_timeout = connect_timeout
        self.start_timeout = start_timeout
        self.max_task_failures = max_task_failures
        #: Lifetime recovery meters, read by the runtime's
        #: before/after delta metering of each dispatch.
        self.pool_respawns = 0
        self.resubmitted_tasks = 0
        #: Worker slot that produced each accepted result of the most
        #: recent dispatch (for span attribution / telemetry).
        self.last_task_workers: List[Optional[int]] = []
        #: Lifetime accepted-result counts per worker slot.
        self.tasks_by_worker: Dict[int, int] = {}
        #: High-water mark of the pending queue (telemetry gauge).
        self.queue_depth_highwater = 0

        self._start_lock = threading.Lock()
        self._dispatch_lock = threading.Lock()
        self._handles: List[_WorkerHandle] = []
        self._ctx = multiprocessing.get_context()
        self._fleet_root: Optional[str] = None
        self._monitor: Optional[HeartbeatMonitor] = None
        self._mon_lock = threading.Lock()
        self._stop: Optional[threading.Event] = None
        self._hb_thread: Optional[threading.Thread] = None

    # -- fleet lifecycle ---------------------------------------------------

    def _ensure_started(self) -> None:
        with self._start_lock:
            if self._handles:
                return
            self._fleet_root = tempfile.mkdtemp(prefix="repro-cluster-")
            self._monitor = HeartbeatMonitor(
                self.heartbeat_interval, self.miss_limit
            )
            handles = [
                _WorkerHandle(slot) for slot in range(self.num_workers)
            ]
            for handle in handles:  # launch the whole fleet first ...
                self._launch(handle)
            for handle in handles:  # ... then collect readiness
                self._finish_spawn(handle)
            self._handles = handles
            self._stop = threading.Event()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-cluster-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()

    def _launch(self, handle: _WorkerHandle) -> None:
        handle.generation += 1
        handle.generation_dir = os.path.join(
            self._fleet_root,
            f"w{handle.slot}-g{handle.generation}",
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.slot, handle.generation, handle.generation_dir),
            name=f"repro-cluster-w{handle.slot}",
            daemon=True,
        )
        process.start()
        handle.process = process

    def _finish_spawn(self, handle: _WorkerHandle) -> None:
        port, pid = self._await_ready(handle)
        handle.port = port
        handle.pid = pid
        with self._mon_lock:
            self._monitor.reset(handle.slot, time.monotonic())

    def _await_ready(self, handle: _WorkerHandle) -> Tuple[int, int]:
        """Wait for the worker's ``ready.json`` announcement.

        Readiness is a file rename into the generation's private
        directory, not a shared queue: no cross-process lock exists for
        a SIGKILLed sibling to wedge, and concurrent respawns cannot
        interleave announcements.  A worker that dies *during* startup
        is reported immediately (with its exit code) instead of being
        waited out.
        """
        deadline = time.monotonic() + self.start_timeout
        path = os.path.join(handle.generation_dir, READY_FILE)
        while True:
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    info = json.load(stream)
            except (OSError, ValueError):
                info = None
            if info is not None:
                return int(info["port"]), int(info["pid"])
            process = handle.process
            if process is not None and not process.is_alive():
                try:  # it may have announced just before dying
                    with open(path, "r", encoding="utf-8") as stream:
                        info = json.load(stream)
                except (OSError, ValueError):
                    raise ExecutorError(
                        f"cluster worker {handle.slot} (generation "
                        f"{handle.generation}) died during startup "
                        f"(exit code {process.exitcode})"
                    ) from None
                return int(info["port"]), int(info["pid"])
            if time.monotonic() > deadline:
                raise ExecutorError(
                    f"cluster worker {handle.slot} (generation "
                    f"{handle.generation}) failed to start within "
                    f"{self.start_timeout}s"
                )
            time.sleep(0.005)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the heartbeat, ask workers to exit, reap stragglers.

        ``wait=False`` gives workers a shorter grace period before they
        are killed.  Safe to invoke repeatedly.
        """
        with self._start_lock:
            handles, self._handles = self._handles, []
            stop, self._stop = self._stop, None
            hb_thread, self._hb_thread = self._hb_thread, None
            fleet_root, self._fleet_root = self._fleet_root, None
        if not handles:
            return
        if stop is not None:
            stop.set()
        if hb_thread is not None:
            hb_thread.join(timeout=2.0)
        for handle in handles:
            handle.close_sockets()
            if handle.port is not None:
                try:
                    sock = connect(handle.port, timeout=0.5)
                    try:
                        request(sock, {"op": "shutdown"})
                    finally:
                        sock.close()
                except Exception:
                    pass  # already gone; the join below reaps it
        grace = 1.0 if wait else 0.2
        for handle in handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=grace)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        if fleet_root is not None:
            shutil.rmtree(fleet_root, ignore_errors=True)

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        stop = self._stop
        while stop is not None and not stop.wait(self.heartbeat_interval):
            for handle in list(self._handles):
                if handle.process is None:
                    continue
                pong = self._ping(handle)
                now = time.monotonic()
                with self._mon_lock:
                    monitor = self._monitor
                    if monitor is None:
                        return
                    if pong:
                        monitor.beat(handle.slot, now)
                    state = monitor.state(handle.slot, now)
                if (
                    state == DEAD
                    and handle.dead_generation != handle.generation
                ):
                    handle.dead_generation = handle.generation
                    self._declare_dead(handle)

    def _ping(self, handle: _WorkerHandle) -> bool:
        try:
            with handle.sock_lock:
                sock = handle.ping
            if sock is None:
                sock = connect(
                    handle.port, timeout=self.heartbeat_interval
                )
                sock.settimeout(max(self.heartbeat_interval, 0.2))
                with handle.sock_lock:
                    handle.ping = sock
            header, _ = request(sock, {"op": "ping"})
            return header.get("op") == "pong"
        except (OSError, ProtocolError):
            with handle.sock_lock:
                if handle.ping is not None:
                    try:
                        handle.ping.close()
                    except OSError:
                        pass
                    handle.ping = None
            return False

    def _declare_dead(self, handle: _WorkerHandle) -> None:
        """Kill a silent worker and sever its connections.

        The sever is the load-bearing part: it unblocks any serving
        thread waiting on the wedged worker's reply, which re-queues
        the task and respawns the slot through the normal recovery
        path.
        """
        with handle.lock:
            process = handle.process
            if process is not None and process.is_alive():
                try:
                    process.kill()
                except Exception:
                    pass
            handle.close_sockets()

    # -- dispatch ----------------------------------------------------------

    def run_tasks(
        self, fn: Callable, tasks: Sequence[Tuple]
    ) -> List[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        outcomes, _ = self._dispatch(fn, tasks, timeout=None)
        return _unwrap(outcomes)

    def run_tasks_speculative(
        self, fn: Callable, tasks: Sequence[Tuple], timeout: float
    ) -> Tuple[List[Any], int]:
        tasks = list(tasks)
        if not tasks:
            return [], 0
        outcomes, wins = self._dispatch(fn, tasks, timeout=timeout)
        return _unwrap(outcomes), wins

    def _dispatch(
        self,
        fn: Callable,
        tasks: List[Tuple],
        timeout: Optional[float],
    ) -> Tuple[List[Any], int]:
        self._ensure_started()
        frames: List[bytes] = []
        name = getattr(fn, "__name__", str(fn))
        for task in tasks:
            try:
                frame = pickle.dumps(
                    (fn, tuple(task)), pickle.HIGHEST_PROTOCOL
                )
            except Exception as exc:
                raise ExecutorError(
                    f"cluster backend could not serialize a task for "
                    f"{name!r}: {exc} (jobs, side data, and records "
                    "must be picklable — define jobs at module level)"
                ) from exc
            if len(frame) > _MAX_PAYLOAD:
                raise ExecutorError(
                    f"cluster backend: a task for {name!r} pickles to "
                    f"{len(frame)} bytes, over the {_MAX_PAYLOAD}-byte "
                    "frame payload limit"
                )
            frames.append(frame)
        with self._dispatch_lock:
            dispatch = _Dispatch(frames, self.max_worker_respawns)
            self.queue_depth_highwater = max(
                self.queue_depth_highwater, len(frames)
            )
            threads = [
                threading.Thread(
                    target=self._serve,
                    args=(handle, dispatch),
                    name=f"repro-cluster-serve-w{handle.slot}",
                    daemon=True,
                )
                for handle in self._handles
            ]
            for thread in threads:
                thread.start()
            try:
                if timeout is not None:
                    self._speculate(dispatch, timeout)
                with dispatch.cond:
                    while (
                        not dispatch.finished
                        and dispatch.failure is None
                    ):
                        dispatch.cond.wait(0.1)
            finally:
                self._abandon(dispatch)
                for thread in threads:
                    thread.join(timeout=2.0)
            self.resubmitted_tasks += dispatch.resubmits
            self.last_task_workers = list(dispatch.workers)
            for slot in dispatch.workers:
                if slot is not None:
                    self.tasks_by_worker[slot] = (
                        self.tasks_by_worker.get(slot, 0) + 1
                    )
            if dispatch.failure is not None:
                raise dispatch.failure
            return dispatch.outcomes, dispatch.wins

    def _speculate(self, dispatch: _Dispatch, timeout: float) -> None:
        """After ``timeout`` seconds, enqueue backups for stragglers."""
        deadline = time.monotonic() + timeout
        with dispatch.cond:
            while not dispatch.finished and dispatch.failure is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                dispatch.cond.wait(min(remaining, 0.1))
            if dispatch.finished or dispatch.failure is not None:
                return
            for index in range(len(dispatch.frames)):
                if not dispatch.done[index]:
                    dispatch.pending.append((index, 1))
            dispatch.cond.notify_all()

    def _abandon(self, dispatch: _Dispatch) -> None:
        """Release serving threads still waiting on discarded attempts."""
        with dispatch.cond:
            dispatch.abandoned = True
            dispatch.cond.notify_all()
        for handle in self._handles:
            if handle.in_flight:
                handle.close_sockets()

    def _serve(self, handle: _WorkerHandle, dispatch: _Dispatch) -> None:
        """One worker's serving loop: pull, execute, store, recover."""
        while True:
            with dispatch.cond:
                while (
                    not dispatch.pending
                    and not dispatch.finished
                    and not dispatch.abandoned
                    and dispatch.failure is None
                ):
                    dispatch.cond.wait(0.1)
                if (
                    dispatch.finished
                    or dispatch.abandoned
                    or dispatch.failure is not None
                ):
                    return
                index, attempt = dispatch.pending.popleft()
                if dispatch.done[index]:
                    continue
            try:
                outcome, produced_by = self._execute(
                    handle, dispatch, index, attempt
                )
            except ExecutorError as exc:
                with dispatch.cond:
                    if dispatch.failure is None:
                        dispatch.failure = exc
                    dispatch.cond.notify_all()
                return
            except (TaskLost, ProtocolError, OSError) as exc:
                with dispatch.cond:
                    if dispatch.abandoned or dispatch.finished:
                        return
                    if not dispatch.done[index]:
                        dispatch.failures[index] += 1
                        if (
                            dispatch.failures[index]
                            >= self.max_task_failures
                        ):
                            dispatch.failure = WorkerDied(
                                f"cluster backend: task {index} failed "
                                f"{dispatch.failures[index]} times "
                                f"(last: {exc})"
                            )
                            dispatch.cond.notify_all()
                            return
                        dispatch.pending.append((index, attempt))
                        dispatch.resubmits += 1
                        dispatch.cond.notify_all()
                try:
                    self._recover(handle, dispatch)
                except ExecutorError as budget_exc:
                    with dispatch.cond:
                        if dispatch.failure is None:
                            dispatch.failure = budget_exc
                        dispatch.cond.notify_all()
                    return
                continue
            with dispatch.cond:
                if not dispatch.done[index]:
                    dispatch.done[index] = True
                    dispatch.outcomes[index] = outcome
                    dispatch.workers[index] = produced_by
                    if attempt > 0:
                        dispatch.wins += 1
                    dispatch.completed += 1
                    if dispatch.completed == len(dispatch.frames):
                        dispatch.finished = True
                dispatch.cond.notify_all()

    def _execute(
        self,
        handle: _WorkerHandle,
        dispatch: _Dispatch,
        index: int,
        attempt: int,
    ) -> Tuple[Any, int]:
        """One task interaction: send, await, decode."""
        handle.in_flight = True
        try:
            sock = self._control(handle)
            send_frame(
                sock,
                {"op": "task", "id": f"{index}.{attempt}"},
                dispatch.frames[index],
            )
            header, payload = recv_frame(sock)
            if header.get("op") == "error":
                kind = header.get("kind", "error")
                hint = (
                    ""
                    if kind == "oversized"
                    else " (jobs, side data, records, and results must "
                    "be picklable)"
                )
                raise ExecutorError(
                    f"cluster backend could not execute a task "
                    f"({kind}): {header.get('detail')}{hint}"
                )
            try:
                outcome = pickle.loads(payload)
            except Exception as exc:
                raise TaskLost(
                    f"undecodable result for task {index}: {exc}"
                ) from exc
            return outcome, int(header.get("worker", handle.slot))
        finally:
            handle.in_flight = False

    def _control(self, handle: _WorkerHandle) -> Any:
        with handle.sock_lock:
            sock = handle.control
        if sock is not None:
            return sock
        sock = connect(handle.port, timeout=self.connect_timeout)
        sock.settimeout(None)  # task replies take as long as tasks do
        with handle.sock_lock:
            handle.control = sock
        return sock

    def _recover(
        self, handle: _WorkerHandle, dispatch: _Dispatch
    ) -> bool:
        """Bring a failed worker slot back; returns True on respawn.

        A live process whose connection dropped (injected frame drop,
        severed socket) is simply reconnected.  A dead process is
        respawned with a fresh generation — new port, new generation
        directory — consuming one unit of the dispatch's respawn
        budget; past the budget the dispatch fails with
        :class:`WorkerDied`.
        """
        with handle.lock:
            handle.close_sockets()
            process = handle.process
            if process is not None and process.is_alive():
                try:
                    sock = connect(handle.port, timeout=1.0)
                except OSError:
                    try:  # listening socket gone: the worker is toast
                        process.kill()
                    except Exception:
                        pass
                else:
                    sock.settimeout(None)
                    with handle.sock_lock:
                        handle.control = sock
                    return False
            if process is not None:
                process.join(timeout=2.0)
            with dispatch.cond:
                if dispatch.respawns_left <= 0:
                    raise WorkerDied(
                        "cluster backend: workers kept dying after "
                        f"{self.max_worker_respawns} respawns"
                    )
                dispatch.respawns_left -= 1
            self._launch(handle)
            self._finish_spawn(handle)
            self.pool_respawns += 1
            return True

    # -- telemetry ---------------------------------------------------------

    def worker_stats(self) -> Dict[str, Any]:
        """A snapshot for the telemetry plane (volatile by nature)."""
        return {
            "workers": self.num_workers,
            "respawns": self.pool_respawns,
            "resubmits": self.resubmitted_tasks,
            "queue_depth_highwater": self.queue_depth_highwater,
            "tasks_by_worker": dict(self.tasks_by_worker),
        }

    def worker_pids(self) -> List[Optional[int]]:
        """Current worker PIDs (tests use this to aim chaos)."""
        return [handle.pid for handle in self._handles]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterDriver(num_workers={self.num_workers}, "
            f"started={bool(self._handles)}, "
            f"respawns={self.pool_respawns})"
        )


def _unwrap(outcomes: List[Any]) -> List[Any]:
    """Turn ``(ok, value)`` outcomes into results, raising the first
    task-order failure — the cross-backend error determinism rule."""
    results = []
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results
