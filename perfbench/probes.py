"""Span recording at module boundaries, from outside the program.

Every probe here wraps a *public* entry point of one module instance
(``MapReduceRuntime.run``/``run_iter``/``run_stateful``,
``Executor.run_tasks``, ``OnlineMatcher.flush``,
``MatchingService.submit_event``) or a whole ``FileSystem`` (passed to
the runtime as ``storage=``).  Nothing under ``src/`` is modified; the
wrappers live on the instances the benchmark builds, so the untimed
instances of a traced run stay untouched.

Spans carry a name, start, end and parent, are kept in memory and are
written out by the runner when it exits.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.mapreduce.storage import FileSystem

__all__ = [
    "Recorder",
    "Span",
    "TimingFileSystem",
    "layer_of",
    "self_times",
    "wrap_method",
]


@dataclass
class Span:
    """One timed call at a module boundary."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Recorder:
    """In-memory span store with one parent stack per thread.

    The serving workload calls the matcher from a worker thread while
    the event loop keeps submitting, so parentage must follow each
    thread's own call structure.  Spans for awaited coroutines (one
    event's submit-to-converged) interleave on the loop thread and are
    recorded flat with :meth:`record` instead.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, parent: Optional[int],
             attrs: Dict[str, Any]) -> Span:
        with self._lock:
            span = Span(self._next_id, parent, name, start, attrs=attrs)
            self._next_id += 1
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        span = self._new(
            name, time.perf_counter(), stack[-1] if stack else None, attrs
        )
        stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float,
               **attrs: Any) -> Span:
        """A root span whose interval was measured by the caller."""
        span = self._new(name, start, None, attrs)
        span.end = end
        return span

    def clear(self) -> List[Span]:
        """Hand over the spans recorded so far and start afresh."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def wrap_method(obj: Any, attr: str, recorder: Recorder, name: str,
                count_arg: Optional[int] = None) -> None:
    """Replace ``obj.attr`` on the instance by a span-recording wrapper.

    ``count_arg`` names a positional argument whose ``len`` is kept on
    the span as ``items`` (the task count of an executor dispatch).
    """
    inner = getattr(obj, attr)

    @functools.wraps(inner)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        attrs = {}
        if count_arg is not None:
            attrs["items"] = len(args[count_arg])
        with recorder.span(name, **attrs):
            return inner(*args, **kwargs)

    setattr(obj, attr, wrapper)


class TimingFileSystem(FileSystem):
    """Delegating filesystem that records one span per storage call.

    ``read_many`` and ``size`` are inherited, so they resolve through
    the timed ``read`` and ``du``.
    """

    def __init__(self, inner: FileSystem, recorder: Recorder) -> None:
        self.inner = inner
        self.recorder = recorder

    @property  # type: ignore[override]
    def name(self) -> str:
        return self.inner.name

    def write(self, path: str, records: Iterable, overwrite: bool = False):
        with self.recorder.span("storage.write"):
            return self.inner.write(path, records, overwrite=overwrite)

    def read(self, path: str):
        with self.recorder.span("storage.read"):
            return self.inner.read(path)

    def exists(self, path: str) -> bool:
        with self.recorder.span("storage.exists"):
            return self.inner.exists(path)

    def delete(self, path: str) -> None:
        with self.recorder.span("storage.delete"):
            self.inner.delete(path)

    def list_paths(self, prefix: str = "/"):
        with self.recorder.span("storage.list_paths"):
            return self.inner.list_paths(prefix)

    def du(self, path: Optional[str] = None):
        with self.recorder.span("storage.du"):
            return self.inner.du(path)

    def __getattr__(self, attr: str) -> Any:
        # Backend extras (LocalDiskFileSystem.root) stay reachable.
        return getattr(self.inner, attr)


#: Span name -> layer.  The three runtime entry points are one layer:
#: ``run`` delegates to ``run_iter``, and the nested span's time is
#: the runtime's either way.
_LAYERS = {
    "runtime.run": "runtime",
    "runtime.run_iter": "runtime",
    "runtime.run_stateful": "runtime",
    "executor.run_tasks": "executor",
}


def layer_of(name: str) -> str:
    return _LAYERS.get(name, name)


def _covered(start: float, end: float, intervals: List[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time per layer over a set of finished spans."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end)
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.seconds - _covered(
            span.start, span.end, children.get(span.span_id, [])
        )
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
