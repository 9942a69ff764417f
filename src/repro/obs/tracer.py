"""Nested span tracer with a strict no-op fast path when disabled.

A :class:`Tracer` records *spans* (timed, nested regions of execution)
and *events* (instants) into an in-memory buffer that the exporters in
:mod:`repro.obs.export` turn into Chrome trace-event / Perfetto JSON or
a JSONL event log.  Usage::

    from repro.obs import trace

    with trace.span("run_layer", layer=layer.name):
        ...
    trace.event("retry", attempt=2)

Design constraints, in priority order:

* **Disabled is free.**  The default-constructed tracer is disabled;
  ``span()`` then returns a shared singleton whose ``__enter__`` /
  ``__exit__`` do nothing, and ``event()`` returns immediately.  The
  only per-call cost on the hot path is one attribute check.
* **Nesting is exact.**  Spans form a stack per thread; each finished
  span knows its depth and its *self time* (duration minus the summed
  duration of its direct children), which is what ``repro stats`` ranks
  by.
* **Thread-tolerant.**  The robust executor runs points on worker
  threads when a timeout is set; span stacks are thread-local and the
  record buffer is guarded by a lock taken only at span exit.

Beyond recording, the tracer supports three integration hooks used by
the operational-observability layer:

* **Bound context** (:meth:`Tracer.bind` / :meth:`Tracer.bound`) — a
  thread-local attribute dict (e.g. a request correlation ID) merged
  into every span/event recorded on that thread, so one ``bind`` at a
  request boundary stamps every nested segment without threading the
  ID through call signatures.
* **Listeners** (:meth:`Tracer.add_listener`) — callbacks invoked with
  each finished :class:`SpanRecord`; the crash flight recorder uses
  this to keep its bounded ring without a second instrumentation pass.
* **Synthesized spans** (:meth:`Tracer.add_span`) — inject segments
  whose duration is known only after the fact (queue wait).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Union

#: Phase tags, following the Chrome trace-event format.
PHASE_COMPLETE = "X"  # a span with a duration
PHASE_INSTANT = "i"   # a point-in-time event


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (or instant event) as recorded by the tracer.

    Timestamps are ``time.perf_counter_ns()`` values relative to the
    tracer's epoch, so they start near zero and are monotonic within a
    run.
    """

    name: str
    category: str
    start_ns: int
    duration_ns: int
    self_ns: int
    thread_id: int
    depth: int
    phase: str = PHASE_COMPLETE
    args: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


#: Singleton no-op span: the entire cost of a disabled ``with`` block.
NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself on the owning tracer at exit."""

    __slots__ = ("_tracer", "name", "category", "args", "start_ns",
                 "_child_ns", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.start_ns = 0
        self._child_ns = 0
        self._parent: Optional[_Span] = None
        self._depth = 0

    def set(self, **attrs: Any) -> "_Span":
        """Attach extra attributes to this span (chains)."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        duration = end_ns - self.start_ns
        if self._parent is not None:
            self._parent._child_ns += duration
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        bound = getattr(self._tracer._local, "context", None)
        if bound:
            for key, value in bound.items():
                self.args.setdefault(key, value)
        self._tracer._record(
            SpanRecord(
                name=self.name,
                category=self.category,
                start_ns=self.start_ns - self._tracer.epoch_ns,
                duration_ns=duration,
                self_ns=duration - self._child_ns,
                thread_id=threading.get_ident(),
                depth=self._depth,
                phase=PHASE_COMPLETE,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Collects :class:`SpanRecord` objects for one process run."""

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._records: Union[List[SpanRecord], Deque[SpanRecord]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._listeners: List[Callable[[SpanRecord], None]] = []
        self._max_records: Optional[int] = None
        self.epoch_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        """Drop all recorded spans and restart the epoch."""
        with self._lock:
            if self._max_records is not None:
                self._records = deque(maxlen=self._max_records)
            else:
                self._records = []
        self.epoch_ns = time.perf_counter_ns()

    def limit_records(self, limit: Optional[int]) -> None:
        """Bound the record buffer to the newest ``limit`` spans.

        Long-lived processes (the daemon, an armed flight recorder with
        no ``--trace`` sink) enable tracing indefinitely; a bounded
        buffer keeps memory flat while the newest spans — the ones a
        postmortem wants — survive.  ``None`` restores the unbounded
        buffer.  Existing records are preserved (newest kept on
        shrink).
        """
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            self._max_records = limit
            if limit is None:
                self._records = list(self._records)
            else:
                self._records = deque(self._records, maxlen=limit)

    # ------------------------------------------------------------------
    # Bound context & listeners
    # ------------------------------------------------------------------
    def bind(self, **attrs: Any) -> None:
        """Merge ``attrs`` into this thread's bound context.

        Bound attributes are added (``setdefault`` — explicit span args
        win) to every span and event recorded on this thread until
        :meth:`unbind`.  Used to stamp a correlation ID across every
        segment of one request.
        """
        context = getattr(self._local, "context", None)
        if context is None:
            context = self._local.context = {}
        context.update(attrs)

    def unbind(self, *names: str) -> None:
        """Remove ``names`` from this thread's bound context (all if empty)."""
        context = getattr(self._local, "context", None)
        if not context:
            return
        if not names:
            context.clear()
            return
        for name in names:
            context.pop(name, None)

    def bound(self, **attrs: Any):
        """Context manager form of :meth:`bind`; restores prior values."""
        return _BoundContext(self, attrs)

    def context(self) -> Dict[str, Any]:
        """A copy of this thread's bound context."""
        return dict(getattr(self._local, "context", None) or {})

    def add_listener(self, listener: Callable[[SpanRecord], None]) -> None:
        """Invoke ``listener`` with every record as it is recorded."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[SpanRecord], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, /, category: str = "repro", **args: Any):
        """A context manager timing one nested region.

        Disabled tracers return the shared :data:`NULL_SPAN` singleton
        without allocating anything.
        """
        if not self._enabled:
            return NULL_SPAN
        return _Span(self, name, category, args)

    def event(self, name: str, /, category: str = "repro", **args: Any) -> None:
        """Record an instantaneous event at the current nesting depth."""
        if not self._enabled:
            return
        stack = self._stack()
        bound = getattr(self._local, "context", None)
        if bound:
            for key, value in bound.items():
                args.setdefault(key, value)
        self._record(
            SpanRecord(
                name=name,
                category=category,
                start_ns=time.perf_counter_ns() - self.epoch_ns,
                duration_ns=0,
                self_ns=0,
                thread_id=threading.get_ident(),
                depth=len(stack),
                phase=PHASE_INSTANT,
                args=args,
            )
        )

    def add_span(
        self,
        name: str,
        start_ns: int,
        duration_ns: int,
        /,
        category: str = "repro",
        **args: Any,
    ) -> None:
        """Synthesize a span whose timing is known only after the fact.

        Used for segments that are not a ``with`` block in any single
        thread — e.g. a job's queue wait, measured between enqueue and
        dispatch.  ``start_ns`` is relative to this tracer's epoch.
        """
        if not self._enabled:
            return
        bound = getattr(self._local, "context", None)
        if bound:
            for key, value in bound.items():
                args.setdefault(key, value)
        self._record(
            SpanRecord(
                name=name,
                category=category,
                start_ns=start_ns,
                duration_ns=duration_ns,
                self_ns=duration_ns,
                thread_id=threading.get_ident(),
                depth=0,
                phase=PHASE_COMPLETE,
                args=args,
            )
        )

    def now_ns(self) -> int:
        """The current time, relative to this tracer's epoch."""
        return time.perf_counter_ns() - self.epoch_ns

    def records(self) -> List[SpanRecord]:
        """A snapshot copy of everything recorded so far."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
        # Listeners run outside the lock: a listener that itself records
        # (or takes its own lock) must not deadlock the tracer.
        for listener in list(self._listeners):
            try:
                listener(record)
            except Exception:
                pass


#: Sentinel distinguishing "key absent" from "key bound to None".
_MISSING = object()


class _BoundContext:
    """Scope guard for :meth:`Tracer.bound`; restores shadowed values."""

    __slots__ = ("_tracer", "_attrs", "_saved")

    def __init__(self, tracer: Tracer, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._attrs = attrs
        self._saved: Dict[str, Any] = {}

    def __enter__(self) -> "_BoundContext":
        context = getattr(self._tracer._local, "context", None)
        if context is None:
            context = self._tracer._local.context = {}
        self._saved = {key: context.get(key, _MISSING) for key in self._attrs}
        context.update(self._attrs)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        context = getattr(self._tracer._local, "context", None)
        if context is not None:
            for key, value in self._saved.items():
                if value is _MISSING:
                    context.pop(key, None)
                else:
                    context[key] = value
        return False
