"""The telemetry facade: spans, events, and the active instance.

A :class:`Telemetry` bundles the three observability surfaces:

- a :class:`~repro.telemetry.registry.MetricsRegistry` of counters /
  gauges / histograms (Prometheus snapshot at :meth:`flush`);
- **spans** — ``with telemetry.span("runner.trace", workload="CG"):``
  wall-clock phase timers that nest, feed a per-name duration
  histogram, and emit JSONL events;
- **window collectors** — per-level time-series of a simulation stage
  (see :mod:`repro.telemetry.windows`, imported only when a collector
  is made), one ``window`` event per window, made durable when the
  stage finishes.

Instrumented library code does not thread a telemetry object through
every call; like :mod:`logging`, it asks for the *active* instance via
:func:`get_active`. The default is :data:`NULL_TELEMETRY`, whose spans
still measure time (so log lines keep real durations) but record
nothing and whose registry drops everything — disabled telemetry costs
a few method calls per pipeline *stage* and exactly one ``is not
None`` check per simulated chunk on the hot loop.

**Event fast path.** :meth:`Telemetry.event` does not format or write
anything: it appends a compact ``(ts, kind, seq, cell, fields)`` tuple
to a bounded in-memory spool (``seq`` is still assigned at enqueue
under the lock, so the exact ``(run, worker, seq)`` semantics and
resume continuation are unchanged). Label stamping and JSON
serialization happen lazily, in batch, when the spool drains — at
top-level span exits, cell-scope exits, :meth:`flush`/:meth:`close`,
and whenever the spool fills. A kill between drains loses only the
not-yet-drained tail; the batch write itself can tear at most the
final line, which :func:`~repro.telemetry.exporters.read_jsonl`
already tolerates.

**One writer per run directory.** A sweep's pool workers keep no
directory: each worker's telemetry spools into memory, and every ack
ships what it drained since the previous one (:meth:`Telemetry.ship`).
The parent writes the shipment through its own logs
(:meth:`Telemetry.receive`) and renders every worker's latest metrics
snapshot beside its own registry as one exposition
(:meth:`Telemetry.render_metrics`): the ``metrics.prom`` it writes and
the ``/metrics`` a live server answers with.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ConfigError
from repro.telemetry.exporters import JsonlEventLog, atomic_write_text
from repro.telemetry.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    render_snapshots,
)

if TYPE_CHECKING:
    from repro.telemetry.profiling import SamplingProfiler
    from repro.telemetry.windows import WindowedCollector, WindowRecord

#: Default profiler sampling rate (samples per second). Prime-ish on
#: purpose: a rate that divides common loop periods would alias with
#: them and systematically over- or under-sample a phase.
DEFAULT_HZ = 97.0

#: Bucket bounds for span/cell duration histograms (seconds).
SPAN_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0, 3600.0
)

#: File names inside a telemetry directory.
EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.prom"

#: Default window width in top-level references.
DEFAULT_WINDOW_REFS: int = 1 << 20

#: Event-spool capacity: the spool drains early when it reaches this
#: many pending events, bounding both memory and the kill-loss window
#: between span/cell boundary drains.
DEFAULT_SPOOL_EVENTS = 512


def new_run_id(wall_clock: Callable[[], float] = time.time) -> str:
    """A fresh run identifier: UTC timestamp + random suffix.

    The timestamp prefix keeps directory listings chronological; the
    random suffix keeps two campaigns started in the same second
    distinct.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(wall_clock()))
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class RunContext:
    """Correlation identity stamped into a run's artifacts.

    One sweep campaign is one *run*; with ``workers=N`` it spans N+1
    processes, whose telemetry the coordinating process writes into
    one directory. A :class:`RunContext` keeps each process's share
    distinguishable there: every event (and span event) carries
    ``run`` / ``worker`` / ``seq`` fields, every Prometheus sample
    carries ``run`` / ``worker`` labels, and journal entries record
    the ``run_id`` that produced them.

    Attributes:
        run_id: campaign identifier, shared by every process of the
            run (see :func:`new_run_id`).
        worker_id: which process recorded the artifact — ``"root"``
            for the coordinating process, ``"worker-N"`` for pool
            workers.
        cell_key: the sweep cell being evaluated, when inside one
            (stamped via :meth:`Telemetry.cell_scope`).
    """

    run_id: str
    worker_id: str = "root"
    cell_key: str | None = None

    def child(self, worker_id: str) -> "RunContext":
        """The same run as seen by one worker process."""
        return replace(self, worker_id=worker_id, cell_key=None)

    def labels(self) -> dict[str, str]:
        """The ``run`` / ``worker`` label pair for metric samples."""
        return {"run": self.run_id, "worker": self.worker_id}


class Span:
    """A wall-clock phase timer (context manager).

    Attributes:
        name: span name (namespaced, e.g. ``"runner.trace"``).
        meta: free-form labels attached at creation.
        duration_s: elapsed seconds; populated on exit (0.0 before).
        parent: enclosing span's name, set on entry (None at top level).
    """

    __slots__ = ("name", "meta", "duration_s", "parent", "_telemetry", "_start")

    def __init__(
        self, name: str, meta: dict, telemetry: "Telemetry | None"
    ) -> None:
        self.name = name
        self.meta = meta
        self.duration_s = 0.0
        self.parent: str | None = None
        self._telemetry = telemetry
        self._start = 0.0

    def __enter__(self) -> "Span":
        telemetry = self._telemetry
        if telemetry is not None:
            self.parent = telemetry._enter_span(self)
            clock = telemetry._clock
        else:
            clock = time.perf_counter
        self._start = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        telemetry = self._telemetry
        clock = telemetry._clock if telemetry is not None else time.perf_counter
        self.duration_s = clock() - self._start
        if telemetry is not None:
            telemetry._exit_span(self, failed=exc_type is not None)


class _Outbox:
    """A pool worker's stand-in for a telemetry directory.

    Event lines (through the :class:`JsonlEventLog` surface the spool
    drains to) and profile records (through ``append_many``, as the
    profiler writes them) wait here until :meth:`Telemetry.ship` hands
    them to the worker's next ack.
    """

    def __init__(self) -> None:
        self.events: list[str] = []
        self.profile: list[dict] = []

    def append_lines(self, lines: Iterable[str]) -> None:
        self.events.extend(lines)

    def append_many(self, records: Iterable[dict]) -> None:
        self.profile.extend(records)

    def flush(self) -> None:
        pass

    sync = close = flush

    def take(self) -> dict:
        """Everything held, as a shipment; the outbox starts empty."""
        shipment = {"events": self.events, "profile": self.profile}
        self.events, self.profile = [], []
        return shipment


class Telemetry:
    """Live telemetry: registry + spans + events + window collectors.

    Args:
        directory: where to write ``events.jsonl`` and
            ``metrics.prom``. None keeps everything in memory
            (registry and span accounting still work; events are
            dropped, except in a pool worker's :meth:`for_worker`
            telemetry, which ships them to its parent).
        registry: metrics registry (default: a fresh
            :class:`MetricsRegistry`).
        window_refs: default epoch width for window collectors.
        clock: monotonic clock for durations (tests inject a fake).
        wall_clock: wall time for event timestamps.
        run_context: correlation identity stamped into every event
            (``run`` / ``worker`` / ``seq``) and into the Prometheus
            snapshot's sample labels. None records nothing extra.
        spool_events: event-spool capacity (see the module docstring);
            1 restores the old flush-per-event behaviour.
    """

    enabled: bool = True

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        registry: MetricsRegistry | None = None,
        window_refs: int = DEFAULT_WINDOW_REFS,
        clock: Callable[[], float] = time.perf_counter,
        wall_clock: Callable[[], float] = time.time,
        run_context: RunContext | None = None,
        spool_events: int = DEFAULT_SPOOL_EVENTS,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.window_refs = int(window_refs)
        self.run_context = run_context
        self._clock = clock
        self._wall_clock = wall_clock
        self._events: JsonlEventLog | None = None
        self._seq = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            events_path = self.directory / EVENTS_FILE
            self._events = JsonlEventLog(events_path)
            # A resumed campaign appends to the same event log; seq
            # numbers continue past the existing lines so the
            # (run, worker, seq) key stays unique across resumes (a
            # torn trailing line still consumes its number).
            if events_path.exists():
                with open(events_path, "rb") as handle:
                    self._seq = sum(1 for _ in handle)
        self._stack = threading.local()
        self._collectors: list[WindowedCollector] = []
        self._lock = threading.Lock()
        #: Pending (ts, kind, seq, cell, fields) tuples, drained in
        #: batch by :meth:`_drain_events` (guarded by ``_lock``).
        self._spool: list[tuple] = []
        self._spool_limit = max(1, int(spool_events))
        #: Serializes batch writes so drained batches hit the log in
        #: the order their events were enqueued.
        self._drain_lock = threading.Lock()
        #: Per-thread live span-name stacks / active cell keys, keyed
        #: by thread ident. Unlike the thread-local ``_stack`` these
        #: are readable from *other* threads — the sampling profiler
        #: attributes each sampled thread's stack through them.
        self._thread_spans: dict[int, tuple[str, ...]] = {}
        self._thread_cells: dict[int, str] = {}
        self._profile: SamplingProfiler | None = None
        #: A pool worker's unshipped telemetry (see :meth:`for_worker`).
        self._outbox: _Outbox | None = None
        #: Each pool worker's latest metrics snapshot, by worker label
        #: (see :meth:`receive`).
        self._worker_metrics: dict[str, list[dict]] = {}

    @classmethod
    def for_worker(
        cls, run_context: RunContext, first_seq: int
    ) -> "Telemetry":
        """A pool worker's telemetry: no directory; its events and
        profile records wait in memory for :meth:`ship`.

        ``first_seq`` is the parent's :attr:`next_seq` at spawn, so a
        worker label that a later pool, or a resumed run, reuses never
        repeats a ``(worker, seq)`` already in the parent's log.
        """
        telemetry = cls(run_context=run_context)
        telemetry._seq = first_seq
        telemetry._outbox = telemetry._events = _Outbox()
        return telemetry

    @property
    def next_seq(self) -> int:
        """The ``seq`` of the next event: past every line of the log,
        the worker lines :meth:`receive` wrote included."""
        return self._seq

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **meta) -> Span:
        """A context-managed phase timer named ``name``."""
        return Span(name, meta, self)

    def _enter_span(self, span: Span) -> str | None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        parent = stack[-1].name if stack else None
        stack.append(span)
        self._thread_spans[threading.get_ident()] = tuple(
            s.name for s in stack
        )
        return parent

    def _exit_span(self, span: Span, failed: bool) -> None:
        stack = getattr(self._stack, "spans", [])
        if stack and stack[-1] is span:
            stack.pop()
        ident = threading.get_ident()
        if stack:
            self._thread_spans[ident] = tuple(s.name for s in stack)
        else:
            self._thread_spans.pop(ident, None)
        self.registry.counter("repro_spans_total", name=span.name).inc()
        self.registry.histogram(
            "repro_span_seconds", buckets=SPAN_SECONDS_BUCKETS, name=span.name
        ).observe(span.duration_s)
        event: dict = {
            "kind": "span",
            "name": span.name,
            "duration_s": round(span.duration_s, 9),
        }
        if span.parent is not None:
            event["parent"] = span.parent
        if failed:
            event["failed"] = True
        if span.meta:
            event.update(span.meta)
        self.event(**event)
        # A top-level span ending is a natural pipeline boundary: drain
        # the spool so artifacts on disk track stage completion.
        if not stack:
            self._drain_events()

    # -- events ---------------------------------------------------------

    def event(self, kind: str = "event", **fields) -> None:
        """Spool one timestamped event for the JSONL log (if any).

        With a :class:`RunContext`, every event is stamped with the
        correlation triple ``run`` / ``worker`` / ``seq`` (``seq`` is a
        per-directory monotone counter, continued across resumes) and,
        inside a :meth:`cell_scope`, with the active ``cell`` key.
        Explicit fields of the same name win.

        The hot path stops here: the timestamp, ``seq`` and the active
        cell are captured now, but label stamping and serialization are
        deferred to the next batch drain (see the module docstring).
        """
        if self._events is None:
            return
        ts = self._wall_clock()
        cell = getattr(self._stack, "cell", None)
        with self._lock:
            seq = self._seq
            self._seq += 1
            self._spool.append((ts, kind, seq, cell, fields))
            full = len(self._spool) >= self._spool_limit
        if full:
            self._drain_events()

    def _drain_events(self) -> None:
        """Format and write every spooled event as one batched append.

        The correlation labels are constant for the whole batch, so
        they are serialized *once* and spliced into each line as a raw
        fragment; only the varying fields pay a ``json.dumps`` per
        event. This is what keeps labelled events within a few percent
        of plain ones (see ``benchmarks/bench_telemetry_overhead.py``).
        """
        events = self._events
        if events is None:
            return
        with self._drain_lock:
            with self._lock:
                if not self._spool:
                    return
                pending, self._spool = self._spool, []
            context = self.run_context
            context_cell = context.cell_key if context is not None else None
            if context is not None:
                fragment = json.dumps(
                    {"run": context.run_id, "worker": context.worker_id},
                    sort_keys=True,
                )[1:-1] + ", "
            else:
                fragment = ""
            lines = []
            for item in pending:
                if isinstance(item, str):  # a worker's line, shipped whole
                    lines.append(item)
                    continue
                ts, kind, seq, cell, fields = item
                payload: dict = {"ts": ts, "kind": kind}
                if cell is None:
                    cell = context_cell
                if cell is not None:
                    payload["cell"] = cell
                payload["seq"] = seq
                payload.update(fields)
                body = json.dumps(payload, sort_keys=True, default=str)
                lines.append("{" + fragment + body[1:])
            events.append_lines(lines)

    @contextmanager
    def cell_scope(self, cell_key: str) -> Iterator[None]:
        """Stamp ``cell`` into every event emitted inside the block.

        Thread-local, so events from other threads (the live server,
        the profiler) are never stamped with the cell. The spool drains — and
        the event log flushes — when the scope closes, so cell
        boundaries are durability points *and* visibility points for
        live tailers (``telemetry serve`` readers see every cell's
        events promptly even when the spool is far from capacity).
        """
        previous = getattr(self._stack, "cell", None)
        self._stack.cell = cell_key
        ident = threading.get_ident()
        self._thread_cells[ident] = cell_key
        try:
            yield
        finally:
            self._stack.cell = previous
            if previous is None:
                self._thread_cells.pop(ident, None)
            else:
                self._thread_cells[ident] = previous
            self._drain_events()
            if self._events is not None:
                self._events.flush()

    # -- metrics passthrough --------------------------------------------

    def counter(self, name: str, /, **labels):
        """Registry counter passthrough."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, /, **labels):
        """Registry gauge passthrough."""
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, /, buckets=None, **labels):
        """Registry histogram passthrough."""
        if buckets is None:
            buckets = SPAN_SECONDS_BUCKETS
        return self.registry.histogram(name, buckets=buckets, **labels)

    # -- window collectors ----------------------------------------------

    def window_collector(
        self,
        context: str,
        levels_fn: Callable[[], Sequence],
        window_refs: int | None = None,
    ) -> WindowedCollector:
        """Create (and track) a window collector for one stage."""
        from repro.telemetry.windows import WindowedCollector

        collector = WindowedCollector(
            context,
            levels_fn,
            window_refs=window_refs or self.window_refs,
            on_window=self._on_window,
        )
        with self._lock:
            self._collectors.append(collector)
        return collector

    def _on_window(
        self, collector: WindowedCollector, fresh: list[WindowRecord]
    ) -> None:
        if self._events is None or not fresh:
            return
        from repro.telemetry.windows import encode_window

        self.event(
            kind="window", context=collector.context, **encode_window(fresh)
        )

    def finish_collector(self, collector: WindowedCollector) -> None:
        """Finalize a collector: emit its last window, then drain the
        spool and fsync the event log, so a finished stage's windows
        survive a kill of the process."""
        collector.finish()
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)
        if self._events is not None:
            self._drain_events()
            self._events.sync()

    # -- profiling ------------------------------------------------------

    @property
    def profile(self) -> SamplingProfiler | None:
        """The active profiler, if one was enabled."""
        return self._profile

    def enable_profiling(self, hz: float | None = None) -> SamplingProfiler:
        """Start continuous profiling on this telemetry (idempotent).

        Spawns the sampling thread (``hz`` samples/s, default
        :data:`DEFAULT_HZ`), a wait-then-walk thread that is nearly
        free. Samples drain to ``profile.jsonl`` on every
        :meth:`flush`; ``telemetry flame`` folds them into a
        flamegraph on demand.

        Raises:
            ConfigError: ``hz`` is not positive.
        """
        if hz is not None and hz <= 0:
            raise ConfigError(f"profiling rate must be positive, got {hz:g}")
        if self._profile is not None:
            return self._profile
        from repro.telemetry.profiling import SamplingProfiler

        profiler = SamplingProfiler(self, hz if hz is not None else DEFAULT_HZ)
        self._profile = profiler
        profiler.start()
        self.event(kind="profiling_started", hz=profiler.hz)
        return profiler

    # -- pool workers ---------------------------------------------------

    def ship(self) -> dict:
        """What a :meth:`for_worker` telemetry recorded since its last
        shipment, for the next ack: ``events`` (lines already stamped
        ``run`` / ``worker`` / ``seq``), ``profile`` records, and the
        registry's full ``metrics`` snapshot."""
        profile = self._profile
        if profile is not None:
            # Samples drain before the snapshot counts them.
            profile.flush()
        self._drain_events()
        shipment = self._outbox.take()
        shipment["metrics"] = self.registry.snapshot()
        return shipment

    def receive(self, worker: str, shipment: dict) -> None:
        """Record one pool worker's :meth:`ship` output as this
        telemetry's own.

        The event lines join the spool in arrival order and advance
        :attr:`next_seq`; profile records go to the profiler; the
        metrics snapshot replaces the worker's previous one in
        :meth:`render_metrics`.
        """
        self._worker_metrics[worker] = shipment["metrics"]
        lines = shipment["events"]
        if lines and self._events is not None:
            with self._lock:
                self._spool.extend(lines)
                self._seq += len(lines)
            self._drain_events()
        profile = self._profile
        if profile is not None:
            profile.receive(shipment["profile"])

    @property
    def next_worker_index(self) -> int:
        """One past the highest ``worker-K`` label received: where a
        later pool of this telemetry starts numbering its workers, so
        no two processes share a label (nor a metrics snapshot)."""
        return 1 + max(
            (int(label.rpartition("-")[2]) for label in self._worker_metrics),
            default=-1,
        )

    def render_metrics(self) -> str:
        """The run's Prometheus exposition: the registry and every pool
        worker's latest snapshot. With a :class:`RunContext` every
        sample carries ``run`` / ``worker`` labels, which readers strip
        to sum across workers."""
        labels = (
            self.run_context.labels() if self.run_context is not None else {}
        )
        snapshots = [(self.registry.snapshot(), labels)]
        snapshots.extend(
            (snapshot, dict(labels, worker=worker))
            for worker, snapshot in sorted(self._worker_metrics.items())
        )
        return render_snapshots(snapshots)

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Drain spooled events and write the Prometheus snapshot.

        The snapshot (:meth:`render_metrics`) is written atomically
        (write, fsync, rename), so a process killed mid-flush leaves the
        previous complete snapshot, never a torn one. An active profiler
        drains its sample deltas to ``profile.jsonl`` first, so a flush
        is a durability point for events, metrics and profiles alike.
        """
        profile = self._profile
        if profile is not None:
            profile.flush()
        self._drain_events()
        if self.directory is not None:
            atomic_write_text(
                self.directory / METRICS_FILE, self.render_metrics()
            )

    def close(self) -> None:
        """Finish collectors and profiling, flush, close the event log."""
        profile = self._profile
        if profile is not None:
            self._profile = None
            profile.close()
            self.event(kind="profiling_finished", samples=profile.samples)
        with self._lock:
            pending = list(self._collectors)
        for collector in pending:
            self.finish_collector(collector)
        self.flush()
        if self._events is not None:
            self._events.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullTelemetry:
    """Disabled telemetry with the same surface.

    Spans still measure wall time (so progress/log lines report real
    durations) but record nothing; events are dropped; the registry is
    the shared :data:`~repro.telemetry.registry.NULL_REGISTRY`; window
    collectors are never created (callers gate on :attr:`enabled`).
    """

    enabled: bool = False
    directory = None
    registry = NULL_REGISTRY
    run_context = None
    profile = None
    next_worker_index = 0

    def span(self, name: str, **meta) -> Span:
        return Span(name, meta, None)

    def enable_profiling(self, hz=None) -> None:
        return None

    def event(self, kind: str = "event", **fields) -> None:
        pass

    @contextmanager
    def cell_scope(self, cell_key: str) -> Iterator[None]:
        yield

    def counter(self, name: str, /, **labels):
        return NULL_REGISTRY.counter(name, **labels)

    def gauge(self, name: str, /, **labels):
        return NULL_REGISTRY.gauge(name, **labels)

    def histogram(self, name: str, /, buckets=None, **labels):
        return NULL_REGISTRY.histogram(name, **labels)

    def window_collector(self, context, levels_fn, window_refs=None):
        raise RuntimeError(
            "window collectors are not available on disabled telemetry; "
            "gate on telemetry.enabled first"
        )

    def finish_collector(self, collector) -> None:
        pass

    def ship(self) -> None:
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared disabled instance (the default active telemetry).
NULL_TELEMETRY = NullTelemetry()

_active: Telemetry | NullTelemetry = NULL_TELEMETRY
_active_lock = threading.Lock()


def get_active() -> Telemetry | NullTelemetry:
    """The process-wide active telemetry (default: disabled)."""
    return _active


def set_active(telemetry: Telemetry | NullTelemetry | None) -> None:
    """Install the active telemetry; None restores the disabled default."""
    global _active
    with _active_lock:
        _active = telemetry if telemetry is not None else NULL_TELEMETRY


@contextmanager
def activate(telemetry: Telemetry | NullTelemetry) -> Iterator:
    """Scope ``telemetry`` as the active instance, restoring on exit."""
    previous = get_active()
    set_active(telemetry)
    try:
        yield telemetry
    finally:
        set_active(previous)
