"""Continuous profiling: sampled wall-clock stacks + memory watermarks.

Two low-overhead observers that ride along with a live
:class:`~repro.telemetry.core.Telemetry`:

- :class:`SamplingProfiler` — a daemon thread wakes at a configurable
  rate (default :data:`~repro.telemetry.core.DEFAULT_HZ`), walks
  ``sys._current_frames()`` and attributes each thread's stack to that
  thread's active span stack (``runner.prepare`` → ``hierarchy.run`` →
  …) and sweep cell.
  Aggregated counts are drained to an append-only ``profile.jsonl``
  (same torn-tail discipline as ``events.jsonl``) at every telemetry
  flush, and collapsed to a flamegraph-ready ``flame.folded`` on
  close. Sampling costs nothing on the simulate hot loop — the
  sampled threads never cooperate, they are only observed.
- :class:`MemoryTracker` — ``tracemalloc``-based per-phase/per-cell
  peak watermarks: at every span/cell boundary the global peak since
  the previous boundary is attributed to *all* open phases (inclusive
  semantics) and then reset, yielding a true per-phase peak despite
  tracemalloc's single global counter. Written as
  ``memory_watermarks.csv`` in the telemetry directory, one row per
  phase with the ``worker`` that recorded it.

Both are bundled by :class:`ProfilingSession`, enabled via
``Telemetry.enable_profiling(hz)`` or the CLI's ``--profile [HZ]``.
A sweep's pool workers profile at the parent's rate and ship their
records and watermarks on their acks; the parent's session writes
them beside its own, each record keeping its ``worker``.

Determinism for tests: the sampler's clock, thread-stack collector and
the memory tracker's ``tracemalloc`` module are all injectable, and
:meth:`SamplingProfiler.sample_once` can be driven directly without
any background thread.
"""

from __future__ import annotations

import csv
import io
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.telemetry.core import DEFAULT_HZ
from repro.telemetry.exporters import (
    JsonlEventLog,
    atomic_write_text,
    read_jsonl,
)

#: Deepest stack recorded per sample; frames below are dropped.
DEFAULT_MAX_DEPTH = 64

#: File names inside a telemetry directory.
PROFILE_FILE = "profile.jsonl"
FLAME_FILE = "flame.folded"
MEMORY_FILE = "memory_watermarks.csv"

#: Stage label for samples taken outside any span.
NO_STAGE = "(no stage)"

#: Column order of ``memory_watermarks.csv``.
MEMORY_COLUMNS: tuple[str, ...] = (
    "kind", "name", "enter_bytes", "exit_bytes", "peak_bytes", "worker"
)


# ----------------------------------------------------------------------
# Frame labels
# ----------------------------------------------------------------------

#: Code-object → rendered label cache (keeps a reference; bounded by
#: the number of distinct code objects ever sampled).
_LABEL_CACHE: dict[object, str] = {}

#: Path anchors resolved to dotted module prefixes in frame labels.
_MODULE_ANCHORS = ("repro", "benchmarks", "tests")


def _module_of(filename: str) -> str:
    parts = Path(filename).with_suffix("").parts
    for anchor in _MODULE_ANCHORS:
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            return ".".join(parts[index:])
    return Path(filename).stem


def frame_label(code) -> str:
    """``module:function`` for one code object (cached)."""
    label = _LABEL_CACHE.get(code)
    if label is None:
        label = f"{_module_of(code.co_filename)}:{code.co_name}"
        _LABEL_CACHE[code] = label
    return label


def collect_stacks(
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> dict[int, tuple[str, ...]]:
    """Root-first frame-label stacks of every live thread, by ident."""
    stacks: dict[int, tuple[str, ...]] = {}
    for ident, frame in sys._current_frames().items():
        labels: list[str] = []
        depth = 0
        while frame is not None and depth < max_depth:
            labels.append(frame_label(frame.f_code))
            frame = frame.f_back
            depth += 1
        labels.reverse()
        stacks[ident] = tuple(labels)
    return stacks


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------

#: Aggregation key: (span stack, cell key, frame stack).
SampleKey = tuple[tuple[str, ...], "str | None", tuple[str, ...]]


class SamplingProfiler:
    """Wall-clock stack sampler attributing samples to spans and cells.

    Args:
        telemetry: the owning telemetry; its per-thread span/cell
            registries provide the attribution.
        hz: samples per second (> 0).
        max_depth: deepest stack recorded per sample.
        stacks_fn: stack collector override (tests inject synthetic
            stacks); default walks ``sys._current_frames()``.
        clock: monotonic clock for the started/elapsed bookkeeping.
    """

    def __init__(
        self,
        telemetry,
        hz: float = DEFAULT_HZ,
        *,
        max_depth: int = DEFAULT_MAX_DEPTH,
        stacks_fn: Callable[[], Mapping[int, Sequence[str]]] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"profiler hz must be positive, got {hz}")
        self.telemetry = telemetry
        self.hz = float(hz)
        self.max_depth = int(max_depth)
        self._stacks_fn = stacks_fn or (
            lambda: collect_stacks(self.max_depth)
        )
        self._clock = clock
        self._counts: Counter = Counter()
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Thread idents never attributed (the sampler itself).
        self._ignore: set[int] = set()

    @property
    def samples(self) -> int:
        """Total samples attributed since construction."""
        with self._lock:
            return self._samples

    def sample_once(
        self, stacks: Mapping[int, Sequence[str]] | None = None
    ) -> int:
        """Take one sample of every thread; returns threads counted.

        ``stacks`` overrides the collected thread stacks (deterministic
        tests); the span/cell attribution always comes from the owning
        telemetry's live per-thread registries.
        """
        if stacks is None:
            stacks = self._stacks_fn()
        spans_by_thread = getattr(self.telemetry, "_thread_spans", {})
        cells_by_thread = getattr(self.telemetry, "_thread_cells", {})
        counted = 0
        with self._lock:
            for ident, stack in stacks.items():
                if ident in self._ignore or not stack:
                    continue
                spans = tuple(spans_by_thread.get(ident, ()))
                cell = cells_by_thread.get(ident)
                self._counts[(spans, cell, tuple(stack))] += 1
                counted += 1
            self._samples += counted
        return counted

    def drain(self) -> tuple[dict, int]:
        """Pop accumulated (key → count) deltas since the last drain."""
        with self._lock:
            delta = dict(self._counts)
            self._counts.clear()
        return delta, sum(delta.values())

    # -- background thread ----------------------------------------------

    def start(self) -> None:
        """Start the sampling daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        self._ignore.add(threading.get_ident())
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    def stop(self) -> None:
        """Stop and join the sampling thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=10.0)
        self._thread = None


# ----------------------------------------------------------------------
# Memory watermarks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryWatermark:
    """Peak traced memory while one span/cell was open (inclusive)."""

    kind: str  # "span" | "cell"
    name: str
    enter_bytes: int
    exit_bytes: int
    peak_bytes: int
    worker: str = "root"  # the process that recorded it


class _OpenPhase:
    __slots__ = ("kind", "name", "enter_bytes", "peak")

    def __init__(self, kind: str, name: str, enter_bytes: int) -> None:
        self.kind = kind
        self.name = name
        self.enter_bytes = enter_bytes
        self.peak = enter_bytes


class MemoryTracker:
    """``tracemalloc`` watermarks attributed per phase and per cell.

    tracemalloc keeps one *global* peak; per-phase peaks are recovered
    by resetting it at every span/cell boundary and attributing each
    interval's peak to every phase open during the interval. That makes
    the recorded peaks *inclusive* (a parent span's watermark covers
    its children), matching the sampler's inclusive attribution.

    Args:
        tracer: the tracemalloc module (tests inject a fake with the
            same ``start/stop/is_tracing/get_traced_memory/reset_peak``
            surface).
    """

    def __init__(self, tracer=tracemalloc) -> None:
        self._tracer = tracer
        self._lock = threading.Lock()
        self._open: list[_OpenPhase] = []
        self._started_here = False
        self.records: list[MemoryWatermark] = []

    def start(self) -> None:
        """Start tracing (no-op if something else already traces)."""
        if not self._tracer.is_tracing():
            self._tracer.start()
            self._started_here = True

    def _boundary(self) -> int:
        current, peak = self._tracer.get_traced_memory()
        high = max(current, peak)
        for phase in self._open:
            if high > phase.peak:
                phase.peak = high
        self._tracer.reset_peak()
        return current

    def enter(self, kind: str, name: str) -> None:
        """A span/cell opened."""
        with self._lock:
            current = self._boundary()
            self._open.append(_OpenPhase(kind, name, current))

    def exit(self, kind: str, name: str) -> None:
        """A span/cell closed: record its inclusive peak watermark."""
        with self._lock:
            current = self._boundary()
            for index in range(len(self._open) - 1, -1, -1):
                phase = self._open[index]
                if phase.kind == kind and phase.name == name:
                    del self._open[index]
                    self.records.append(
                        MemoryWatermark(
                            kind=kind,
                            name=name,
                            enter_bytes=phase.enter_bytes,
                            exit_bytes=current,
                            peak_bytes=max(phase.peak, current),
                        )
                    )
                    return

    def close(self) -> None:
        """Close out any still-open phases and stop tracing if owned."""
        with self._lock:
            current = self._boundary()
            while self._open:
                phase = self._open.pop()
                self.records.append(
                    MemoryWatermark(
                        kind=phase.kind,
                        name=phase.name,
                        enter_bytes=phase.enter_bytes,
                        exit_bytes=current,
                        peak_bytes=max(phase.peak, current),
                    )
                )
        if self._started_here and self._tracer.is_tracing():
            self._tracer.stop()


def write_memory_csv(
    records: Sequence[MemoryWatermark], path: str | Path
) -> Path:
    """Write memory watermarks as CSV, atomically (one row per exit)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(MEMORY_COLUMNS)
    for record in records:
        writer.writerow([
            record.kind, record.name, record.enter_bytes,
            record.exit_bytes, record.peak_bytes, record.worker,
        ])
    return atomic_write_text(path, buffer.getvalue())


def read_memory_csv(path: str | Path) -> list[MemoryWatermark]:
    """Load watermarks written by :func:`write_memory_csv`."""
    records: list[MemoryWatermark] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            records.append(
                MemoryWatermark(
                    kind=row["kind"],
                    name=row["name"],
                    enter_bytes=int(row["enter_bytes"]),
                    exit_bytes=int(row["exit_bytes"]),
                    peak_bytes=int(row["peak_bytes"]),
                    worker=row.get("worker") or "root",
                )
            )
    return records


# ----------------------------------------------------------------------
# Profile records (profile.jsonl)
# ----------------------------------------------------------------------


def read_profile(path: str | Path) -> list[dict]:
    """Load profile records, tolerating a kill-torn trailing line."""
    path = Path(path)
    if not path.exists():
        return []
    return [
        record for record in read_jsonl(path)
        if record.get("kind") == "profile"
    ]


def total_samples(records: Iterable[Mapping]) -> int:
    """Summed sample count across records."""
    return sum(int(r.get("count", 0)) for r in records)


def merge_records(records: Iterable[Mapping]) -> list[dict]:
    """Sum counts of records with identical attribution.

    The grouping key keeps ``run``/``worker`` provenance, so merging
    per-worker profiles conserves every worker's sample count exactly
    (and re-merging a merged profile is a no-op).
    """
    grouped: dict[tuple, dict] = {}
    for record in records:
        key = (
            record.get("run"), record.get("worker"),
            tuple(record.get("spans", ())), record.get("cell"),
            tuple(record.get("stack", ())), record.get("hz"),
        )
        bucket = grouped.get(key)
        if bucket is None:
            bucket = dict(record)
            bucket["count"] = 0
            grouped[key] = bucket
        bucket["count"] += int(record.get("count", 0))
    return sorted(
        grouped.values(),
        key=lambda r: (
            str(r.get("worker", "")), -int(r["count"]),
            tuple(r.get("spans", ())), tuple(r.get("stack", ())),
        ),
    )


def fold_records(records: Iterable[Mapping]) -> dict[tuple[str, ...], int]:
    """Collapse records to ``span-path + frame-stack`` → summed count."""
    folded: Counter = Counter()
    for record in records:
        key = tuple(record.get("spans", ())) + tuple(record.get("stack", ()))
        if key:
            folded[key] += int(record.get("count", 0))
    return dict(folded)


def render_flame(records: Iterable[Mapping]) -> str:
    """Collapsed-stack (Brendan Gregg ``folded``) flamegraph text.

    One line per distinct stack: semicolon-joined frames (span path
    first, root-first frames after) and the sample count. Feed it to
    ``flamegraph.pl`` or paste into speedscope.
    """
    folded = fold_records(records)
    lines = [
        ";".join(stack) + f" {count}"
        for stack, count in sorted(folded.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_flame(records: Iterable[Mapping], path: str | Path) -> Path:
    """Write the collapsed-stack flamegraph file, atomically."""
    return atomic_write_text(path, render_flame(records))


def function_shares(records: Iterable[Mapping]) -> dict[str, float]:
    """Inclusive sample share per function across all records.

    A function is counted once per sample when it appears anywhere in
    the sampled stack (recursion counted once), so shares answer "what
    fraction of wall time had this function on the stack".
    """
    records = list(records)
    total = total_samples(records)
    if total == 0:
        return {}
    counts: Counter = Counter()
    for record in records:
        count = int(record.get("count", 0))
        for function in set(record.get("stack", ())):
            counts[function] += count
    return {function: counts[function] / total for function in counts}


@dataclass(frozen=True)
class HotspotDigest:
    """One hot function within one stage (innermost span)."""

    stage: str
    function: str
    samples: int  # inclusive samples within the stage
    share: float  # fraction of the stage's samples


def hotspot_digests(
    records: Iterable[Mapping], top: int = 5
) -> list[HotspotDigest]:
    """Top-``top`` functions by inclusive samples, grouped per stage.

    The stage is the innermost active span when the sample was taken
    (:data:`NO_STAGE` outside any span). Stages are ordered by total
    samples, hottest first; functions likewise within each stage.
    """
    stage_totals: Counter = Counter()
    stage_functions: dict[str, Counter] = {}
    for record in records:
        count = int(record.get("count", 0))
        spans = tuple(record.get("spans", ()))
        stage = spans[-1] if spans else NO_STAGE
        stage_totals[stage] += count
        functions = stage_functions.setdefault(stage, Counter())
        for function in set(record.get("stack", ())):
            functions[function] += count
    digests: list[HotspotDigest] = []
    for stage, stage_total in stage_totals.most_common():
        if stage_total == 0:
            continue
        ranked = sorted(
            stage_functions[stage].items(), key=lambda kv: (-kv[1], kv[0])
        )
        for function, samples in ranked[:top]:
            digests.append(
                HotspotDigest(
                    stage=stage,
                    function=function,
                    samples=samples,
                    share=samples / stage_total,
                )
            )
    return digests


# ----------------------------------------------------------------------
# Session: sampler + memory tracker + artifact lifecycle
# ----------------------------------------------------------------------


class ProfilingSession:
    """One telemetry's profiling lifecycle.

    Owns a :class:`SamplingProfiler` and (optionally) a
    :class:`MemoryTracker`; drains sampler deltas to ``profile.jsonl``
    on every telemetry flush (so per-cell flushes persist samples with
    the same durability as events) and writes ``flame.folded`` +
    ``memory_watermarks.csv`` on close. A pool worker's session keeps
    both in its telemetry's outbox instead, for the parent's session
    to :meth:`receive`.
    """

    def __init__(
        self,
        telemetry,
        hz: float = DEFAULT_HZ,
        *,
        memory: bool = True,
        profiler: SamplingProfiler | None = None,
        memory_tracker: MemoryTracker | None = None,
    ) -> None:
        self.telemetry = telemetry
        self.hz = float(hz)
        self.profiler = profiler or SamplingProfiler(telemetry, self.hz)
        self.memory = memory_tracker or (MemoryTracker() if memory else None)
        #: A pool worker's outbox (see ``Telemetry.for_worker``).
        self._outbox = getattr(telemetry, "_outbox", None)
        self._log = self._outbox
        directory = getattr(telemetry, "directory", None)
        if directory is not None:
            self._log = JsonlEventLog(Path(directory) / PROFILE_FILE)

    def start(self) -> None:
        """Start the memory tracer and the sampling thread."""
        if self.memory is not None:
            self.memory.start()
        self.profiler.start()

    # -- telemetry hooks -------------------------------------------------

    def on_enter(self, kind: str, name: str) -> None:
        if self.memory is not None:
            self.memory.enter(kind, name)

    def on_exit(self, kind: str, name: str) -> None:
        if self.memory is not None:
            self.memory.exit(kind, name)

    # -- persistence -----------------------------------------------------

    def _record(self, key: SampleKey, count: int) -> dict:
        spans, cell, stack = key
        record: dict = {
            "kind": "profile",
            "hz": self.hz,
            "count": count,
            "spans": list(spans),
            "stack": list(stack),
        }
        if cell is not None:
            record["cell"] = cell
        context = getattr(self.telemetry, "run_context", None)
        if context is not None:
            record["run"] = context.run_id
            record["worker"] = context.worker_id
        return record

    def flush(self) -> None:
        """Drain sampler deltas to ``profile.jsonl`` + sample counter."""
        delta, drained = self.profiler.drain()
        if self._log is not None and delta:
            ordered = sorted(
                delta.items(),
                key=lambda kv: (kv[0][0], kv[0][1] or "", kv[0][2]),
            )
            self._log.append_many(
                self._record(key, count) for key, count in ordered
            )
        if drained:
            self.telemetry.counter("repro_profile_samples_total").inc(drained)

    def receive(
        self, worker: str, records: list[dict],
        watermarks: list[MemoryWatermark],
    ) -> None:
        """Write a pool worker's shipped profile records (stamped with
        their ``worker``) and keep its memory watermarks for the CSV."""
        if self._log is not None and records:
            self._log.append_many(records)
        if self.memory is not None:
            self.memory.records.extend(
                replace(watermark, worker=worker) for watermark in watermarks
            )

    def close(self) -> None:
        """Stop sampling, final-drain, and write the derived artifacts."""
        self.profiler.stop()
        self.flush()
        if self._log is not None:
            self._log.close()
        if self.memory is not None:
            self.memory.close()
            if self._outbox is not None:
                self._outbox.memory.extend(self.memory.records)
        directory = getattr(self.telemetry, "directory", None)
        if directory is None:
            return
        directory = Path(directory)
        records = read_profile(directory / PROFILE_FILE)
        if records:
            write_flame(records, directory / FLAME_FILE)
        if self.memory is not None and self.memory.records:
            write_memory_csv(self.memory.records, directory / MEMORY_FILE)
