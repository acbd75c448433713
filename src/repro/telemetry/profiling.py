"""Continuous profiling: sampled wall-clock stacks.

A :class:`SamplingProfiler` rides along with a live
:class:`~repro.telemetry.core.Telemetry`: a daemon thread wakes at a
configurable rate (default :data:`~repro.telemetry.core.DEFAULT_HZ`),
walks ``sys._current_frames()`` and attributes each thread's stack to
that thread's active span stack (``runner.prepare`` →
``hierarchy.run`` → …) and sweep cell. Aggregated counts are drained
to an append-only ``profile.jsonl`` (same torn-tail discipline as
``events.jsonl``) at every telemetry flush. Sampling costs nothing on
the simulate hot loop — the sampled threads never cooperate, they are
only observed.

Enabled via ``Telemetry.enable_profiling(hz)`` or the CLI's
``--profile [HZ]``. A sweep's pool workers profile at the parent's
rate and ship their records on their acks; the parent's profiler
writes them beside its own, each record keeping its ``worker``.
``telemetry flame DIR`` folds a run's records into a collapsed-stack
``flame.folded`` on demand (:func:`render_flame`).

Determinism for tests: :meth:`SamplingProfiler.sample_once` takes
injected thread stacks and can be driven directly without any
background thread.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.telemetry.core import DEFAULT_HZ
from repro.telemetry.exporters import (
    JsonlEventLog,
    atomic_write_text,
    read_jsonl,
)

#: Deepest stack recorded per sample; frames below are dropped.
MAX_DEPTH = 64

#: File names inside a telemetry directory.
PROFILE_FILE = "profile.jsonl"
FLAME_FILE = "flame.folded"

#: Stage label for samples taken outside any span.
NO_STAGE = "(no stage)"


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


def collect_stacks() -> dict[int, tuple[str, ...]]:
    """Root-first frame-label stacks of every live thread, by ident."""
    stacks: dict[int, tuple[str, ...]] = {}
    for ident, frame in sys._current_frames().items():
        labels: list[str] = []
        depth = 0
        while frame is not None and depth < MAX_DEPTH:
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

    Drains its counts to ``profile.jsonl`` on every telemetry flush, so
    per-cell flushes persist samples with the same durability as
    events. A pool worker's profiler keeps its records in the
    telemetry's outbox instead, for the parent's profiler to
    :meth:`receive`.

    Args:
        telemetry: the owning telemetry; its per-thread span/cell
            registries provide the attribution, and its directory (or
            a pool worker's outbox) receives the records.
        hz: samples per second (> 0).
    """

    def __init__(self, telemetry, hz: float = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"profiler hz must be positive, got {hz}")
        self.telemetry = telemetry
        self.hz = float(hz)
        self._counts: Counter = Counter()
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Thread idents never attributed (the sampler itself).
        self._ignore: set[int] = set()
        #: A pool worker's outbox (see ``Telemetry.for_worker``).
        self._log = getattr(telemetry, "_outbox", None)
        directory = getattr(telemetry, "directory", None)
        if directory is not None:
            self._log = JsonlEventLog(Path(directory) / PROFILE_FILE)

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
            stacks = collect_stacks()
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
        """Drain sample deltas to ``profile.jsonl`` + sample counter."""
        delta, drained = self.drain()
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

    def receive(self, records: list[dict]) -> None:
        """Write a pool worker's shipped profile records (already
        stamped with their ``worker``)."""
        if self._log is not None and records:
            self._log.append_many(records)

    def close(self) -> None:
        """Stop sampling, final-drain and close the log."""
        self.stop()
        self.flush()
        if self._log is not None:
            self._log.close()


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
