"""The run observatory: aggregate, visualize, and diff runs.

One campaign ("run") writes one telemetry directory: the coordinating
process writes its own events, metrics and profile samples, and those
its pool workers ship on their acks, each line stamped with the
``worker`` that recorded it; a resumed campaign appends to the same
directory. This module reads that directory back as one story:

- :func:`aggregate_run` reads a run directory into memory:
  ``events.jsonl`` becomes an ordered run log (:func:`run_events`:
  torn-tolerant, deduplicated by the ``(run, worker, seq)``
  correlation triple), the Prometheus snapshot is summed
  sample-by-sample with the per-worker ``run``/``worker`` labels
  stripped, and the log's ``window`` events decode into window
  records that keep their ``run`` / ``worker`` / ``context``.
  The live progress API folds the same run log.
- :func:`chrome_trace` renders the spans as a Chrome ``trace_event``
  timeline (``chrome://tracing`` / Perfetto): one process track per
  worker, complete slices for spans, async slices for sweep cells,
  counter tracks for per-window hit rates.
- :func:`diff_runs` compares two aggregated runs — per-span-name
  duration deltas, per-level hit-rate deltas, engine vector-fraction
  deltas, cell-failure counts, and worker-pool supervision health
  (increases in poisoned cells or worker restarts regress) — against
  configurable regression thresholds, the contract behind
  ``repro telemetry diff``'s nonzero CI exit code.

Aggregation is **conservative by construction**: events are read
(never rewritten), and a summed metric equals the sum of its
per-worker samples exactly — the same conservation discipline the
window time-series already guarantee against ``HierarchyStats``.
"""

from __future__ import annotations

import json
import re
from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import TelemetryError
from repro.telemetry.core import DEFAULT_HZ, EVENTS_FILE, METRICS_FILE
from repro.telemetry.exporters import atomic_write_text, read_jsonl
from repro.telemetry.profiling import (
    PROFILE_FILE,
    HotspotDigest,
    function_shares,
    hotspot_digests,
    merge_records,
    read_profile,
    total_samples,
)
from repro.telemetry.registry import unescape_label_value
from repro.telemetry.report import (
    HOTSPOT_TOP,
    EngineDigest,
    LevelDigest,
    SpanDigest,
    TelemetrySummary,
    _digest_windows,
    supervision_digest,
)
from repro.telemetry.windows import WindowRecord, decode_window

#: Provenance label of the coordinating process.
ROOT_WORKER = "root"

#: Default Chrome-trace output name.
TRACE_FILE = "trace.json"

#: Labels stripped (and thereby summed over) when merging metrics.
_PROVENANCE_LABELS = ("run", "worker")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WindowRow:
    """One window record with its run provenance.

    Attributes:
        run: run id the record belongs to ("" when unknown).
        worker: the process that recorded it (``root`` / ``worker-K``).
        context: stage label (the window event's ``context``).
        record: the raw :class:`WindowRecord`.
    """

    run: str
    worker: str
    context: str
    record: WindowRecord


@dataclass
class RunAggregate:
    """One run's telemetry, read from its directory.

    Attributes:
        root: the aggregated run directory.
        run_ids: distinct run ids seen, in first-seen event order.
        sources: the processes whose events the log holds (``root``,
            ``worker-0``, ...): ``root`` first, then workers by number.
        events: the run log — ordered by ``(ts, worker, seq)`` and
            deduplicated by ``(run, worker, seq)``.
        metric_kinds: Prometheus base-metric name -> kind.
        metrics: sample name -> {label tuple -> summed value}; bucket/
            sum/count samples of histograms appear under their
            exposition names.
        windows: every window record with provenance.
        profiles: sampled-profiler records (counts summed per
            identical attribution, ``worker`` provenance preserved so
            per-worker sample totals are conserved exactly).
    """

    root: Path
    run_ids: list[str] = field(default_factory=list)
    sources: list[str] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    metric_kinds: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, dict[tuple, float]] = field(default_factory=dict)
    windows: list[WindowRow] = field(default_factory=list)
    profiles: list[dict] = field(default_factory=list)

    @property
    def run_id(self) -> str | None:
        """The run id (last seen wins; None for pre-observatory runs)."""
        return self.run_ids[-1] if self.run_ids else None

    def metric_value(self, name: str, /, **labels: str) -> float:
        """One merged sample's value (0.0 when absent)."""
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return self.metrics.get(name, {}).get(key, 0.0)

    # -- digests used by report/diff ------------------------------------

    def span_digests(self) -> list[SpanDigest]:
        """Per-span-name duration digests over the merged run log."""
        spans: dict[str, SpanDigest] = {}
        for event in self.events:
            if event.get("kind") != "span" or "name" not in event:
                continue
            digest = spans.setdefault(
                event["name"], SpanDigest(event["name"])
            )
            duration = float(event.get("duration_s", 0.0))
            digest.count += 1
            digest.total_s += duration
            digest.max_s = max(digest.max_s, duration)
        return sorted(spans.values(), key=lambda d: d.total_s, reverse=True)

    def level_digests(self) -> list[LevelDigest]:
        """Per-level window sums across every stage and worker."""
        merged = _digest_windows("", [row.record for row in self.windows])
        return sorted(merged.levels, key=lambda d: d.level)

    def engine_digests(self) -> list[EngineDigest]:
        """Per-level cache-engine digests, by level name.

        The resolved engine and policy come from the last
        ``engine_selected`` event per level; rounds, runs and occupancy
        from the merged ``repro_engine_*`` samples.
        """
        by_level: dict[str, EngineDigest] = {}

        def digest(level: str) -> EngineDigest:
            return by_level.setdefault(level, EngineDigest(level))

        for event in self.events:
            if event.get("kind") == "engine_selected":
                d = digest(str(event.get("level", "?")))
                d.engine = str(event.get("engine", "?"))
                d.policy = str(event.get("policy", ""))
        for name in ("repro_engine_rounds", "repro_engine_runs",
                     "repro_engine_occupancy"):
            for key, value in self.metrics.get(name, {}).items():
                labels = dict(key)
                if "level" not in labels:
                    continue
                d = digest(labels["level"])
                if name == "repro_engine_rounds":
                    d.rounds = int(value)
                elif name == "repro_engine_occupancy":
                    d.occupancy = value
                elif labels.get("path") == "vector":
                    d.runs_vector = int(value)
                else:
                    d.runs_scalar = int(value)
        return sorted(by_level.values(), key=lambda d: d.level)

    def vector_fractions(self) -> dict[str, float]:
        """Per-level engine vector fraction (levels that ran any runs)."""
        return {
            d.level: d.vector_fraction
            for d in self.engine_digests()
            if d.runs_vector + d.runs_scalar
        }

    def cell_status_counts(self) -> dict[str, float]:
        """Finished-cell counts by status from the merged metrics."""
        counts: dict[str, float] = {}
        for key, value in self.metrics.get(
            "repro_sweep_cells_total", {}
        ).items():
            status = dict(key).get("status", "?")
            counts[status] = counts.get(status, 0.0) + value
        return counts

    def profile_samples(self) -> int:
        """Total sampled-profiler samples across the run."""
        return total_samples(self.profiles)

    def profile_samples_by_worker(self) -> dict[str, int]:
        """Sample totals per source worker (conserved under merge)."""
        totals: dict[str, int] = {}
        for record in self.profiles:
            worker = str(record.get("worker", ROOT_WORKER))
            totals[worker] = totals.get(worker, 0) + int(
                record.get("count", 0)
            )
        return totals

    def hotspots(self, top: int = 5) -> list[HotspotDigest]:
        """Top functions by inclusive samples, per stage."""
        return hotspot_digests(self.profiles, top=top)

    def function_shares(self) -> dict[str, float]:
        """Inclusive sample share per function (for the diff gate)."""
        return function_shares(self.profiles)

    def supervision_counts(self) -> dict[str, float]:
        """Supervised-pool health counters from the merged metrics."""
        return {
            "restarts": self.metric_value("repro_pool_restarts_total"),
            "requeues": self.metric_value("repro_pool_requeues_total"),
            "poisoned": self.metric_value(
                "repro_pool_poisoned_cells_total"
            ),
            "worker_deaths": self.metric_value(
                "repro_pool_worker_deaths_total"
            ),
            "escalations": self.metric_value(
                "repro_pool_escalations_total"
            ),
        }


def run_events(root: str | Path) -> list[dict]:
    """A run's event log: ``events.jsonl``, deduplicated by
    ``(run, worker, seq)`` and ordered by ``(ts, worker, seq)``.

    Ordering is wall-clock first (out-of-order appends sort into
    place), provenance as a stable tiebreak so equal timestamps never
    shuffle between reads. A line written before run contexts existed
    carries no ``worker`` / ``seq``; ``root`` and its line index stand
    in, so the key stays unique without rewriting anything recorded.
    The event half of :func:`aggregate_run`, and all the live progress
    API reads. A directory that does not exist yet, or holds no log
    yet, has an empty log.

    Raises:
        TelemetryError: the log is corrupt before its last line.
    """
    path = Path(root) / EVENTS_FILE
    if not path.exists():
        return []
    seen: set[tuple] = set()
    events: list[dict] = []
    # read_jsonl drops a kill-torn trailing line.
    for index, event in enumerate(read_jsonl(path)):
        event.setdefault("worker", ROOT_WORKER)
        event.setdefault("seq", index)
        key = (event.get("run"), str(event["worker"]), event["seq"])
        if key not in seen:
            seen.add(key)
            events.append(event)
    events.sort(
        key=lambda e: (
            float(e.get("ts", 0.0)), str(e["worker"]), int(e["seq"]),
        )
    )
    return events


#: ``name{label="a",other="b"} value`` — the exposition-format shape
#: :meth:`MetricsRegistry.render_prometheus` writes for scalars. The
#: label body is matched greedily up to the *last* ``}`` so escaped
#: values containing ``}`` cannot truncate the match.
_PROM_LINE = re.compile(r"^(\w+)(?:\{(.*)\})?\s+(\S+)$")
_PROM_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _parse_prom_line(line: str) -> tuple[str, dict[str, str], float] | None:
    """``(name, labels, value)`` of one exposition line, else None."""
    match = _PROM_LINE.match(line.strip())
    if not match:
        return None
    name, label_body, raw = match.groups()
    try:
        value = float(raw)
    except ValueError:
        return None
    labels = {
        k: unescape_label_value(v)
        for k, v in _PROM_LABEL.findall(label_body or "")
    }
    return name, labels, value


def _read_metrics(path: Path) -> tuple[dict[str, str], list[tuple]]:
    """Parse one exposition file into (kinds, [(name, labels, value)])."""
    kinds: dict[str, str] = {}
    samples: list[tuple] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "TYPE":
                previous = kinds.setdefault(parts[2], parts[3])
                if previous != parts[3]:
                    raise TelemetryError(
                        f"metric {parts[2]} is typed both {previous} and "
                        f"{parts[3]}; refusing to merge {path}"
                    )
            continue
        parsed = _parse_prom_line(line)
        if parsed is None:
            raise TelemetryError(
                f"unparseable metrics line in {path}: {line!r}"
            )
        samples.append(parsed)
    return kinds, samples


def _sum_metrics(
    path: Path,
) -> tuple[dict[str, str], dict[str, dict[tuple, float]]]:
    """Sum a snapshot's samples with provenance labels stripped.

    Counters, histogram buckets, histogram sums/counts, and gauges all
    sum — cross-worker gauges in this codebase are additive queue
    depths, and summing keeps the conservation property exact:
    ``merged == sum(workers)`` for every sample.
    """
    if not path.exists():
        return {}, {}
    kinds, samples = _read_metrics(path)
    merged: dict[str, dict[tuple, float]] = {}
    for name, labels, value in samples:
        stripped = {
            k: v for k, v in labels.items() if k not in _PROVENANCE_LABELS
        }
        key = tuple(sorted(stripped.items()))
        bucket = merged.setdefault(name, {})
        bucket[key] = bucket.get(key, 0.0) + value
    return kinds, merged


def aggregate_run(root: str | Path) -> RunAggregate:
    """Read one run's telemetry directory into a :class:`RunAggregate`.

    Raises:
        TelemetryError: when ``root`` is not a directory or holds no
            telemetry artifacts at all.
    """
    root = Path(root)
    if not root.is_dir():
        raise TelemetryError(f"no telemetry directory at {root}")
    if not any(
        (root / name).exists()
        for name in (EVENTS_FILE, METRICS_FILE, PROFILE_FILE)
    ):
        raise TelemetryError(
            f"no telemetry artifacts under {root} (expected "
            f"{EVENTS_FILE}, {METRICS_FILE} or {PROFILE_FILE})"
        )
    aggregate = RunAggregate(root=root)
    aggregate.events = run_events(root)
    workers: set[str] = set()
    for event in aggregate.events:
        run = event.get("run")
        if run is not None and run not in aggregate.run_ids:
            aggregate.run_ids.append(str(run))
        worker = str(event["worker"])
        workers.add(worker)
        if event.get("kind") == "window":
            aggregate.windows.extend(
                WindowRow(
                    run=str(run or ""), worker=worker,
                    context=str(event.get("context", "")), record=record,
                )
                for record in decode_window(event, f"{root} ({worker})")
            )
    # root first, then workers by number (worker-2 before worker-10).
    aggregate.sources = sorted(
        workers, key=lambda w: (w != ROOT_WORKER, len(w), w)
    )

    aggregate.metric_kinds, aggregate.metrics = _sum_metrics(
        root / METRICS_FILE
    )

    profile_records = read_profile(root / PROFILE_FILE)
    for record in profile_records:
        record.setdefault("worker", ROOT_WORKER)
    # Summing per identical (run, worker, spans, cell, stack) key keeps
    # every worker's sample total exact.
    aggregate.profiles = merge_records(profile_records)
    return aggregate


def summary_from_aggregate(aggregate: RunAggregate) -> TelemetrySummary:
    """The :class:`TelemetrySummary` behind ``telemetry report``.

    Every report — serial run or pool run — is this view over
    :func:`aggregate_run`. Window stages merge by context across
    workers.
    """
    summary = TelemetrySummary(directory=aggregate.root)
    for event in aggregate.events:
        kind = str(event.get("kind", "event"))
        summary.events_by_kind[kind] = summary.events_by_kind.get(kind, 0) + 1
    summary.spans = aggregate.span_digests()

    by_context: dict[str, list[WindowRecord]] = {}
    for row in aggregate.windows:
        by_context.setdefault(row.context, []).append(row.record)
    summary.stages = [
        _digest_windows(context, records)
        for context, records in sorted(by_context.items())
    ]

    # A summed snapshot holds one TYPE line per metric, one per sample.
    summary.metrics_lines = len(aggregate.metric_kinds) + sum(
        len(samples) for samples in aggregate.metrics.values()
    )
    summary.engines = aggregate.engine_digests()
    summary.supervision = supervision_digest(summary.events_by_kind)
    summary.profile_samples = aggregate.profile_samples()
    summary.hotspots = aggregate.hotspots(top=HOTSPOT_TOP)
    return summary


def render_run_overview(aggregate: RunAggregate) -> str:
    """The run header ``telemetry report`` prints for pool runs."""
    lines = [f"run overview: {aggregate.root}"]
    lines.append(
        f"  run id: {aggregate.run_id or '(none recorded)'}"
        + (
            f" (+{len(aggregate.run_ids) - 1} earlier resume(s))"
            if len(aggregate.run_ids) > 1 else ""
        )
    )
    lines.append(f"  sources: {', '.join(aggregate.sources)}")
    per_worker: dict[str, dict[str, float]] = {}
    for event in aggregate.events:
        worker = str(event.get("worker", "?"))
        stats = per_worker.setdefault(
            worker, {"events": 0, "span_s": 0.0, "cells": 0}
        )
        stats["events"] += 1
        if event.get("kind") == "span":
            stats["span_s"] += float(event.get("duration_s", 0.0))
        elif event.get("kind") == "cell_finished":
            stats["cells"] += 1
    for worker in aggregate.sources:
        stats = per_worker.get(
            worker, {"events": 0, "span_s": 0.0, "cells": 0}
        )
        lines.append(
            f"    {worker}: {int(stats['events'])} event(s), "
            f"{int(stats['cells'])} cell(s), "
            f"{stats['span_s']:.3f}s in spans"
        )
    counts = aggregate.cell_status_counts()
    if counts:
        tally = ", ".join(
            f"{int(counts[status])} {status}" for status in sorted(counts)
        )
        lines.append(f"  cells: {tally}")
    samples = aggregate.profile_samples_by_worker()
    if samples:
        tally = ", ".join(
            f"{worker}: {samples[worker]}" for worker in sorted(samples)
        )
        lines.append(
            f"  profile samples: {aggregate.profile_samples()} ({tally})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------

#: Event fields never copied into a trace slice's args.
_TRACE_META_EXCLUDE = frozenset(
    {"ts", "kind", "name", "duration_s", "seq", "run", "worker", "parent"}
)

#: Hottest aggregated stacks injected per worker profile track.
_TRACE_PROFILE_TOP = 80

#: Trace thread id of the per-worker sampled-hotspots track (span and
#: cell slices live on tid 1, counters on tid 0).
_PROFILE_TID = 2


def chrome_trace(aggregate: RunAggregate) -> dict:
    """The run as Chrome ``trace_event`` JSON (object format).

    Layout: one *process* (``pid``) per worker, named via metadata
    events; spans as complete (``ph: "X"``) slices reconstructed from
    each span event's end timestamp and duration; sweep cells as async
    (``ph: "b"``/``"e"``) slices so overlapping cells of one worker
    stay distinct; per-window hit rates as counter (``ph: "C"``)
    series; remaining lifecycle events as instants (``ph: "i"``).
    Timestamps are microseconds from the earliest slice start, which
    both ``chrome://tracing`` and Perfetto accept.
    """
    pids = {
        worker: index + 1 for index, worker in enumerate(aggregate.sources)
    }

    def pid_for(event: dict) -> int:
        worker = str(event.get("worker", ROOT_WORKER))
        if worker not in pids:
            pids[worker] = len(pids) + 1
        return pids[worker]

    spans: list[tuple[float, float, int, dict]] = []
    cells: list[tuple[float, float, int, dict]] = []
    instants: list[tuple[float, int, dict]] = []
    counters: list[tuple[float, int, dict]] = []
    origin: float | None = None

    for event in aggregate.events:
        kind = event.get("kind")
        ts = float(event.get("ts", 0.0))
        pid = pid_for(event)
        if kind == "span" and "name" in event:
            duration = float(event.get("duration_s", 0.0))
            begin = ts - duration
            spans.append((begin, duration, pid, event))
            origin = begin if origin is None else min(origin, begin)
        elif kind == "cell_finished":
            duration = float(event.get("duration_s", 0.0))
            begin = ts - duration
            cells.append((begin, duration, pid, event))
            origin = begin if origin is None else min(origin, begin)
        elif kind == "window":
            counters.append((ts, pid, event))
            origin = ts if origin is None else min(origin, ts)
        else:
            instants.append((ts, pid, event))
            origin = ts if origin is None else min(origin, ts)
    origin = origin or 0.0

    def us(seconds: float) -> int:
        return max(0, int(round((seconds - origin) * 1e6)))

    trace_events: list[dict] = []
    for worker, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": f"{worker}"},
        })

    for begin, duration, pid, event in spans:
        args = {
            k: v for k, v in event.items() if k not in _TRACE_META_EXCLUDE
        }
        trace_events.append({
            "ph": "X", "name": str(event["name"]), "cat": "span",
            "ts": us(begin), "dur": max(0, int(round(duration * 1e6))),
            "pid": pid, "tid": 1, "args": args,
        })

    for index, (begin, duration, pid, event) in enumerate(cells):
        name = f"{event.get('design', '?')}/{event.get('workload', '?')}"
        args = {
            k: v for k, v in event.items() if k not in _TRACE_META_EXCLUDE
        }
        for ph, when in (("b", begin), ("e", begin + duration)):
            trace_events.append({
                "ph": ph, "name": name, "cat": "cell", "id": index + 1,
                "ts": us(when), "pid": pid, "tid": 1,
                "args": args if ph == "b" else {},
            })

    for ts, pid, event in counters:
        context = str(event.get("context", "?"))
        values = {
            record.level: record.hit_rate
            for record in decode_window(event, str(aggregate.root))
        }
        if not values:
            continue
        trace_events.append({
            "ph": "C", "name": f"hit_rate {context}", "ts": us(ts),
            "pid": pid, "tid": 0, "args": values,
        })

    for ts, pid, event in instants:
        args = {
            k: v for k, v in event.items() if k not in _TRACE_META_EXCLUDE
        }
        trace_events.append({
            "ph": "i", "name": str(event.get("kind", "event")),
            "cat": "event", "ts": us(ts), "pid": pid, "tid": 1, "s": "p",
            "args": args,
        })

    trace_events.extend(_profile_trace_events(aggregate, pids))

    other: dict[str, object] = {"source": str(aggregate.root)}
    if aggregate.run_id is not None:
        other["run_id"] = aggregate.run_id
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def _profile_trace_events(
    aggregate: RunAggregate, pids: dict[str, int]
) -> list[dict]:
    """Sampled hotspots as per-worker trace tracks.

    Each worker with profile samples gets a ``sampled hotspots`` thread
    (tid :data:`_PROFILE_TID`) holding its hottest aggregated stacks as
    back-to-back complete slices: the slice name is the leaf frame, the
    duration is ``samples / hz`` (the wall time the sampler attributes
    to that stack), and the full span-path + frame stack rides in the
    args — so Perfetto shows where time went right next to the span
    timeline it went missing from.
    """
    by_worker: dict[str, _TallyCounter] = {}
    hz_by_worker: dict[str, float] = {}
    for record in aggregate.profiles:
        worker = str(record.get("worker", ROOT_WORKER))
        key = tuple(record.get("spans", ())) + tuple(record.get("stack", ()))
        if not key:
            continue
        by_worker.setdefault(worker, _TallyCounter())[key] += int(
            record.get("count", 0)
        )
        hz_by_worker.setdefault(
            worker, float(record.get("hz", DEFAULT_HZ)) or DEFAULT_HZ
        )

    events: list[dict] = []
    for worker in sorted(by_worker, key=lambda w: pids.get(w, len(pids))):
        pid = pids.get(worker)
        if pid is None:
            pid = pids[worker] = len(pids) + 1
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid,
            "tid": _PROFILE_TID, "ts": 0,
            "args": {"name": "sampled hotspots"},
        })
        hz = hz_by_worker[worker]
        cursor = 0
        ranked = sorted(
            by_worker[worker].items(), key=lambda kv: (-kv[1], kv[0])
        )
        for stack, count in ranked[:_TRACE_PROFILE_TOP]:
            if count <= 0:
                continue
            duration_us = max(1, int(round(count / hz * 1e6)))
            events.append({
                "ph": "X", "name": stack[-1], "cat": "profile",
                "ts": cursor, "dur": duration_us, "pid": pid,
                "tid": _PROFILE_TID,
                "args": {"stack": ";".join(stack), "samples": count,
                         "hz": hz},
            })
            cursor += duration_us
    return events


def write_chrome_trace(
    aggregate: RunAggregate, path: str | Path
) -> Path:
    """Write :func:`chrome_trace` output as JSON, atomically."""
    return atomic_write_text(
        path, json.dumps(chrome_trace(aggregate), default=str) + "\n"
    )


# ----------------------------------------------------------------------
# Run-to-run diffing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiffThresholds:
    """Regression thresholds for :func:`diff_runs`.

    Attributes:
        span_pct: a span name regresses when its total duration grows
            by more than this percentage *and* by more than
            ``span_min_s`` seconds (both gates, so microsecond spans
            cannot trip a percentage alone).
        span_min_s: absolute floor for span regressions, seconds.
        hit_rate_abs: a level regresses when its overall hit rate
            moves by more than this (either direction — a simulation
            behaviour change, not just a slowdown).
        vector_fraction_abs: a level regresses when the engine's
            vectorized-run fraction *drops* by more than this.
        hotspot_share_abs: a profiled function regresses when its
            inclusive sample share moves by more than this fraction in
            either direction (0.10 = 10 percentage points) — a hotspot
            shifting is a behaviour change whichever way it moves.
        hotspot_min_samples: the hotspot gate only arms when *both*
            runs hold at least this many samples; tiny profiles
            quantize shares too coarsely to compare honestly.
    """

    span_pct: float = 25.0
    span_min_s: float = 0.05
    hit_rate_abs: float = 0.005
    vector_fraction_abs: float = 0.05
    hotspot_share_abs: float = 0.10
    hotspot_min_samples: int = 50

    def validate(self) -> "DiffThresholds":
        """Self with sanity checks applied."""
        if self.span_pct < 0 or self.span_min_s < 0:
            raise TelemetryError("span thresholds must be non-negative")
        if not 0 <= self.hit_rate_abs <= 1:
            raise TelemetryError("hit_rate_abs must be within [0, 1]")
        if not 0 <= self.vector_fraction_abs <= 1:
            raise TelemetryError(
                "vector_fraction_abs must be within [0, 1]"
            )
        if not 0 <= self.hotspot_share_abs <= 1:
            raise TelemetryError(
                "hotspot_share_abs must be within [0, 1]"
            )
        if self.hotspot_min_samples < 0:
            raise TelemetryError(
                "hotspot_min_samples must be non-negative"
            )
        return self


@dataclass(frozen=True)
class DiffEntry:
    """One compared quantity between two runs.

    Attributes:
        kind: ``span`` / ``hit_rate`` / ``vector_fraction`` /
            ``cells`` / ``supervision``.
        name: span name, level name, cell status, or supervision
            counter.
        baseline / candidate: the two values compared.
        regression: whether the delta crossed its threshold.
        detail: human-readable context for the report line.
    """

    kind: str
    name: str
    baseline: float
    candidate: float
    regression: bool
    detail: str = ""

    @property
    def delta(self) -> float:
        """candidate - baseline."""
        return self.candidate - self.baseline


@dataclass
class RunDiff:
    """The outcome of comparing two aggregated runs.

    Attributes:
        baseline / candidate: the aggregates compared.
        thresholds: thresholds applied.
        entries: every compared quantity (regressions and passes).
    """

    baseline: RunAggregate
    candidate: RunAggregate
    thresholds: DiffThresholds
    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffEntry]:
        """Entries that crossed a threshold."""
        return [e for e in self.entries if e.regression]

    @property
    def ok(self) -> bool:
        """True when no quantity regressed."""
        return not self.regressions


def diff_runs(
    baseline: RunAggregate,
    candidate: RunAggregate,
    thresholds: DiffThresholds | None = None,
) -> RunDiff:
    """Compare two aggregated runs against regression thresholds.

    Two aggregates of the *same* run (or of two identical runs) always
    produce zero regressions: every comparison is a pure function of
    the merged artifacts.
    """
    thresholds = (thresholds or DiffThresholds()).validate()
    diff = RunDiff(baseline=baseline, candidate=candidate,
                   thresholds=thresholds)

    base_spans = {d.name: d for d in baseline.span_digests()}
    cand_spans = {d.name: d for d in candidate.span_digests()}
    for name in sorted(set(base_spans) | set(cand_spans)):
        base_s = base_spans[name].total_s if name in base_spans else 0.0
        cand_s = cand_spans[name].total_s if name in cand_spans else 0.0
        grew_s = cand_s - base_s
        grew_pct = (
            (cand_s / base_s - 1.0) * 100.0 if base_s > 0
            else (float("inf") if cand_s > 0 else 0.0)
        )
        regression = (
            grew_s > thresholds.span_min_s
            and grew_pct > thresholds.span_pct
        )
        diff.entries.append(DiffEntry(
            kind="span", name=name, baseline=base_s, candidate=cand_s,
            regression=regression,
            detail=(
                f"total {base_s:.3f}s -> {cand_s:.3f}s "
                f"({grew_pct:+.1f}%, limit +{thresholds.span_pct:g}% "
                f"and +{thresholds.span_min_s:g}s)"
            ),
        ))

    base_levels = {d.level: d for d in baseline.level_digests()}
    cand_levels = {d.level: d for d in candidate.level_digests()}
    for level in sorted(set(base_levels) | set(cand_levels)):
        base_rate = (
            base_levels[level].hit_rate if level in base_levels else 0.0
        )
        cand_rate = (
            cand_levels[level].hit_rate if level in cand_levels else 0.0
        )
        delta = cand_rate - base_rate
        regression = abs(delta) > thresholds.hit_rate_abs
        diff.entries.append(DiffEntry(
            kind="hit_rate", name=level, baseline=base_rate,
            candidate=cand_rate, regression=regression,
            detail=(
                f"hit rate {base_rate:.4f} -> {cand_rate:.4f} "
                f"({delta:+.4f}, limit ±{thresholds.hit_rate_abs:g})"
            ),
        ))

    base_vec = baseline.vector_fractions()
    cand_vec = candidate.vector_fractions()
    for level in sorted(set(base_vec) | set(cand_vec)):
        base_f = base_vec.get(level, 0.0)
        cand_f = cand_vec.get(level, 0.0)
        drop = base_f - cand_f
        regression = drop > thresholds.vector_fraction_abs
        diff.entries.append(DiffEntry(
            kind="vector_fraction", name=level, baseline=base_f,
            candidate=cand_f, regression=regression,
            detail=(
                f"vector fraction {base_f:.3f} -> {cand_f:.3f} "
                f"(drop limit {thresholds.vector_fraction_abs:g})"
            ),
        ))

    base_cells = baseline.cell_status_counts()
    cand_cells = candidate.cell_status_counts()
    for status in sorted(set(base_cells) | set(cand_cells)):
        base_n = base_cells.get(status, 0.0)
        cand_n = cand_cells.get(status, 0.0)
        bad = status in ("failed", "timed_out", "poisoned")
        regression = bad and cand_n > base_n
        diff.entries.append(DiffEntry(
            kind="cells", name=status, baseline=base_n, candidate=cand_n,
            regression=regression,
            detail=f"{int(base_n)} -> {int(cand_n)} cell(s) {status}",
        ))

    base_total = baseline.profile_samples()
    cand_total = candidate.profile_samples()
    if (
        base_total >= thresholds.hotspot_min_samples
        and cand_total >= thresholds.hotspot_min_samples
        and thresholds.hotspot_min_samples > 0
    ):
        base_shares = baseline.function_shares()
        cand_shares = candidate.function_shares()
        for function in sorted(set(base_shares) | set(cand_shares)):
            base_share = base_shares.get(function, 0.0)
            cand_share = cand_shares.get(function, 0.0)
            delta = cand_share - base_share
            regression = abs(delta) > thresholds.hotspot_share_abs
            # Keep the entry list to material functions: anything that
            # regressed, plus anything holding a threshold-sized share
            # in either run (the hotspots a reader would ask about).
            if not regression and (
                max(base_share, cand_share) < thresholds.hotspot_share_abs
            ):
                continue
            diff.entries.append(DiffEntry(
                kind="hotspot", name=function, baseline=base_share,
                candidate=cand_share, regression=regression,
                detail=(
                    f"inclusive share {base_share:.1%} -> "
                    f"{cand_share:.1%} ({delta * 100:+.1f} points, "
                    f"limit ±{thresholds.hotspot_share_abs * 100:g} "
                    f"points; {base_total} vs {cand_total} samples)"
                ),
            ))

    base_sup = baseline.supervision_counts()
    cand_sup = candidate.supervision_counts()
    for name in sorted(set(base_sup) | set(cand_sup)):
        base_n = base_sup.get(name, 0.0)
        cand_n = cand_sup.get(name, 0.0)
        if base_n == 0.0 and cand_n == 0.0:
            continue  # no supervision activity in either run
        # Poisoned cells and worker restarts gate: more of either means
        # the candidate needed more crash recovery for the same work.
        regression = (
            name in ("poisoned", "restarts") and cand_n > base_n
        )
        diff.entries.append(DiffEntry(
            kind="supervision", name=name, baseline=base_n,
            candidate=cand_n, regression=regression,
            detail=f"{int(base_n)} -> {int(cand_n)} {name}",
        ))

    return diff


def render_diff(diff: RunDiff) -> str:
    """The diff as a plain-text report (regressions first)."""
    lines = [
        "telemetry diff",
        f"  baseline:  {diff.baseline.root} "
        f"(run {diff.baseline.run_id or '?'})",
        f"  candidate: {diff.candidate.root} "
        f"(run {diff.candidate.run_id or '?'})",
    ]
    if diff.regressions:
        lines.append(f"  REGRESSIONS ({len(diff.regressions)}):")
        for entry in diff.regressions:
            lines.append(f"    [{entry.kind}] {entry.name}: {entry.detail}")
    else:
        lines.append("  no regressions")
    compared = {}
    for entry in diff.entries:
        compared[entry.kind] = compared.get(entry.kind, 0) + 1
    summary = ", ".join(
        f"{count} {kind}" for kind, count in sorted(compared.items())
    )
    lines.append(f"  compared: {summary or 'nothing'}")
    return "\n".join(lines)
