"""Summarize a run's telemetry into a human-readable or JSON report.

``python -m repro.experiments telemetry report DIR`` reads DIR through
:func:`~repro.telemetry.observatory.aggregate_run` (a serial run and a
pool run alike: one directory holds every worker's share) and builds its :class:`TelemetrySummary` from that one read model with
:func:`~repro.telemetry.observatory.summary_from_aggregate`. This
module holds the summary's digests and renders them: event counts by
kind, per-span duration statistics, a per-stage window digest
(windows, references, per-level hit rate and demanded bandwidth),
cache-engine activity, profiler hotspots and pool supervision. It
reads no file itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.core import METRICS_FILE
from repro.telemetry.profiling import HotspotDigest
from repro.telemetry.windows import WindowRecord

#: Functions listed per stage in the report's hotspots section.
HOTSPOT_TOP = 5


@dataclass
class SpanDigest:
    """Aggregate statistics for one span name.

    Attributes:
        name: span name.
        count: finished spans.
        total_s / mean_s / max_s: duration aggregates, seconds.
    """

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        """Mean duration (0.0 when no spans finished)."""
        return self.total_s / self.count if self.count else 0.0


@dataclass
class LevelDigest:
    """Per-level aggregate over one stage's windows.

    Attributes:
        level: hierarchy level name.
        accesses / hits / bytes_moved / writebacks: window sums.
    """

    level: str
    accesses: int = 0
    hits: int = 0
    bytes_moved: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Overall hit fraction across the stage's windows."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class StageWindows:
    """One stage's window time-series digest.

    Attributes:
        context: stage label (its window events' ``context``).
        windows: number of emitted windows.
        refs: top-level references covered.
        levels: per-level digests, top to bottom.
    """

    context: str
    windows: int
    refs: int
    levels: list[LevelDigest] = field(default_factory=list)


@dataclass
class EngineDigest:
    """Per-level cache-engine activity digest.

    Built from ``engine_selected`` events (which engine each level
    resolved to) joined with the merged ``repro_engine_*`` counters and
    gauges (how much work the set-parallel fast path actually
    absorbed); see :meth:`RunAggregate.engine_digests
    <repro.telemetry.observatory.RunAggregate.engine_digests>`.

    Attributes:
        level: hierarchy level name.
        engine: resolved engine: ``"scalar"``, ``"setpar"``,
            ``"lru-counts"`` (a last LRU cache priced from whole-stream
            counts, with no rounds or runs) or ``"analytic"``.
        policy: the level's replacement policy.
        rounds: total vectorized rounds executed.
        runs_vector / runs_scalar: collapsed runs taken by the
            vectorized paths (setpar rounds and the LRU step) vs the
            scalar loop (small fallbacks + tails).
        occupancy: mean active lanes per round of the last batch
            (0.0 when the level never went vectorized).
    """

    level: str
    engine: str = "?"
    policy: str = ""
    rounds: int = 0
    runs_vector: int = 0
    runs_scalar: int = 0
    occupancy: float = 0.0

    @property
    def vector_fraction(self) -> float:
        """Fraction of collapsed runs handled by the vectorized paths."""
        total = self.runs_vector + self.runs_scalar
        return self.runs_vector / total if total else 0.0


@dataclass
class SupervisionDigest:
    """Worker-pool supervision activity extracted from the event log.

    Counts the supervised pool's lifecycle events
    (:mod:`repro.resilience.pool`): a campaign that needed no
    supervision renders no section at all.

    Attributes:
        spawned / died / respawned: worker process lifecycle counts.
        requeued: in-flight cells recovered from dead workers.
        poisoned: cells quarantined after killing successive workers.
        hung: hung workers the watchdog SIGKILLed.
        drains: graceful SIGINT/SIGTERM drains.
        exhausted: pool-exhaustion events (restart budget spent).
    """

    spawned: int = 0
    died: int = 0
    respawned: int = 0
    requeued: int = 0
    poisoned: int = 0
    hung: int = 0
    drains: int = 0
    exhausted: int = 0

    @property
    def any(self) -> bool:
        """Whether any supervision beyond initial spawns happened."""
        return bool(
            self.died or self.respawned or self.requeued
            or self.poisoned or self.hung or self.drains
            or self.exhausted
        )


#: event kind -> SupervisionDigest attribute incremented per event.
_SUPERVISION_EVENTS = {
    "worker_spawned": "spawned",
    "worker_died": "died",
    "worker_respawned": "respawned",
    "cell_requeued": "requeued",
    "cell_poisoned": "poisoned",
    "worker_hung": "hung",
    "pool_drain": "drains",
    "pool_exhausted": "exhausted",
}


def supervision_digest(events_by_kind: dict[str, int]) -> SupervisionDigest:
    """Fold event-kind counts into a :class:`SupervisionDigest`."""
    digest = SupervisionDigest()
    for kind, attr in _SUPERVISION_EVENTS.items():
        setattr(digest, attr, events_by_kind.get(kind, 0))
    return digest


@dataclass
class TelemetrySummary:
    """Everything ``telemetry report`` prints about one run.

    Attributes:
        directory: the summarized path.
        events_by_kind: event counts from the (deduplicated) run log.
        spans: per-name span digests, by descending total time.
        stages: per-stage window digests, by context.
        engines: per-level cache-engine digests, by level name.
        supervision: worker-pool supervision digest.
        metrics_lines: lines of the merged Prometheus snapshot (one
            ``# TYPE`` line per metric plus one line per sample).
        hotspots: sampled-profiler top functions per stage (empty when
            the run was not profiled).
        profile_samples: total profiler samples behind the hotspots.
    """

    directory: Path
    events_by_kind: dict[str, int] = field(default_factory=dict)
    spans: list[SpanDigest] = field(default_factory=list)
    stages: list[StageWindows] = field(default_factory=list)
    engines: list[EngineDigest] = field(default_factory=list)
    supervision: SupervisionDigest = field(
        default_factory=SupervisionDigest
    )
    metrics_lines: int = 0
    hotspots: list[HotspotDigest] = field(default_factory=list)
    profile_samples: int = 0


def _digest_windows(context: str, records: list[WindowRecord]) -> StageWindows:
    by_level: dict[str, LevelDigest] = {}
    refs = 0
    windows = 0
    for record in records:
        windows = max(windows, record.index + 1)
        refs = max(refs, record.end_refs)
        digest = by_level.setdefault(record.level, LevelDigest(record.level))
        digest.accesses += record.accesses
        digest.hits += record.hits
        digest.bytes_moved += record.bytes_moved
        digest.writebacks += record.writebacks
    return StageWindows(
        context=context, windows=windows, refs=refs,
        levels=list(by_level.values()),
    )


def summary_to_dict(summary: TelemetrySummary) -> dict:
    """The summary as a JSON-serializable dict (``report --json``).

    Shares the exact aggregation the text renderer consumes — spans,
    stages, engines, supervision, hotspots — so machine consumers (the
    live progress API, the future campaign server) read the same
    structure the human report prints. Derived ratios (mean durations,
    hit rates, vector fractions) are materialized so consumers need no
    re-computation.
    """
    return {
        "directory": str(summary.directory),
        "events_by_kind": dict(sorted(summary.events_by_kind.items())),
        "spans": [
            {
                "name": d.name,
                "count": d.count,
                "total_s": d.total_s,
                "mean_s": d.mean_s,
                "max_s": d.max_s,
            }
            for d in summary.spans
        ],
        "stages": [
            {
                "context": stage.context,
                "windows": stage.windows,
                "refs": stage.refs,
                "levels": [
                    {
                        "level": d.level,
                        "accesses": d.accesses,
                        "hits": d.hits,
                        "hit_rate": d.hit_rate,
                        "bytes_moved": d.bytes_moved,
                        "writebacks": d.writebacks,
                    }
                    for d in stage.levels
                ],
            }
            for stage in summary.stages
        ],
        "engines": [
            {
                "level": d.level,
                "engine": d.engine,
                "policy": d.policy,
                "rounds": d.rounds,
                "runs_vector": d.runs_vector,
                "runs_scalar": d.runs_scalar,
                "vector_fraction": d.vector_fraction,
                "occupancy": d.occupancy,
            }
            for d in summary.engines
        ],
        "supervision": {
            attr: getattr(summary.supervision, attr)
            for attr in (
                "spawned", "died", "respawned", "requeued",
                "poisoned", "hung", "drains", "exhausted",
            )
        },
        "hotspots": [
            {
                "stage": d.stage,
                "function": d.function,
                "samples": d.samples,
                "share": d.share,
            }
            for d in summary.hotspots
        ],
        "profile_samples": summary.profile_samples,
        "metrics_lines": summary.metrics_lines,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """Minimal left-aligned ASCII table (self-contained on purpose:
    keeps :mod:`repro.telemetry` free of :mod:`repro.experiments`)."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), rule] + [line(r) for r in rows])


def render_summary(summary: TelemetrySummary) -> str:
    """The summary as a multi-section plain-text report."""
    sections = [f"telemetry report: {summary.directory}"]

    if summary.events_by_kind:
        rows = [
            [kind, str(count)]
            for kind, count in sorted(summary.events_by_kind.items())
        ]
        sections.append("events\n" + _table(["kind", "count"], rows))
    else:
        sections.append("events: none recorded")

    if summary.spans:
        rows = [
            [
                d.name, str(d.count), f"{d.total_s:.3f}",
                f"{d.mean_s:.3f}", f"{d.max_s:.3f}",
            ]
            for d in summary.spans
        ]
        sections.append(
            "spans (seconds)\n"
            + _table(["span", "count", "total", "mean", "max"], rows)
        )

    for stage in summary.stages:
        rows = [
            [
                d.level, str(d.accesses), f"{d.hit_rate:.4f}",
                str(d.bytes_moved), str(d.writebacks),
            ]
            for d in stage.levels
        ]
        sections.append(
            f"windows [{stage.context}]: {stage.windows} window(s), "
            f"{stage.refs:,} refs\n"
            + _table(
                ["level", "accesses", "hit_rate", "bytes", "writebacks"],
                rows,
            )
        )

    if summary.engines:
        rows = [
            [
                d.level, d.engine, d.policy, str(d.rounds),
                str(d.runs_vector), str(d.runs_scalar),
                f"{d.vector_fraction:.3f}", f"{d.occupancy:.1f}",
            ]
            for d in summary.engines
        ]
        sections.append(
            "cache engines\n"
            + _table(
                [
                    "level", "engine", "policy", "rounds", "vec_runs",
                    "scalar_runs", "vec_frac", "occupancy",
                ],
                rows,
            )
        )

    if summary.hotspots:
        rows = [
            [d.stage, d.function, str(d.samples), f"{d.share:.1%}"]
            for d in summary.hotspots
        ]
        sections.append(
            f"hotspots (top {HOTSPOT_TOP} functions by inclusive "
            f"samples, {summary.profile_samples} sample(s))\n"
            + _table(["stage", "function", "samples", "share"], rows)
        )

    if summary.supervision.any:
        s = summary.supervision
        rows = [
            ["workers spawned", str(s.spawned)],
            ["workers died", str(s.died)],
            ["workers respawned", str(s.respawned)],
            ["cells requeued", str(s.requeued)],
            ["cells poisoned", str(s.poisoned)],
            ["watchdog escalations", str(s.hung)],
            ["graceful drains", str(s.drains)],
            ["pool exhaustions", str(s.exhausted)],
        ]
        sections.append(
            "supervision\n" + _table(["event", "count"], rows)
        )

    if summary.metrics_lines:
        sections.append(
            f"metrics snapshot: {summary.metrics_lines} lines "
            f"({METRICS_FILE})"
        )
    return "\n\n".join(sections)
