"""Observability for the whole pipeline: metrics, spans, time-series.

Simulation results are only trustworthy when the intermediate signals
are inspectable, and long campaigns are only operable when they report
progress while running. This package is that layer:

- :mod:`repro.telemetry.registry` — counters, gauges, fixed-bucket
  histograms (:class:`MetricsRegistry`), with a zero-cost
  :class:`NullRegistry` for the disabled path.
- :mod:`repro.telemetry.core` — the :class:`Telemetry` facade: nesting
  span timers, JSONL events, the process-wide *active* instance
  (:func:`get_active` / :func:`set_active` / :func:`activate`), and
  :data:`NULL_TELEMETRY`.
- :mod:`repro.telemetry.windows` — epoch-windowed per-level
  time-series (:class:`WindowedCollector`) whose window sums equal the
  final :class:`~repro.cache.stats.HierarchyStats` counters exactly.
- :mod:`repro.telemetry.exporters` — atomic JSONL / CSV / Prometheus
  writers and their readers.
- :mod:`repro.telemetry.progress` — live per-cell sweep progress with
  ETA and the ``--resume`` startup summary.
- :mod:`repro.telemetry.report` — the ``telemetry report`` summary
  and its text / JSON renderers.
- :mod:`repro.telemetry.profiling` — continuous profiling: a sampled
  wall-clock stack profiler attributed to spans/cells (``flame.folded``
  flamegraphs) and tracemalloc memory watermarks.
- :mod:`repro.telemetry.live` — the live observability plane:
  :class:`TelemetryServer` (``telemetry serve`` / ``sweep --serve``)
  with Prometheus ``/metrics``, a resumable ``/events`` SSE stream,
  progress/readiness endpoints, and the :func:`watch` terminal
  dashboard.
"""

from repro.telemetry.core import (
    EVENTS_FILE,
    METRICS_FILE,
    NULL_TELEMETRY,
    NullTelemetry,
    RunContext,
    Span,
    Telemetry,
    activate,
    get_active,
    new_run_id,
    set_active,
    slugify,
)
from repro.telemetry.exporters import (
    JsonlEventLog,
    JsonlTailer,
    atomic_write_text,
    read_jsonl,
    read_windows_csv,
    write_prometheus,
    write_windows_csv,
)
from repro.telemetry.live import (
    DirectoryFollower,
    EventCursor,
    ProgressTracker,
    RunIndex,
    TelemetryServer,
    pool_readiness,
    render_dashboard,
    watch,
)
from repro.telemetry.observatory import (
    MERGED_WINDOWS_FILE,
    TRACE_FILE,
    DiffEntry,
    DiffThresholds,
    RunAggregate,
    RunDiff,
    WindowRow,
    aggregate_run,
    chrome_trace,
    diff_runs,
    discover_sources,
    render_diff,
    render_run_overview,
    summary_from_aggregate,
    worker_index,
    write_chrome_trace,
    write_merged,
)
from repro.telemetry.profiling import (
    DEFAULT_HZ,
    FLAME_FILE,
    MEMORY_FILE,
    PROFILE_FILE,
    HotspotDigest,
    MemoryTracker,
    MemoryWatermark,
    ProfilingSession,
    SamplingProfiler,
    function_shares,
    hotspot_digests,
    merge_records,
    read_memory_csv,
    read_profile,
    render_flame,
    total_samples,
    write_flame,
    write_memory_csv,
)
from repro.telemetry.progress import (
    ProgressReporter,
    format_duration,
    price_eta,
)
from repro.telemetry.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    escape_label_value,
    unescape_label_value,
)
from repro.telemetry.report import (
    TelemetrySummary,
    render_summary,
    summary_to_dict,
)
from repro.telemetry.windows import (
    DEFAULT_WINDOW_REFS,
    WINDOW_FIELDS,
    WindowedCollector,
    WindowRecord,
    sum_windows,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "RunContext",
    "Span",
    "activate",
    "get_active",
    "new_run_id",
    "set_active",
    "slugify",
    "MERGED_WINDOWS_FILE",
    "TRACE_FILE",
    "DiffEntry",
    "DiffThresholds",
    "RunAggregate",
    "RunDiff",
    "WindowRow",
    "aggregate_run",
    "chrome_trace",
    "diff_runs",
    "discover_sources",
    "render_diff",
    "render_run_overview",
    "summary_from_aggregate",
    "worker_index",
    "write_chrome_trace",
    "write_merged",
    "EVENTS_FILE",
    "METRICS_FILE",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedCollector",
    "WindowRecord",
    "WINDOW_FIELDS",
    "DEFAULT_WINDOW_REFS",
    "sum_windows",
    "JsonlEventLog",
    "JsonlTailer",
    "read_jsonl",
    "read_windows_csv",
    "write_windows_csv",
    "write_prometheus",
    "atomic_write_text",
    "DEFAULT_HZ",
    "FLAME_FILE",
    "MEMORY_FILE",
    "PROFILE_FILE",
    "HotspotDigest",
    "MemoryTracker",
    "MemoryWatermark",
    "ProfilingSession",
    "SamplingProfiler",
    "function_shares",
    "hotspot_digests",
    "merge_records",
    "read_memory_csv",
    "read_profile",
    "render_flame",
    "total_samples",
    "write_flame",
    "write_memory_csv",
    "ProgressReporter",
    "format_duration",
    "price_eta",
    "escape_label_value",
    "unescape_label_value",
    "TelemetrySummary",
    "render_summary",
    "summary_to_dict",
    "DirectoryFollower",
    "EventCursor",
    "ProgressTracker",
    "RunIndex",
    "TelemetryServer",
    "pool_readiness",
    "render_dashboard",
    "watch",
]
