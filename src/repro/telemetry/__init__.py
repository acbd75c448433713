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
  final :class:`~repro.cache.stats.HierarchyStats` counters exactly,
  and the codec of the ``window`` events that carry it.
- :mod:`repro.telemetry.exporters` — the JSONL event log, its readers,
  and atomic Prometheus / whole-file writers.
- :mod:`repro.telemetry.progress` — live per-cell sweep progress with
  ETA and the ``--resume`` startup summary.
- :mod:`repro.telemetry.report` — the ``telemetry report`` summary
  and its text / JSON renderers.
- :mod:`repro.telemetry.profiling` — continuous profiling: a sampled
  wall-clock stack profiler attributed to spans/cells, and the
  ``flame.folded`` flamegraphs ``telemetry flame`` renders from it.
- :mod:`repro.telemetry.live` — the live observability plane:
  :class:`TelemetryServer` (``telemetry serve`` / ``sweep --serve``)
  with Prometheus ``/metrics``, a resumable ``/events`` SSE stream,
  progress/readiness endpoints, and the :func:`watch` terminal
  dashboard.

The package re-exports nothing: import names from their submodules
(``from repro.telemetry.core import Telemetry``), so a command loads
only the parts of this layer it runs.
"""
