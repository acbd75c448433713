"""Metric instruments and the registry that owns them.

Three instrument kinds, mirroring the Prometheus data model the HPC
monitoring stacks this reproduction targets already speak:

- :class:`Counter` — monotonically increasing count (cells evaluated,
  workers restarted, references simulated);
- :class:`Gauge` — a value that goes up and down (sweep queue depth);
- :class:`Histogram` — fixed-bucket distribution (span durations,
  per-cell wall time).

Instruments are owned by a :class:`MetricsRegistry` and keyed by
``(name, labels)``, so ``registry.counter("repro_sweep_cells_total",
status="ok")`` always returns the same instrument. A
:class:`NullRegistry` provides the same surface with no-op instruments
so disabled telemetry costs nothing but a method call — and the hot
simulate loop does not even pay that (see
:mod:`repro.telemetry.windows`: the observer hook is a single
``is not None`` check per chunk).

All mutation is guarded by a registry-wide lock: the live server reads
the registry from its own thread while cells update it.
"""

from __future__ import annotations

import logging
import math
import re
import threading
from typing import Iterable

from repro.errors import TelemetryError

logger = logging.getLogger("repro.telemetry")

#: Default histogram bucket upper bounds (seconds-oriented).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0
)

#: Default cardinality cap: distinct (name, labels) series a registry
#: will create before it starts dropping new ones. Generous — a full
#: sweep today stays in the low hundreds — but finite, so a label
#: explosion (e.g. a unique id leaking into a label value) degrades to
#: dropped series instead of an unbounded metrics.prom.
DEFAULT_SERIES_CAP = 4096

#: Counter bumped once per series dropped by the cardinality guard.
DROPPED_SERIES_METRIC = "repro_telemetry_dropped_series"

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise TelemetryError(
            f"invalid metric name {name!r}: use [a-zA-Z0-9_:] only"
        )


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)


class Histogram:
    """A fixed-bucket histogram (cumulative rendering, Prometheus-style).

    Args:
        buckets: strictly increasing upper bounds; an implicit ``+Inf``
            bucket is always appended.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        lock: threading.Lock,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        #: Per-bucket (non-cumulative) observation counts; the final
        #: slot is the implicit +Inf bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def cumulative_counts(self) -> list[int]:
        """Counts at or below each bound, ending with the total."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """Owns every instrument; the single source for snapshots/exports.

    Args:
        max_series: cardinality guard — once this many distinct
            ``(name, labels)`` series exist, *new* series are not
            created: the caller gets the shared no-op instrument, a
            warning is logged once per registry, and the
            :data:`DROPPED_SERIES_METRIC` counter counts every drop.
            Existing series keep recording.
    """

    def __init__(self, *, max_series: int = DEFAULT_SERIES_CAP) -> None:
        if max_series < 1:
            raise TelemetryError(
                f"max_series must be at least 1, got {max_series}"
            )
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, _LabelKey], object] = {}
        self._kinds: dict[str, str] = {}
        self.max_series = int(max_series)
        self._cap_warned = False

    @property
    def enabled(self) -> bool:
        """True — a real registry records everything."""
        return True

    def _get(self, kind: str, name: str, labels: dict[str, str], factory):
        _validate_name(name)
        key = (name, _label_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise TelemetryError(
                    f"metric {name} already registered as a "
                    f"{existing_kind}, not a {kind}"
                )
            instrument = self._metrics.get(key)
            if instrument is None:
                if (
                    len(self._metrics) >= self.max_series
                    and name != DROPPED_SERIES_METRIC
                ):
                    return self._drop_series(name)
                instrument = factory()
                self._metrics[key] = instrument
                self._kinds[name] = kind
            return instrument

    def _drop_series(self, name: str):
        """Cardinality cap hit: count the drop, warn once, return a no-op.

        Called with ``_lock`` held; the dropped-series counter is
        mutated directly because instruments share the registry lock.
        """
        dropped_key = (DROPPED_SERIES_METRIC, _label_key({}))
        dropped = self._metrics.get(dropped_key)
        if dropped is None:
            dropped = Counter(DROPPED_SERIES_METRIC, {}, self._lock)
            self._metrics[dropped_key] = dropped
            self._kinds[DROPPED_SERIES_METRIC] = "counter"
        dropped.value += 1.0
        if not self._cap_warned:
            self._cap_warned = True
            logger.warning(
                "metric series cap reached (%d): dropping new series "
                "starting with %s; check for a label cardinality "
                "explosion (%s counts the drops)",
                self.max_series, name, DROPPED_SERIES_METRIC,
            )
        return _NULL_INSTRUMENT

    def counter(self, name: str, /, **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``.

        ``name`` is positional-only so ``name=...`` stays available as
        a label key (span metrics label by span name).
        """
        return self._get(
            "counter", name, labels,
            lambda: Counter(name, labels, self._lock),
        )

    def gauge(self, name: str, /, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(
            "gauge", name, labels, lambda: Gauge(name, labels, self._lock)
        )

    def histogram(
        self,
        name: str,
        /,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``.

        ``buckets`` applies only on first creation; later calls return
        the existing instrument unchanged.
        """
        return self._get(
            "histogram", name, labels,
            lambda: Histogram(name, labels, self._lock, buckets),
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Plain-data dump of every instrument (stable order)."""
        with self._lock:
            items = sorted(self._metrics.items(), key=lambda kv: kv[0])
        out = []
        for (name, _), inst in items:
            entry: dict = {
                "name": name,
                "kind": self._kinds[name],
                "labels": dict(inst.labels),
            }
            if isinstance(inst, Histogram):
                entry["sum"] = inst.sum
                entry["count"] = inst.count
                entry["buckets"] = {
                    str(b): c
                    for b, c in zip(
                        list(inst.buckets) + ["+Inf"],
                        inst.cumulative_counts(),
                    )
                }
            else:
                entry["value"] = inst.value
            out.append(entry)
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (see
        :func:`render_snapshot`)."""
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: list[dict]) -> str:
    """A :meth:`MetricsRegistry.snapshot` in Prometheus text exposition
    format: the one renderer for a live registry and for a snapshot
    that crossed a process boundary. :func:`render_snapshots` adds
    provenance labels per snapshot.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for entry in snapshot:
        name, kind = entry["name"], entry["kind"]
        base_labels = entry["labels"]
        if name not in seen_types:
            lines.append(f"# TYPE {name} {kind}")
            seen_types.add(name)
        if kind == "histogram":
            for bound, count in entry["buckets"].items():
                labels = dict(base_labels, le=bound)
                lines.append(
                    f"{name}_bucket{_render_labels(labels)} {count}"
                )
            lines.append(
                f"{name}_sum{_render_labels(base_labels)} "
                f"{_render_value(entry['sum'])}"
            )
            lines.append(
                f"{name}_count{_render_labels(base_labels)} "
                f"{entry['count']}"
            )
        else:
            lines.append(
                f"{name}{_render_labels(base_labels)} "
                f"{_render_value(entry['value'])}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def render_snapshots(
    snapshots: Iterable[tuple[list[dict], dict[str, str] | None]],
) -> str:
    """Several snapshots, each with its own extra labels (e.g. a run
    context's ``run`` / ``worker`` pair; an instrument's own label of
    the same name wins), as one exposition: a family's samples from
    every snapshot sit together under its one ``# TYPE`` line."""
    entries = [
        dict(entry, labels=dict(extra, **entry["labels"])) if extra else entry
        for snapshot, extra in snapshots
        for entry in snapshot
    ]
    entries.sort(key=lambda entry: entry["name"])
    return render_snapshot(entries)


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote, and newline become ``\\\\``, ``\\"`` and
    ``\\n`` — in that order of application, so a cell key containing
    any of them (quoted workload names, embedded newlines) cannot
    terminate the quoted value early and corrupt a scrape.
    """
    return _escape(value)


_UNESCAPE = re.compile(r"\\(.)")


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (single left-to-right pass).

    A sequential ``str.replace`` chain is *not* a correct inverse:
    ``"\\\\n"`` (an escaped backslash followed by a literal ``n``)
    would first be misread as an escaped newline. Scanning each
    backslash escape exactly once round-trips every value.
    """
    return _UNESCAPE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def _render_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# Null (disabled) variants
# ----------------------------------------------------------------------


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    labels: dict[str, str] = {}
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """A registry whose instruments drop everything.

    Every method returns the same shared no-op instrument, so code can
    be written unconditionally against the registry API while a
    disabled configuration records nothing and allocates nothing.
    """

    @property
    def enabled(self) -> bool:
        """False — nothing is recorded."""
        return False

    def counter(self, name: str, /, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, /, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, /, buckets=DEFAULT_BUCKETS, **labels):
        return _NULL_INSTRUMENT

    def snapshot(self) -> list[dict]:
        return []

    def render_prometheus(self) -> str:
        return ""


#: Shared null registry (stateless, safe to reuse everywhere).
NULL_REGISTRY = NullRegistry()
