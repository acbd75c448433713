"""Epoch-windowed time-series of simulation-native signals.

End-of-run :class:`~repro.cache.stats.HierarchyStats` totals hide the
*shape* of a workload: a phase-local kernel and a uniformly random one
can produce the same aggregate hit rate. A :class:`WindowedCollector`
slices a simulation into epochs of N top-level references and records,
per epoch and per hierarchy level, the arriving loads/stores, hit/miss
split, writeback and fill volume, and transferred bits — from which
per-window hit rate and demanded bandwidth (bytes per reference)
follow.

The collector observes a hierarchy through the ``observer`` hook on
:class:`~repro.cache.hierarchy.Hierarchy`: after each processed chunk
the hierarchy calls ``observer.on_refs(n)``, and the collector
snapshots the cumulative per-level counters whenever a window boundary
is crossed. Windows therefore quantize to chunk boundaries (windows
are *at least* ``window_refs`` wide), and because every window is an
exact delta of the cumulative counters, the per-level sums over all
windows equal the final totals **exactly** — the conservation property
the tests assert. Each window travels as one ``window`` event
(:func:`encode_window` / :func:`decode_window`), the only on-disk form
of the series. When no observer is attached the hook costs
one ``is not None`` check per chunk, which is the provably-negligible
disabled path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import TelemetryError
from repro.telemetry.core import DEFAULT_WINDOW_REFS

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.cache.stats import LevelStats

#: The raw per-level counters carried by every window (delta values).
WINDOW_FIELDS: tuple[str, ...] = (
    "loads",
    "stores",
    "load_hits",
    "load_misses",
    "store_hits",
    "store_misses",
    "writebacks",
    "fills",
    "load_bits",
    "store_bits",
)


@dataclass(frozen=True)
class WindowRecord:
    """One hierarchy level's activity during one reference window.

    All counters are deltas over the window, not cumulative values.

    Attributes:
        index: window number, starting at 0.
        start_refs / end_refs: the half-open reference interval
            ``[start_refs, end_refs)`` the window covers.
        level: hierarchy level name.
        loads / stores / load_hits / load_misses / store_hits /
        store_misses / writebacks / fills / load_bits / store_bits:
            the :class:`~repro.cache.stats.LevelStats` counters
            accumulated during the window.
    """

    index: int
    start_refs: int
    end_refs: int
    level: str
    loads: int
    stores: int
    load_hits: int
    load_misses: int
    store_hits: int
    store_misses: int
    writebacks: int
    fills: int
    load_bits: int
    store_bits: int

    @property
    def accesses(self) -> int:
        """Requests arriving at the level during the window."""
        return self.loads + self.stores

    @property
    def hits(self) -> int:
        """Hits during the window."""
        return self.load_hits + self.store_hits

    @property
    def hit_rate(self) -> float:
        """Hit fraction of arriving requests (0.0 for an idle window)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def bytes_moved(self) -> int:
        """Bytes arriving at the level during the window."""
        return (self.load_bits + self.store_bits) // 8

    @property
    def demand_bytes_per_ref(self) -> float:
        """Demanded bandwidth: arriving bytes per top-level reference."""
        width = self.end_refs - self.start_refs
        return self.bytes_moved / width if width else 0.0


_Snapshot = dict[str, tuple[int, ...]]


class WindowedCollector:
    """Collects per-level window records from a running simulation.

    Args:
        context: label for the observed stage (the ``context`` of its
            ``window`` events, e.g. ``"upper-CG"``).
        levels_fn: zero-argument callable returning the current
            per-level :class:`~repro.cache.stats.LevelStats`, top to
            bottom. Called once at construction (baseline) and once per
            window boundary; the level set must stay stable.
        window_refs: window width in top-level references.
        on_window: optional callback ``(collector, new_records)``
            invoked after each emitted window (the telemetry facade
            uses it to stream window events to the JSONL log).
    """

    def __init__(
        self,
        context: str,
        levels_fn: Callable[[], Sequence["LevelStats"]],
        window_refs: int = DEFAULT_WINDOW_REFS,
        on_window: Callable[["WindowedCollector", list[WindowRecord]], None]
        | None = None,
    ) -> None:
        if window_refs <= 0:
            raise TelemetryError(
                f"window_refs must be positive, got {window_refs}"
            )
        self.context = context
        self.window_refs = int(window_refs)
        self.records: list[WindowRecord] = []
        self._levels_fn = levels_fn
        self._on_window = on_window
        self._refs = 0
        self._emitted_refs = 0
        self._index = 0
        self._finished = False
        self._baseline = self._snapshot()
        self._level_order = list(self._baseline)

    # ------------------------------------------------------------------

    def _snapshot(self) -> _Snapshot:
        snap: _Snapshot = {}
        for stats in self._levels_fn():
            if stats.name in snap:
                raise TelemetryError(
                    f"duplicate level name {stats.name!r} in window "
                    f"collector {self.context!r}"
                )
            snap[stats.name] = tuple(
                getattr(stats, field) for field in WINDOW_FIELDS
            )
        return snap

    @property
    def refs(self) -> int:
        """Top-level references observed so far."""
        return self._refs

    def on_refs(self, n: int) -> None:
        """Observer hook: ``n`` more top-level references were simulated."""
        self._refs += n
        if self._refs - self._emitted_refs >= self.window_refs:
            self._emit()

    def _emit(self) -> None:
        current = self._snapshot()
        if list(current) != self._level_order:
            raise TelemetryError(
                f"level set changed under window collector "
                f"{self.context!r}: {self._level_order} -> {list(current)}"
            )
        fresh: list[WindowRecord] = []
        for name in self._level_order:
            before, after = self._baseline[name], current[name]
            fresh.append(
                WindowRecord(
                    index=self._index,
                    start_refs=self._emitted_refs,
                    end_refs=self._refs,
                    level=name,
                    **{
                        field: after[i] - before[i]
                        for i, field in enumerate(WINDOW_FIELDS)
                    },
                )
            )
        self.records.extend(fresh)
        self._baseline = current
        self._emitted_refs = self._refs
        self._index += 1
        if self._on_window is not None:
            self._on_window(self, fresh)

    def finish(self) -> list[WindowRecord]:
        """Emit the final (possibly partial) window and return all records.

        The final window also captures activity that arrives without
        new references — e.g. the writebacks of an end-of-run drain.
        Idempotent: a second call returns the same records.
        """
        if not self._finished:
            if (
                self._refs > self._emitted_refs
                or self._snapshot() != self._baseline
            ):
                self._emit()
            self._finished = True
        return self.records


def sum_windows(records: Sequence[WindowRecord]) -> dict[str, dict[str, int]]:
    """Per-level field sums of window records.

    After :meth:`WindowedCollector.finish`, the sums over a collector's
    records (or over the records decoded from its ``window`` events)
    equal the observed run's final counters exactly (conservation).
    """
    out: dict[str, dict[str, int]] = {}
    for record in records:
        level = out.setdefault(
            record.level, {field: 0 for field in WINDOW_FIELDS}
        )
        for field in WINDOW_FIELDS:
            level[field] += getattr(record, field)
    return out


def encode_window(records: Sequence[WindowRecord]) -> dict:
    """One window's per-level records as a ``window`` event payload.

    ``levels`` is a list, top level first, of each level's name and raw
    :data:`WINDOW_FIELDS` counters: a list keeps the hierarchy order
    through the event log's sorted-key serialization, and raw counters
    let :func:`decode_window` rebuild the records exactly.
    """
    first = records[0]
    return {
        "window": first.index,
        "start_refs": first.start_refs,
        "end_refs": first.end_refs,
        "levels": [
            {"level": r.level, **{f: getattr(r, f) for f in WINDOW_FIELDS}}
            for r in records
        ],
    }


def decode_window(event: dict, source: str) -> list[WindowRecord]:
    """The :class:`WindowRecord` list a ``window`` event carries.

    Raises:
        TelemetryError: a level entry, its name or an integer field is
            missing or malformed; the message names ``source`` and the
            event's ``seq``.
    """
    where = f"window event seq {event.get('seq')} in {source}"

    def integer(mapping: dict, key: str) -> int:
        value = mapping.get(key)
        if type(value) is not int:  # a bool is no counter
            raise TelemetryError(
                f"{where}: {key} is {value!r}, not an integer"
            )
        return value

    levels = event.get("levels")
    if not isinstance(levels, list):
        raise TelemetryError(f"{where}: levels is not a list of counters")
    records = []
    for entry in levels:
        name = entry.get("level") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise TelemetryError(f"{where}: bad level entry {entry!r}")
        records.append(
            WindowRecord(
                index=integer(event, "window"),
                start_refs=integer(event, "start_refs"),
                end_refs=integer(event, "end_refs"),
                level=name,
                **{f: integer(entry, f) for f in WINDOW_FIELDS},
            )
        )
    return records
