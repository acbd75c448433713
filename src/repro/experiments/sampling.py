"""Sampled simulation windows: warmup + measured window per stride.

Full-scale (NPB class C/D footprint) traces run to billions of
references; simulating every one is exact but makes whole-campaign
turnaround infeasible. The standard systems answer — used by
PEBS-style online tracers (arXiv:2011.13432) and by the source paper's
own iteration-reduction methodology — is *periodic sampling*: simulate
a short **warmup** segment to re-warm cache state, **measure** the
window that follows, skip the rest of the stride, and extrapolate.

:class:`SampleSpec` names the three lengths (in trace events)::

    |<-------------------- stride -------------------->|
    | warmup (simulated, | window (simulated, | skipped |
    |   not measured)    |     measured)      |         |

and :func:`iter_sample_segments` slices any
:class:`~repro.trace.stream.AddressStream` into ``(batch, measured)``
pairs accordingly (chunk boundaries are respected — slices are
zero-copy views). The runner replays only warmup + window events,
snapshots per-level counters around each measured window, and scales
the measured deltas by ``total_events / measured_events`` to estimate
whole-stream :class:`~repro.cache.stats.HierarchyStats`.

Fidelity: the estimate is exact for stride-stationary behaviour and
degrades with phase behaviour whose period beats against the stride;
the measured fraction is recorded alongside every extrapolated result
so downstream consumers can judge. Streams no longer than
``warmup + window`` are measured in full (factor 1.0) — sampling never
makes a short stream *less* exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.cache.stats import COUNTER_FIELDS, LevelStats
from repro.errors import ConfigError
from repro.trace.events import AccessBatch
from repro.trace.stream import AddressStream


@dataclass(frozen=True)
class SampleSpec:
    """Periodic sampling parameters, all in trace events.

    Attributes:
        warmup: events simulated (to warm cache state) but excluded
            from measurement at the start of each stride.
        window: events simulated *and* measured after the warmup.
        stride: distance between window starts; events beyond
            ``warmup + window`` within a stride are skipped entirely.
    """

    warmup: int
    window: int
    stride: int

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigError(
                f"sample window must be positive, got {self.window}"
            )
        if self.warmup < 0:
            raise ConfigError(
                f"sample warmup must be non-negative, got {self.warmup}"
            )
        if self.stride < self.warmup + self.window:
            raise ConfigError(
                f"sample stride ({self.stride}) must cover "
                f"warmup + window ({self.warmup + self.window})"
            )

    @classmethod
    def parse(cls, text: str) -> "SampleSpec":
        """Parse the CLI form ``warmup:window:stride``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"sample spec must be WARMUP:WINDOW:STRIDE, got {text!r}"
            )
        try:
            warmup, window, stride = (int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(
                f"sample spec fields must be integers, got {text!r}"
            ) from exc
        return cls(warmup=warmup, window=window, stride=stride)

    @property
    def key(self) -> str:
        """Canonical string form (CLI syntax, journal engine_class)."""
        return f"{self.warmup}:{self.window}:{self.stride}"

    @property
    def measured_fraction(self) -> float:
        """Fraction of a long stream that lands in measured windows."""
        return self.window / self.stride

    def simulated_events(self, total: int) -> int:
        """Events actually simulated (warmup + window) out of ``total``."""
        return sum(
            len(batch)
            for batch, _ in iter_sample_segments_of_length(total, self)
        )


def _segments_of_length(total: int, spec: SampleSpec) -> Iterator[tuple[int, int, bool]]:
    """Yield ``(start, stop, measured)`` simulated spans of a stream.

    Skipped spans are not yielded. Streams no longer than
    ``warmup + window`` come back as one fully measured span.
    """
    if total <= 0:
        return
    if total <= spec.warmup + spec.window:
        yield 0, total, True
        return
    position = 0
    while position < total:
        phase = position % spec.stride
        if phase < spec.warmup:
            stop = min(total, position + (spec.warmup - phase))
            yield position, stop, False
        elif phase < spec.warmup + spec.window:
            stop = min(total, position + (spec.warmup + spec.window - phase))
            yield position, stop, True
        else:
            stop = min(total, position + (spec.stride - phase))
        position = stop


def iter_sample_segments_of_length(
    total: int, spec: SampleSpec
) -> Iterator[tuple[range, bool]]:
    """Simulated spans of an abstract stream of ``total`` events."""
    for start, stop, measured in _segments_of_length(total, spec):
        yield range(start, stop), measured


def iter_sample_segments(
    stream: AddressStream, spec: SampleSpec
) -> Iterator[tuple[AccessBatch, bool]]:
    """Slice a stream into simulated ``(batch, measured)`` segments.

    Batches are zero-copy views of the stream's chunks, in stream
    order; a segment crossing a chunk boundary is yielded as multiple
    batches with the same ``measured`` flag. Skipped spans produce
    nothing.
    """
    spans = _segments_of_length(len(stream), spec)
    span = next(spans, None)
    base = 0
    for chunk in stream.chunks():
        chunk_end = base + len(chunk)
        while span is not None and span[0] < chunk_end:
            start, stop, measured = span
            lo = max(start, base) - base
            hi = min(stop, chunk_end) - base
            if hi > lo:
                yield chunk.slice(lo, hi), measured
            if stop <= chunk_end:
                span = next(spans, None)
            else:
                break
        base = chunk_end


def iter_recorded_segments(
    stream: AddressStream, segments: list[tuple[int, bool]]
) -> Iterator[tuple[AccessBatch, bool]]:
    """Re-slice a recorded stream along previously recorded segments.

    ``segments`` is a list of ``(events, measured)`` pairs summing to
    ``len(stream)`` — e.g. the per-source-segment capture counts the
    runner records during a sampled upper-level simulation. Yields
    ``(batch, measured)`` zero-copy views in order, splitting at chunk
    boundaries as needed; zero-length segments are skipped.
    """
    queue = [(int(n), bool(m)) for n, m in segments]
    index = 0
    remaining = 0
    measured = False
    for chunk in stream.chunks():
        position = 0
        while position < len(chunk):
            while remaining == 0:
                if index >= len(queue):
                    raise ConfigError(
                        "recorded segments shorter than the stream they "
                        "describe"
                    )
                remaining, measured = queue[index]
                index += 1
            take = min(remaining, len(chunk) - position)
            yield chunk.slice(position, position + take), measured
            position += take
            remaining -= take


# ----------------------------------------------------------------------
# Counter snapshot/delta/scale arithmetic for extrapolation
# ----------------------------------------------------------------------

def snapshot_levels(levels: Iterable[LevelStats]) -> list[LevelStats]:
    """Value copies of live counter objects (cheap: a few ints each)."""
    return [replace(level) for level in levels]


def delta_levels(
    after: Iterable[LevelStats], before: Iterable[LevelStats]
) -> list[LevelStats]:
    """Per-field ``after - before`` (counters accumulated in between)."""
    out = []
    for a, b in zip(after, before):
        out.append(LevelStats(name=a.name, **{
            name: getattr(a, name) - getattr(b, name)
            for name in COUNTER_FIELDS
        }))
    return out


def add_levels(
    accumulator: list[LevelStats] | None, increment: Iterable[LevelStats]
) -> list[LevelStats]:
    """Accumulate measured deltas (None starts a fresh accumulator)."""
    increment = list(increment)
    if accumulator is None:
        return increment
    return [a.merge(b) for a, b in zip(accumulator, increment)]


def scale_levels(levels: Iterable[LevelStats], factor: float) -> list[LevelStats]:
    """Extrapolate measured counters to the whole stream.

    Each counter is scaled and rounded independently; rates (hit rate,
    bandwidth shares) are preserved to rounding. ``factor`` 1.0 is the
    identity.
    """
    if factor == 1.0:
        return [replace(level) for level in levels]
    return [
        LevelStats(name=level.name, **{
            name: int(round(getattr(level, name) * factor))
            for name in COUNTER_FIELDS
        })
        for level in levels
    ]
