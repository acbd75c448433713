"""Hot address-range identification from a traced run.

Maps the paper's methodology onto our instrumentation: each traced
region (one logical data structure) plays the role of a "range
referenced by different basic blocks". The profiler measures each
region's share of the memory references, keeps the ranges that together
account for the bulk of them, and merges ranges that are close in the
address space.

The counting is one pass: every access is binned into the intervals
between the regions' edges (:func:`region_traffic`), and any range whose
edges are region edges — a region, or a merge of close regions — sums
its intervals. So a trace is scanned once, however many selections
(:func:`select_ranges`) are made from its counts.

The counts are rows of Python integers, as the trace cache's upper
record keeps them, and selecting from them is plain Python (``bisect``
and prefix sums): only the scan of the stream itself uses numpy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.partition.ranges import AddressRange, merge_close_ranges
from repro.trace.stream import AddressStream
from repro.trace.tracer import REGION_ALIGN, Tracer

#: Minimum gap the bump allocator leaves between regions (one guard page).
REGION_GUARD_GAP: int = REGION_ALIGN


@dataclass(frozen=True)
class RangeProfile:
    """Reference traffic attributed to one candidate range.

    Attributes:
        range: the address range.
        loads / stores: accesses that fell inside the range.
        load_bytes / store_bytes: byte volumes of those accesses.
    """

    range: AddressRange
    loads: int
    stores: int
    load_bytes: int
    store_bytes: int

    @property
    def references(self) -> int:
        """Total accesses inside the range."""
        return self.loads + self.stores

    @property
    def store_fraction(self) -> float:
        """Store share of the range's accesses (write-hotness)."""
        return self.stores / self.references if self.references else 0.0


#: Per-interval counter columns of :func:`region_traffic`, in order.
TRAFFIC_COLUMNS: tuple[str, ...] = (
    "loads", "stores", "load_bytes", "store_bytes",
)


def _interval_edges(ranges: list[AddressRange]) -> list[int]:
    """The sorted, unique start and end addresses of ``ranges``.

    Each gap between two neighbouring edges is one *interval*; every
    range is exactly the union of the intervals between its own edges.
    """
    return sorted({r.start for r in ranges} | {r.end for r in ranges})


def _count_intervals(stream: AddressStream, edges: list[int]) -> list[list[int]]:
    """Reference counters of every interval between ``edges``.

    One pass over the stream: a ``searchsorted`` of each chunk's
    addresses over the edges, then integer bin counts of loads, stores
    and their byte volumes (int64 throughout, so the sums are exact).

    Returns:
        ``len(edges) - 1`` rows of :data:`TRAFFIC_COLUMNS` counters, as
        Python ints; row ``i`` counts the accesses in
        ``[edges[i], edges[i + 1])``.
    """
    if len(edges) < 2:
        return []
    import numpy as np

    edges = np.array(edges, dtype=np.uint64)
    # Bin k holds the addresses with exactly k edges at or below them:
    # bin 0 lies below every edge, bin len(edges) at or above the last.
    n_bins = len(edges) + 1
    counts = np.zeros(2 * n_bins, dtype=np.int64)
    volumes = np.zeros(2 * n_bins, dtype=np.int64)
    for chunk in stream.chunks():
        bins = 2 * np.searchsorted(edges, chunk.addresses, side="right")
        bins += chunk.is_store != 0
        counts += np.bincount(bins, minlength=2 * n_bins)
        np.add.at(volumes, bins, chunk.sizes.astype(np.int64))
    # Columns per bin: (loads, stores) then (load bytes, store bytes).
    traffic = np.hstack([counts.reshape(n_bins, 2), volumes.reshape(n_bins, 2)])
    return traffic[1:-1].tolist()


def _range_profiles(
    ranges: list[AddressRange], edges: list[int], traffic: list[list[int]]
) -> list[RangeProfile]:
    """Each range's counters: the sum of its intervals' rows of
    ``traffic`` (see :func:`_count_intervals`). Every range's start and
    end must be among ``edges``."""
    totals = [[0] * len(TRAFFIC_COLUMNS)]
    for row in traffic:
        totals.append([total + value for total, value in zip(totals[-1], row)])
    profiles = []
    for r in ranges:
        lo = totals[bisect_left(edges, r.start)]
        hi = totals[bisect_left(edges, r.end)]
        profiles.append(RangeProfile(r, *(b - a for a, b in zip(lo, hi))))
    return profiles


def _count_range_traffic(
    stream: AddressStream, ranges: list[AddressRange]
) -> list[RangeProfile]:
    """One pass over the stream accumulating per-range counters.

    Exact for unsorted, adjacent and overlapping ranges alike: each
    range sums the counters of the intervals it spans.
    """
    edges = _interval_edges(ranges)
    return _range_profiles(ranges, edges, _count_intervals(stream, edges))


def _region_ranges(tracer: Tracer) -> list[AddressRange]:
    return [
        AddressRange(region.base, region.end, region.name)
        for region in tracer.regions
    ]


def region_traffic(stream: AddressStream, tracer: Tracer) -> list[list[int]]:
    """:func:`_count_intervals` over the edges of the tracer's regions.

    Independent of every :func:`profile_ranges` setting, so a trace's
    candidate ranges can be selected from it any number of times
    without another pass (see :func:`select_ranges`).
    """
    return _count_intervals(stream, _interval_edges(_region_ranges(tracer)))


def region_intervals(tracer: Tracer) -> int:
    """How many rows :func:`region_traffic` has for ``tracer``."""
    return max(0, len(_interval_edges(_region_ranges(tracer))) - 1)


def select_ranges(
    tracer: Tracer,
    traffic: list[list[int]],
    *,
    coverage: float = 0.95,
    merge_gap: int = REGION_GUARD_GAP - 1,
    max_ranges: int = 8,
) -> list[RangeProfile]:
    """:func:`profile_ranges` from the trace's :func:`region_traffic`.

    Both of its passes — over the regions, then over the merged ranges
    — read ``traffic``: a merged range's edges are region edges.
    """
    if not 0 < coverage <= 1:
        raise ConfigError("coverage must be in (0, 1]")
    if max_ranges < 1:
        raise ConfigError("max_ranges must be at least 1")
    if not tracer.regions:
        return []
    region_ranges = _region_ranges(tracer)
    edges = _interval_edges(region_ranges)
    profiles = _range_profiles(region_ranges, edges, traffic)
    total = sum(p.references for p in profiles)
    if total == 0:
        return []
    # Keep the hottest regions until the coverage target is met.
    profiles.sort(key=lambda p: p.references, reverse=True)
    kept: list[RangeProfile] = []
    covered = 0
    for profile in profiles:
        if covered >= coverage * total and kept:
            break
        if profile.references == 0:
            break
        kept.append(profile)
        covered += profile.references
    # Merge close ranges, then re-profile the merged ranges so their
    # traffic counters include everything the merged span covers.
    merged = merge_close_ranges([p.range for p in kept], merge_gap)
    merged = merged[:max_ranges]
    result = _range_profiles(merged, edges, traffic)
    result.sort(key=lambda p: p.references, reverse=True)
    return result


def profile_ranges(
    stream: AddressStream,
    tracer: Tracer,
    *,
    coverage: float = 0.95,
    merge_gap: int = REGION_GUARD_GAP - 1,
    max_ranges: int = 8,
) -> list[RangeProfile]:
    """Identify the candidate placement ranges of a traced run.

    Args:
        stream: the traced address stream.
        tracer: the tracer that ran the workload (provides the region
            map — the paper's per-basic-block address ranges).
        coverage: keep the fewest hottest regions covering at least this
            fraction of all references before merging.
        merge_gap: merge surviving ranges closer than this many bytes
            ("merged ranges close to each other"). The default is just
            below the allocator's guard-page gap, so each logical data
            structure stays its own placement candidate; pass a larger
            gap to coalesce structures allocated together.
        max_ranges: hard cap on the number of candidate ranges (the
            paper typically found 2–3 per workload).

    Returns:
        Profiles of the merged candidate ranges, hottest first.
    """
    return select_ranges(
        tracer, region_traffic(stream, tracer), coverage=coverage,
        merge_gap=merge_gap, max_ranges=max_ranges,
    )
