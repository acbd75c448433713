"""Workload characterization: the analysis behind Table 4.

The paper picks workloads for their memory behaviour ("memory bound
... large memory footprint"); this module produces the quantitative
version of that justification from a traced run:

- footprint and read/write mix;
- reuse-distance CDF points (predicted fully-associative hit rates at
  L1/L2/L3/L4-class capacities — sampled, since reuse analysis is
  quadratic-ish);
- post-L3 memory intensity (main-memory accesses per 1000 references);
- page-level spatial locality (DRAM-cache hit rate at 4 KB pages, the
  quantity that decides the NMM design's fate per workload).

``characterize()`` returns a structured profile; ``render_profiles``
prints the suite table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssociativeCache
from repro.experiments.runner import Runner
from repro.trace.reuse import hit_rate_at_capacity, reuse_distances
from repro.trace.stream import AddressStream
from repro.units import KiB, MiB
from repro.workloads.base import Workload


def _spatial_sample(stream: AddressStream, rate: float) -> AddressStream:
    """Keep all accesses to a hash-sampled ``rate`` fraction of lines."""
    if rate >= 1.0:
        return stream
    threshold = np.uint64(int(rate * (1 << 32)))
    out = AddressStream()
    mask32 = np.uint64(0xFFFFFFFF)
    for chunk in stream.chunks():
        lines = chunk.addresses >> np.uint64(6)
        # 32-bit avalanche mixer (lowbias32-style) so the threshold
        # comparison is uniform even for small, dense line numbers.
        h = (lines * np.uint64(2654435761)) & mask32
        h ^= h >> np.uint64(16)
        h = (h * np.uint64(0x45D9F3B)) & mask32
        h ^= h >> np.uint64(16)
        mask = h < threshold
        if mask.any():
            out.append(
                chunk.addresses[mask], chunk.sizes[mask], chunk.is_store[mask]
            )
    return out

#: Capacities (lines of 64 B) the reuse CDF is reported at.
CDF_CAPACITIES: dict[str, int] = {
    "32KB": 32 * KiB // 64,
    "256KB": 256 * KiB // 64,
    "2.5MB": 2560 * KiB // 64,
    "16MB": 16 * MiB // 64,
}

#: Sampling divisor for the reuse analysis (it is O(n·d̄)).
_REUSE_SAMPLE_TARGET: int = 60_000


@dataclass(frozen=True)
class WorkloadProfile:
    """Characterization of one traced workload.

    Attributes:
        name: workload name.
        events: traced references.
        footprint_mb: traced footprint (64 B-line proxy), MB.
        store_fraction: fraction of references that are stores.
        reuse_cdf: capacity label -> predicted fully-associative LRU
            hit rate (from the sampled reuse-distance profile).
        memory_intensity: main-memory accesses per 1000 references on
            the reference hierarchy (post-L3 traffic density).
        page_hit_rate: hit rate of a 4 KB-page DRAM-cache-class level
            fed with the post-L3 stream (spatial locality at page
            granularity).
    """

    name: str
    events: int
    footprint_mb: float
    store_fraction: float
    reuse_cdf: dict[str, float]
    memory_intensity: float
    page_hit_rate: float


def characterize(runner: Runner, workload: Workload) -> WorkloadProfile:
    """Profile one workload on the runner's traced run."""
    trace = runner.prepare(workload)
    stats = trace.result.stream.stats()

    # Reuse CDF via SHARDS-style *spatial* sampling: keep every access
    # to a hash-sampled subset of lines. Unlike systematic (1-in-k)
    # sampling this preserves each kept line's full reuse pattern; the
    # measured stack distances shrink by the sampling rate R, so
    # capacities are compared at C*R (Waldspurger et al., FAST'15).
    rate = min(1.0, _REUSE_SAMPLE_TARGET / max(1, len(trace.result.stream)))
    sampled = _spatial_sample(trace.result.stream, rate)
    distances = reuse_distances(sampled)
    cdf = {
        label: hit_rate_at_capacity(distances, max(1, int(lines * rate)))
        for label, lines in CDF_CAPACITIES.items()
    }

    # Post-L3 intensity relative to *data* references (exclude the
    # analytic local traffic so workloads are comparable).
    data_references = len(trace.result.stream)
    intensity = 1000.0 * len(trace.post_l3) / max(1, data_references)

    # Page-level spatial locality of the memory stream, measured with a
    # page cache sized to ~1/8 of the traced footprint so capacity
    # pressure is comparable across workloads and scales (a fixed size
    # would trivially hold small traced runs entirely).
    target_capacity = max(4096 * 8, stats.footprint_bytes // 8)
    sets = 1 << max(0, (target_capacity // (4096 * 8) - 1).bit_length())
    page_cache = SetAssociativeCache(
        CacheConfig(
            "PROF", sets * 4096 * 8, 8, 4096, sector_size=64, hashed_sets=True
        ),
        runner.sim_engine,
    )
    for chunk in trace.post_l3.chunks():
        page_cache.process(chunk)
    return WorkloadProfile(
        name=workload.name,
        events=data_references,
        footprint_mb=stats.footprint_bytes / MiB,
        store_fraction=stats.store_fraction,
        reuse_cdf=cdf,
        memory_intensity=intensity,
        page_hit_rate=page_cache.stats.hit_rate,
    )


def render_profiles(profiles: list[WorkloadProfile]) -> str:
    """The suite characterization table."""
    headers = (
        f"{'workload':10s} {'events':>10s} {'fp(MB)':>7s} {'st%':>5s} "
        + " ".join(f"{label:>7s}" for label in CDF_CAPACITIES)
        + f" {'mem/1k':>7s} {'pg-hit':>7s}"
    )
    lines = [headers, "-" * len(headers)]
    for p in profiles:
        lines.append(
            f"{p.name:10s} {p.events:>10,} {p.footprint_mb:7.1f} "
            f"{100 * p.store_fraction:5.1f} "
            + " ".join(
                f"{p.reuse_cdf[label]:7.3f}" for label in CDF_CAPACITIES
            )
            + f" {p.memory_intensity:7.1f} {p.page_hit_rate:7.3f}"
        )
    return "\n".join(lines)
