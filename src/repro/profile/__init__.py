"""One-pass reuse-distance profiling and the analytic fast-path engine.

A :class:`~repro.profile.profiler.ChainProfile` is computed once per
(trace, lower-chain granularities) and answers, in closed form, what
any LRU cache at those block granularities would do with the stream.
It holds class tables, not per-access arrays: the distinct tuples of
per-granularity stack distances with their load and store counts give
the full miss-ratio curve over capacity, and the distinct tuples of
per-store *writeback gaps* (the largest eviction exposure between a
store and the next store to the same sector) with their store and
last-store counts give dirty-eviction and residual-dirty counts.
Profiles persist next to the trace cache with the same SHA-256 sidecar
integrity as the traces themselves.

The :class:`~repro.profile.engine.AnalyticEngine` walks a design's
lower-level chain top-down, converts a profile into per-level
hit/miss/writeback counts (with a binomial conflict correction for
set-associative geometry), and emits :class:`~repro.cache.stats.LevelStats`
that flow unchanged into the AMAT/energy/EDP model — collapsing a
sweep's per-design simulation cost from O(trace) to O(profile classes).
"""

from repro.profile.engine import AnalyticEngine, StreamTotals, hit_probability
from repro.profile.profiler import (
    ChainProfile,
    compute_profile,
    load_profile,
    save_profile,
)

__all__ = [
    "AnalyticEngine",
    "ChainProfile",
    "StreamTotals",
    "compute_profile",
    "hit_probability",
    "load_profile",
    "save_profile",
]
