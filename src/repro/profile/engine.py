"""The analytic fast-path engine: profiles in, LevelStats out.

Given the reuse profile of a captured post-L3 stream at a lower chain's
granularities, the engine predicts what every level of a design's
*lower* hierarchy would count during an exact replay — without
replaying anything. Per design the cost is O(profile classes): every
level's conflict model and the chain's running maxima are evaluated
once per class of the profile's tables (see
:mod:`repro.profile.profiler`), never per access. The profiles
themselves are computed once per trace and chain granularities and
shared across every design in the sweep, versus a full stateful cache
simulation per design for the exact engines.

Model, per lower cache level (top-down):

- **Hit probability.** A fully-associative LRU cache of C blocks hits
  an access iff its stack distance d is in [0, C) — exact. For S sets
  of A ways with hashed indexing, the d intervening distinct blocks
  spread ~uniformly over sets, so the probability that fewer than A of
  them land in the access's own set is the binomial CDF
  ``P[Binomial(d, 1/S) <= A-1]`` — the Hill–Smith conflict
  correction.
- **Chaining.** Levels below the first see only the miss stream of the
  level above. Capacities grow down the chain, so residency nests:
  per profile class, the probability of hitting level i *given* it
  reached it is ``max(0, P_i - max_j<i P_j)`` — a running maximum over
  the chain, no inter-level stream ever materialized. A class is a
  tuple of one stack distance per chain granularity, so the maximum is
  exact per access for mixed-granularity chains too.
- **Writebacks.** A store's dirty data leaves level i iff its
  writeback gap (see :mod:`repro.profile.profiler`) defeats level i's
  retention: expected writebacks are ``sum(1 - P_i(wb_gap))`` over
  stores, and nesting makes the level-(i-1)-evicted-but-level-i-held
  difference the store-arrival hits of level i. Drains flush each
  sector's final store if it is still held: ``sum over last stores of
  P_i(wb_gap)``.
- **Traffic shaping** mirrors the exact engine bit for bit in form:
  every miss emits one fill load of ``block_size`` bytes; every
  writeback emits one store of ``sector_size`` bytes (sectored) or
  ``block_size`` bytes (unsectored); the terminal memory reports all
  arrivals as hits.

Designs with no lower caches (REF, NDM) are *simulated* outright — the
terminal memories are stateless counters, so driving them over the
captured stream is exact and as cheap as the estimate would be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.cache.partition import PartitionedMemory
from repro.cache.stats import LevelStats
from repro.errors import SimulationError
from repro.profile.profiler import ChainProfile, Granularities
from repro.telemetry.core import get_active
from repro.trace.events import AccessBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.designs.base import MemoryDesign


@dataclass(frozen=True)
class StreamTotals:
    """Exact arrival totals of the captured post-L3 stream.

    These seed the first lower level's (and REF's) demand accounting,
    so every analytic hierarchy starts from exact arrival counts.
    """

    loads: int
    stores: int
    load_bits: int
    store_bits: int

    @staticmethod
    def from_chunks(chunks: Iterable[AccessBatch]) -> "StreamTotals":
        """Accumulate totals over a chunked stream."""
        probe = LevelStats(name="TOTALS")
        for chunk in chunks:
            if len(chunk):
                probe.account_batch(chunk)
        return StreamTotals(
            loads=probe.loads,
            stores=probe.stores,
            load_bits=probe.load_bits,
            store_bits=probe.store_bits,
        )


def hit_probability(
    distances: np.ndarray, num_sets: int, ways: int
) -> np.ndarray:
    """Probability that an access at each stack distance hits an
    (S sets, A ways) LRU cache.

    Exact 0/1 indicator for fully-associative geometry (one set); the
    Hill–Smith binomial conflict model otherwise: the d intervening
    distinct blocks hash ~uniformly over sets, so the access hits iff
    fewer than A of them land in its own set —
    ``P[Binomial(d, 1/S) <= A-1]`` (the Poisson limit for large S).
    Cold accesses (negative distance) never hit.
    """
    d = distances
    out = np.zeros(len(d), dtype=np.float64)
    warm = d >= 0
    if not warm.any():
        return out
    if num_sets == 1:
        out[warm & (d < ways)] = 1.0
        return out
    # Binomial CDF by iterative terms: term_k = C(d,k) p^k (1-p)^(d-k).
    # term_0 via exp/log1p stays finite for any d; the recurrence
    # factor (d-k+1) hits zero at k = d+1, so short stacks contribute
    # their full (exact) mass and never go negative.
    dv = d[warm].astype(np.float64)
    p = 1.0 / float(num_sets)
    odds = p / (1.0 - p)
    term = np.exp(dv * np.log1p(-p))
    acc = term.copy()
    for k in range(1, ways):
        term = term * np.maximum(dv - k + 1, 0.0) * (odds / k)
        acc += term
    out[warm] = np.minimum(acc, 1.0)
    return out


def _round_clamped(value: float, upper: int) -> int:
    return min(int(round(value)), upper)


def _memory_stats(memory) -> list[LevelStats]:
    if isinstance(memory, PartitionedMemory):
        return memory.stats_list
    return [memory.stats]


class AnalyticEngine:
    """Closed-form lower-hierarchy evaluation for one workload trace.

    Args:
        totals: exact arrival totals of the captured post-L3 stream.
        chunks: zero-argument callable yielding the captured stream's
            chunks — used only for the exact no-lower-cache paths
            (REF, NDM), where the terminal memories are stateless and
            driving them directly is both exact and cheap.
    """

    def __init__(
        self,
        totals: StreamTotals,
        chunks: Callable[[], Iterable[AccessBatch]],
    ) -> None:
        self._totals = totals
        self._chunks = chunks
        self._announced: set[tuple] = set()

    # ------------------------------------------------------------------

    def _announce(self, config) -> None:
        tel = get_active()
        if not tel.enabled:
            return
        key = (config.name, config.num_sets, config.associativity)
        if key in self._announced:
            return
        self._announced.add(key)
        tel.event(
            "engine_selected",
            level=config.name,
            engine="analytic",
            policy=config.policy,
            sets=config.num_sets,
            ways=config.associativity,
        )

    def lower_stats(
        self,
        design: "MemoryDesign",
        engine: str,
        profiles: Callable[[Granularities], ChainProfile],
        drain: bool = False,
    ) -> list[LevelStats]:
        """Per-level stats for a design's lower caches + terminal memory.

        The returned list appends directly onto the exact upper-level
        (L1–L3) stats to form a
        :class:`~repro.cache.stats.HierarchyStats` indistinguishable in
        shape from an exact replay. ``engine`` is the run's exact
        simulation engine, which builds the design's caches; only their
        configs are read. ``profiles`` maps the chain's sorted distinct
        ``(granularity, chain_granularity)`` pairs to the stream's
        profile (the runner caches these in memory and on disk).
        """
        lower = design.lower_caches(engine)
        memory = design.memory()
        if not lower:
            # REF / NDM: stateless terminal memories — exact.
            for chunk in self._chunks():
                if len(chunk):
                    memory.process(chunk)
            return _memory_stats(memory)
        if isinstance(memory, PartitionedMemory):
            raise SimulationError(
                "the analytic engine cannot split estimated cache-miss "
                "traffic across a partitioned memory; use an exact engine "
                f"for design {design.name!r}"
            )

        totals = self._totals
        chain = []
        for cache in lower:
            config = cache.config
            g = config.block_size
            sectored = (
                config.sector_size is not None
                and config.sector_size < config.block_size
            )
            cg = config.sector_size if sectored else g
            if config.policy != "lru":
                raise SimulationError(
                    f"the analytic engine models LRU levels only; level "
                    f"{config.name!r} uses {config.policy!r}"
                )
            self._announce(config)
            chain.append((config, g, cg))
        profile = profiles(tuple(sorted({(g, cg) for _, g, cg in chain})))
        d_loads, d_stores = profile.loads, profile.stores
        w_counts = profile.wb_counts
        n_stores = profile.n_stores

        # Everything below is per profile class, weighted by its counts.
        cm_hit: np.ndarray | None = None  # running max hit probability
        cm_wb: np.ndarray | None = None  # running max retention
        levels: list[LevelStats] = []
        prev: dict | None = None  # emission summary of the level above
        for config, g, cg in chain:
            grain = profile.grain(g, cg)
            cdf_hit = hit_probability(
                profile.distances[grain], config.num_sets,
                config.associativity,
            )
            cdf_keep = hit_probability(
                profile.wb_gaps[grain], config.num_sets,
                config.associativity,
            )
            stats = LevelStats(name=config.name)
            new_cm = cdf_hit if cm_hit is None else np.maximum(cm_hit, cdf_hit)
            new_cmw = (
                cdf_keep if cm_wb is None else np.maximum(cm_wb, cdf_keep)
            )
            wb_float = float((1.0 - new_cmw) @ w_counts)
            flush_float = float(new_cmw @ profile.wb_last[grain])
            if prev is None:
                load_hits = float(new_cm @ d_loads)
                store_hits = float(new_cm @ d_stores)
                # First lower level: arrivals are the captured accesses
                # themselves — demand accounting is exact.
                stats.loads = totals.loads
                stats.stores = totals.stores
                stats.load_bits = totals.load_bits
                stats.store_bits = totals.store_bits
            else:
                load_hits = float((new_cm - cm_hit) @ (d_loads + d_stores))
                store_hits = float((new_cmw - cm_wb) @ w_counts) + prev["flush"]
                # Arrivals are the level above's fills (loads) and
                # writebacks (+ drain flushes, which nest and hit).
                stats.loads = prev["fills"]
                stats.stores = prev["writebacks"] + prev["flush"]
                stats.load_bits = prev["fills"] * prev["fill_bytes"] * 8
                stats.store_bits = (
                    (prev["writebacks"] + prev["flush"]) * prev["wb_bytes"] * 8
                )
            lh = _round_clamped(load_hits, stats.loads)
            sh = _round_clamped(store_hits, stats.stores)
            stats.load_hits = lh
            stats.load_misses = stats.loads - lh
            stats.store_hits = sh
            stats.store_misses = stats.stores - sh
            stats.fills = stats.load_misses + stats.store_misses
            writebacks = _round_clamped(wb_float, n_stores)
            flush = 0
            if drain:
                flush = _round_clamped(flush_float, n_stores)
            stats.writebacks = writebacks + flush
            levels.append(stats)
            prev = {
                "fills": stats.fills,
                "writebacks": writebacks,
                "flush": flush,
                "fill_bytes": g,
                "wb_bytes": cg,
            }
            cm_hit, cm_wb = new_cm, new_cmw

        mem_stats = LevelStats(name=memory.name)
        mem_stats.loads = prev["fills"]
        mem_stats.stores = prev["writebacks"] + prev["flush"]
        mem_stats.load_bits = prev["fills"] * prev["fill_bytes"] * 8
        mem_stats.store_bits = (
            (prev["writebacks"] + prev["flush"]) * prev["wb_bytes"] * 8
        )
        mem_stats.load_hits = mem_stats.loads
        mem_stats.store_hits = mem_stats.stores
        levels.append(mem_stats)
        return levels
