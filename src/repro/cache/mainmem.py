"""Terminal main-memory device.

A :class:`MainMemory` ends a hierarchy chain: it absorbs every request
(all "hits") and counts reads (fills from the last cache) and writes
(dirty-line writebacks) with their transferred bit volumes — the inputs
to the NVM performance/energy asymmetry model.
"""

from __future__ import annotations

from repro.cache.stats import LevelStats
from repro.trace.events import AccessBatch


class MainMemory:
    """Request-counting terminal memory device."""

    def __init__(self, name: str = "MEM") -> None:
        self.stats = LevelStats(name=name)

    @property
    def name(self) -> str:
        """Device label."""
        return self.stats.name

    def process(self, batch: AccessBatch) -> AccessBatch:
        """Absorb a request batch; returns an empty downstream batch."""
        n = len(batch)
        if n == 0:
            return AccessBatch.empty()
        stats = self.stats
        n_loads, n_stores = stats.account_batch(batch)
        # Memory always "hits".
        stats.load_hits += n_loads
        stats.store_hits += n_stores
        return AccessBatch.empty()

    def absorb_counts(
        self, loads: int, load_size: int, stores: int, store_size: int
    ) -> None:
        """Count what :meth:`process` would for ``loads`` requests of
        ``load_size`` bytes and ``stores`` of ``store_size`` bytes."""
        stats = self.stats
        stats.loads += loads
        stats.load_hits += loads
        stats.load_bits += 8 * load_size * loads
        stats.stores += stores
        stats.store_hits += stores
        stats.store_bits += 8 * store_size * stores

    def reset(self) -> None:
        """Zero the counters."""
        self.stats = LevelStats(name=self.stats.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MainMemory({self.stats.name!r})"
