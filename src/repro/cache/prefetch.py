"""Sequential (next-N-block) prefetching for a cache level.

Relevant to the paper's page-size findings: a large page is an implicit
spatial prefetch (fetching 2 KB on a 64 B miss), and the text
attributes both the time benefit and the energy cost of big pages to
exactly that over-fetch. A demand-miss next-line prefetcher provides
the same spatial coverage at line granularity, so the ablation
"64 B pages + prefetch degree k" vs "k·64 B pages" isolates the
allocation-granularity effect from the fetch-granularity effect.

Semantics: on every demand miss of block b, blocks b+1..b+degree are
installed (if absent), each fetching one block from the level below.
Prefetch traffic is accounted separately (:class:`PrefetchStats`) and
is forwarded downstream, so lower levels and the energy model see it.
The wrapped cache's ``fills`` and ``writebacks`` count it too, so what
leaves the level is what arrives below (request conservation); its
hit/miss counters stay demand-only.
Accuracy is measured as the fraction of prefetched blocks that receive
a demand access before eviction-or-end.

Fidelity note: prefetches are issued after each *sub-batch* of demand
requests (default 256) rather than after each individual miss — a
documented approximation that keeps the engine's vectorized hot loop
intact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.setassoc import SetAssociativeCache
from repro.errors import ConfigError
from repro.trace.events import (
    ADDR_DTYPE,
    KIND_DTYPE,
    SIZE_DTYPE,
    AccessBatch,
)


@dataclass
class PrefetchStats:
    """Prefetcher effectiveness counters.

    Attributes:
        issued: prefetch fills sent to the level below.
        useful: prefetched blocks that later saw a demand access while
            still resident.
    """

    issued: int = 0
    useful: int = 0

    @property
    def accuracy(self) -> float:
        """useful / issued (0.0 when idle)."""
        return self.useful / self.issued if self.issued else 0.0


class PrefetchingCache:
    """A cache level wrapped with a next-N-block prefetcher.

    Drop-in for :class:`~repro.cache.setassoc.SetAssociativeCache` in a
    hierarchy position: exposes ``name``, ``block_size``, ``stats``,
    ``process`` and ``flush_dirty``.

    Args:
        cache: the underlying cache level.
        degree: blocks prefetched per demand miss.
        sub_batch: demand requests processed between prefetch rounds.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        degree: int = 1,
        sub_batch: int = 256,
    ) -> None:
        if degree < 1:
            raise ConfigError("prefetch degree must be >= 1")
        if sub_batch < 1:
            raise ConfigError("sub_batch must be >= 1")
        self.cache = cache
        self.degree = degree
        self.sub_batch = sub_batch
        self.prefetch_stats = PrefetchStats()
        self._pending: set[int] = set()
        self._block_bits = cache.block_size.bit_length() - 1

    # -- hierarchy surface --------------------------------------------------

    @property
    def name(self) -> str:
        """Level label (the wrapped cache's)."""
        return self.cache.name

    @property
    def block_size(self) -> int:
        """Allocation granularity (the wrapped cache's)."""
        return self.cache.block_size

    @property
    def config(self):
        """The wrapped cache's configuration."""
        return self.cache.config

    @property
    def stats(self):
        """Demand statistics (the wrapped cache's)."""
        return self.cache.stats

    def flush_dirty(self) -> AccessBatch:
        """Flush the wrapped cache's dirty state."""
        return self.cache.flush_dirty()

    def reset(self) -> None:
        """Cold cache, cleared prefetch state."""
        self.cache.reset()
        self.prefetch_stats = PrefetchStats()
        self._pending.clear()

    # -- processing -----------------------------------------------------------

    def process(self, batch: AccessBatch) -> AccessBatch:
        """Demand requests + prefetch rounds, downstream traffic merged."""
        if len(batch) == 0:
            return AccessBatch.empty()
        out_parts: list[AccessBatch] = []
        for start in range(0, len(batch), self.sub_batch):
            sub = batch.slice(start, start + self.sub_batch)
            self._credit_useful(sub)
            demand_out = self.cache.process(sub)
            out_parts.append(demand_out)
            prefetch_out = self._issue_prefetches(demand_out)
            if len(prefetch_out):
                out_parts.append(prefetch_out)
        merged = out_parts[0]
        for part in out_parts[1:]:
            merged = merged.concat(part)
        return merged

    def _credit_useful(self, sub: AccessBatch) -> None:
        """Count demand touches of still-resident prefetched blocks."""
        if not self._pending:
            return
        blocks = np.unique(sub.addresses >> np.uint64(self._block_bits))
        for block in blocks.tolist():
            if block in self._pending:
                self._pending.discard(block)
                if self.cache.contains(block << self._block_bits):
                    self.prefetch_stats.useful += 1

    def _issue_prefetches(self, demand_out: AccessBatch) -> AccessBatch:
        """Install next-N blocks for each demand fill, collect traffic."""
        if len(demand_out) == 0:
            return AccessBatch.empty()
        fills = demand_out.addresses[demand_out.is_store == 0]
        if len(fills) == 0:
            return AccessBatch.empty()
        missed_blocks = np.unique(fills >> np.uint64(self._block_bits))
        out_addrs: list[int] = []
        out_kinds: list[int] = []
        out_sizes: list[int] = []
        block_size = self.cache.block_size
        for block in missed_blocks.tolist():
            for offset in range(1, self.degree + 1):
                target = block + offset
                address = target << self._block_bits
                if self.cache.contains(address):
                    continue
                # insert_block counts the writebacks it displaces.
                writebacks = self.cache.insert_block(target)
                self.prefetch_stats.issued += 1
                self._pending.add(target)
                # The prefetch fill itself is a load from below.
                self.cache.stats.fills += 1
                out_addrs.append(address)
                out_kinds.append(0)
                out_sizes.append(block_size)
                for i in range(len(writebacks)):
                    out_addrs.append(int(writebacks.addresses[i]))
                    out_kinds.append(1)
                    out_sizes.append(int(writebacks.sizes[i]))
        if not out_addrs:
            return AccessBatch.empty()
        return AccessBatch(
            np.asarray(out_addrs, dtype=ADDR_DTYPE),
            np.asarray(out_sizes, dtype=SIZE_DTYPE),
            np.asarray(out_kinds, dtype=KIND_DTYPE),
        )
