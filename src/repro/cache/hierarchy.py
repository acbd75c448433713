"""Chaining cache levels into a full memory hierarchy.

A :class:`Hierarchy` owns an ordered list of caches (top to bottom) and
a terminal memory (plain :class:`~repro.cache.mainmem.MainMemory` or
:class:`~repro.cache.partition.PartitionedMemory`). Running a stream
produces the per-level data-movement statistics that Eq. (1)–(4)
consume.

Streams are processed chunk-by-chunk: each chunk flows L1 → L2 → ... →
memory before the next chunk starts, which bounds peak memory and
matches the paper's online simulation.
"""

from __future__ import annotations

import numpy as np

from repro.cache.mainmem import MainMemory
from repro.cache.partition import PartitionedMemory
from repro.cache.setassoc import SetAssociativeCache, check_request_sizes
from repro.cache.stats import HierarchyStats
from repro.errors import ConfigError
from repro.telemetry.core import get_active
from repro.trace.events import (
    ADDR_DTYPE,
    KIND_DTYPE,
    SIZE_DTYPE,
    AccessBatch,
)
from repro.trace.stream import AddressStream
from repro.units import log2_int


def run_chain(
    requests: AccessBatch,
    caches: list[SetAssociativeCache],
    memory: MainMemory | PartitionedMemory,
) -> None:
    """Push one batch of block requests through a cache chain.

    The single authoritative request path: every consumer of a cache
    chain — :meth:`Hierarchy.process_batch` for full hierarchies, the
    runner's post-L3 replay, and prefix-captured suffix simulation —
    routes batches through here so they all apply the same
    ``check_request_sizes`` guard (a mis-ordered chain raises
    :class:`~repro.errors.SimulationError` instead of silently
    corrupting statistics). Whatever survives the last cache reaches
    ``memory``; a level that absorbs everything ends the walk early.
    """
    for cache in caches:
        check_request_sizes(requests, cache.block_size, cache.name)
        requests = cache.process(requests)
        if len(requests) == 0:
            return
    memory.process(requests)


def drain_chain(
    caches: list[SetAssociativeCache],
    memory: MainMemory | PartitionedMemory,
) -> None:
    """Flush dirty blocks from every cache in the chain, top to bottom.

    Writebacks from level *i* enter level *i + 1* (or memory), exactly
    as in :meth:`Hierarchy.drain` — this is the shared implementation
    behind it and behind the runner's ``drain=True`` replay mode.
    """
    for i, cache in enumerate(caches):
        writebacks = cache.flush_dirty()
        # Writebacks from level i enter level i+1 (or memory).
        for lower in caches[i + 1 :]:
            writebacks = lower.process(writebacks)
            if len(writebacks) == 0:
                break
        else:
            memory.process(writebacks)


def replay_chain(
    stream: AddressStream,
    caches: list[SetAssociativeCache],
    memory: MainMemory | PartitionedMemory,
    *,
    drain: bool,
) -> None:
    """Run a whole request stream through a cache chain.

    Every chunk goes through :func:`run_chain`, then
    :func:`drain_chain` flushes the chain if ``drain``. A chain of one
    cold LRU :class:`SetAssociativeCache` above a plain
    :class:`MainMemory`, not forced onto the scalar engine, is priced
    by :meth:`SetAssociativeCache.count_lru` instead: the same
    statistics from whole-stream passes, without the per-run loop. The
    scalar engine always takes the loop, which stays the oracle.
    """
    if _counts_only(caches, memory):
        cache = caches[0]
        batch = stream.as_batch()
        check_request_sizes(batch, cache.block_size, cache.name)
        fills, writebacks = cache.count_lru(batch, drain=drain)
        memory.absorb_counts(
            fills, cache.block_size, writebacks, cache.writeback_size
        )
        return
    for chunk in stream.chunks():
        run_chain(chunk, caches, memory)
    if drain:
        drain_chain(caches, memory)


def _counts_only(caches: list, memory) -> bool:
    """Whether :func:`replay_chain` may price the chain by counts."""
    if len(caches) != 1 or type(memory) is not MainMemory:
        return False
    cache = caches[0]
    return (
        type(cache) is SetAssociativeCache
        and cache.config.policy == "lru"
        and not cache.scalar_only
        and cache.resident_blocks() == 0
    )


def to_block_requests(batch: AccessBatch, block_size: int) -> AccessBatch:
    """Convert raw byte accesses into top-level cache requests.

    Accesses spanning multiple blocks (unaligned multi-byte accesses)
    are split into one request per touched block. Request sizes are
    capped at ``block_size`` (the per-request transferred volume cannot
    exceed a block).
    """
    n = len(batch)
    if n == 0:
        return batch
    shift = np.uint64(log2_int(block_size))
    first = batch.addresses >> shift
    last = (batch.addresses + batch.sizes.astype(ADDR_DTYPE) - np.uint64(1)) >> shift
    spans = (last - first).astype(np.int64)
    capped = np.minimum(batch.sizes, block_size).astype(SIZE_DTYPE)
    if not spans.any():
        return AccessBatch(batch.addresses, capped, batch.is_store)
    counts = spans + 1
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets -= np.repeat(starts, counts)
    lines = np.repeat(first, counts) + offsets.astype(ADDR_DTYPE)
    return AccessBatch(
        lines << shift,
        np.repeat(capped, counts),
        np.repeat(batch.is_store, counts).astype(KIND_DTYPE),
    )


class Hierarchy:
    """An ordered cache chain plus terminal memory.

    Args:
        caches: levels top (closest to the core) to bottom. Block sizes
            must be non-decreasing downward so a request never exceeds
            the serving level's granularity.
        memory: terminal device (or partitioned device).
        observer: optional telemetry hook — an object with an
            ``on_refs(n)`` method (e.g. a
            :class:`~repro.telemetry.windows.WindowedCollector`) called
            once per processed batch with the number of top-level
            requests. When None (the default) the hook costs one
            ``is not None`` check per batch.
    """

    def __init__(
        self,
        caches: list[SetAssociativeCache],
        memory: MainMemory | PartitionedMemory,
        observer=None,
    ) -> None:
        if not caches:
            raise ConfigError("a hierarchy needs at least one cache level")
        for upper, lower in zip(caches, caches[1:]):
            if lower.block_size < upper.block_size:
                raise ConfigError(
                    f"block size must not shrink downward: "
                    f"{upper.name}={upper.block_size} > {lower.name}={lower.block_size}"
                )
        self.caches = list(caches)
        self.memory = memory
        self.observer = observer
        self._references = 0

    # ------------------------------------------------------------------

    def process_batch(self, batch: AccessBatch) -> None:
        """Run one raw access batch through the whole chain."""
        requests = to_block_requests(batch, self.caches[0].block_size)
        arrived = len(requests)
        self._references += arrived
        run_chain(requests, self.caches, self.memory)
        observer = self.observer
        if observer is not None:
            observer.on_refs(arrived)

    def run(self, stream: AddressStream, drain: bool = False) -> HierarchyStats:
        """Run an address stream through the hierarchy.

        Args:
            stream: raw (byte-granularity) program accesses.
            drain: when True, flush every level's dirty blocks at the
                end, propagating the writebacks downward — the
                steady-state accounting in which all dirty data
                eventually reaches main memory.

        Returns:
            Accumulated statistics (includes any previous runs on this
            hierarchy instance; use a fresh instance or :meth:`reset`
            for independent measurements).
        """
        with get_active().span("hierarchy.run", memory=self.memory.name):
            for chunk in stream.chunks():
                self.process_batch(chunk)
            if drain:
                self.drain()
        return self.stats()

    def drain(self) -> None:
        """Flush dirty blocks from every level, top to bottom."""
        drain_chain(self.caches, self.memory)

    # ------------------------------------------------------------------

    @property
    def references(self) -> int:
        """Total program references fed into the top level so far."""
        return self._references

    def stats(self) -> HierarchyStats:
        """Current accumulated statistics, top to bottom."""
        levels = [c.stats for c in self.caches]
        if isinstance(self.memory, PartitionedMemory):
            levels = levels + self.memory.stats_list
        else:
            levels = levels + [self.memory.stats]
        return HierarchyStats(levels=levels, references=self._references)

    def reset(self) -> None:
        """Cold caches, zeroed counters."""
        for cache in self.caches:
            cache.reset()
        self.memory.reset()
        self._references = 0

    @property
    def level_names(self) -> list[str]:
        """Labels of all levels including terminal device(s)."""
        return self.stats().level_names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " -> ".join(c.config.describe() for c in self.caches)
        return f"Hierarchy({chain} -> {self.memory.name})"
