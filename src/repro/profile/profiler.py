"""Stack-distance reuse profiles of captured address streams.

A profile answers, for one lower chain, what *any* LRU cache at each of
the chain's (block, sector) granularities would do with the stream. It
is built from three per-access quantities, computed in one vectorized
pass per granularity:

- the LRU stack distance of every access at block granularity
  (Mattson): a fully-associative cache of C blocks hits an access iff
  its distance is in ``[0, C)``, so one table yields the whole
  miss-ratio curve over capacity;
- per store, the *writeback gap*, the eviction exposure of the dirty
  data it creates: the largest block-granularity stack distance among
  the accesses between this store and the next store to the same dirty
  sector (for the final store of a sector, also counting the distinct
  blocks touched after the block's last access — later traffic can
  still push it out). A fully-associative cache of C blocks writes the
  dirty sector back iff ``wb_gap >= C``; otherwise the next store
  refreshes it in place (or it survives to the end as residual dirty
  state, flushed only by a drain);
- per store, whether it is its sector's final store, whose surviving
  dirty instance is what a drain flushes.

The analytic model only reads per-class sums of these, so a
:class:`ChainProfile` keeps only its class tables: the distinct tuples
of per-granularity stack distances, with how many loads and stores have
each, and the distinct tuples of per-granularity writeback gaps, with
how many stores have each and how many of those are last stores at each
granularity (``last_store`` depends on the sector size). The
per-access arrays exist only while :func:`compute_profile` runs.

Profiles are design-independent — every chain at the same granularities
reuses the same table — and persist as ``.npz`` artifacts with SHA-256
sidecars via the same atomic-write machinery as the trace cache
(:mod:`repro.trace.io`).
"""

from __future__ import annotations

import io as _io
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.errors import TraceError, TraceIntegrityError
from repro.trace.events import AccessBatch
from repro.trace.io import _write_artifact, verify_artifact
from repro.trace.reuse import COLD_DISTANCE, distances_for_lines
from repro.trace.stream import AddressStream
from repro.units import log2_int

#: Format marker stored in every profile file (2: class tables).
_PROFILE_FORMAT_VERSION = 2

#: A chain's distinct ``(granularity, chain_granularity)`` pairs, sorted.
Granularities = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ChainProfile:
    """Class tables of one stream at a lower chain's granularities.

    Row ``j`` of the ``(k, ...)`` arrays belongs to ``granularities[j]``
    (its *grain* index); entry ``r`` along the other axis of
    ``distances`` (or ``wb_gaps``) is one class, a distinct tuple of
    per-granularity values. For one granularity the classes are simply
    the distinct values, in ascending order. The exactness helpers
    answer for one grain.

    Attributes:
        granularities: the ``k`` distinct ``(block, sector)`` size
            pairs in bytes (``sector == block`` for unsectored caches).
        distances: ``(k, R)`` int64 stack distances of the ``R``
            distance classes (:data:`~repro.trace.reuse.COLD_DISTANCE`
            for first touches).
        loads: ``(R,)`` loads in each distance class.
        stores: ``(R,)`` stores in each distance class.
        wb_gaps: ``(k, W)`` int64 writeback gaps of the ``W`` store
            classes.
        wb_counts: ``(W,)`` stores in each store class.
        wb_last: ``(k, W)`` of those, the stores that are their
            sector's final store at each granularity.
    """

    granularities: Granularities
    distances: np.ndarray
    loads: np.ndarray
    stores: np.ndarray
    wb_gaps: np.ndarray
    wb_counts: np.ndarray
    wb_last: np.ndarray

    def __post_init__(self) -> None:
        k, r, w = len(self.granularities), len(self.loads), len(self.wb_counts)
        if (
            self.distances.shape != (k, r)
            or self.stores.shape != (r,)
            or self.wb_gaps.shape != (k, w)
            or self.wb_last.shape != (k, w)
        ):
            raise ValueError("profile class tables disagree in shape")

    @property
    def references(self) -> int:
        """Number of accesses profiled."""
        return int(self.loads.sum() + self.stores.sum())

    @property
    def n_stores(self) -> int:
        """Number of store accesses."""
        return int(self.wb_counts.sum())

    def grain(self, granularity: int, chain_granularity: int) -> int:
        """The grain index (table row) of one (block, sector) pair."""
        return self.granularities.index((granularity, chain_granularity))

    def _accesses_where(self, mask: np.ndarray) -> int:
        return int(self.loads[mask].sum() + self.stores[mask].sum())

    def footprint(self, grain: int = 0) -> int:
        """Distinct blocks touched (the first touches) at one
        granularity."""
        return self._accesses_where(self.distances[grain] == COLD_DISTANCE)

    def hit_count(self, capacity_blocks: int, grain: int = 0) -> int:
        """Exact fully-associative LRU hits at the given capacity."""
        d = self.distances[grain]
        return self._accesses_where((d >= 0) & (d < capacity_blocks))

    def writeback_count(self, capacity_blocks: int, grain: int = 0) -> int:
        """Exact fully-associative LRU dirty-eviction writebacks."""
        evicted = self.wb_gaps[grain] >= capacity_blocks
        return int(self.wb_counts[evicted].sum())

    def residual_dirty(self, capacity_blocks: int, grain: int = 0) -> int:
        """Sectors still dirty at end of stream (drain flush volume)."""
        kept = self.wb_gaps[grain] < capacity_blocks
        return int(self.wb_last[grain][kept].sum())

    def miss_ratio_curve(
        self, capacities: np.ndarray, grain: int = 0
    ) -> np.ndarray:
        """Fully-associative LRU miss ratio at each capacity (blocks).

        One sorted pass over the distance classes answers every
        capacity at once — the Mattson one-pass property.
        """
        caps = np.asarray(capacities, dtype=np.int64)
        references = self.references
        if references == 0:
            return np.ones(len(caps), dtype=np.float64)
        d = self.distances[grain]
        warm = d >= 0
        order = np.argsort(d[warm], kind="stable")
        counts = (self.loads + self.stores)[warm][order]
        hits = np.concatenate(([0], np.cumsum(counts)))
        reached = np.searchsorted(d[warm][order], caps, side="left")
        return 1.0 - hits[reached] / references


def _classes(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct tuples across equal-length per-granularity arrays.

    Returns ``(values, inverse)``: the ``(k, n_classes)`` class tuples,
    in lexicographic order, and each element's class index.
    """
    distinct, key = np.unique(arrays[0], return_inverse=True)
    if len(arrays) == 1:
        return distinct[np.newaxis], key
    for array in arrays[1:]:
        distinct, inverse = np.unique(array, return_inverse=True)
        _, first, key = np.unique(
            key * len(distinct) + inverse, return_index=True, return_inverse=True
        )
    return np.stack([array[first] for array in arrays]), key


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Max of ``values[lo[k] : hi[k] + 1]`` per query; 0 for empty ranges.

    Classic sparse-table range maximum: level ``j`` holds windowed
    maxima of width ``2**j``, and each query resolves as the max of two
    overlapping windows. Vectorized over all queries by grouping them
    per level.
    """
    out = np.zeros(len(lo), dtype=np.int64)
    valid = hi >= lo
    if not valid.any():
        return out
    n = len(values)
    length = (hi - lo + 1).astype(np.int64)
    max_len = int(length[valid].max())
    levels = max(1, max_len.bit_length())
    table = [values]
    for j in range(1, levels):
        prev = table[-1]
        width = 1 << j
        half = width >> 1
        if n < width:
            table.append(prev[:0])
            continue
        table.append(np.maximum(prev[: n - width + 1], prev[half:]))
    # Per-query level: the largest j with 2**j <= length. Exact for
    # lengths below 2**53 (they are array indices, far below that).
    lvl = np.zeros(len(lo), dtype=np.int64)
    lvl[valid] = np.floor(np.log2(length[valid])).astype(np.int64)
    for j in range(levels):
        mask = valid & (lvl == j)
        if not mask.any():
            continue
        width = 1 << j
        left = table[j][lo[mask]]
        right = table[j][hi[mask] - width + 1]
        out[mask] = np.maximum(left, right)
    return out


def _writeback_gaps(
    blocks: np.ndarray,
    sectors: np.ndarray,
    distances: np.ndarray,
    is_store: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-store eviction exposure and last-store flags (see module doc).

    Works entirely on sorted views: accesses grouped by block give each
    store's window of follow-on block accesses (a contiguous slice, so
    the max stack distance inside it is a sparse-table range query);
    stores grouped by sector give each store's chain successor; and a
    reversed cumulative sum of last-touch flags gives the distinct
    blocks after any position — the end-of-trace exposure of final
    stores.
    """
    n = len(blocks)
    store_pos = np.flatnonzero(is_store)
    ns = len(store_pos)
    if ns == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=bool)

    order = np.argsort(blocks, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    gaps = distances[order]
    grouped_blocks = blocks[order]
    boundary = np.empty(n, dtype=bool)
    boundary[-1] = True
    np.not_equal(grouped_blocks[1:], grouped_blocks[:-1], out=boundary[:-1])
    ends = np.flatnonzero(boundary)  # inclusive group end, grouped order
    group_id = np.zeros(n, dtype=np.int64)
    group_id[1:] = np.cumsum(boundary[:-1])
    group_end = ends[group_id]

    # Distinct blocks strictly after global position t: reversed cumsum
    # of the per-position "last touch of its block" indicator.
    last_touch = np.zeros(n, dtype=np.int64)
    last_touch[order[ends]] = 1
    after = np.zeros(n + 1, dtype=np.int64)
    after[:n] = last_touch[::-1].cumsum()[::-1]
    after = after[1:]  # after[t] = distinct blocks at positions > t

    # Chain successor: the next store to the same sector.
    store_sectors = sectors[store_pos]
    so = np.argsort(store_sectors, kind="stable")
    sp = store_pos[so]
    ss = store_sectors[so]
    nxt = np.full(ns, -1, dtype=np.int64)
    if ns > 1:
        same = ss[1:] == ss[:-1]
        nxt[so[:-1]] = np.where(same, sp[1:], -1)
    last_store = nxt < 0

    srank = rank[store_pos]
    lo = srank + 1
    hi = np.empty(ns, dtype=np.int64)
    has_next = ~last_store
    hi[has_next] = rank[nxt[has_next]]
    hi[last_store] = group_end[srank[last_store]]
    wb_gap = _range_max(gaps, lo, hi)
    if last_store.any():
        # Final stores stay exposed after the block's last access.
        tail_pos = order[group_end[srank[last_store]]]
        wb_gap[last_store] = np.maximum(wb_gap[last_store], after[tail_pos])
    return wb_gap, last_store


def compute_profile(
    stream: AddressStream | AccessBatch,
    granularities: Iterable[tuple[int, int]],
) -> ChainProfile:
    """Class tables of a stream at a chain's granularities.

    Args:
        stream: the accesses to profile (captured post-L3 stream).
        granularities: ``(block, sector)`` size pairs in bytes, one per
            level of the chain (repeats and order do not matter).
    """
    batch = stream.as_batch() if isinstance(stream, AddressStream) else stream
    grains = tuple(sorted({(int(g), int(cg)) for g, cg in granularities}))
    is_store = batch.is_store.astype(bool)
    distances, wb_gaps, last_stores = [], [], []
    for g, cg in grains:
        blocks = (batch.addresses >> np.uint64(log2_int(g))).astype(np.int64)
        sectors = (batch.addresses >> np.uint64(log2_int(cg))).astype(np.int64)
        d = distances_for_lines(blocks)
        wb_gap, last_store = _writeback_gaps(blocks, sectors, d, is_store)
        distances.append(d)
        wb_gaps.append(wb_gap)
        last_stores.append(last_store)
    d_values, d_class = _classes(distances)
    w_values, w_class = _classes(wb_gaps)
    r, w = d_values.shape[1], w_values.shape[1]
    return ChainProfile(
        granularities=grains,
        distances=d_values,
        loads=np.bincount(d_class[~is_store], minlength=r),
        stores=np.bincount(d_class[is_store], minlength=r),
        wb_gaps=w_values,
        wb_counts=np.bincount(w_class, minlength=w),
        wb_last=np.stack([
            np.bincount(w_class[last], minlength=w) for last in last_stores
        ]),
    )


def save_profile(profile: ChainProfile, path: str | Path) -> None:
    """Write a profile to ``path`` (.npz, SHA-256 sidecar).

    Atomic (temp file + rename), same guarantees as the trace cache.
    Uncompressed on purpose: persistence sits inside the analytic
    screen's first-use path, the class tables are a few hundred
    distinct values per granularity, and the sidecar already guards
    integrity.
    """
    buffer = _io.BytesIO()
    np.savez(
        buffer,
        version=np.int64(_PROFILE_FORMAT_VERSION),
        granularities=np.asarray(profile.granularities, dtype=np.int64),
        distances=profile.distances,
        loads=profile.loads,
        stores=profile.stores,
        wb_gaps=profile.wb_gaps,
        wb_counts=profile.wb_counts,
        wb_last=profile.wb_last,
    )
    _write_artifact(Path(path), buffer.getvalue())


def load_profile(path: str | Path) -> ChainProfile:
    """Read a profile written by :func:`save_profile`.

    Raises:
        TraceError: for missing files or unknown format versions.
        TraceIntegrityError: for truncated, bit-flipped, or otherwise
            unparseable files (checksum verified when a sidecar
            exists) — the caller should delete the artifact and
            recompute.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no profile file at {path}")
    verify_artifact(path)
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version != _PROFILE_FORMAT_VERSION:
                raise TraceError(
                    f"unsupported profile format version {version} in {path}"
                )
            return ChainProfile(
                granularities=tuple(
                    (int(g), int(cg)) for g, cg in data["granularities"]
                ),
                distances=data["distances"],
                loads=data["loads"],
                stores=data["stores"],
                wb_gaps=data["wb_gaps"],
                wb_counts=data["wb_counts"],
                wb_last=data["wb_last"],
            )
    except TraceError:
        raise
    except (zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError) as exc:
        raise TraceIntegrityError(
            f"corrupt profile file {path} ({type(exc).__name__}: {exc}); "
            f"delete it and re-profile the trace"
        ) from exc
