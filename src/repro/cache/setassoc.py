"""The set-associative cache engine.

Design notes (performance):

- Streams arrive as NumPy batches. Everything that does not carry a
  serial dependence — block extraction, run-boundary detection, per-run
  load/store counting — is vectorized.
- The replacement state update *is* serially dependent, so it runs in a
  tight Python loop. To keep that loop short, consecutive accesses to
  the same block are collapsed into one *run* first: under
  write-allocate, every access of a run after the first is a guaranteed
  hit, so a single probe per run reproduces exact hit/miss counts and
  exact LRU state. Real traces are dominated by such runs (e.g. eight
  consecutive 8-byte element accesses per 64-byte line in a unit-stride
  sweep), which typically shrinks the loop by 3–8x.
- LRU (the paper's policy) is specialized inline with per-set Python
  lists. FIFO and Random exist for the replacement-policy ablation;
  they go through the pluggable :mod:`~repro.cache.replacement`
  engines in the one per-sector loop, which sectored levels of any
  policy share (an unsectored level runs it with the sector equal to
  the block).
- The serial dependence exists only *within* a set, which the
  set-parallel engine (``"setpar"``, picked by the ``auto`` engine for
  non-sectored LRU levels) exploits: runs are stable-sorted by set
  index and simulated in *rounds* — round ``r`` takes the ``r``-th
  run of every active set and advances all of them at once against a
  ``(touched_sets x ways)`` matrix of packed tags
  (``block << 1 | dirty``) plus a timestamp matrix. LRU order is kept
  as timestamps (pre-batch residents carry their list position as a
  negative stamp, empty ways even more negative ones), so a broadcast
  tag compare yields hits, ``argmin`` over the stamps yields the exact
  victim, and promotion is a single stamp scatter of the round number
  instead of a permutation. Emitted fills/writebacks are scattered
  back into original occurrence order via the runs' source indices,
  so the engine is bit-identical to the scalar loop — statistics,
  emitted batches, and end state. Rounds with fewer than
  ``SETPAR_MIN_LANES`` active sets (skewed tails) go to an inline
  scalar loop, which is faster at low lane counts. A batch that
  cannot fill one such round (tiny scaled caches have fewer sets than
  that) is handed whole to the LRU step below, or to the scalar loop
  below ``LRU_STEP_MIN_RUNS`` runs.
- The LRU step (``_process_runs_lru_step``) replays a whole batch on
  a warm, non-sectored LRU level without a per-run loop. Each touched
  set's residents open its sequence as a synthetic prefix, LRU first
  and with their dirty bits, which stats and output leave out. The
  runs are stable-sorted by set, :func:`~repro.trace.reuse.lru_hits`
  decides each hit, and each miss opens a residency. Victims need no
  forward scan: LRU evicts residencies in last-touch order (a resident
  touched later than the victim is still resident when it goes),
  every miss past a set's first ``ways`` evicts exactly one, and the
  evicted ones are all but each set's ``ways`` last touched. So a
  set's k-th evicting miss displaces its k-th evicted residency in
  last-touch order, and pairing the two sorted lists names every
  victim; its writeback follows the fill iff any store touched the
  residency. The ``ways`` last-touched residencies are the end state,
  MRU first. Below ``LRU_STEP_MIN_RUNS`` runs the loop stays, as it
  beats the step's fixed cost there.
- The last cache above a memory that only counts needs no emitted
  batch, only how many fills and writebacks it sends.
  :meth:`~SetAssociativeCache.count_lru` prices a whole stream on a
  cold LRU level, sectored or not, from counts: consecutive same-block
  requests collapse into runs, the run heads are stable-sorted by set,
  and :func:`~repro.trace.reuse.lru_hits` decides each head's hit by
  LRU stack inclusion (fewer than ``ways`` distinct blocks since its
  previous access). Each miss opens a *residency* of its block;
  writebacks are the distinct ``(residency, sector)`` pairs of the
  stores, of evicted residencies only unless the stream is drained.
  A block's last residency is evicted iff ``ways`` blocks of its set
  are last touched after it. The set sort, hits and residency ids are
  the LRU step's (``_lru_residencies``). The statistics equal the
  loop's exactly;
  :func:`~repro.cache.hierarchy.replay_chain` decides when this path
  applies, and never under the ``scalar`` engine.

Semantics: write-back, write-allocate. A store to an absent block
fills it (counted as a miss of store kind) and marks it dirty; evicting
a dirty block emits a writeback request to the level below. Fill
requests propagate as loads of ``block_size`` bytes, writebacks as
stores of ``block_size`` bytes — this is the paper's extension that
lets NVM main memory see its true read/write mix.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig, supports_setpar
from repro.cache.replacement import make_policy
from repro.cache.stats import LevelStats
from repro.errors import ConfigError, SimulationError
from repro.telemetry.core import get_active
from repro.trace.events import ADDR_DTYPE, KIND_DTYPE, SIZE_DTYPE, AccessBatch
from repro.trace.reuse import lru_hits
from repro.units import log2_int

#: Minimum active sets per round for the vectorized step to beat the
#: scalar loop (each round costs ~two dozen small numpy calls, so thin
#: rounds lose). Rounds below this lane count — and whole batches on
#: caches with fewer sets — fall back to the scalar loop. Module-level
#: so tests can force the vector path on tiny caches.
SETPAR_MIN_LANES = 32

#: Fewest collapsed runs a whole-batch fallback of an LRU level needs
#: for the vectorized LRU step (``_process_runs_lru_step``); smaller
#: batches take the scalar loop, which beats the step's fixed cost
#: there. A speed knob only: every value gives the same result.
LRU_STEP_MIN_RUNS = 1024

#: Empty-way marker in the packed tag matrix (``block << 1 | dirty``).
#: Unambiguous as long as every block number stays below
#: ``2**63 - 1``; the engine flips itself to the scalar loop for good
#: the moment a batch violates that (see ``_setpar_unsafe``).
_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Largest block number the packed-tag scheme can represent. Blocks at
#: or above this (possible only with sub-2-byte block sizes, or literal
#: all-ones addresses) would collide with the sentinel once packed.
_MAX_PACKABLE = np.uint64(0x7FFFFFFFFFFFFFFE)


class SetAssociativeCache:
    """One write-back, write-allocate set-associative cache level.

    Args:
        config: the level's geometry and policy.
        engine: how to simulate it. ``"auto"`` (the default) picks the
            set-parallel vectorized engine for non-sectored LRU levels
            and lets a lone cold LRU level above a counting memory be
            priced by :meth:`count_lru`; ``"scalar"`` forces the
            reference Python loop. Engines are bit-identical — the
            choice only affects speed, never statistics or emitted
            requests.
    """

    def __init__(self, config: CacheConfig, engine: str = "auto") -> None:
        if engine not in ("auto", "scalar"):
            raise ConfigError(
                f"{config.name}: unknown engine {engine!r} "
                "(expected 'auto' or 'scalar')"
            )
        self.config = config
        #: Whether the ``scalar`` engine forces the reference loop.
        self.scalar_only = engine == "scalar"
        self.stats = LevelStats(name=config.name)
        self._block_bits = log2_int(config.block_size)
        self._set_mask = config.num_sets - 1
        self._hashed = config.hashed_sets
        sectored = (
            config.sector_size is not None
            and config.sector_size < config.block_size
        )
        self._sector_bits = (
            log2_int(config.sector_size) if sectored else self._block_bits
        )
        self._is_lru = config.policy == "lru"
        # Sectored and non-LRU levels run the per-sector loop (an
        # unsectored FIFO or Random level with the sector equal to the
        # block), so they keep dirty state per sector.
        self._per_sector = sectored or not self._is_lru
        #: block number -> set of dirty global sector numbers.
        self._dirty_sectors: dict[int, set[int]] = {}
        self._dirty: set[int] = set()
        # "auto" vectorizes wherever setpar is supported; it degrades to
        # the scalar loop per batch when set-parallelism cannot pay off.
        self._engine = (
            "setpar"
            if engine == "auto" and supports_setpar(config)
            else "scalar"
        )
        # LRU keeps inline per-set lists (MRU first); FIFO and Random go
        # through the pluggable policy objects.
        if self._is_lru:
            self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
            self._policy = None
        else:
            self._sets = []
            self._policy = make_policy(
                config.policy, config.num_sets, config.associativity
            )
        self._engine_announced = False
        # Sticky safety latch: once a block number too large for the
        # packed-tag scheme has been seen (and may therefore be
        # resident), every later batch must take the scalar loop too.
        self._setpar_unsafe = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Level label."""
        return self.config.name

    @property
    def block_size(self) -> int:
        """Allocation granularity in bytes."""
        return self.config.block_size

    @property
    def writeback_size(self) -> int:
        """Bytes of one writeback request (the sector, or the block)."""
        return 1 << self._sector_bits

    @property
    def engine(self) -> str:
        """Resolved simulation engine ("scalar" or "setpar")."""
        return self._engine

    def _set_index(self, block: int) -> int:
        """Set index of a block (bit-sliced, or multiplicative hash).

        The hashed form masks the product to 64 bits *before* shifting:
        the masked set bits live in bits 15..15+set_bits, so this is
        bit-identical to the vectorized uint64 wrap-around form, and it
        keeps scalar probes off Python's big-int allocator.
        """
        if self._hashed:
            return (
                ((block * 2654435761) & 0xFFFFFFFFFFFFFFFF) >> 15
            ) & self._set_mask
        return block & self._set_mask

    def _set_indices(self, blocks: np.ndarray) -> np.ndarray:
        """:meth:`_set_index` of a uint64 block array, vectorized.

        The hash product exceeds 64 bits, but uint64 wrap-around keeps
        its low 64 bits exact and the masked bits (15 .. 15 + set bits)
        all live there, so the mapping is bit-identical.
        """
        if self._hashed:
            return (
                (blocks * np.uint64(2654435761)) >> np.uint64(15)
            ) & np.uint64(self._set_mask)
        return blocks & np.uint64(self._set_mask)

    def resident_blocks(self) -> int:
        """Number of blocks currently cached (diagnostics/tests)."""
        if self._is_lru:
            return sum(len(s) for s in self._sets)
        return sum(
            len(self._policy.contents(i)) for i in range(self.config.num_sets)
        )

    def contains(self, address: int) -> bool:
        """True iff the block holding byte ``address`` is resident."""
        block = address >> self._block_bits
        set_index = self._set_index(block)
        if self._is_lru:
            return block in self._sets[set_index]
        return block in self._policy.contents(set_index)

    def is_dirty(self, address: int) -> bool:
        """True iff the block (sectored: the sector) holding byte
        ``address`` is dirty."""
        if self._per_sector:
            block = address >> self._block_bits
            sector = address >> self._sector_bits
            return sector in self._dirty_sectors.get(block, ())
        return (address >> self._block_bits) in self._dirty

    def reset(self) -> None:
        """Return to a cold cache with zeroed statistics."""
        self.stats = LevelStats(name=self.config.name)
        self._dirty.clear()
        self._dirty_sectors.clear()
        self._setpar_unsafe = False
        if self._is_lru:
            self._sets = [[] for _ in range(self.config.num_sets)]
        else:
            self._policy.reset()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def _announce(self, tel, engine: str) -> None:
        """Emit this level's ``engine_selected`` event, once."""
        if tel.enabled and not self._engine_announced:
            self._engine_announced = True
            tel.event(
                "engine_selected",
                level=self.config.name,
                engine=engine,
                policy=self.config.policy,
                sets=self.config.num_sets,
                ways=self.config.associativity,
            )

    def process(self, batch: AccessBatch) -> AccessBatch:
        """Run a request batch through the cache.

        Args:
            batch: requests arriving from the level above (byte
                addresses, sizes, kinds). Request sizes must not exceed
                this cache's block size (upper levels have smaller or
                equal granularity by construction).

        Returns:
            The request batch this level emits toward the level below:
            fills (loads of one block) and dirty-eviction writebacks
            (stores of one block), in occurrence order.
        """
        n = len(batch)
        if n == 0:
            return AccessBatch.empty()

        tel = get_active()
        self._announce(tel, self._engine)

        stats = self.stats
        is_store = batch.is_store
        n_loads, n_stores = stats.account_batch(batch)

        # Run-length collapse: one probe per run of equal units. The
        # unit is the sector (the block unless sectored), so the loop
        # can mark per-sector dirty state exactly in access order.
        units = batch.addresses >> np.uint64(self._sector_bits)
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(units[1:], units[:-1], out=change[1:])
        n_runs = int(np.count_nonzero(change))
        if n_runs == n or (
            self._engine == "setpar" and n_runs * 4 > 3 * n
        ):
            # Every access (or nearly every access — random-access
            # traffic) is its own run. The run arrays are the event
            # arrays themselves, no gathers needed. For the set-
            # parallel engine this is exact even when short runs
            # remain: simulating a run's accesses one by one gives the
            # identical fill, writeback, dirty, and per-type hit/miss
            # outcome — the first access misses or hits for the run,
            # the rest hit (promoting under LRU) — so collapse is purely a
            # throughput lever, worthwhile only when it shrinks the
            # batch substantially.
            run_units = units
            run_stores = is_store
            first_store = is_store
            run_loads = np.subtract(1, is_store, dtype=np.int64)
        else:
            starts = np.flatnonzero(change)
            counts = np.diff(starts, append=n)
            store_cum = np.empty(n + 1, dtype=np.int64)
            store_cum[0] = 0
            np.cumsum(is_store, dtype=np.int64, out=store_cum[1:])
            run_stores = store_cum[starts + counts] - store_cum[starts]
            run_units = units[starts]
            first_store = is_store[starts]
            run_loads = counts - run_stores

        run_blocks = run_units
        if self._sector_bits < self._block_bits:
            run_blocks = run_units >> np.uint64(
                self._block_bits - self._sector_bits
            )
        run_sets = self._set_indices(run_blocks)

        if self._per_sector:
            out_addrs, out_kinds = self._process_runs_sectored(
                run_units.tolist(),
                run_blocks.tolist(),
                run_sets.tolist(),
                run_loads.tolist(),
                run_stores.tolist(),
                first_store.tolist(),
            )
            if not out_addrs:
                return AccessBatch.empty()
            kinds = np.asarray(out_kinds, dtype=KIND_DTYPE)
            # Fills are whole blocks, writebacks single sectors.
            return AccessBatch(
                np.asarray(out_addrs, dtype=ADDR_DTYPE),
                np.where(
                    kinds != 0, self.writeback_size, self.config.block_size
                ).astype(SIZE_DTYPE),
                kinds,
            )

        if self._engine == "setpar":
            out_blocks_arr, out_kinds_arr = self._process_runs_setpar(
                run_units, run_sets, run_loads, run_stores, first_store,
                n_loads, n_stores, tel,
            )
            if not len(out_blocks_arr):
                return AccessBatch.empty()
            return AccessBatch(
                out_blocks_arr << np.uint64(self._block_bits),
                np.full(
                    len(out_blocks_arr),
                    self.config.block_size,
                    dtype=SIZE_DTYPE,
                ),
                out_kinds_arr,
            )

        out_blocks, out_kinds = self._process_runs_lru(
            run_units.tolist(),
            run_sets.tolist(),
            run_loads.tolist(),
            run_stores.tolist(),
            first_store.tolist(),
        )

        if not out_blocks:
            return AccessBatch.empty()
        out_addr = np.asarray(out_blocks, dtype=ADDR_DTYPE) << np.uint64(
            self._block_bits
        )
        return AccessBatch(
            out_addr,
            np.full(len(out_blocks), self.config.block_size, dtype=SIZE_DTYPE),
            np.asarray(out_kinds, dtype=KIND_DTYPE),
        )

    def _process_runs_sectored(
        self, run_sectors, run_blocks, run_sets, run_loads, run_stores,
        first_store,
    ):
        """Per-sector hot loop: block-granularity allocation, sector-
        granularity dirty tracking. It serves sectored levels (LRU or
        pluggable policy) and every FIFO or Random level, whose sector
        is the block unless sectored.

        Fill requests are full blocks (the page is the allocation
        unit); dirty-eviction writebacks are one request per dirty
        sector — the paper's "dirty cache line" accounting. Block
        numbers, set indices, and per-run load counts arrive
        precomputed (vectorized in :meth:`process`).
        """
        block_bits = self._block_bits
        sector_bits = self._sector_bits
        dirty = self._dirty_sectors
        dirty_get = dirty.get
        dirty_pop = dirty.pop
        stats = self.stats
        is_lru = self._is_lru
        sets = self._sets
        if not is_lru:
            lookup = self._policy.lookup
            insert = self._policy.insert
        ways = self.config.associativity
        lh = lm = sh = sm = wb = fills = 0
        out_addrs: list[int] = []
        out_kinds: list[int] = []
        append_a = out_addrs.append
        append_k = out_kinds.append

        for sec, blk, sidx, nld, nst, fst in zip(
            run_sectors, run_blocks, run_sets, run_loads, run_stores,
            first_store,
        ):
            if is_lru:
                s = sets[sidx]
                if blk in s:
                    if s[0] != blk:
                        s.remove(blk)
                        s.insert(0, blk)
                    hit = True
                else:
                    hit = False
            else:
                hit = lookup(sidx, blk)
            if hit:
                lh += nld
                sh += nst
            else:
                if fst:
                    sm += 1
                    sh += nst - 1
                    lh += nld
                else:
                    lm += 1
                    lh += nld - 1
                    sh += nst
                fills += 1
                append_a(blk << block_bits)
                append_k(0)
                if is_lru:
                    s.insert(0, blk)
                    victim = s.pop() if len(s) > ways else None
                else:
                    victim = insert(sidx, blk)
                if victim is not None:
                    victim_sectors = dirty_pop(victim, None)
                    if victim_sectors:
                        wb += len(victim_sectors)
                        for vsec in sorted(victim_sectors):
                            append_a(vsec << sector_bits)
                            append_k(1)
            if nst:
                entry = dirty_get(blk)
                if entry is None:
                    dirty[blk] = {sec}
                else:
                    entry.add(sec)

        stats.load_hits += lh
        stats.load_misses += lm
        stats.store_hits += sh
        stats.store_misses += sm
        stats.writebacks += wb
        stats.fills += fills
        return out_addrs, out_kinds

    def _process_runs_lru(
        self, run_blocks, run_sets, run_loads, run_stores, first_store
    ):
        """Inline-LRU hot loop. Local-variable bound for speed; set
        indices and per-run load counts arrive precomputed."""
        sets = self._sets
        dirty = self._dirty
        ways = self.config.associativity
        stats = self.stats
        lh = lm = sh = sm = wb = fills = 0
        out_blocks: list[int] = []
        out_kinds: list[int] = []
        append_b = out_blocks.append
        append_k = out_kinds.append
        dirty_add = dirty.add

        for blk, sidx, nld, nst, fst in zip(
            run_blocks, run_sets, run_loads, run_stores, first_store
        ):
            s = sets[sidx]
            if blk in s:
                if s[0] != blk:
                    s.remove(blk)
                    s.insert(0, blk)
                lh += nld
                sh += nst
            else:
                # Miss charged to the run's first access; the rest of
                # the run hits the freshly filled block.
                if fst:
                    sm += 1
                    sh += nst - 1
                    lh += nld
                else:
                    lm += 1
                    lh += nld - 1
                    sh += nst
                fills += 1
                append_b(blk)
                append_k(0)
                s.insert(0, blk)
                if len(s) > ways:
                    victim = s.pop()
                    if victim in dirty:
                        dirty.discard(victim)
                        wb += 1
                        append_b(victim)
                        append_k(1)
            if nst:
                dirty_add(blk)

        stats.load_hits += lh
        stats.load_misses += lm
        stats.store_hits += sh
        stats.store_misses += sm
        stats.writebacks += wb
        stats.fills += fills
        return out_blocks, out_kinds

    def _setpar_fallback(self, run_blocks, run_sets, run_loads, run_stores,
                         first_store, n_loads, n_stores, tel):
        """Whole-batch fallback of the setpar engine: the vectorized LRU
        step for batches of at least ``LRU_STEP_MIN_RUNS`` runs, else
        the scalar loop (list args converted once)."""
        n = len(run_blocks)
        step = n >= LRU_STEP_MIN_RUNS
        if tel.enabled:
            tel.counter(
                "repro_engine_runs",
                level=self.config.name,
                path="vector" if step else "scalar",
            ).inc(n)
        if step:
            return self._process_runs_lru_step(
                run_blocks, run_sets, run_stores, first_store,
                n_loads, n_stores,
            )
        out_blocks, out_kinds = self._process_runs_lru(
            run_blocks.tolist(),
            run_sets.tolist(),
            run_loads.tolist(),
            run_stores.tolist(),
            first_store.tolist(),
        )
        return (
            np.asarray(out_blocks, dtype=ADDR_DTYPE),
            np.asarray(out_kinds, dtype=KIND_DTYPE),
        )

    def _process_runs_lru_step(
        self, run_blocks, run_sets, run_stores, first_store, n_loads,
        n_stores,
    ):
        """Vectorized LRU step over a whole batch (see the module
        docstring): the scalar loop's statistics, emissions and end
        state, decided per residency instead of per run.

        Arguments arrive as the vectorized arrays from :meth:`process`.
        Returns ``(blocks, kinds)`` arrays in the scalar loop's order.
        """
        sets = self._sets
        dirty = self._dirty
        ways = self.config.associativity
        touched = np.flatnonzero(np.bincount(run_sets.astype(np.intp)))
        # Warm start: each touched set's residents, LRU first, open the
        # set's sequence as a synthetic prefix carrying their dirty bits.
        pre_blocks: list[int] = []
        pre_sets: list[int] = []
        for sidx in touched.tolist():
            row = sets[sidx]
            pre_blocks.extend(reversed(row))
            pre_sets.extend([sidx] * len(row))
        n_pre = len(pre_blocks)
        blocks = np.concatenate(
            [np.array(pre_blocks, dtype=np.uint64), run_blocks]
        )
        stored = np.concatenate([
            np.array([b in dirty for b in pre_blocks], dtype=bool),
            run_stores != 0,
        ])
        set_keys, order, seq, by_block, miss, residency = _lru_residencies(
            blocks,
            np.concatenate([np.array(pre_sets, dtype=np.uint64), run_sets]),
            ways,
            self.config.num_sets,
        )
        # Each residency's dirty bit (any of its runs stored) and last
        # touch (its last position in block order).
        mpos = np.flatnonzero(miss)
        res_dirty = np.zeros(len(mpos), dtype=bool)
        res_dirty[residency[stored[order]]] = True
        ends = np.empty(len(seq), dtype=bool)
        ends[:-1] = miss[by_block[1:]]
        ends[-1] = True
        is_last = np.zeros(len(seq), dtype=bool)
        is_last[by_block[ends]] = True
        last_pos = np.flatnonzero(is_last)
        # Misses in position order and residencies in last-touch order
        # both run set by set, with as many entries per set. Each miss
        # past a set's first ``ways`` evicts one residency, in last-touch
        # order, and the evicted ones are all but the ``ways`` last
        # touched: pairing the two lists names every victim.
        res_sets = set_keys[order[mpos]]
        per_set = np.bincount(res_sets)
        rank = np.arange(len(mpos), dtype=np.int64)
        rank -= (np.cumsum(per_set) - per_set)[res_sets]
        evicting = rank >= ways
        evicted = rank < per_set[res_sets] - ways
        victim_pos = last_pos[evicted]
        wb = res_dirty[residency[victim_pos]]
        wb_j = order[mpos[evicting][wb]] - n_pre
        wb_blocks = seq[victim_pos[wb]]
        fill_j = order[mpos] - n_pre
        fill_j = fill_j[fill_j >= 0]
        n_fill = len(fill_j)
        n_sm = int(np.count_nonzero(first_store[fill_j]))
        stats = self.stats
        stats.load_hits += n_loads - (n_fill - n_sm)
        stats.load_misses += n_fill - n_sm
        stats.store_hits += n_stores - n_sm
        stats.store_misses += n_sm
        stats.writebacks += len(wb_j)
        stats.fills += n_fill

        # End state: each touched set keeps its ``ways`` last-touched
        # residencies, MRU first, and only their dirty bits.
        kept_pos = last_pos[~evicted]
        kept_blocks = seq[kept_pos]
        rows = kept_blocks[::-1].tolist()
        at = 0
        for sidx, k in zip(
            touched[::-1].tolist(),
            np.minimum(per_set[touched[::-1]], ways).tolist(),
        ):
            sets[sidx] = rows[at:at + k]
            at += k
        if dirty:
            dirty.difference_update(pre_blocks)
        dirty.update(kept_blocks[res_dirty[residency[kept_pos]]].tolist())
        return _emit_in_order(run_blocks, fill_j, wb_j, wb_blocks)

    def _process_runs_setpar(
        self, run_blocks, run_sets, run_loads, run_stores, first_store,
        n_loads, n_stores, tel,
    ):
        """Set-parallel LRU rounds (see the module docstring).

        Arguments arrive as the vectorized arrays from :meth:`process`.
        Returns ``(blocks, kinds)`` arrays in the exact emission order
        of the scalar loop: each run's fill precedes the writeback of
        the victim it displaced, and runs emit in occurrence order.
        """
        n = len(run_blocks)
        min_lanes = SETPAR_MIN_LANES
        # Latch unsafety first: a too-large block can become resident
        # through the fallback batch that carries it, so every later
        # batch must stay scalar too, not just this one.
        if not self._setpar_unsafe and bool(
            (run_blocks > _MAX_PACKABLE).any()
        ):
            self._setpar_unsafe = True
        # A cache with fewer sets than the lane floor can never fill a
        # profitable round; neither can a batch with fewer runs.
        if (
            self._setpar_unsafe
            or self.config.num_sets < min_lanes
            or n < min_lanes
        ):
            return self._setpar_fallback(
                run_blocks, run_sets, run_loads, run_stores, first_store,
                n_loads, n_stores, tel,
            )

        # Group runs by set. Double stable argsort — by set, then by
        # within-set rank — makes round r the contiguous slice
        # [seg[r], seg[r+1]) of `orig`, ordered by ascending set index,
        # holding the r-th run of every set that has one. 16-bit set
        # keys take numpy's radix path (~6x faster than the comparison
        # sort on wider keys); setpar caches rarely exceed a few
        # thousand sets, so the wide fallback is cold.
        num_sets = self.config.num_sets
        key_dtype = np.int16 if num_sets <= (1 << 15) else np.int32
        rs = run_sets.astype(key_dtype)
        order = np.argsort(rs, kind="stable")
        counts_all = np.bincount(rs, minlength=num_sets)
        touched = np.flatnonzero(counts_all)
        m = len(touched)
        counts = counts_all[touched]
        starts = np.zeros(m, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        ranks = np.arange(n, dtype=np.int32)
        ranks -= np.repeat(starts.astype(np.int32), counts)
        lanes = np.bincount(ranks)
        # lanes[r] (active sets in round r) is non-increasing, so the
        # profitable prefix of rounds is a binary search away.
        vec_rounds = int(np.searchsorted(-lanes, -min_lanes, side="right"))
        if vec_rounds == 0:
            return self._setpar_fallback(
                run_blocks, run_sets, run_loads, run_stores, first_store,
                n_loads, n_stores, tel,
            )

        orig = order[np.argsort(ranks, kind="stable")]
        seg = np.zeros(len(lanes) + 1, dtype=np.int64)
        np.cumsum(lanes, out=seg[1:])
        n_vec = int(seg[vec_rounds])
        orig_v = orig[:n_vec]
        blks = run_blocks[orig_v]
        # Per-lane store bit, widened once to uint64 so the round
        # loop's bitwise ops never pay a per-call bool cast.
        hs = (run_stores[orig_v] != 0).astype(np.uint64)
        # Packed per-lane query (block << 1) and fill value (query with
        # the has-store dirty bit folded in).
        b2s = blks << np.uint64(1)
        b2h = b2s | hs
        ways = self.config.associativity
        # Rounds where every touched set is active use the matrices
        # unsliced; only the partial-round suffix of lanes needs the
        # set-id -> matrix-row mapping, built via a small scatter table
        # (cheaper than a searchsorted over every lane).
        full_rounds = int(np.searchsorted(-lanes, -m, side="right"))
        full_rounds = min(full_rounds, vec_rounds)
        p0 = int(seg[full_rounds])
        if p0 < n_vec:
            remap = np.empty(num_sets, dtype=np.intp)
            remap[touched] = np.arange(m, dtype=np.intp)
            rows_part = remap[rs[orig_v[p0:]]]
            rowsW_part = rows_part * ways
        else:
            rows_part = rowsW_part = None

        sets = self._sets
        dirty = self._dirty
        touched_list = touched.tolist()

        # Gather the touched rows into a packed tag matrix
        # (block << 1 | dirty; sentinel pads the empty ways) and seed
        # the timestamp matrix: resident way j carries stamp -(j+1), so
        # stamps decrease from MRU to LRU, and the unused suffix
        # continues the pattern — always more negative than any
        # resident, so argmin fills empty ways before evicting, exactly
        # like the scalar loop.
        pad = [0xFFFFFFFFFFFFFFFF] * ways
        packed = []
        old_dirty: list[int] = []
        if dirty:
            for sidx in touched_list:
                prow = []
                ap = prow.append
                for b in sets[sidx]:
                    if b in dirty:
                        ap((b << 1) | 1)
                        old_dirty.append(b)
                    else:
                        ap(b << 1)
                packed.append(prow + pad[len(prow):])
        else:
            for sidx in touched_list:
                row = sets[sidx]
                packed.append([b << 1 for b in row] + pad[len(row):])
        tags = np.array(packed, dtype=np.uint64)
        tags_f = tags.reshape(-1)
        # int32 stamps: rounds per batch stay far below 2**31, and the
        # narrower rows compare/scan faster.
        stamp = np.empty((m, ways), dtype=np.int32)
        stamp[:] = np.arange(-1, -ways - 1, -1, dtype=np.int32)
        stamp_f = stamp.reshape(-1)

        # Round loop. Every numpy call here costs ~1 us regardless of
        # lane count, so the loop body is op-count-austere and works on
        # packed tags only: a way matches its lane's block iff
        # tag XOR (block << 1) <= 1 (equal up to the dirty bit; the
        # sentinel XORs to at least 3 against any packable query). Hit
        # way and LRU victim collapse into ONE argmin over a score
        # matrix (the stamps, with matching ways dropped far below
        # every real stamp): a hit way, when present, always scores
        # lowest; otherwise argmin lands on the scalar loop's victim —
        # the emptiest or least-recent way. The chosen way's old tag
        # then yields the miss flag by the same XOR test, and the
        # promoted/filled value builds hit-first (old tag OR store bit,
        # overwritten with the fill value on miss lanes). Every op
        # writes into a preallocated buffer, and per-lane miss flags
        # and packed victims land in batch-long arrays so fills,
        # writebacks, and miss counts reduce to single vectorized
        # passes afterward. Rounds where every touched set is active —
        # the whole prefix under uniform traffic — iterate reshaped
        # (rounds x m) views via zip, skipping per-round slicing and
        # the row gathers entirely.
        one_u = np.uint64(1)
        # Scalar-operand ufunc calls pay a per-call boxing cost, so the
        # masked-minimum source and the comparison threshold are small
        # preallocated arrays instead.
        neg_big = np.full((m, ways), -(1 << 30), dtype=np.int32)
        ones_v = np.full(m, 1, dtype=np.uint64)
        xm = np.empty((m, ways), dtype=np.uint64)
        eq = np.empty((m, ways), dtype=bool)
        bg = np.empty((m, ways), dtype=np.uint64)
        sg = np.empty((m, ways), dtype=np.int32)
        cw = np.empty(m, dtype=np.intp)
        gi = np.empty(m, dtype=np.intp)
        pv = np.empty(m, dtype=np.uint64)
        tq = np.empty(m, dtype=np.uint64)
        localoff = np.arange(m, dtype=np.intp) * ways
        miss_all = np.empty(n_vec, dtype=bool)
        victims_all = np.empty(n_vec, dtype=np.uint64)
        add = np.add
        xor = np.bitwise_xor
        less_equal = np.less_equal
        greater = np.greater
        copyto = np.copyto
        bor = np.bitwise_or
        take_t = tags_f.take
        if full_rounds:
            nf = full_rounds
            # The poison below lands only on the matched way of hit
            # lanes — exactly the way argmin then chooses — so the
            # end-of-round stamp scatter heals every poisoned entry and
            # the persistent stamp matrix needs no scratch copy.
            for b2d, b2sv, hsv, bhv, msv, vvv, rv in zip(
                b2s[:p0].reshape(nf, m, 1),
                b2s[:p0].reshape(nf, m),
                hs[:p0].reshape(nf, m),
                b2h[:p0].reshape(nf, m),
                miss_all[:p0].reshape(nf, m),
                victims_all[:p0].reshape(nf, m),
                np.arange(nf, dtype=np.int32).reshape(nf, 1),
            ):
                xor(tags, b2d, out=xm)
                less_equal(xm, one_u, out=eq)
                copyto(stamp, neg_big, where=eq)
                stamp.argmin(axis=1, out=cw)
                add(cw, localoff, out=gi)
                take_t(gi, out=vvv)
                xor(vvv, b2sv, out=tq)
                greater(tq, ones_v, out=msv)
                bor(vvv, hsv, out=pv)
                copyto(pv, bhv, where=msv)
                tags_f[gi] = pv
                stamp_f[gi] = rv
        b2s2d = b2s[:, None]
        seg_l = seg.tolist()
        for r in range(full_rounds, vec_rounds):
            lo = seg_l[r]
            hi = seg_l[r + 1]
            L = hi - lo
            lr = rows_part[lo - p0:hi - p0]
            tg = tags.take(lr, axis=0, out=bg[:L])
            sm = stamp.take(lr, axis=0, out=sg[:L])
            xmv = xm[:L]
            eqv = eq[:L]
            cwv = cw[:L]
            giv = gi[:L]
            pvv = pv[:L]
            tqv = tq[:L]
            msv = miss_all[lo:hi]
            vvv = victims_all[lo:hi]
            xor(tg, b2s2d[lo:hi], out=xmv)
            less_equal(xmv, one_u, out=eqv)
            # sm is already a gathered copy, so poisoning it in place
            # needs no heal.
            copyto(sm, neg_big[:L], where=eqv)
            sm.argmin(axis=1, out=cwv)
            add(cwv, rowsW_part[lo - p0:hi - p0], out=giv)
            take_t(giv, out=vvv)
            xor(vvv, b2s[lo:hi], out=tqv)
            greater(tqv, ones_v[:L], out=msv)
            bor(vvv, hs[lo:hi], out=pvv)
            copyto(pvv, b2h[lo:hi], where=msv)
            tags_f[giv] = pvv
            stamp_f[giv] = r

        one = np.uint64(1)
        # Index-based compaction: flatnonzero + take walk the mask once,
        # where boolean fancy indexing would re-scan it per gather.
        mi = np.flatnonzero(miss_all)
        fill_v = orig_v.take(mi)
        # A writeback needs a real (non-sentinel) victim whose packed
        # dirty bit is set; the sentinel's low bit is 1, so both checks
        # are required. Misses are typically a small fraction of lanes,
        # so reduce over the compacted victims rather than every lane.
        vmiss = victims_all.take(mi)
        wbm = vmiss != _SENTINEL
        wbm &= (vmiss & one) != 0
        wi = np.flatnonzero(wbm)
        wb_v = fill_v.take(wi)
        wb_blocks_v = vmiss.take(wi) >> one
        n_sm = int(np.count_nonzero(first_store.take(fill_v)))

        # Write the touched rows back to the canonical per-set lists
        # before the scalar tail resumes mutating them in place. Stamps
        # are unique per row (each round touches a set at most once and
        # stamps at most one of its ways), so descending-stamp order is
        # the exact MRU-to-LRU list, with empty ways (most negative) at
        # the end.
        ordw = np.argsort(stamp, axis=1)[:, ::-1]
        t_sorted = np.take_along_axis(tags, ordw, axis=1)
        occ = (t_sorted != _SENTINEL).sum(axis=1)
        blocks_out = (t_sorted >> one).tolist()
        for sidx, brow, o in zip(touched_list, blocks_out, occ.tolist()):
            sets[sidx] = brow[:o]
        dirty.difference_update(old_dirty)
        db = (tags & one) != 0
        db &= tags != _SENTINEL
        dd = tags[db]
        if len(dd):
            dirty.update((dd >> one).tolist())

        # Skewed tail: the remaining runs (rank >= vec_rounds) have too
        # few active sets per round to vectorize. Global original-index
        # order preserves per-set rank order (sets are independent), so
        # the scalar loop below is exact.
        tail_fill: list[int] = []
        tail_wb: list[int] = []
        tail_wb_blk: list[int] = []
        if n_vec < n:
            tail = np.sort(orig[n_vec:])
            for j, blk, sidx, nst, fs in zip(
                tail.tolist(),
                run_blocks[tail].tolist(),
                run_sets[tail].tolist(),
                run_stores[tail].tolist(),
                first_store[tail].tolist(),
            ):
                s = sets[sidx]
                if blk in s:
                    if s[0] != blk:
                        s.remove(blk)
                        s.insert(0, blk)
                else:
                    if fs:
                        n_sm += 1
                    tail_fill.append(j)
                    s.insert(0, blk)
                    if len(s) > ways:
                        victim = s.pop()
                        if victim in dirty:
                            dirty.discard(victim)
                            tail_wb.append(j)
                            tail_wb_blk.append(victim)
                if nst:
                    dirty.add(blk)

        fill_j = np.concatenate(
            [fill_v, np.asarray(tail_fill, dtype=np.int64)]
        )
        wb_j = np.concatenate([wb_v, np.asarray(tail_wb, dtype=np.int64)])
        wb_blocks = np.concatenate(
            [wb_blocks_v, np.asarray(tail_wb_blk, dtype=np.uint64)]
        )

        n_fill = len(fill_j)
        n_wb = len(wb_j)
        lm = n_fill - n_sm
        stats = self.stats
        stats.load_hits += n_loads - lm
        stats.load_misses += lm
        stats.store_hits += n_stores - n_sm
        stats.store_misses += n_sm
        stats.writebacks += n_wb
        stats.fills += n_fill

        if tel.enabled:
            name = self.config.name
            tel.counter("repro_engine_rounds", level=name).inc(vec_rounds)
            tel.counter("repro_engine_runs", level=name, path="vector").inc(n_vec)
            tel.counter("repro_engine_runs", level=name, path="scalar").inc(
                n - n_vec
            )
            tel.gauge("repro_engine_occupancy", level=name).set(
                n_vec / vec_rounds
            )

        return _emit_in_order(run_blocks, fill_j, wb_j, wb_blocks)

    def count_lru(self, batch: AccessBatch, *, drain: bool) -> tuple[int, int]:
        """Price a whole request stream on this cold LRU cache, counts only.

        Adds to :attr:`stats` exactly what :meth:`process` on every
        chunk (then :meth:`flush_dirty` if ``drain``) would add, but
        from whole-stream numpy passes (see the module docstring). It
        emits no request batch and leaves the replacement and dirty
        state cold, so it suits the last cache before a memory that
        only counts what arrives.

        Returns:
            ``(fills, writebacks)``: the block-sized loads and the
            sector-sized stores the level below receives.
        """
        if not len(batch):
            return 0, 0
        self._announce(get_active(), "lru-counts")
        n_loads, n_stores = self.stats.account_batch(batch)
        # Block runs in time order; a run's later accesses always hit.
        blocks = batch.addresses >> np.uint64(self._block_bits)
        head = np.empty(len(blocks), dtype=bool)
        head[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        run_blocks = blocks[heads]
        ways = self.config.associativity
        sets, order, seq, by_block, miss, residency = _lru_residencies(
            run_blocks, self._set_indices(run_blocks), ways,
            self.config.num_sets,
        )
        misses = int(np.count_nonzero(miss))
        store_misses = int(
            np.count_nonzero(batch.is_store[heads[order[miss]]])
        )
        # The final residency of a block is evicted iff ``ways`` blocks
        # of its set are last touched after it.
        last = np.ones(len(seq), dtype=bool)
        grouped = seq[by_block]
        last[:-1] = grouped[1:] != grouped[:-1]
        last_pos = np.sort(by_block[last])
        last_sets = sets[order[last_pos]]
        later = np.searchsorted(last_sets, last_sets, side="right")
        later -= np.arange(1, len(last_pos) + 1)
        evicted = np.ones(misses, dtype=bool)
        evicted[residency[last_pos]] = later >= ways
        # Writebacks: the distinct (residency, sector) pairs of stores,
        # of evicted residencies only unless the drain flushes the rest.
        # A pair packs into one uint64, the residency above the sector's
        # index in its block (``sub`` bits; residencies < 2**(64 - sub)).
        run_residency = np.empty(len(seq), dtype=np.int64)
        run_residency[order] = residency
        stores = np.flatnonzero(batch.is_store)
        store_residency = run_residency[np.cumsum(head)[stores] - 1]
        sub = np.uint64(self._block_bits - self._sector_bits)
        sector = batch.addresses[stores] >> np.uint64(self._sector_bits)
        pairs = np.unique(
            (store_residency.astype(np.uint64) << sub)
            | (sector & ((np.uint64(1) << sub) - np.uint64(1)))
        )
        dirty = (pairs >> sub).astype(np.int64)
        writebacks = (
            len(dirty) if drain else int(np.count_nonzero(evicted[dirty]))
        )
        stats = self.stats
        stats.load_misses += misses - store_misses
        stats.load_hits += n_loads - (misses - store_misses)
        stats.store_misses += store_misses
        stats.store_hits += n_stores - store_misses
        stats.fills += misses
        stats.writebacks += writebacks
        return misses, writebacks

    def insert_block(self, block: int) -> AccessBatch:
        """Install a block without demand accounting (prefetch fills).

        The block is inserted at MRU position; hit/miss statistics are
        *not* updated (the caller accounts prefetch traffic
        separately). The cache's dirty bookkeeping still applies to the
        displaced victim.

        Returns:
            The writeback requests the displaced victim requires — one
            block (or its dirty sectors, for sectored caches), usually
            empty. Inserting a resident block is a no-op.
        """
        set_index = self._set_index(block)
        if self._is_lru:
            s = self._sets[set_index]
            if block in s:
                return AccessBatch.empty()
            s.insert(0, block)
            victim = s.pop() if len(s) > self.config.associativity else None
        else:
            if self._policy.lookup(set_index, block):
                return AccessBatch.empty()
            victim = self._policy.insert(set_index, block)
        if victim is None:
            return AccessBatch.empty()
        if self._per_sector:
            sectors = self._dirty_sectors.pop(victim, None)
            if not sectors:
                return AccessBatch.empty()
            self.stats.writebacks += len(sectors)
            ordered = sorted(sectors)
            return AccessBatch(
                np.asarray(ordered, dtype=ADDR_DTYPE)
                << np.uint64(self._sector_bits),
                np.full(len(ordered), 1 << self._sector_bits, dtype=SIZE_DTYPE),
                np.ones(len(ordered), dtype=KIND_DTYPE),
            )
        if victim not in self._dirty:
            return AccessBatch.empty()
        self._dirty.discard(victim)
        self.stats.writebacks += 1
        return AccessBatch(
            np.asarray([victim], dtype=ADDR_DTYPE) << np.uint64(self._block_bits),
            np.full(1, self.config.block_size, dtype=SIZE_DTYPE),
            np.ones(1, dtype=KIND_DTYPE),
        )

    def flush_dirty(self) -> AccessBatch:
        """Evict all dirty blocks/sectors, emitting their writebacks.

        Models end-of-run draining ("dirty cache lines eventually make
        their way to the main memory"). The blocks remain resident but
        clean.
        """
        if self._per_sector:
            if not self._dirty_sectors:
                return AccessBatch.empty()
            sectors = sorted(
                sec for secs in self._dirty_sectors.values() for sec in secs
            )
            self._dirty_sectors.clear()
            self.stats.writebacks += len(sectors)
            return AccessBatch(
                np.asarray(sectors, dtype=ADDR_DTYPE)
                << np.uint64(self._sector_bits),
                np.full(len(sectors), 1 << self._sector_bits, dtype=SIZE_DTYPE),
                np.ones(len(sectors), dtype=KIND_DTYPE),
            )
        if not self._dirty:
            return AccessBatch.empty()
        blocks = sorted(self._dirty)
        self._dirty.clear()
        self.stats.writebacks += len(blocks)
        return AccessBatch(
            np.asarray(blocks, dtype=ADDR_DTYPE) << np.uint64(self._block_bits),
            np.full(len(blocks), self.config.block_size, dtype=SIZE_DTYPE),
            np.ones(len(blocks), dtype=KIND_DTYPE),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetAssociativeCache({self.config.describe()})"


def check_request_sizes(batch: AccessBatch, block_size: int, name: str) -> None:
    """Raise if any request exceeds the level's block size (would imply
    a mis-ordered hierarchy)."""
    if len(batch) and int(batch.sizes.max()) > block_size:
        raise SimulationError(
            f"request of {int(batch.sizes.max())} B exceeds {name} block size "
            f"{block_size} B — hierarchy granularities must be non-decreasing"
        )


def _lru_residencies(blocks, sets, ways, num_sets):
    """LRU hits and residencies of a run stream, one set after another.

    ``blocks`` and ``sets`` are per-run block numbers and set indices in
    time order. The runs are stable-sorted by set, so every LRU stack
    window stays inside its set, and
    :func:`~repro.trace.reuse.lru_hits` decides each run's hit. Each
    miss opens a *residency* of its block: the block's runs from that
    miss up to its next one. Residency ids count up in block order,
    then time order.

    Returns:
        ``(sets, order, seq, by_block, miss, residency)``: the set keys
        (narrowed to a radix-sortable dtype), the stable set sort,
        ``blocks[order]``, its stable argsort, and per sorted position
        the miss flag and residency id.
    """
    narrow = num_sets <= (1 << 15)  # radix-sortable keys
    sets = sets.astype(np.int16 if narrow else np.int64)
    order = np.argsort(sets, kind="stable")
    seq = blocks[order]
    by_block = np.argsort(seq, kind="stable")
    miss = ~lru_hits(seq, ways, by_block)
    residency = np.empty(len(seq), dtype=np.int64)
    residency[by_block] = np.cumsum(miss[by_block]) - 1
    return sets, order, seq, by_block, miss, residency


def _emit_in_order(run_blocks, fill_j, wb_j, wb_blocks):
    """The ``(blocks, kinds)`` a batch emits, in the scalar loop's order.

    ``fill_j`` holds the runs that missed (in any order), ``wb_j`` the
    runs whose fill displaced a dirty victim and ``wb_blocks`` those
    victims. Runs emit in occurrence order, each fill before the
    writeback of the victim it displaced.
    """
    n = len(run_blocks)
    n_fill = len(fill_j)
    n_wb = len(wb_j)
    # Scatter emissions back into occurrence order. Every writeback
    # rides on a fill of the same run, so an exclusive cumsum of
    # per-run emission counts (0, 1, or 2) hands each run its first
    # output slot: the fill lands there, the writeback right after.
    # When emissions are dense (miss-heavy batches) this O(n)
    # counting scatter beats the argsort; when they are sparse the
    # argsort over just the emissions wins.
    if (n_fill + n_wb) * 4 > n:
        cnt = np.zeros(n, dtype=np.int8)
        cnt[fill_j] = 1
        cnt[wb_j] = 2
        base = np.empty(n, dtype=np.int64)
        base[0] = 0
        np.cumsum(cnt[:-1], dtype=np.int64, out=base[1:])
        out_blocks = np.empty(n_fill + n_wb, dtype=ADDR_DTYPE)
        out_kinds = np.zeros(n_fill + n_wb, dtype=KIND_DTYPE)
        fpos = base.take(fill_j)
        wpos = base.take(wb_j) + 1
        out_blocks[fpos] = run_blocks.take(fill_j)
        out_blocks[wpos] = wb_blocks
        out_kinds[wpos] = 1
        return out_blocks, out_kinds
    pos = np.concatenate([2 * fill_j, 2 * wb_j + 1])
    emit_order = np.argsort(pos)
    out_blocks = np.concatenate(
        [run_blocks[fill_j].astype(ADDR_DTYPE, copy=False), wb_blocks]
    )[emit_order]
    out_kinds = np.concatenate(
        [
            np.zeros(n_fill, dtype=KIND_DTYPE),
            np.ones(n_wb, dtype=KIND_DTYPE),
        ]
    )[emit_order]
    return out_blocks, out_kinds
