"""Per-level and hierarchy-wide simulation statistics.

These are the data-movement counts the paper's models consume:
loads/stores arriving at every level (Eq. 2's ``Loads_Li`` /
``Stores_Li``), hit/miss diagnostics, and the bit volumes needed for the
per-bit dynamic energy model (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.trace.events import AccessBatch


@dataclass
class LevelStats:
    """Counters for one hierarchy level.

    "Arriving" counts are requests sent to this level by the level above
    (for L1, the program's references themselves). These are exactly the
    per-level loads/stores of Eq. (2).

    Attributes:
        name: level label.
        loads: load requests arriving at this level.
        stores: store requests (writebacks from above, or program
            stores at L1) arriving at this level.
        load_bits: total bits read by arriving loads.
        store_bits: total bits written by arriving stores.
        load_hits / load_misses / store_hits / store_misses: hit/miss
            split (misses attributed to the access that triggered the
            fill). Terminal memory levels report everything as hits.
        writebacks: dirty-eviction writebacks this level *emitted*
            toward the level below.
        fills: fill requests this level emitted toward the level below
            (== load_misses + store_misses under write-allocate).
    """

    name: str
    loads: int = 0
    stores: int = 0
    load_bits: int = 0
    store_bits: int = 0
    load_hits: int = 0
    load_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    writebacks: int = 0
    fills: int = 0

    def account_batch(self, batch: "AccessBatch") -> tuple[int, int]:
        """Count an arriving request batch (demand accounting).

        Adds the batch's load/store request counts and bit volumes to
        the counters — the part of per-level accounting every device
        shares, regardless of how it then simulates the requests.

        Returns:
            ``(n_loads, n_stores)`` of the batch, for the caller's own
            hit/miss attribution.
        """
        # is_store is strictly 0/1 (see AccessBatch), so its sum counts
        # the stores, and sizes * is_store — no larger than sizes, so
        # within their dtype — is an exact masked sum without the
        # boolean-index copy.
        is_store = batch.is_store
        n_stores = int(is_store.sum(dtype="int64"))
        n_loads = len(batch) - n_stores
        self.loads += n_loads
        self.stores += n_stores
        sizes = batch.sizes
        total_bytes = int(sizes.sum(dtype="int64"))
        store_bytes = int((sizes * is_store).sum(dtype="int64"))
        self.store_bits += 8 * store_bytes
        self.load_bits += 8 * (total_bytes - store_bytes)
        return n_loads, n_stores

    @property
    def accesses(self) -> int:
        """Total requests arriving at this level."""
        return self.loads + self.stores

    @property
    def hits(self) -> int:
        """Total hits."""
        return self.load_hits + self.store_hits

    @property
    def misses(self) -> int:
        """Total misses."""
        return self.load_misses + self.store_misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction of arriving requests (0.0 when idle)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        """Miss fraction of arriving requests."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def merge(self, other: "LevelStats") -> "LevelStats":
        """Element-wise sum (for combining runs); names must match."""
        if other.name != self.name:
            raise ValueError(f"cannot merge stats of {self.name!r} and {other.name!r}")
        return LevelStats(
            name=self.name,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            load_bits=self.load_bits + other.load_bits,
            store_bits=self.store_bits + other.store_bits,
            load_hits=self.load_hits + other.load_hits,
            load_misses=self.load_misses + other.load_misses,
            store_hits=self.store_hits + other.store_hits,
            store_misses=self.store_misses + other.store_misses,
            writebacks=self.writebacks + other.writebacks,
            fills=self.fills + other.fills,
        )

    def as_dict(self) -> dict:
        """Plain-dict form (serialization, tabular reports)."""
        return {
            "name": self.name,
            "loads": self.loads,
            "stores": self.stores,
            "load_bits": self.load_bits,
            "store_bits": self.store_bits,
            "load_hits": self.load_hits,
            "load_misses": self.load_misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "writebacks": self.writebacks,
            "fills": self.fills,
        }


#: Integer counter fields of :class:`LevelStats` (everything but name).
COUNTER_FIELDS = tuple(f.name for f in fields(LevelStats) if f.name != "name")


@dataclass
class HierarchyStats:
    """Statistics for a whole hierarchy run.

    Attributes:
        levels: per-level stats, top (L1) to bottom; the final entries
            are the terminal memory device(s) — one for a conventional
            main memory, two (DRAM and NVM) for the NDM partitioned
            memory.
        references: total program references fed into L1 — Eq. (2)'s
            denominator.
    """

    levels: list[LevelStats] = field(default_factory=list)
    references: int = 0

    def level(self, name: str) -> LevelStats:
        """Stats for the level called ``name``.

        Raises:
            KeyError: if no such level exists.
        """
        for stats in self.levels:
            if stats.name == name:
                return stats
        raise KeyError(name)

    @property
    def level_names(self) -> list[str]:
        """Names of the levels, top to bottom."""
        return [s.name for s in self.levels]

    def check_conservation(self, n_caches: int, *, rounded: bool = False) -> None:
        """Assert that one request stream flowed down these levels.

        The first ``n_caches`` levels are caches; the rest are the
        terminal memory device(s), which together receive what the last
        cache sends down. Three identities must hold:

        - L1 sees every program reference: ``loads + stores ==
          references``;
        - no level hits more often than it is accessed, for loads and
          for stores;
        - what leaves cache level *n* (fills plus writebacks) is exactly
          what arrives at level *n + 1* (its loads plus stores), with a
          partitioned memory's devices summed.

        Fills, not misses, are what leave a level: extrapolated sampled
        counters are rounded field by field, so misses plus writebacks
        can be off by one where fills plus writebacks are not.

        Args:
            n_caches: how many leading levels are caches.
            rounded: the counters were extrapolated and rounded one by
                one (sampled statistics). Each side of an identity is
                then a sum of rounded counters, and may be off by half
                a request per counter involved; an exact identity
                holds to that slack.

        Raises:
            SimulationError: naming the first identity that fails (for
                the third, the level pair).
        """

        def check(sent: int, arrived: int, counters: int, where: str) -> None:
            slack = counters // 2 if rounded else 0
            if abs(sent - arrived) > slack:
                raise SimulationError(
                    f"conservation violated {where}: {sent} requests sent, "
                    f"{arrived} arrived"
                )

        l1 = self.levels[0]
        check(self.references, l1.accesses, 3, f"at {l1.name}")
        for level in self.levels:
            if level.load_hits > level.loads or level.store_hits > level.stores:
                raise SimulationError(
                    f"conservation violated at {level.name}: more hits "
                    f"than accesses"
                )
        caches, memory = self.levels[:n_caches], self.levels[n_caches:]
        receivers = [[level] for level in caches[1:]] + [memory]
        for level, below in zip(caches, receivers):
            check(
                level.fills + level.writebacks,
                sum(receiver.accesses for receiver in below),
                2 + 2 * len(below),
                f"between {level.name} and "
                + "+".join(receiver.name for receiver in below),
            )

    def merge(self, other: "HierarchyStats") -> "HierarchyStats":
        """Combine two runs of the same hierarchy."""
        if self.level_names != other.level_names:
            raise ValueError("cannot merge stats of different hierarchies")
        return HierarchyStats(
            levels=[a.merge(b) for a, b in zip(self.levels, other.levels)],
            references=self.references + other.references,
        )

    def as_dict(self) -> dict:
        """Plain-dict form."""
        return {
            "references": self.references,
            "levels": [s.as_dict() for s in self.levels],
        }
