"""Cache-level configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.units import format_bytes, is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of one cache level.

    Attributes:
        name: level label ("L1", "L2", "L3", "eDRAM", "DRAM$", ...).
        capacity: total capacity in bytes.
        associativity: number of ways per set.
        block_size: allocation/fill granularity in bytes — a cache
            line for the SRAM levels, a *page* for the eDRAM/HMC and
            DRAM-cache levels (the paper's page-size sweep parameter).
        sector_size: dirty-tracking granularity. The paper's simulator
            tracks dirty *cache lines* even inside page-granularity
            levels, so evicting a dirty page writes back only its dirty
            64 B sectors, not the whole page. ``None`` (the default)
            tracks dirty state at block granularity — correct for the
            SRAM levels where line == block.
        hashed_sets: use multiplicative-hash set indexing instead of
            address-bit slicing. Memory-side caches (eDRAM/HMC L4, the
            DRAM page cache) hash their index in real controllers to
            spread strided traffic; at simulation scale it also keeps
            behaviour faithful when capacity scaling collapses the set
            count.
        policy: replacement policy name ("lru", "fifo", "random").
    """

    name: str
    capacity: int
    associativity: int
    block_size: int
    sector_size: int | None = None
    hashed_sets: bool = False
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if self.block_size <= 0 or not is_power_of_two(self.block_size):
            raise ConfigError(
                f"{self.name}: block_size must be a positive power of two, "
                f"got {self.block_size}"
            )
        if self.sector_size is not None:
            if not is_power_of_two(self.sector_size):
                raise ConfigError(
                    f"{self.name}: sector_size must be a power of two"
                )
            if self.sector_size > self.block_size:
                raise ConfigError(
                    f"{self.name}: sector_size must not exceed block_size"
                )
        if self.associativity <= 0:
            raise ConfigError(f"{self.name}: associativity must be positive")
        if self.capacity % (self.block_size * self.associativity) != 0:
            raise ConfigError(
                f"{self.name}: capacity {self.capacity} is not divisible by "
                f"block_size*associativity = {self.block_size * self.associativity}"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"{self.name}: number of sets ({self.num_sets}) must be a "
                "power of two for address-bit set indexing"
            )
        if self.policy not in ("lru", "fifo", "random"):
            raise ConfigError(f"{self.name}: unknown replacement policy {self.policy!r}")

    @property
    def num_blocks(self) -> int:
        """Total number of blocks the cache can hold."""
        return self.capacity // self.block_size

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.capacity // (self.block_size * self.associativity)

    def scaled(self, factor: float, min_capacity: int | None = None) -> "CacheConfig":
        """A copy with capacity scaled by ``factor``.

        Capacity is rounded to the nearest power-of-two multiple of
        ``block_size * associativity`` so the result stays valid; it
        never drops below one block per way (or ``min_capacity``).
        """
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        unit = self.block_size * self.associativity
        floor = max(unit, min_capacity or 0)
        target = max(self.capacity * factor, floor)
        # Round the per-way set count to the nearest power of two.
        sets = max(1, round(target / unit))
        sets = 1 << max(0, (sets - 1).bit_length())
        # Prefer the closer of the two bracketing powers of two.
        if sets > 1 and abs(sets // 2 * unit - target) < abs(sets * unit - target):
            sets //= 2
        return replace(self, capacity=sets * unit)

    def describe(self) -> str:
        """Short human-readable summary, e.g. 'L3 20MB 20-way 64B lru'."""
        return (
            f"{self.name} {format_bytes(self.capacity)} "
            f"{self.associativity}-way {format_bytes(self.block_size)} {self.policy}"
        )


def supports_setpar(config: CacheConfig) -> bool:
    """True iff the set-parallel engine can simulate this level.

    The vectorized rounds keep LRU order as per-way timestamps over
    whole-block dirty state, so only non-sectored LRU levels qualify.
    FIFO and Random levels and sectored levels run the per-sector loop.
    """
    sectored = (
        config.sector_size is not None
        and config.sector_size < config.block_size
    )
    return config.policy == "lru" and not sectored
