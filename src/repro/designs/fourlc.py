"""4LC: eDRAM or HMC fourth-level cache in front of DRAM.

"this design uses eDRAM and Hybrid Memory Cube (HMC) as Last Level
Cache (LLC) ... Missed references in the LLC are simply directed
towards DRAM." The L4 capacity and page size sweep is Table 2.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.mainmem import MainMemory
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.designs.configs import PAGE_CACHE_ASSOCIATIVITY, EHConfig
from repro.errors import ConfigError
from repro.model.bindings import LevelBinding
from repro.tech.params import DRAM, MemoryTechnology


class FourLCDesign(MemoryDesign):
    """eDRAM/HMC L4 cache + DRAM main memory.

    Args:
        cache_tech: the L4 technology (eDRAM or HMC from Table 1).
        config: the Table 2 row (capacity + page size).
        scale: simulation capacity scale.
    """

    L4_LEVEL = "L4"
    MEMORY_LEVEL = "DRAM"

    def __init__(
        self,
        cache_tech: MemoryTechnology,
        config: EHConfig,
        scale: float = 1.0,
        reference: ReferenceSystem | None = None,
    ) -> None:
        super().__init__(
            f"4LC-{cache_tech.name}-{config.name}",
            scale=scale,
            reference=reference,
        )
        if not cache_tech.volatile:
            raise ConfigError(
                f"4LC uses a volatile LLC technology, got {cache_tech.name}"
            )
        if config.page_size < self.reference.line_size:
            raise ConfigError("L4 page size must be >= the SRAM line size")
        self.cache_tech = cache_tech
        self.config = config

    def sim_key(self) -> str:
        return f"4LC-{self.config.name}"

    def l4_config(self) -> CacheConfig:
        """Full-size L4 cache configuration (line-granularity dirty
        tracking, page-granularity allocation/fills)."""
        return CacheConfig(
            self.L4_LEVEL,
            self.config.capacity,
            PAGE_CACHE_ASSOCIATIVITY,
            self.config.page_size,
            sector_size=min(self.reference.line_size, self.config.page_size),
            hashed_sets=True,
        )

    def lower_configs(self) -> list[CacheConfig]:
        return [self.l4_config().scaled(self.scale)]

    def memory(self) -> MainMemory:
        return MainMemory(self.MEMORY_LEVEL)

    def lower_bindings(self, footprint_bytes: int) -> dict[str, LevelBinding]:
        return {
            self.L4_LEVEL: LevelBinding.from_technology(
                self.L4_LEVEL, self.cache_tech, self.config.capacity
            ),
            self.MEMORY_LEVEL: LevelBinding.from_technology(
                self.MEMORY_LEVEL, DRAM, footprint_bytes
            ),
        }
