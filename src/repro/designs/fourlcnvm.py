"""4LCNVM: eDRAM/HMC cache directly over NVM — no DRAM at all.

"To combine those benefits we evaluate a system with no DRAM, but
rather an eDRAM/HMC cache followed by an NVM main memory." Uses the
Table 2 (EH) configuration space for the cache and any of the NVM
technologies for main memory.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.mainmem import MainMemory
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.designs.configs import PAGE_CACHE_ASSOCIATIVITY, EHConfig
from repro.errors import ConfigError
from repro.model.bindings import LevelBinding
from repro.tech.params import MemoryTechnology


class FourLCNVMDesign(MemoryDesign):
    """eDRAM/HMC L4 cache + NVM main memory (no DRAM).

    Args:
        cache_tech: the L4 technology (eDRAM or HMC).
        nvm_tech: the main-memory NVM technology.
        config: the Table 2 row (capacity + page size).
        scale: simulation capacity scale.
    """

    L4_LEVEL = "L4"
    MEMORY_LEVEL = "NVM"

    def __init__(
        self,
        cache_tech: MemoryTechnology,
        nvm_tech: MemoryTechnology,
        config: EHConfig,
        scale: float = 1.0,
        reference: ReferenceSystem | None = None,
    ) -> None:
        super().__init__(
            f"4LCNVM-{cache_tech.name}-{nvm_tech.name}-{config.name}",
            scale=scale,
            reference=reference,
        )
        if not cache_tech.volatile:
            raise ConfigError(
                f"4LCNVM uses a volatile L4 technology, got {cache_tech.name}"
            )
        if config.page_size < self.reference.line_size:
            raise ConfigError("L4 page size must be >= the SRAM line size")
        self.cache_tech = cache_tech
        self.nvm_tech = nvm_tech
        self.config = config

    def sim_key(self) -> str:
        return f"4LCNVM-{self.config.name}"

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
                self.MEMORY_LEVEL, self.nvm_tech, footprint_bytes
            ),
        }
