"""NMM: NVM as main memory behind a DRAM page cache.

"this design uses NVM as main memory and DRAM as a cache. This design
aims to decrease DRAM size and hence reduce refresh energy. In
addition, by employing DRAM as a cache, a significant portion of NVM
memory accesses are filtered..." The DRAM capacity / page size sweep is
Table 3; the NVM options are PCM, STT-RAM, and FeRAM.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.mainmem import MainMemory
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.designs.configs import PAGE_CACHE_ASSOCIATIVITY, NConfig
from repro.errors import ConfigError
from repro.model.bindings import LevelBinding
from repro.tech.params import DRAM, MemoryTechnology


class NMMDesign(MemoryDesign):
    """DRAM page cache + NVM main memory.

    Args:
        nvm_tech: the main-memory technology (PCM/STTRAM/FeRAM, or a
            scaled hypothetical from :mod:`repro.tech.scaling`).
        config: the Table 3 row (DRAM capacity + page size).
        scale: simulation capacity scale.
    """

    DRAM_CACHE_LEVEL = "DRAM$"
    MEMORY_LEVEL = "NVM"

    def __init__(
        self,
        nvm_tech: MemoryTechnology,
        config: NConfig,
        scale: float = 1.0,
        reference: ReferenceSystem | None = None,
    ) -> None:
        super().__init__(
            f"NMM-{nvm_tech.name}-{config.name}",
            scale=scale,
            reference=reference,
        )
        if config.page_size < self.reference.line_size:
            raise ConfigError("DRAM cache page size must be >= the SRAM line size")
        self.nvm_tech = nvm_tech
        self.config = config

    def sim_key(self) -> str:
        return f"NMM-{self.config.name}"

    def dram_cache_config(self) -> CacheConfig:
        """Full-size DRAM cache configuration.

        Dirty state is tracked per 64 B line (the paper's simulator
        extension), so evicting a dirty page writes back only its dirty
        lines to NVM — essential given NVM's write-energy asymmetry.
        """
        return CacheConfig(
            self.DRAM_CACHE_LEVEL,
            self.config.dram_capacity,
            PAGE_CACHE_ASSOCIATIVITY,
            self.config.page_size,
            sector_size=min(self.reference.line_size, self.config.page_size),
            hashed_sets=True,
        )

    def lower_configs(self) -> list[CacheConfig]:
        return [self.dram_cache_config().scaled(self.scale)]

    def memory(self) -> MainMemory:
        return MainMemory(self.MEMORY_LEVEL)

    def lower_bindings(self, footprint_bytes: int) -> dict[str, LevelBinding]:
        return {
            # The DRAM cache's refresh power is what the design shrinks:
            # it is charged at the (small) configured capacity instead of
            # the footprint-sized baseline DRAM.
            self.DRAM_CACHE_LEVEL: LevelBinding.from_technology(
                self.DRAM_CACHE_LEVEL, DRAM, self.config.dram_capacity
            ),
            # NVM main memory is footprint-sized; its static power is
            # zero per the paper's assumption.
            self.MEMORY_LEVEL: LevelBinding.from_technology(
                self.MEMORY_LEVEL, self.nvm_tech, footprint_bytes
            ),
        }
