"""The 6-level deep hybrid: eDRAM/HMC L4 + DRAM cache + NVM.

The paper evaluates 4LC (fast L4 over DRAM) and NMM (DRAM cache over
NVM) separately and combines them by *removing* DRAM (4LCNVM). The
remaining point of the design space — keep both intermediate levels —
is the natural "have it all" question its conclusions invite: does a
fast L4 in front of the NMM design buy back the NVM latency that
4LCNVM exposes, at the price of retaining (small-)DRAM refresh power?

This design answers it with the same machinery: L1–L3, then an
eDRAM/HMC L4 (Table 2 config), then a DRAM page cache (Table 3
config), then NVM main memory. It is this reproduction's extension,
not a paper result — benchmarked in ``benchmarks/test_extensions.py``.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.mainmem import MainMemory
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.designs.configs import (
    PAGE_CACHE_ASSOCIATIVITY,
    EHConfig,
    NConfig,
)
from repro.errors import ConfigError
from repro.model.bindings import LevelBinding
from repro.tech.params import DRAM, MemoryTechnology


class DeepHybridDesign(MemoryDesign):
    """eDRAM/HMC L4 + DRAM page cache + NVM main memory (6 levels).

    Args:
        cache_tech: the L4 technology (eDRAM or HMC).
        nvm_tech: the main-memory NVM technology.
        l4_config: Table 2 row for the L4.
        dram_config: Table 3 row for the DRAM cache.
        scale: simulation capacity scale.
    """

    L4_LEVEL = "L4"
    DRAM_CACHE_LEVEL = "DRAM$"
    MEMORY_LEVEL = "NVM"

    def __init__(
        self,
        cache_tech: MemoryTechnology,
        nvm_tech: MemoryTechnology,
        l4_config: EHConfig,
        dram_config: NConfig,
        scale: float = 1.0,
        reference: ReferenceSystem | None = None,
    ) -> None:
        super().__init__(
            f"DEEP-{cache_tech.name}-{nvm_tech.name}-"
            f"{l4_config.name}-{dram_config.name}",
            scale=scale,
            reference=reference,
        )
        if not cache_tech.volatile:
            raise ConfigError(
                f"the L4 uses a volatile technology, got {cache_tech.name}"
            )
        if l4_config.page_size < self.reference.line_size:
            raise ConfigError("L4 page size must be >= the SRAM line size")
        if dram_config.page_size < l4_config.page_size:
            raise ConfigError(
                "DRAM cache pages must be >= L4 pages (granularity must "
                "not shrink downward)"
            )
        self.cache_tech = cache_tech
        self.nvm_tech = nvm_tech
        self.l4_config_row = l4_config
        self.dram_config_row = dram_config

    def sim_key(self) -> str:
        return f"DEEP-{self.l4_config_row.name}-{self.dram_config_row.name}"

    def lower_configs(self) -> list[CacheConfig]:
        l4 = CacheConfig(
            self.L4_LEVEL,
            self.l4_config_row.capacity,
            PAGE_CACHE_ASSOCIATIVITY,
            self.l4_config_row.page_size,
            sector_size=min(self.reference.line_size, self.l4_config_row.page_size),
            hashed_sets=True,
        )
        dram_cache = CacheConfig(
            self.DRAM_CACHE_LEVEL,
            self.dram_config_row.dram_capacity,
            PAGE_CACHE_ASSOCIATIVITY,
            self.dram_config_row.page_size,
            sector_size=min(
                self.reference.line_size, self.dram_config_row.page_size
            ),
            hashed_sets=True,
        )
        return [l4.scaled(self.scale), dram_cache.scaled(self.scale)]

    def memory(self) -> MainMemory:
        return MainMemory(self.MEMORY_LEVEL)

    def lower_bindings(self, footprint_bytes: int) -> dict[str, LevelBinding]:
        return {
            self.L4_LEVEL: LevelBinding.from_technology(
                self.L4_LEVEL, self.cache_tech, self.l4_config_row.capacity
            ),
            self.DRAM_CACHE_LEVEL: LevelBinding.from_technology(
                self.DRAM_CACHE_LEVEL, DRAM, self.dram_config_row.dram_capacity
            ),
            self.MEMORY_LEVEL: LevelBinding.from_technology(
                self.MEMORY_LEVEL, self.nvm_tech, footprint_bytes
            ),
        }
