"""The reference design: 3 SRAM caches + footprint-sized DRAM.

"...the base case that has 3 on chip SRAM caches followed by a DRAM big
enough to support necessary memory footprint." Every figure in the
paper normalizes against this design.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.mainmem import MainMemory
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.model.bindings import LevelBinding
from repro.tech.params import DRAM


class ReferenceDesign(MemoryDesign):
    """3-level SRAM pyramid over DRAM main memory."""

    #: Name of the terminal memory level.
    MEMORY_LEVEL = "DRAM"

    def __init__(
        self,
        scale: float = 1.0,
        reference: ReferenceSystem | None = None,
    ) -> None:
        super().__init__("REF", scale=scale, reference=reference)

    def lower_configs(self) -> list[CacheConfig]:
        return []

    def memory(self) -> MainMemory:
        return MainMemory(self.MEMORY_LEVEL)

    def lower_bindings(self, footprint_bytes: int) -> dict[str, LevelBinding]:
        # The baseline DRAM is sized to the workload footprint, so its
        # background/refresh power grows with the footprint — this is
        # the static-energy cost the NVM designs attack.
        return {
            self.MEMORY_LEVEL: LevelBinding.from_technology(
                self.MEMORY_LEVEL, DRAM, footprint_bytes
            )
        }
