"""NDM: partitioned DRAM+NVM main memory.

"this design uses both NVM and DRAM as a partitioned main memory in
which data objects are placed where they best fit ... as an oracle,
[we] explore the potential benefit of the design for an optimal
partitioning." The placement (which address ranges live in NVM) comes
from :mod:`repro.partition`; this class provides the mechanism.
"""

from __future__ import annotations

from repro.cache.mainmem import MainMemory
from repro.cache.config import CacheConfig
from repro.cache.partition import PartitionedMemory, RoutingRule
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.designs.configs import NDM_DRAM_CAPACITY
from repro.model.bindings import LevelBinding
from repro.partition.ranges import AddressRange
from repro.tech.params import DRAM, MemoryTechnology


class NDMDesign(MemoryDesign):
    """Partitioned DRAM+NVM main memory behind the SRAM pyramid.

    Args:
        nvm_tech: the NVM technology of the partition.
        nvm_ranges: address ranges placed in NVM (trace address space);
            everything else goes to DRAM.
        dram_capacity: full-size DRAM partition capacity (the paper
            explored 512 MB).
        scale: simulation capacity scale (the SRAM levels only — the
            terminal partition has no capacity behaviour to scale).
    """

    DRAM_LEVEL = "DRAMpart"
    NVM_LEVEL = "NVMpart"

    def __init__(
        self,
        nvm_tech: MemoryTechnology,
        nvm_ranges: list[AddressRange],
        dram_capacity: int = NDM_DRAM_CAPACITY,
        scale: float = 1.0,
        reference: ReferenceSystem | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            name or f"NDM-{nvm_tech.name}",
            scale=scale,
            reference=reference,
        )
        self.nvm_tech = nvm_tech
        self.nvm_ranges = list(nvm_ranges)
        self.dram_capacity = dram_capacity

    def sim_key(self) -> str:
        ranges = ",".join(f"{r.start:#x}-{r.end:#x}" for r in self.nvm_ranges)
        return f"NDM[{ranges}]"

    def lower_configs(self) -> list[CacheConfig]:
        return []

    def memory(self) -> PartitionedMemory:
        return PartitionedMemory(
            devices=[MainMemory(self.DRAM_LEVEL), MainMemory(self.NVM_LEVEL)],
            rules=[
                RoutingRule(r.start, r.end, device_index=1) for r in self.nvm_ranges
            ],
            default_device=0,
        )

    def lower_bindings(self, footprint_bytes: int) -> dict[str, LevelBinding]:
        return {
            self.DRAM_LEVEL: LevelBinding.from_technology(
                self.DRAM_LEVEL, DRAM, self.dram_capacity
            ),
            self.NVM_LEVEL: LevelBinding.from_technology(
                self.NVM_LEVEL, self.nvm_tech, footprint_bytes
            ),
        }

    def nvm_bytes(self) -> int:
        """Total bytes of address space placed in NVM."""
        return sum(r.size for r in self.nvm_ranges)
