"""Partitioned main memory for the NDM (NVM+DRAM) design.

The paper's NDM design splits the virtual address space between DRAM
and NVM: "frequently accessed and updated objects are stored in DRAM,
while the rest are stored in NVM", with an oracle choosing the
partition. :class:`PartitionedMemory` implements the mechanism: requests
are routed by address range to one of two (or more) terminal devices,
each keeping its own statistics so the model can charge DRAM and NVM
delays/energies to exactly the traffic each received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.mainmem import MainMemory
from repro.cache.stats import LevelStats
from repro.errors import ConfigError
from repro.trace.events import AccessBatch

if TYPE_CHECKING:  # pragma: no cover - numpy loads where arrays are made
    import numpy as np


@dataclass(frozen=True)
class RoutingRule:
    """Route addresses in ``[start, end)`` to device ``device_index``."""

    start: int
    end: int
    device_index: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigError(f"empty routing range [{self.start}, {self.end})")
        if self.device_index < 0:
            raise ConfigError("device_index must be non-negative")


class PartitionedMemory:
    """Address-range router over multiple terminal memory devices.

    Args:
        devices: terminal devices; ``devices[default_device]`` receives
            any address not matched by a rule.
        rules: routing rules, applied in order (first match wins).
        default_device: index of the fall-through device.
    """

    def __init__(
        self,
        devices: list[MainMemory],
        rules: list[RoutingRule],
        default_device: int = 0,
    ) -> None:
        if not devices:
            raise ConfigError("PartitionedMemory needs at least one device")
        if not 0 <= default_device < len(devices):
            raise ConfigError("default_device out of range")
        for rule in rules:
            if rule.device_index >= len(devices):
                raise ConfigError(
                    f"rule routes to device {rule.device_index} but only "
                    f"{len(devices)} devices exist"
                )
        self.devices = devices
        self.rules = list(rules)
        self.default_device = default_device

    @property
    def name(self) -> str:
        """Composite label of the partitioned memory."""
        return "+".join(d.name for d in self.devices)

    def route(self, addresses: np.ndarray) -> np.ndarray:
        """Device index for each address (vectorized, first match wins)."""
        import numpy as np

        out = np.full(len(addresses), self.default_device, dtype=np.int64)
        unassigned = np.ones(len(addresses), dtype=bool)
        for rule in self.rules:
            mask = (
                unassigned
                & (addresses >= np.uint64(rule.start))
                & (addresses < np.uint64(rule.end))
            )
            out[mask] = rule.device_index
            unassigned &= ~mask
        return out

    def process(self, batch: AccessBatch) -> AccessBatch:
        """Split a request batch across the devices."""
        if len(batch) == 0:
            return AccessBatch.empty()
        routes = self.route(batch.addresses)
        for idx, device in enumerate(self.devices):
            mask = routes == idx
            if mask.any():
                device.process(
                    AccessBatch(
                        batch.addresses[mask],
                        batch.sizes[mask],
                        batch.is_store[mask],
                    )
                )
        return AccessBatch.empty()

    @property
    def stats_list(self) -> list[LevelStats]:
        """Per-device stats, in device order."""
        return [d.stats for d in self.devices]

    def reset(self) -> None:
        """Zero all device counters."""
        for device in self.devices:
            device.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionedMemory({self.name}, rules={len(self.rules)})"
