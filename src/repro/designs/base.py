"""Design abstraction and the reference SRAM cache pyramid.

A :class:`MemoryDesign` knows how to build its (scaled) simulation
hierarchy and how to bind every level to technology parameters at full
size. The split between the shared *upper* levels (L1/L2/L3 — identical
in every design) and the design-specific *lower* levels (L4 and/or
memory devices) is what lets the experiment runner simulate the upper
levels once per workload and reuse the post-L3 request stream across
the whole configuration space.

A design describes its lower chain by :class:`CacheConfig` values
(:meth:`MemoryDesign.lower_configs`), so the chain's identity
(:func:`chain_key`) is known without building a cache: pricing a
design from a recorded chain never loads the cache simulator.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.config import CacheConfig
from repro.cache.mainmem import MainMemory
from repro.cache.partition import PartitionedMemory
from repro.errors import ConfigError
from repro.model.bindings import LevelBinding
from repro.tech.minicacti import estimate_sram_cache
from repro.units import KiB, MiB

if TYPE_CHECKING:  # pragma: no cover - the simulator loads where it runs
    from repro.cache.hierarchy import Hierarchy
    from repro.cache.setassoc import SetAssociativeCache


def config_key(config: CacheConfig) -> tuple:
    """Canonical identity of a cache level's simulation behaviour.

    Two levels with equal keys produce identical statistics and emit
    identical downstream batches on identical input streams (the config
    fully determines geometry, sectoring, set hashing, and replacement
    policy).
    """
    return dataclasses.astuple(config)


def chain_key(
    configs: list[CacheConfig], memory: MainMemory | PartitionedMemory
) -> tuple | None:
    """Canonical identity of a lower chain's simulation behaviour.

    The tuple of :func:`config_key` over the configs of the chain's
    caches — followed, for a :class:`PartitionedMemory` of
    :class:`MainMemory` devices, by its device names, its routing rules
    in order and its default device. ``None`` unless the memory is
    exactly a :class:`MainMemory` or such a partitioned memory: only
    those chains are fully described by their configs. Designs with
    equal chain keys drive identical data movement; their statistics
    differ at most in a plain memory level's name, since a
    :class:`MainMemory` counts what arrives whatever its name or
    technology (so two NDM designs with equal ranges and different NVM
    technologies share a key). ``SimPlan`` regroups and
    ``Runner.stats_for`` shares exactly the chains with a key (see
    :meth:`MemoryDesign.chain_key`).
    """
    caches = tuple(config_key(config) for config in configs)
    if type(memory) is MainMemory:
        return caches
    if type(memory) is PartitionedMemory and all(
        type(device) is MainMemory for device in memory.devices
    ):
        rules = tuple(
            (int(rule.start), int(rule.end), int(rule.device_index))
            for rule in memory.rules
        )
        devices = tuple(device.name for device in memory.devices)
        return caches + (
            ("partitioned", devices, rules, int(memory.default_device)),
        )
    return None


@dataclass(frozen=True)
class ReferenceSystem:
    """The paper's reference cache pyramid (Sandy Bridge Xeon).

    64 B lines; 32 KB 8-way L1, 256 KB 8-way L2, 20 MB 20-way shared
    L3. Capacities here are always *full size* — scaling happens when
    the simulation hierarchy is built.

    The 20 MB L3 is shared by the chip's 8 cores while every workload
    and capacity in the study is stated *per core*; the single-core
    simulation therefore uses the per-core L3 slice (2.5 MB). This
    interpretation is required for the paper's own Table 2 to make
    sense: a 16 MB per-core eDRAM L4 behind a 20 MB per-core L3 could
    capture almost nothing, yet the paper measures clear 4LC gains.
    """

    l1: CacheConfig
    l2: CacheConfig
    l3: CacheConfig

    #: Cores sharing the L3 on the reference Xeon.
    CORES_SHARING_L3 = 8

    @classmethod
    def sandy_bridge(cls) -> "ReferenceSystem":
        """The configuration used throughout the paper (per-core view)."""
        return cls(
            l1=CacheConfig("L1", 32 * KiB, 8, 64),
            l2=CacheConfig("L2", 256 * KiB, 8, 64),
            l3=CacheConfig("L3", 20 * MiB // cls.CORES_SHARING_L3, 20, 64),
        )

    @property
    def line_size(self) -> int:
        """Cache line size shared by the SRAM levels."""
        return self.l1.block_size

    def configs(self) -> list[CacheConfig]:
        """Full-size configs, top to bottom."""
        return [self.l1, self.l2, self.l3]

    def scaled_configs(self, scale: float) -> list[CacheConfig]:
        """Capacity-scaled configs for simulation.

        L3 (and everything below it, scaled elsewhere) shrinks linearly
        with ``scale`` so footprint:LLC capacity ratios — the quantity
        hit rates depend on — are preserved exactly. The private L1/L2
        shrink only by sqrt(scale): linear scaling would collapse them
        below one set and invert the pyramid (L2 > L3), grossly
        distorting the reference AMAT; square-root scaling keeps the
        capacity ordering L1 < L2 < L3 for every scale down to ~1/4096
        while still shrinking their filtering reach with the problem.
        """
        upper_scale = min(1.0, scale**0.5)
        l3c = self.l3.scaled(scale)
        l2c = self.l2.scaled(upper_scale)
        while l2c.capacity > l3c.capacity // 2 and l2c.capacity > l2c.block_size * l2c.associativity:
            l2c = l2c.scaled(0.5)
        l1c = self.l1.scaled(upper_scale)
        while l1c.capacity > l2c.capacity // 2 and l1c.capacity > l1c.block_size * l1c.associativity:
            l1c = l1c.scaled(0.5)
        return [l1c, l2c, l3c]

    def build_caches(
        self, scale: float, engine: str
    ) -> list[SetAssociativeCache]:
        """Fresh (cold) scaled SRAM cache instances.

        Args:
            scale: capacity scale (see :meth:`scaled_configs`).
            engine: the run's simulation engine (see
                :class:`~repro.cache.setassoc.SetAssociativeCache`).
        """
        from repro.cache.setassoc import SetAssociativeCache

        return [
            SetAssociativeCache(c, engine) for c in self.scaled_configs(scale)
        ]

    def bindings(self) -> dict[str, LevelBinding]:
        """mini-CACTI bindings for the full-size SRAM levels.

        Latency and energy-per-bit are properties of the *physical*
        array, so the shared L3 is characterized at its full 20 MB
        size; leakage is charged as the per-core share (the slice this
        single-core study owns).
        """
        out: dict[str, LevelBinding] = {}
        for config, shared_by in zip(
            self.configs(), (1, 1, self.CORES_SHARING_L3)
        ):
            est = estimate_sram_cache(
                config.capacity * shared_by, config.associativity, config.block_size
            )
            out[config.name] = LevelBinding(
                name=config.name,
                read_ns=est.access_ns,
                write_ns=est.access_ns,
                read_pj_per_bit=est.energy_pj_per_bit,
                write_pj_per_bit=est.energy_pj_per_bit,
                static_w=est.leakage_w / shared_by,
            )
        return out


class MemoryDesign(ABC):
    """One memory-hierarchy design at one configuration point.

    Concrete designs define the levels *below* L3 (``lower_configs`` +
    ``memory``) and their technology bindings; the SRAM pyramid and its
    bindings come from the shared :class:`ReferenceSystem`.

    Args:
        name: configuration label (e.g. ``"NMM-PCM-N6"``).
        scale: capacity scale applied to every simulated cache (see
            DESIGN.md §4); bindings always use full-size capacities.
        reference: the SRAM pyramid (defaults to Sandy Bridge).

    A design describes *what* is simulated, never *how*: whoever
    builds its caches passes the run's simulation engine in.
    """

    def __init__(
        self,
        name: str,
        scale: float = 1.0,
        reference: ReferenceSystem | None = None,
    ) -> None:
        if scale <= 0 or scale > 1:
            raise ConfigError(f"scale must be in (0, 1], got {scale}")
        self.name = name
        self.scale = scale
        self.reference = reference or ReferenceSystem.sandy_bridge()

    # -- design-specific pieces -----------------------------------------

    @abstractmethod
    def lower_configs(self) -> list[CacheConfig]:
        """Scaled configs of the cache levels below L3, top to bottom
        (may be empty)."""

    def lower_caches(self, engine: str) -> list[SetAssociativeCache]:
        """Fresh scaled cache instances below L3 (may be empty), each
        simulated by ``engine``: one
        :class:`~repro.cache.setassoc.SetAssociativeCache` per
        :meth:`lower_configs` entry.

        A design that overrides this (a prefetching or instrumented
        level, say) has no :meth:`chain_key`: its configs no longer
        describe what it simulates.
        """
        from repro.cache.setassoc import SetAssociativeCache

        return [
            SetAssociativeCache(config, engine)
            for config in self.lower_configs()
        ]

    @abstractmethod
    def memory(self) -> MainMemory | PartitionedMemory:
        """Fresh terminal memory device(s)."""

    @abstractmethod
    def lower_bindings(self, footprint_bytes: int) -> dict[str, LevelBinding]:
        """Bindings for the lower levels, at full-size capacities.

        Args:
            footprint_bytes: the workload's *full-size* footprint —
                sizes footprint-dependent devices (baseline DRAM, NVM).
        """

    def sim_key(self) -> str:
        """Identity of the design's *simulation behaviour*.

        Two designs with the same sim key produce identical hierarchy
        statistics on the same stream (e.g. NMM with PCM vs STT-RAM —
        the terminal technology changes only the model bindings, not
        the data movement). The experiment runner uses this to share
        simulations across the technology axis of a sweep.

        It is also the design's identity in a sweep journal's cell key,
        so it stays as it is even where the runner shares more: designs
        with different sim keys but config-identical lower chains
        (4LC-EH4 and 4LCNVM-EH4) are priced once per workload, keyed by
        :meth:`chain_key`.
        """
        return self.name

    def chain_key(self) -> tuple | None:
        """The :func:`chain_key` of the design's lower chain, from its
        configs and a fresh :meth:`memory`, without building a cache.

        ``None`` when the design overrides :meth:`lower_caches`, or its
        memory is not one :func:`chain_key` vouches for.
        """
        if type(self).lower_caches is not MemoryDesign.lower_caches:
            return None
        return chain_key(self.lower_configs(), self.memory())

    # -- common machinery -------------------------------------------------

    def build(self, engine: str) -> Hierarchy:
        """A fresh, cold, fully-assembled scaled hierarchy whose caches
        ``engine`` simulates."""
        from repro.cache.hierarchy import Hierarchy

        return Hierarchy(
            self.reference.build_caches(self.scale, engine)
            + self.lower_caches(engine),
            self.memory(),
        )

    def bindings(self, footprint_bytes: int) -> dict[str, LevelBinding]:
        """Full binding map: SRAM levels + design-specific levels."""
        out = self.reference.bindings()
        out.update(self.lower_bindings(footprint_bytes))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, scale={self.scale:g})"
