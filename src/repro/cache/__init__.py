"""Multi-level memory-hierarchy simulator.

Reimplements the paper's online cache simulation framework
(Section III.B): set-associative, write-back/write-allocate caches with
dirty-line tracking, chained into hierarchies of up to five levels.
At every level the simulator records the loads and stores *arriving* at
that level (the quantities Eq. (2) consumes), and dirty-line evictions
propagate as writes toward main memory exactly as the paper describes.

Page-granularity levels (the eDRAM/HMC fourth-level cache and the
DRAM-as-cache in front of NVM) are ordinary
:class:`~repro.cache.setassoc.SetAssociativeCache` instances with a
larger block size; the partitioned DRAM+NVM main memory of the NDM
design is :class:`~repro.cache.partition.PartitionedMemory`.
"""

from repro.cache.config import CacheConfig
from repro.cache.stats import LevelStats, HierarchyStats
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.mainmem import MainMemory
from repro.cache.partition import PartitionedMemory
from repro.cache.hierarchy import Hierarchy, drain_chain, replay_chain, run_chain
from repro.cache.prefetch import PrefetchingCache, PrefetchStats
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)

__all__ = [
    "CacheConfig",
    "LevelStats",
    "HierarchyStats",
    "SetAssociativeCache",
    "MainMemory",
    "PartitionedMemory",
    "Hierarchy",
    "run_chain",
    "drain_chain",
    "replay_chain",
    "PrefetchingCache",
    "PrefetchStats",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "make_policy",
]
