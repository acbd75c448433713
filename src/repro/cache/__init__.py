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

The package re-exports nothing: import names from their submodules
(``from repro.cache.config import CacheConfig``), so reading a cache
config or a level's statistics never loads the simulator or numpy.
"""
