"""NDM address-space partitioning (the paper's oracle methodology).

"the data placement is determined by identifying, in the application, a
contiguous range of addresses that accounts for the bulk of the memory
references. We have identified address ranges referenced by different
basic blocks, and then merged ranges close to each other. ... we placed
an address range to NVM at a time, and the rest to DRAM."

- :mod:`repro.partition.ranges` — address-range algebra.
- :mod:`repro.partition.profiler` — hot-range identification from a
  traced run (regions play the role of the paper's per-basic-block
  ranges) with close-range merging.
- :mod:`repro.partition.oracle` — enumerates single-range-to-NVM
  placements, models each, and returns them ranked (the oracle).
- :mod:`repro.partition.dynamic` — phase-wise (dynamic) placement
  plans.

The package re-exports nothing: import names from their submodules
(``from repro.partition.ranges import AddressRange``), so the runner
never loads the dynamic planner or the trace filters it uses.
"""
