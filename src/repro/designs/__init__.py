"""The paper's memory-hierarchy designs.

Five design families (Section III.A):

- :class:`~repro.designs.reference.ReferenceDesign` — 3 SRAM caches +
  DRAM (the normalization baseline).
- :class:`~repro.designs.fourlc.FourLCDesign` — eDRAM/HMC fourth-level
  cache in front of DRAM (4LC).
- :class:`~repro.designs.nmm.NMMDesign` — NVM main memory behind a
  DRAM page cache (NMM).
- :class:`~repro.designs.fourlcnvm.FourLCNVMDesign` — eDRAM/HMC cache
  directly over NVM, no DRAM (4LCNVM).
- :class:`~repro.designs.ndm.NDMDesign` — partitioned DRAM+NVM main
  memory (NDM).

:mod:`repro.designs.configs` holds the Table 2 (EH1–EH8) and Table 3
(N1–N9) configuration constants and the capacity-scaling machinery.

The package re-exports nothing: import names from their submodules
(``from repro.designs.nmm import NMMDesign``).
"""
