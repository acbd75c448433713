"""Memory-technology characterization substrate.

Provides the scalar parameters the models consume, from three sources
mirroring the paper's methodology (Section III.A):

- :mod:`repro.tech.params` — the paper's Table 1 verbatim (DRAM, PCM,
  STT-RAM, FeRAM, eDRAM, HMC), plus static/refresh power parameters.
- :mod:`repro.tech.minicacti` — an analytical CACTI-style model for the
  on-chip SRAM levels (L1/L2/L3 latency, energy/bit, leakage).
- :mod:`repro.tech.dram_power` — a Micron-power-calculator-style model
  of DRAM background + refresh power vs capacity.

:mod:`repro.tech.scaling` derives hypothetical technologies by scaling
latency/energy, as used by the Figure 9–10 heat maps.

The package re-exports nothing: import names from their submodules
(``from repro.tech.params import PCM``).
"""
