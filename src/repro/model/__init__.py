"""Performance and energy models (the paper's Equations 1–4).

- :mod:`repro.model.bindings` — binds each hierarchy level to the
  scalar parameters of its technology (delays, energies/bit, static W).
- :mod:`repro.model.amat` — Eq. (2): average memory access time.
- :mod:`repro.model.runtime` — Eq. (1): runtime scaling by AMAT ratio.
- :mod:`repro.model.energy` — Eq. (3)/(4): dynamic and static energy.
- :mod:`repro.model.edp` — energy-delay product.
- :mod:`repro.model.evaluate` — joins everything into per-design
  :class:`~repro.model.evaluate.Evaluation` records with normalization
  against the reference system.

The package re-exports nothing: import names from their submodules
(``from repro.model.evaluate import evaluate_stats``).
"""
