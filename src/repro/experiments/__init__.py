"""Experiment harness: regenerates every table and figure of the paper.

- :mod:`repro.experiments.runner` — traces workloads, simulates the
  shared L1–L3 prefix once, and evaluates any design on the cached
  post-L3 request stream.
- :mod:`repro.experiments.figures` — Figures 1–8 series.
- :mod:`repro.experiments.heatmap` — Figures 9–10 heat maps.
- :mod:`repro.experiments.tables` — Tables 1–4 data.
- :mod:`repro.experiments.render` — ASCII rendering.
- :mod:`repro.experiments.cli` — ``python -m repro.experiments``.

The package re-exports nothing: import names from their submodules
(``from repro.experiments.runner import Runner``), so ``reproduce-all``
never loads the sweep and resilience machinery.
"""
