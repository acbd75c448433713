"""HPC and data-intensive workload kernels (the paper's Table 4).

Every workload is a real, tested implementation of its benchmark's core
algorithm, instrumented with
:class:`~repro.trace.traced_array.TracedArray` so its execution emits
the address stream the simulator consumes:

- NPB: :mod:`~repro.workloads.cg` (conjugate gradient),
  :mod:`~repro.workloads.bt` (block tridiagonal),
  :mod:`~repro.workloads.sp` (scalar pentadiagonal),
  :mod:`~repro.workloads.lu` (SSOR).
- CORAL: :mod:`~repro.workloads.amg` (algebraic multigrid),
  :mod:`~repro.workloads.graph500` (Kronecker BFS),
  :mod:`~repro.workloads.hashing` (integer hashing).
- Applications: :mod:`~repro.workloads.velvet` (de Bruijn assembly).

Workloads are scale-aware: ``trace(scale)`` shrinks the problem so the
traced footprint is ``scale`` × the Table 4 footprint, matching the
capacity scaling of the hierarchy configs (DESIGN.md §4).

:mod:`repro.workloads.registry` holds the Table 4 rows; multiprogrammed
mixes live in :mod:`repro.workloads.mixes`. The package re-exports
nothing: import names from their submodules
(``from repro.workloads.registry import get_workload``), so listing
the suite loads no kernel and no stream filter.
"""
