"""Workload suite registry (Table 4).

``SUITE`` holds the Table 4 row of every workload of the evaluation,
as :mod:`repro.designs.configs` holds Tables 2 and 3, so experiment
code can enumerate the benchmark set and print its metadata without
importing a kernel. :func:`get_workload` builds a workload whose
``trace()`` imports its kernel module — the instrumented algorithm and
numpy — so a run whose traces all come from the trace cache never
loads one.
"""

from __future__ import annotations

import importlib

from repro.workloads.base import TraceResult, Workload, WorkloadInfo

#: Table 4, keyed by workload name, in table order.
SUITE: dict[str, WorkloadInfo] = {
    info.name: info
    for info in (
        WorkloadInfo(
            name="BT",
            suite="NPB",
            footprint_gb=1.69,
            t_ref_s=36.0,
            inputs="Class: D",
            description="block tridiagonal ADI solver (5x5 blocks)",
        ),
        WorkloadInfo(
            name="SP",
            suite="NPB",
            footprint_gb=1.3,
            t_ref_s=30.0,
            inputs="Class: D",
            description="scalar pentadiagonal ADI solver",
        ),
        WorkloadInfo(
            name="LU",
            suite="NPB",
            footprint_gb=0.8,
            t_ref_s=25.0,
            inputs="Class: C",
            description="SSOR solver with plane-wavefront sweeps",
        ),
        WorkloadInfo(
            name="CG",
            suite="NPB",
            footprint_gb=1.5,
            t_ref_s=54.8,
            inputs="Class: D",
            description="conjugate gradient solver with irregular memory access",
        ),
        WorkloadInfo(
            name="AMG2013",
            suite="CORAL",
            footprint_gb=3.0,
            t_ref_s=156.3,
            inputs="-r 72 72 72 -P 1 1 1 -pooldist 1",
            description="algebraic multigrid V-cycle solver",
        ),
        WorkloadInfo(
            name="Graph500",
            suite="CORAL",
            footprint_gb=4.0,
            t_ref_s=157.0,
            inputs="-s 22 -e 4",
            description="breadth-first search on Kronecker graphs",
        ),
        WorkloadInfo(
            name="Hashing",
            suite="CORAL",
            footprint_gb=4.0,
            t_ref_s=389.6,
            inputs="-m 30M -n 50K",
            description="integer hashing: random table probes",
        ),
        WorkloadInfo(
            name="Velvet",
            suite="Application",
            footprint_gb=4.0,
            t_ref_s=116.5,
            inputs="Default",
            description="de Bruijn graph short-read assembly",
        ),
    )
}

#: Module and class of each workload's kernel.
_KERNELS: dict[str, tuple[str, str]] = {
    "BT": ("repro.workloads.bt", "BTWorkload"),
    "SP": ("repro.workloads.sp", "SPWorkload"),
    "LU": ("repro.workloads.lu", "LUWorkload"),
    "CG": ("repro.workloads.cg", "CGWorkload"),
    "AMG2013": ("repro.workloads.amg", "AMGWorkload"),
    "Graph500": ("repro.workloads.graph500", "Graph500Workload"),
    "Hashing": ("repro.workloads.hashing", "HashingWorkload"),
    "Velvet": ("repro.workloads.velvet", "VelvetWorkload"),
}


class SuiteWorkload(Workload):
    """A Table 4 workload with its kernel's default parameters.

    The kernel class is imported and built when the workload is traced,
    and traces under this workload's :attr:`info` (which
    :func:`~repro.workloads.npb_classes.at_npb_class` may have
    re-sized).
    """

    def __init__(self, info: WorkloadInfo) -> None:
        self.info = info

    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        module, name = _KERNELS[self.info.name]
        kernel = getattr(importlib.import_module(module), name)()
        kernel.info = self.info
        return kernel.trace(scale=scale, seed=seed)


def workload_names() -> list[str]:
    """Names of the full suite, in Table 4 order."""
    return list(SUITE)


def get_workload(name: str) -> Workload:
    """A workload by name, with its kernel's default parameters.

    Raises:
        KeyError: for unknown names, listing the suite.
    """
    if name not in SUITE:
        raise KeyError(f"unknown workload {name!r}; suite: {list(SUITE)}")
    return SuiteWorkload(SUITE[name])
