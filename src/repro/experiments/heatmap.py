"""Figures 9 & 10: the generalization heat maps.

The paper's final study abstracts away named technologies: using the
execution profile of the NMM design (512 MB DRAM cache, 512 B pages —
configuration N6), it scales the main memory's read/write latency
(Figure 9) or read/write energy (Figure 10) as multiples of DRAM's and
maps the resulting normalized runtime / energy.

Because the hierarchy's data movement does not depend on the terminal
technology, the whole sweep reuses one simulation per workload and
re-evaluates only the closed-form model — exactly how the paper could
sweep a continuous parameter space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.designs.configs import N_CONFIGS
from repro.designs.nmm import NMMDesign
from repro.experiments.runner import Runner
from repro.model.evaluate import evaluate_stats, finalize
from repro.tech.params import DRAM
from repro.tech.scaling import scaled_technology
from repro.workloads.base import Workload
from repro.workloads.registry import SUITE, get_workload

#: Default multiplier axis (the paper sweeps 1x..20x).
DEFAULT_FACTORS: tuple[float, ...] = (1, 2, 5, 10, 15, 20)
#: The execution profile the heat maps are generated from.
PROFILE_CONFIG: str = "N6"


@dataclass
class HeatMap:
    """A (write factor × read factor) grid of averaged model outputs.

    Attributes:
        figure: figure label.
        title: what the map shows.
        metric: "time_norm" or "energy_norm".
        read_factors: column axis (read multipliers).
        write_factors: row axis (write multipliers).
        values: ``values[i][j]`` = metric at write_factors[i],
            read_factors[j], averaged over the workload suite.
    """

    figure: str
    title: str
    metric: str
    read_factors: list[float]
    write_factors: list[float]
    values: list[list[float]] = field(default_factory=list)

    def at(self, read_x: float, write_x: float) -> float:
        """Value at a grid point.

        Raises:
            ValueError: if the point is not on the grid.
        """
        try:
            j = self.read_factors.index(read_x)
            i = self.write_factors.index(write_x)
        except ValueError:
            raise ValueError(
                f"({read_x}, {write_x}) not on the grid "
                f"{self.read_factors} x {self.write_factors}"
            ) from None
        return self.values[i][j]


def _heatmap(
    figure: str,
    title: str,
    metric: str,
    scale_latency: bool,
    runner: Runner,
    workloads: list[Workload] | None,
    factors: tuple[float, ...],
) -> HeatMap:
    suite = workloads if workloads is not None else [get_workload(n) for n in SUITE]
    config = N_CONFIGS[PROFILE_CONFIG]
    out = HeatMap(
        figure=figure,
        title=title,
        metric=metric,
        read_factors=list(factors),
        write_factors=list(factors),
    )

    # One simulation per workload: stats are shared across the sweep.
    profile = NMMDesign(DRAM, config, scale=runner.scale, reference=runner.reference)
    traces = []
    for workload in suite:
        stats = runner.stats_for(profile, workload)
        trace = runner.prepare(workload)
        traces.append((workload, stats, trace))

    for write_x in factors:
        row: list[float] = []
        for read_x in factors:
            if scale_latency:
                tech = scaled_technology(
                    DRAM,
                    read_latency_x=read_x,
                    write_latency_x=write_x,
                    static_x=0.0,
                    name="NVMx",
                )
            else:
                tech = scaled_technology(
                    DRAM,
                    read_energy_x=read_x,
                    write_energy_x=write_x,
                    static_x=0.0,
                    name="NVMx",
                )
            design = NMMDesign(
                tech, config, scale=runner.scale, reference=runner.reference
            )
            total = 0.0
            for workload, stats, trace in traces:
                raw = evaluate_stats(
                    design.name,
                    stats,
                    design.bindings(workload.info.footprint_bytes),
                )
                evaluation = finalize(raw, trace.ref_raw, workload.info.meta())
                total += getattr(evaluation, metric)
            row.append(total / len(traces))
        out.values.append(row)
    return out


def figure9(
    runner: Runner,
    workloads: list[Workload] | None = None,
    factors: tuple[float, ...] = DEFAULT_FACTORS,
) -> HeatMap:
    """Figure 9: normalized runtime vs read/write *latency* multipliers."""
    return _heatmap(
        "Figure 9",
        "Heat-map of normalized runtime of NMM as a function of "
        "read and write latency",
        "time_norm",
        True,
        runner,
        workloads,
        factors,
    )


def figure10(
    runner: Runner,
    workloads: list[Workload] | None = None,
    factors: tuple[float, ...] = DEFAULT_FACTORS,
) -> HeatMap:
    """Figure 10: normalized energy vs read/write *energy* multipliers."""
    return _heatmap(
        "Figure 10",
        "Heat-map of normalized energy consumed by NMM as a function of "
        "read and write energy",
        "energy_norm",
        False,
        runner,
        workloads,
        factors,
    )
