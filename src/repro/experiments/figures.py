"""Figures 1–8: normalized runtime/energy series.

Each ``figureN`` function returns a :class:`FigureSeries` holding the
same series the paper plots (averages of normalized runtime or total
energy over the benchmark suite), plus the per-workload detail the
averages were computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.nmm import NMMDesign
from repro.experiments.runner import Runner
from repro.tech.params import (
    MemoryTechnology,
    nvm_technologies,
    volatile_cache_technologies,
)
from repro.workloads.base import Workload
from repro.workloads.registry import SUITE, get_workload


@dataclass
class FigureSeries:
    """Data behind one paper figure.

    Attributes:
        figure: figure label ("Figure 1", ...).
        title: what the figure shows.
        metric: "time_norm" or "energy_norm".
        categories: x-axis configuration names.
        series: series label -> {category: average value}.
        per_workload: series label -> {category: {workload: value}}.
    """

    figure: str
    title: str
    metric: str
    categories: list[str]
    series: dict[str, dict[str, float]] = field(default_factory=dict)
    per_workload: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def best(self) -> tuple[str, str, float]:
        """(series, category, value) with the lowest average value."""
        best = None
        for label, points in self.series.items():
            for category, value in points.items():
                if best is None or value < best[2]:
                    best = (label, category, value)
        if best is None:
            raise ValueError("empty figure")
        return best


def _suite(workloads: list[Workload] | None) -> list[Workload]:
    return workloads if workloads is not None else [get_workload(n) for n in SUITE]


def _sweep(
    figure: str,
    title: str,
    metric: str,
    categories: list[str],
    make_design,
    series_labels: list,
    runner: Runner,
    workloads: list[Workload] | None,
) -> FigureSeries:
    """Shared sweep driver: series × categories × workloads."""
    suite = _suite(workloads)
    out = FigureSeries(
        figure=figure, title=title, metric=metric, categories=categories
    )
    for label_obj in series_labels:
        label = (
            str(label_obj)
            if isinstance(label_obj, _Pair)
            else getattr(label_obj, "name", str(label_obj))
        )
        out.series[label] = {}
        out.per_workload[label] = {}
        for category in categories:
            design = make_design(label_obj, category)
            values: dict[str, float] = {}
            for workload in suite:
                evaluation = runner.evaluate(design, workload)
                values[workload.name] = getattr(evaluation, metric)
            out.per_workload[label][category] = values
            out.series[label][category] = sum(values.values()) / len(values)
    return out


# ---------------------------------------------------------------------------
# NMM — Figures 1 & 2
# ---------------------------------------------------------------------------


def figure1(
    runner: Runner,
    workloads: list[Workload] | None = None,
    nvm_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 1: average normalized run time, NMM design, N1–N9."""
    techs = nvm_techs or nvm_technologies()
    return _sweep(
        "Figure 1",
        "Average of normalized run time of all benchmarks for NMM",
        "time_norm",
        list(N_CONFIGS),
        lambda tech, cfg: NMMDesign(
            tech, N_CONFIGS[cfg], scale=runner.scale, reference=runner.reference
        ),
        techs,
        runner,
        workloads,
    )


def figure2(
    runner: Runner,
    workloads: list[Workload] | None = None,
    nvm_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 2: average normalized total energy, NMM design, N1–N9."""
    techs = nvm_techs or nvm_technologies()
    return _sweep(
        "Figure 2",
        "Average of normalized energy of different benchmarks for NMM",
        "energy_norm",
        list(N_CONFIGS),
        lambda tech, cfg: NMMDesign(
            tech, N_CONFIGS[cfg], scale=runner.scale, reference=runner.reference
        ),
        techs,
        runner,
        workloads,
    )


# ---------------------------------------------------------------------------
# 4LC — Figures 3 & 4
# ---------------------------------------------------------------------------


def figure3(
    runner: Runner,
    workloads: list[Workload] | None = None,
    cache_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 3: average normalized run time, 4LC design, EH1–EH8."""
    techs = cache_techs or volatile_cache_technologies()
    return _sweep(
        "Figure 3",
        "Average of normalized run time of different benchmarks for 4LC",
        "time_norm",
        list(EH_CONFIGS),
        lambda tech, cfg: FourLCDesign(
            tech, EH_CONFIGS[cfg], scale=runner.scale, reference=runner.reference
        ),
        techs,
        runner,
        workloads,
    )


def figure4(
    runner: Runner,
    workloads: list[Workload] | None = None,
    cache_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 4: average normalized total energy, 4LC design, EH1–EH8."""
    techs = cache_techs or volatile_cache_technologies()
    return _sweep(
        "Figure 4",
        "Average of normalized total energy of different benchmarks for 4LC",
        "energy_norm",
        list(EH_CONFIGS),
        lambda tech, cfg: FourLCDesign(
            tech, EH_CONFIGS[cfg], scale=runner.scale, reference=runner.reference
        ),
        techs,
        runner,
        workloads,
    )


# ---------------------------------------------------------------------------
# 4LCNVM — Figures 5 & 6
# ---------------------------------------------------------------------------


def _fourlcnvm_pairs(
    cache_techs: list[MemoryTechnology] | None,
    nvm_techs: list[MemoryTechnology] | None,
) -> list[tuple[MemoryTechnology, MemoryTechnology]]:
    caches = cache_techs or volatile_cache_technologies()
    nvms = nvm_techs or nvm_technologies()
    return [(c, n) for c in caches for n in nvms]


class _Pair(tuple):
    """Technology pair with a readable label for the series key."""

    def __str__(self) -> str:
        return f"{self[0].name}/{self[1].name}"


def figure5(
    runner: Runner,
    workloads: list[Workload] | None = None,
    cache_techs: list[MemoryTechnology] | None = None,
    nvm_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 5: average normalized run time, 4LCNVM design, EH1–EH8."""
    pairs = [_Pair(p) for p in _fourlcnvm_pairs(cache_techs, nvm_techs)]
    return _sweep(
        "Figure 5",
        "Average of normalized run time of all benchmarks for 4LCNVM",
        "time_norm",
        list(EH_CONFIGS),
        lambda pair, cfg: FourLCNVMDesign(
            pair[0],
            pair[1],
            EH_CONFIGS[cfg],
            scale=runner.scale,
            reference=runner.reference,
        ),
        pairs,
        runner,
        workloads,
    )


def figure6(
    runner: Runner,
    workloads: list[Workload] | None = None,
    cache_techs: list[MemoryTechnology] | None = None,
    nvm_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 6: average normalized total energy, 4LCNVM design, EH1–EH8."""
    pairs = [_Pair(p) for p in _fourlcnvm_pairs(cache_techs, nvm_techs)]
    return _sweep(
        "Figure 6",
        "Average of normalized total energy of all benchmarks for 4LCNVM",
        "energy_norm",
        list(EH_CONFIGS),
        lambda pair, cfg: FourLCNVMDesign(
            pair[0],
            pair[1],
            EH_CONFIGS[cfg],
            scale=runner.scale,
            reference=runner.reference,
        ),
        pairs,
        runner,
        workloads,
    )


# ---------------------------------------------------------------------------
# NDM — Figures 7 & 8
# ---------------------------------------------------------------------------


#: Minimum share of the traced footprint a placement must put in NVM to
#: count for Figures 7/8. The paper excludes the trivial permutations
#: whose "memory accesses were concentrated in DRAM and hence the
#: performance ... is similar to that of base case"; placements below
#: this share are exactly those.
NDM_MIN_NVM_SHARE: float = 0.3


def _ndm_figure(
    figure: str,
    title: str,
    metric: str,
    runner: Runner,
    workloads: list[Workload] | None,
    nvm_techs: list[MemoryTechnology] | None,
    min_nvm_share: float = NDM_MIN_NVM_SHARE,
) -> FigureSeries:
    """NDM figures: per-workload values of the oracle's best
    *capacity-meaningful* placement (see :data:`NDM_MIN_NVM_SHARE`)."""
    suite = _suite(workloads)
    techs = nvm_techs or nvm_technologies()
    out = FigureSeries(
        figure=figure,
        title=title,
        metric=metric,
        categories=[w.name for w in suite],
    )
    for tech in techs:
        label = tech.name
        out.series[label] = {}
        out.per_workload[label] = {}
        for workload in suite:
            placements = runner.ndm_oracle(workload, tech)
            footprint = runner.prepare(workload).traced_footprint_bytes
            meaningful = [
                p
                for p in placements
                if sum(r.size for r in p.nvm_ranges) >= min_nvm_share * footprint
            ]
            best = (meaningful or placements)[0]  # best-first ordering
            value = getattr(best.evaluation, metric)
            out.series[label][workload.name] = value
            out.per_workload[label][workload.name] = {
                "value": value,
                "placement": best.label,
                "feasible": float(best.feasible),
            }
    return out


def figure7(
    runner: Runner,
    workloads: list[Workload] | None = None,
    nvm_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 7: normalized run time per workload, NDM oracle placement."""
    return _ndm_figure(
        "Figure 7",
        "Average of normalized run time of all benchmarks for NDM design",
        "time_norm",
        runner,
        workloads,
        nvm_techs,
    )


def figure8(
    runner: Runner,
    workloads: list[Workload] | None = None,
    nvm_techs: list[MemoryTechnology] | None = None,
) -> FigureSeries:
    """Figure 8: normalized total energy per workload, NDM oracle placement."""
    return _ndm_figure(
        "Figure 8",
        "Average of normalized total energy of all benchmarks for NDM design",
        "energy_norm",
        runner,
        workloads,
        nvm_techs,
    )
