"""Generic design-space sweeps and Pareto-frontier extraction.

The figures reproduce the paper's fixed sweeps; this module generalizes
them: evaluate an arbitrary iterable of designs over a workload set,
collect tidy records, and extract the time/energy Pareto frontier —
the "which configurations are even worth considering" question the
paper answers per design family with EDP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.designs.base import MemoryDesign
from repro.errors import ConfigError
from repro.experiments.runner import Runner
from repro.model.evaluate import Evaluation
from repro.workloads.base import Workload


@dataclass(frozen=True)
class SweepRecord:
    """One (design, workload) evaluation in tidy form.

    Attributes:
        design: design/configuration label.
        workload: workload name.
        evaluation: the full model output.
    """

    design: str
    workload: str
    evaluation: Evaluation


@dataclass(frozen=True)
class SweepSummary:
    """Per-design averages over the workload set.

    Attributes:
        design: design label.
        time_norm / energy_norm / edp_norm: suite means.
    """

    design: str
    time_norm: float
    energy_norm: float
    edp_norm: float


def run_sweep(
    runner: Runner,
    designs: Iterable[MemoryDesign],
    workloads: Sequence[Workload],
    *,
    workers: int = 1,
) -> list[SweepRecord]:
    """Evaluate every design on every workload.

    Thin fail-fast wrapper over
    :class:`repro.resilience.executor.SweepExecutor`, whose every cell
    prices its own design (the runner prices each distinct lower chain
    once per workload): the first cell failure re-raises its original
    exception. ``workers > 1`` runs the grid on the supervised worker
    pool; the live exception object then cannot cross the process
    boundary, so failures re-raise as :class:`~repro.errors.SweepError`
    carrying the formatted chain. For journalling, deadlines, and
    keep-going semantics, use the executor directly.
    """
    designs = list(designs)
    if not workloads:
        raise ConfigError("a sweep needs at least one workload")
    if not designs:
        raise ConfigError("a sweep needs at least one design")
    from repro.errors import SweepError
    from repro.resilience.executor import SweepExecutor

    result = SweepExecutor(
        runner, keep_going=False, workers=workers
    ).run(designs, workloads)
    for outcome in result.outcomes:
        if outcome.exception is not None:
            raise outcome.exception
        if outcome.status in ("failed", "timed_out", "poisoned"):
            raise SweepError(
                f"cell {outcome.design}/{outcome.workload} "
                f"{outcome.status}: {outcome.error}"
            )
    return [
        SweepRecord(
            design=outcome.design,
            workload=outcome.workload,
            evaluation=outcome.evaluation,
        )
        for outcome in result.outcomes
    ]


def summarize(records: Sequence[SweepRecord]) -> list[SweepSummary]:
    """Suite-average time/energy/EDP per design, input order preserved."""
    by_design: dict[str, list[Evaluation]] = {}
    for record in records:
        by_design.setdefault(record.design, []).append(record.evaluation)
    summaries = []
    for design, evaluations in by_design.items():
        n = len(evaluations)
        summaries.append(
            SweepSummary(
                design=design,
                time_norm=sum(e.time_norm for e in evaluations) / n,
                energy_norm=sum(e.energy_norm for e in evaluations) / n,
                edp_norm=sum(e.edp_norm for e in evaluations) / n,
            )
        )
    return summaries


def pareto_frontier(
    summaries: Sequence[SweepSummary],
) -> list[SweepSummary]:
    """Designs not dominated in (time_norm, energy_norm).

    A design dominates another if it is no worse on both axes and
    strictly better on at least one. Returned sorted by time.
    """
    frontier = []
    for candidate in summaries:
        dominated = any(
            other.time_norm <= candidate.time_norm
            and other.energy_norm <= candidate.energy_norm
            and (
                other.time_norm < candidate.time_norm
                or other.energy_norm < candidate.energy_norm
            )
            for other in summaries
        )
        if not dominated:
            frontier.append(candidate)
    return sorted(frontier, key=lambda s: (s.time_norm, s.energy_norm))


def best_by(
    summaries: Sequence[SweepSummary], metric: str = "edp_norm"
) -> SweepSummary:
    """The design with the lowest suite-average metric.

    Raises:
        ConfigError: for empty input or unknown metrics.
    """
    if not summaries:
        raise ConfigError("no summaries to rank")
    if metric not in ("time_norm", "energy_norm", "edp_norm"):
        raise ConfigError(f"unknown metric {metric!r}")
    return min(summaries, key=lambda s: getattr(s, metric))
