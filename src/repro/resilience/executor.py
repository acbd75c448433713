"""Fault-isolated sweep execution with journalling and deadlines.

The paper's evaluation is a large (design × workload) grid, and each
cell is expensive because tracing actually runs the workload. The
executor runs that grid so one bad cell can't sink the campaign:

- every cell is evaluated **once**, in **fault isolation**: an
  exception is captured (with its full chain) and recorded, not
  propagated; a cell is a deterministic function of its design,
  workload, scale and seed, so a failed cell is re-run by resuming
  the journal, not by retrying in-process;
- an optional per-cell **wall-clock deadline** runs the grid on the
  supervised pool, whose watchdog SIGKILLs the worker of a cell past
  it and records the cell ``timed_out``;
- finished cells are appended to an on-disk
  :class:`~repro.resilience.journal.Journal`, so an interrupted
  campaign **resumes** exactly where it stopped and never re-evaluates
  an unchanged, completed cell;
- the campaign ends with a **degradation report**: which cells
  succeeded, which were abandoned, and the (seed, cell key) pair that
  reproduces each failure.

Every cell goes through one path: the same per-cell evaluation (cell
scope, ``sweep.cell`` span) runs in-process for a serial sweep and
inside each worker of the **supervised worker pool**
(:mod:`repro.resilience.pool`) for ``workers > 1`` or a deadline, and
every finished cell is journalled, counted and reported by the parent
as it arrives. The pool pulls individual cells from the parent (work
stealing) and survives worker *process* deaths — respawning killed
workers up to a budget, requeueing their in-flight cells, quarantining
"poison" cells that kill ``poison_threshold`` successive workers
(recorded as ``poisoned``), SIGKILLing a worker whose cell passes its
deadline (the cell is recorded ``timed_out``), and draining gracefully
on SIGINT/SIGTERM with an exact-resume journal. Resume, fault isolation
and the degradation report are the same for any worker count; only
live exception objects cannot cross the process boundary (the
formatted error chains still do).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import ConfigError
from repro.model.evaluate import Evaluation
from repro.resilience.journal import (
    Journal,
    JournalEntry,
    cell_key_for,
    evaluation_record,
)
from repro.telemetry.core import (
    NullTelemetry,
    RunContext,
    Telemetry,
    get_active,
    new_run_id,
)
from repro.telemetry.progress import ProgressReporter

logger = logging.getLogger("repro.resilience")

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle with experiments
    from repro.designs.base import MemoryDesign
    from repro.experiments.runner import Runner
    from repro.workloads.base import Workload

#: Cell outcome states.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"
STATUS_TIMED_OUT = "timed_out"
STATUS_POISONED = "poisoned"


def format_exception_chain(exc: BaseException) -> str:
    """Compact one-line-per-link rendering of an exception chain.

    Walks ``__cause__``/``__context__`` (newest first) so a journal or
    report shows the whole causal story, e.g.
    ``SweepError: ... <- caused by TraceIntegrityError: ...``.
    """
    links: list[str] = []
    seen: set[int] = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        links.append(f"{type(current).__name__}: {current}")
        nxt = current.__cause__ or current.__context__
        current = nxt
    return " <- caused by ".join(links)


@dataclass(frozen=True)
class CellOutcome:
    """The recorded fate of one (design, workload) cell.

    Attributes:
        key: journal content hash of the cell.
        design / workload: labels.
        status: one of ``ok`` / ``failed`` / ``skipped`` / ``timed_out``.
        attempts: 1 for an evaluated cell, 0 for a skipped,
            journal-reused or never-run one, and the worker kills for a
            poisoned one.
        duration_s: wall-clock spent evaluating the cell.
        error: formatted exception chain for failed cells.
        evaluation: model output for ok cells.
        from_journal: True when the result was reused from a resume
            journal rather than evaluated this run.
        exception: the live exception object of a failed in-process
            evaluation (never serialized; lets wrappers re-raise
            faithfully).
    """

    key: str
    design: str
    workload: str
    status: str
    attempts: int
    duration_s: float
    error: str | None = None
    evaluation: Evaluation | None = None
    from_journal: bool = False
    exception: BaseException | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """Whether the cell produced a usable evaluation."""
        return self.status == STATUS_OK


@dataclass
class CampaignResult:
    """Everything a finished (possibly degraded) campaign produced.

    Attributes:
        outcomes: one entry per grid cell, in sweep order.
        seed: the runner's seed, which every cell key is built from
            (with the key, the reproduction handle of a failure).
        restarts: replacement workers the supervised pool spawned.
        requeues: in-flight cells recovered from dead workers.
        drained: a SIGINT/SIGTERM drain interrupted the campaign
            (the skipped cells resume exactly from the journal).
    """

    outcomes: list[CellOutcome]
    seed: int = 0
    restarts: int = 0
    requeues: int = 0
    drained: bool = False

    @property
    def evaluations(self) -> list[CellOutcome]:
        """Only the cells that produced results."""
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> list[CellOutcome]:
        """Cells abandoned as failed, timed out, or poisoned."""
        return [
            o for o in self.outcomes
            if o.status in (STATUS_FAILED, STATUS_TIMED_OUT,
                            STATUS_POISONED)
        ]

    def counts(self) -> dict[str, int]:
        """Outcome tally by status."""
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    def report(self) -> str:
        """Human-readable degradation report for the campaign."""
        lines = ["campaign degradation report"]
        tally = self.counts()
        total = len(self.outcomes)
        summary = ", ".join(
            f"{tally.get(status, 0)} {status}"
            for status in (STATUS_OK, STATUS_FAILED, STATUS_TIMED_OUT,
                           STATUS_POISONED, STATUS_SKIPPED)
            if tally.get(status, 0)
        )
        lines.append(f"  {total} cells: {summary or 'none'}")
        reused = sum(1 for o in self.outcomes if o.from_journal)
        if reused:
            lines.append(f"  {reused} reused from journal (not re-evaluated)")
        if self.restarts or self.requeues or tally.get(STATUS_POISONED):
            lines.append(
                f"  supervision: {self.restarts} worker restart(s), "
                f"{self.requeues} requeue(s), "
                f"{tally.get(STATUS_POISONED, 0)} poisoned"
            )
        if self.drained:
            lines.append(
                "  campaign drained by signal; skipped cells resume "
                "exactly from the journal"
            )
        if self.failures:
            lines.append("  abandoned cells (reproduce with seed + key):")
            for o in self.failures:
                lines.append(
                    f"    {o.design}/{o.workload} [{o.status}] "
                    f"seed={self.seed} key={o.key}"
                )
                if o.error:
                    lines.append(f"      {o.error}")
        if not self.failures:
            lines.append("  no cells abandoned")
        return "\n".join(lines)


class SweepExecutor:
    """Runs a (design × workload) grid with fault isolation.

    Args:
        runner: the experiment runner evaluating each cell.
        cell_timeout_s: per-cell wall-clock deadline. A deadline runs
            the grid on the supervised pool (one worker unless
            ``workers`` says more), whose watchdog SIGKILLs the worker
            of a cell past it; None (default) lets a serial sweep
            evaluate its cells inline.
        keep_going: when False, the first non-ok cell marks every
            remaining cell ``skipped`` (classic fail-fast); when True
            (default) the campaign always finishes the grid.
        journal: a :class:`Journal`, a path for one, or None to keep
            results in memory only.
        resume: when True (default) completed ``ok`` entries already in
            the journal are reused instead of re-evaluated.
        evaluate: override for the per-cell evaluation callable
            ``(design, workload) -> Evaluation`` — the hook the
            fault-injection harness wraps. Incompatible with the pool
            (``workers > 1`` or a deadline): the callable cannot cross
            the process boundary.
        telemetry: explicit telemetry instance; None resolves the
            process-wide active instance at :meth:`run` time.
        progress: optional
            :class:`~repro.telemetry.progress.ProgressReporter` for
            live per-cell lines, ETA, and the resume summary.
        workers: processes evaluating cells. 1 (default) runs the grid
            serially in-process unless a deadline is set; N > 1 runs
            it on the supervised worker pool (crash recovery, work
            stealing, graceful drain — see
            :mod:`repro.resilience.pool`), which first publishes each
            workload's trace to a shared arena that every worker
            attaches.
        max_worker_restarts: the pool's total respawn budget for
            dead workers; past it the pool degrades (remaining cells
            fail with a pool-exhausted error) instead of raising.
        poison_threshold: successive worker deaths one cell may cause
            before the supervisor quarantines it as ``poisoned``.
        worker_faults: a picklable
            :class:`~repro.resilience.faults.FaultInjector` that every
            worker process wraps around its evaluate callable (chaos
            testing for the supervisor itself). Requires the pool
            (``workers > 1`` or a deadline); in-process injection uses
            ``evaluate=``.
        pool_tuning: supervision timing knobs
            (:class:`~repro.resilience.pool.PoolTuning`); None uses
            production defaults.

    Pool workers take their run context and profiling rate from the
    campaign's telemetry: workers are profiled when it is (see
    :meth:`~repro.telemetry.core.Telemetry.enable_profiling`).
    """

    def __init__(
        self,
        runner: Runner,
        *,
        cell_timeout_s: float | None = None,
        keep_going: bool = True,
        journal: Journal | str | Path | None = None,
        resume: bool = True,
        evaluate: Callable[[MemoryDesign, Workload], Evaluation] | None = None,
        telemetry: Telemetry | NullTelemetry | None = None,
        progress: ProgressReporter | None = None,
        workers: int = 1,
        max_worker_restarts: int = 3,
        poison_threshold: int = 2,
        worker_faults=None,
        pool_tuning=None,
    ) -> None:
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ConfigError("cell_timeout_s must be positive")
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        pooled = workers > 1 or cell_timeout_s is not None
        if pooled and evaluate is not None:
            raise ConfigError(
                "a custom evaluate callable cannot cross the process "
                "boundary; use workers=1 without a deadline to override "
                "evaluation"
            )
        if max_worker_restarts < 0:
            raise ConfigError("max_worker_restarts must be >= 0")
        if poison_threshold < 1:
            raise ConfigError("poison_threshold must be >= 1")
        if worker_faults is not None and not pooled:
            raise ConfigError(
                "worker_faults targets pool worker processes; a serial "
                "sweep injects in-process via evaluate=injector.wrap(...)"
            )
        self.runner = runner
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        if journal is not None and not isinstance(journal, Journal):
            journal = Journal(journal)
        self.journal = journal
        self.resume = resume
        self._evaluate = evaluate or runner.evaluate
        self.telemetry = telemetry
        self.progress = progress
        self.workers = workers
        self.max_worker_restarts = max_worker_restarts
        self.poison_threshold = poison_threshold
        self.worker_faults = worker_faults
        self.pool_tuning = pool_tuning
        # Only the pool can stop a cell past its deadline: it kills the
        # worker process the cell runs in.
        self._pooled = pooled
        # Populated (and torn down) per run() by _publish_traces: the
        # picklable handles workers use to attach the one shared copy
        # of each workload's trace.
        self._arena_handles: dict | None = None
        # The SupervisedPool currently driving this campaign, exposed
        # for the live observability plane's readiness probe (set for
        # the duration of _run_supervised, None otherwise).
        self._active_pool = None

    def _telemetry(self) -> Telemetry | NullTelemetry:
        """The explicit instance if one was given, else the active one."""
        return self.telemetry if self.telemetry is not None else get_active()

    def pool_snapshot(self) -> dict | None:
        """The running pool's heartbeat snapshot, or None.

        The live observability plane polls this from its server thread
        to answer ``/readyz``: None (serial campaign, pool not running
        yet, or already finished) reads as idle-and-ready; a snapshot
        is judged by :func:`repro.telemetry.live.pool_readiness`.
        """
        pool = self._active_pool
        if pool is None:
            return None
        return pool.heartbeat_snapshot()

    @property
    def engine_class(self) -> str:
        """The runner's :attr:`~repro.experiments.runner.Runner.engine_class`
        (``"exact"`` for runners that do not name one); it enters every
        cell's journal key."""
        return getattr(self.runner, "engine_class", "exact")

    # -- one cell -------------------------------------------------------

    def _evaluate_cell(
        self, design: MemoryDesign, workload: Workload, key: str
    ) -> CellOutcome:
        """Evaluate one cell once, inside its telemetry cell scope and span.

        The one per-cell path: the serial loop calls it in-process and
        every pool worker calls it on its own executor. An exception
        fails the cell; anything else (``KeyboardInterrupt``,
        :class:`~repro.resilience.faults.CampaignKill`) propagates.
        """
        tel = self._telemetry()
        started = time.monotonic()
        with tel.cell_scope(key), tel.span(
            "sweep.cell", design=design.name, workload=workload.name
        ):
            try:
                evaluation = self._evaluate(design, workload)
            except Exception as exc:
                return CellOutcome(
                    key=key, design=design.name, workload=workload.name,
                    status=STATUS_FAILED, attempts=1,
                    duration_s=time.monotonic() - started,
                    error=format_exception_chain(exc), exception=exc,
                )
        return CellOutcome(
            key=key, design=design.name, workload=workload.name,
            status=STATUS_OK, attempts=1,
            duration_s=time.monotonic() - started, evaluation=evaluation,
        )

    # -- campaign -------------------------------------------------------

    def run(
        self,
        designs: Iterable[MemoryDesign],
        workloads: Sequence[Workload],
    ) -> CampaignResult:
        """Run the full grid; never raises for per-cell failures."""
        from repro.resilience.pool import PoolStats

        designs = list(designs)
        if not workloads:
            raise ConfigError("a sweep needs at least one workload")
        if not designs:
            raise ConfigError("a sweep needs at least one design")

        journalled: dict[str, JournalEntry] = {}
        if self.journal is not None and self.resume:
            journalled = self.journal.load()

        tel = self._telemetry()
        # Every campaign gets a run-scoped correlation id: recording
        # telemetry without one would leave the worker directories and
        # journal entries unjoinable afterwards. A caller-provided
        # context (e.g. the CLI's) wins; resumes therefore reuse the
        # caller's id or mint a fresh one per resumed execution.
        if isinstance(tel, Telemetry) and tel.run_context is None:
            tel.run_context = RunContext(new_run_id())
        run_id = (
            tel.run_context.run_id if tel.run_context is not None else None
        )
        progress = self.progress
        drain = getattr(self.runner, "drain", False)
        grid = [
            (design, workload,
             cell_key_for(design, workload, self.runner.scale,
                          self.runner.seed, drain, self.engine_class))
            for design in designs
            for workload in workloads
        ]
        total = len(grid)
        to_run = [cell for cell in grid if not _reusable(journalled, cell[2])]
        reused = total - len(to_run)
        if journalled:
            abandoned = sum(1 for _, _, key in to_run if key in journalled)
            if progress is not None:
                progress.resume_summary(
                    reused=reused, to_run=len(to_run), abandoned=abandoned,
                )
            tel.event(
                "sweep_resume", cells=total, reused=reused,
                to_run=len(to_run), abandoned=abandoned,
            )
        tel.event(
            "sweep_started", designs=len(designs),
            workloads=len(workloads), cells=total,
        )
        pending = tel.gauge("repro_sweep_cells_pending")
        pending.set(total)

        results: dict[str, CellOutcome] = {}

        def deliver(outcome: CellOutcome) -> None:
            """Journal, count and report one cell's final outcome."""
            results[outcome.key] = outcome
            self._record_outcome(tel, progress, pending, outcome)
            if (
                self.journal is not None
                and not outcome.from_journal
                and outcome.status != STATUS_SKIPPED
            ):
                self.journal.append(self._journal_entry(outcome, run_id))

        for design, workload, key in grid:
            if _reusable(journalled, key):
                deliver(CellOutcome(
                    key=key, design=design.name, workload=workload.name,
                    status=STATUS_OK, attempts=0, duration_s=0.0,
                    evaluation=journalled[key].load_evaluation(),
                    from_journal=True,
                ))

        try:
            if self._pooled:
                stats = self._run_supervised(grid, journalled, to_run,
                                             deliver, tel)
            else:
                stats = PoolStats()
                for design, workload, key in to_run:
                    if progress is not None:
                        progress.cell_started(design.name, workload.name)
                    outcome = self._evaluate_cell(design, workload, key)
                    deliver(outcome)
                    if not outcome.ok and not self.keep_going:
                        break
        finally:
            # Appends fsync in groups: every exit, raised or returned,
            # leaves the journal fully synced.
            if self.journal is not None:
                self.journal.sync()

        outcomes: list[CellOutcome] = []
        for design, workload, key in grid:
            if key not in results:
                deliver(CellOutcome(
                    key=key, design=design.name, workload=workload.name,
                    status=STATUS_SKIPPED, attempts=0, duration_s=0.0,
                    error=_skip_error(stats),
                ))
            outcomes.append(results[key])
        result = CampaignResult(
            outcomes=outcomes, seed=self.runner.seed,
            restarts=stats.respawns, requeues=stats.requeues,
            drained=stats.drained,
        )
        tel.event("sweep_finished", cells=total, **result.counts())
        tel.flush()
        return result

    def _record_outcome(
        self,
        tel: Telemetry | NullTelemetry,
        progress: ProgressReporter | None,
        pending,
        outcome: CellOutcome,
    ) -> None:
        """Emit the per-cell telemetry + progress line for one outcome."""
        pending.dec()
        tel.counter(
            "repro_sweep_cells_total", status=outcome.status
        ).inc()
        if outcome.from_journal:
            tel.counter("repro_sweep_cells_reused_total").inc()
        tel.event(
            "cell_finished", cell=outcome.key, design=outcome.design,
            workload=outcome.workload, status=outcome.status,
            attempts=outcome.attempts, duration_s=outcome.duration_s,
            from_journal=outcome.from_journal,
        )
        if progress is not None:
            progress.cell_finished(
                outcome.design, outcome.workload, outcome.status,
                outcome.duration_s, from_journal=outcome.from_journal,
            )

    def _journal_entry(
        self, outcome: CellOutcome, run_id: str | None
    ) -> JournalEntry:
        """The journal line for one finished cell."""
        return JournalEntry(
            key=outcome.key, design=outcome.design,
            workload=outcome.workload,
            scale=self.runner.scale, seed=self.runner.seed,
            status=outcome.status, attempts=outcome.attempts,
            duration_s=outcome.duration_s, error=outcome.error,
            evaluation=evaluation_record(outcome.evaluation),
            run_id=run_id,
            engine_class=self.engine_class,
        )

    # -- supervised campaign --------------------------------------------

    def _run_supervised(self, grid, journalled, cells, deliver, tel):
        """Run ``cells`` on the supervised persistent worker pool.

        Cells are dispatched individually (work stealing); ``deliver``
        journals every result in the parent as it arrives — before the
        next cell is dispatched to that worker — so a crash at any point
        leaves an exact-resume journal. The lower chains an ack carries
        go to the runner's lower record (see
        :meth:`~repro.experiments.runner.Runner.absorb_lower_chains`),
        for its ``save_lower_records`` to write. Worker deaths degrade
        the campaign (requeue / poison / pool-exhausted failures) but
        never abort it. Returns the pool's
        :class:`~repro.resilience.pool.PoolStats`.
        """
        # Pool workers fork from this process and simulate whatever
        # their cells' records miss, so the simulation layer (and, with
        # telemetry, the window collectors watching it) is imported
        # here, once, before any fork, rather than in every worker after
        # it; a serial sweep priced from records never loads it.
        import numpy  # noqa: F401

        import repro.cache.hierarchy  # noqa: F401
        import repro.cache.setassoc  # noqa: F401
        from repro.resilience.pool import SupervisedPool

        if tel.enabled:
            import repro.telemetry.windows  # noqa: F401

        arena = self._publish_traces(grid, journalled, tel)
        tel.event(
            "sweep_supervised", workers=self.workers,
            cells=len(cells),
            max_worker_restarts=self.max_worker_restarts,
            poison_threshold=self.poison_threshold,
        )
        pool = SupervisedPool(
            workers=self.workers,
            runner_args=self._runner_args(),
            cell_timeout_s=self.cell_timeout_s,
            max_worker_restarts=self.max_worker_restarts,
            poison_threshold=self.poison_threshold,
            telemetry=tel,
            worker_faults=self.worker_faults,
            tuning=self.pool_tuning,
        )
        workloads = {workload.name: workload for _, workload, _ in grid}

        def on_result(outcome: CellOutcome, chains: dict | None) -> None:
            if chains:
                self.runner.absorb_lower_chains(
                    workloads[outcome.workload], chains
                )
            deliver(outcome)

        self._active_pool = pool
        try:
            stats, _ = pool.run(
                cells, keep_going=self.keep_going, on_result=on_result
            )
        finally:
            self._active_pool = None
            self._arena_handles = None
            if arena is not None:
                arena.close()
        return stats

    def _runner_args(self) -> dict:
        """The picklable kwargs rebuilding the runner in a worker.

        Includes the published trace-arena handles: workers attach each
        workload's single shared trace copy instead of re-tracing or
        re-loading privately.
        """
        return {
            "scale": self.runner.scale,
            "seed": self.runner.seed,
            "reference": getattr(self.runner, "reference", None),
            "local_factor": getattr(self.runner, "local_factor", 0.0),
            "trace_cache_dir": getattr(
                self.runner, "trace_cache_dir", None
            ),
            "drain": getattr(self.runner, "drain", False),
            "engine": getattr(self.runner, "engine", "auto"),
            "sample": getattr(self.runner, "sample", None),
            "trace_arena": self._arena_handles,
        }

    # -- shared trace arena ---------------------------------------------

    def _publish_traces(self, grid, journalled, tel):
        """Trace each to-run workload once and publish it for workers.

        Returns the owning :class:`~repro.trace.arena.TraceArena` (the
        caller must close it after the campaign drains) or ``None``
        when nothing was published. Best effort: a failure to trace or
        publish any workload abandons the arena and the campaign falls
        back to per-worker tracing — the arena is an optimization,
        never a correctness dependency.
        """
        self._arena_handles = None
        if not hasattr(self.runner, "trace_only"):
            return None
        todo: dict[str, Workload] = {}
        for design, workload, key in grid:
            if not _reusable(journalled, key):
                todo.setdefault(workload.name, workload)
        if not todo:
            return None
        from repro.trace.arena import TraceArena

        arena = TraceArena()
        try:
            for workload in todo.values():
                with tel.span(
                    "sweep.publish_trace", workload=workload.name
                ):
                    result, cached = self.runner.trace_only(workload)
                    handle = arena.publish(
                        workload.name, result.stream, result.tracer.regions
                    )
                tel.event(
                    "trace_published", workload=workload.name,
                    medium="file", events=handle.events,
                    cached=cached,
                )
        except Exception as exc:
            tel.event(
                "trace_publish_failed",
                error=format_exception_chain(exc),
            )
            logger.warning(
                "trace arena publishing failed (%s); workers fall back "
                "to private trace loading",
                format_exception_chain(exc),
            )
            arena.close()
            return None
        self._arena_handles = arena.handles
        return arena


def _reusable(journalled: dict[str, JournalEntry], key: str) -> bool:
    """Whether a resume journal already holds this cell's ok result."""
    prior = journalled.get(key)
    return prior is not None and prior.status == STATUS_OK


def _skip_error(stats) -> str:
    """Why a campaign stopped before some cells ran."""
    if stats.drained:
        return ("skipped: campaign drained by signal before this cell "
                "ran (resume with the journal)")
    if stats.exhausted:
        return (f"skipped: worker pool exhausted after {stats.respawns} "
                f"respawn(s)")
    return "skipped: an earlier cell failed and keep_going is off"

