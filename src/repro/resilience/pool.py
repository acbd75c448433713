"""Supervised persistent worker pool with work stealing.

Every ``workers > 1`` sweep, and every sweep with a per-cell deadline,
runs on this pool. Per-cell fault isolation catches exceptions inside
a process, but not a worker *process* dying (OOM killer, scheduler
SIGKILL). This module supervises the processes themselves:

- **work stealing** — workers pull *individual cells* from the
  parent's dispatch queue over per-worker pipes, so a fast worker
  drains the tail instead of idling behind a static split;
- **heartbeats** — each worker emits a heartbeat from a dedicated
  thread; silence past a timeout marks the process wedged even when
  the OS still reports it alive. The same thread ends its worker once
  the parent is gone, so a SIGKILLed sweep leaves no worker behind;
- **crash recovery** — a dead worker's in-flight cell is requeued and
  the worker respawned (up to ``max_worker_restarts``); a cell that
  kills ``poison_threshold`` successive workers is quarantined as
  ``poisoned`` and the campaign continues;
- **hung-worker watchdog** — when a cell passes its deadline, or its
  worker stops sending heartbeats, the watchdog SIGKILLs the worker
  and records the cell ``timed_out`` (workers write no files, so a
  kill loses nothing the parent has not already journalled);
- **graceful drain** — SIGINT/SIGTERM on the parent stops dispatch,
  waits for in-flight cells, flushes journal and telemetry, and leaves
  an exact-resume journal (a second signal force-kills).

One duplex pipe per worker — never a shared queue — so a SIGKILLed
worker cannot die holding a shared lock and deadlock its peers; pipe
EOF doubles as a death signal. Every supervision event flows through
the parent's RunContext-stamped telemetry (``worker_spawned`` /
``worker_died`` / ``worker_respawned`` / ``cell_requeued`` /
``cell_poisoned`` / ``worker_hung`` / ``pool_drain`` /
``pool_exhausted``) so ``telemetry report``/``diff`` see the
supervision story alongside the simulation one. Workers write no
files: their telemetry rides their acks into the parent's one run
directory.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as _connection_wait
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.errors import ConfigError
from repro.resilience.executor import (
    STATUS_FAILED,
    STATUS_POISONED,
    STATUS_TIMED_OUT,
    CellOutcome,
    SweepExecutor,
)
from repro.telemetry.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    set_active,
)

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.resilience.faults import FaultInjector


@dataclass(frozen=True)
class PoolTuning:
    """Supervision timing knobs (tests shrink these aggressively).

    Attributes:
        heartbeat_interval_s: worker heartbeat period.
        heartbeat_timeout_s: beat silence after which an apparently
            alive worker holding a cell is treated as wedged and killed.
        tick_s: supervisor loop period (message wait timeout).
        shutdown_grace_s: join timeout per worker at pool shutdown
            before force-killing stragglers.
    """

    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 10.0
    tick_s: float = 0.05
    shutdown_grace_s: float = 5.0


DEFAULT_TUNING = PoolTuning()


@dataclass
class PoolStats:
    """What the supervisor did during one campaign.

    Attributes:
        spawned: worker processes started (initial + respawns).
        deaths: worker deaths observed (killed or not).
        respawns: replacement workers started.
        requeues: in-flight cells returned to the queue after a death.
        poisoned: cells quarantined for killing too many workers.
        escalations: hung workers the watchdog killed.
        drained: a drain signal interrupted the campaign.
        exhausted: the restart budget ran out with cells outstanding.
    """

    spawned: int = 0
    deaths: int = 0
    respawns: int = 0
    requeues: int = 0
    poisoned: int = 0
    escalations: int = 0
    drained: bool = False
    exhausted: bool = False


@contextmanager
def _drain_signals(
    drain: threading.Event, force: threading.Event
) -> Iterator[bool]:
    """Route SIGINT/SIGTERM into drain/force events for the pool loop.

    The handler only sets events: :meth:`Telemetry.event` takes a
    non-reentrant lock, so the supervisor loop — never the signal
    handler — emits the ``pool_drain`` event. A second signal sets
    ``force`` (immediate stop). Off the main thread (or where signals
    are unavailable) this is a no-op and yields False.
    """
    if threading.current_thread() is not threading.main_thread():
        yield False
        return

    def handler(signum, frame) -> None:
        if drain.is_set():
            force.set()
        drain.set()

    previous: dict[int, object] = {}
    installed: list[int] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
            installed.append(signum)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
    try:
        yield True
    finally:
        for signum in installed:
            signal.signal(signum, previous[signum])


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _pool_worker(conn, payload: dict) -> None:
    """One pool worker: pull cells, evaluate, ack, repeat.

    Protocol (worker -> parent, all tuples): ``("heartbeat", ts)``,
    ``("cell_finished", outcome, chains, telemetry)``,
    ``("drained", telemetry)``. Parent -> worker: a
    ``(design, workload, key)`` cell, or ``None`` to drain.

    A cell runs on this process's main thread; the heartbeat thread is
    the only other one. The worker never stops a cell itself: past its
    deadline the parent's watchdog SIGKILLs the whole process, which
    reclaims everything the cell held, and the respawn starts clean.
    The heartbeat thread also ends the process once the parent it
    started under is gone (its parent pid changes): the fork leaves
    the parent's end of the pipe open in the worker too, so ``recv``
    never sees EOF when the parent dies.

    A ``cell_finished`` ack carries the cell's
    :class:`~repro.resilience.executor.CellOutcome` (without its live
    exception, which need not pickle) and ``chains``: the lower chains
    the worker's runner priced since its previous ack, for the cell's
    workload (REF DRAM included): chain digest -> level dicts, see
    :meth:`~repro.experiments.runner.Runner.unsent_lower_chains`. The
    parent adds them to its runner's lower record, so only acked cells
    persist chains, through one writer.

    Its ``telemetry`` is what the worker's directory-less telemetry
    recorded since its previous ack (:meth:`Telemetry.ship
    <repro.telemetry.core.Telemetry.ship>`: event lines, profile
    records, the registry's full metrics snapshot; None with telemetry
    off), and the ``drained`` message carries the rest after the
    worker closes its telemetry. The
    parent writes both into its own run directory, so no acked cell's
    telemetry is lost to a SIGKILL and no worker writes a file.
    """
    parent = os.getppid()  # first, so a parent dying later is seen
    # Forked workers inherit the parent's drain handlers; reset them so
    # Ctrl-C to the process group cannot kill workers mid-drain and a
    # SIGTERM sent to a worker terminates it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    from repro.experiments.runner import Runner

    index = payload["worker_index"]
    telemetry: Telemetry | NullTelemetry = (
        Telemetry.for_worker(*payload["telemetry"])
        if payload["telemetry"] is not None
        else NULL_TELEMETRY
    )
    # The parent's active telemetry must not be shared across processes
    # (torn event lines, clobbered snapshots).
    set_active(telemetry)
    if payload["profile"] is not None:
        telemetry.enable_profiling(payload["profile"])

    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                pass

    stop_beats = threading.Event()

    def beat() -> None:
        while not stop_beats.wait(payload["heartbeat_interval_s"]):
            if os.getppid() != parent:
                os._exit(1)  # orphaned: nobody is left to ack
            send(("heartbeat", time.monotonic()))

    threading.Thread(
        target=beat, name=f"pool-beat-{index}", daemon=True
    ).start()

    fatal = False
    try:
        runner = Runner(telemetry=telemetry, **payload["runner_args"])
        faults: FaultInjector | None = payload.get("worker_faults")
        evaluate = faults.wrap(runner.evaluate) if faults is not None else None
        executor = SweepExecutor(
            runner,
            keep_going=True,
            journal=None,
            resume=False,
            evaluate=evaluate,
            telemetry=telemetry,
        )
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                telemetry.close()
                send(("drained", telemetry.ship()))
                break
            design, workload, key = task
            # A BaseException escaping fault isolation (CampaignKill &
            # friends) is the moral equivalent of the process dying
            # mid-cell: it falls through to ``fatal`` below, and the
            # parent requeues or quarantines the cell.
            outcome = executor._evaluate_cell(design, workload, key)
            send((
                "cell_finished",
                replace(outcome, exception=None),
                runner.unsent_lower_chains(workload.name),
                telemetry.ship(),
            ))
    except BaseException:
        fatal = True
    finally:
        stop_beats.set()
        set_active(None)
        try:
            telemetry.close()
        except Exception:
            pass
    if fatal:
        raise SystemExit(1)


# ----------------------------------------------------------------------
# Parent-side supervision
# ----------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = (
        "index", "proc", "conn", "inflight", "anchor", "last_beat",
        "killed", "sentinel_sent", "drained", "eof", "closed",
    )

    def __init__(self, index: int, proc, conn) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn
        self.inflight: tuple | None = None
        self.anchor = 0.0
        self.last_beat = time.monotonic()
        self.killed = False
        self.sentinel_sent = False
        self.drained = False
        self.eof = False
        self.closed = False

    @property
    def label(self) -> str:
        return f"worker-{self.index}"


class SupervisedPool:
    """A supervised, work-stealing pool of persistent cell workers.

    Args:
        workers: worker processes to keep running.
        runner_args: keyword arguments rebuilding the
            :class:`~repro.experiments.runner.Runner` in each worker.
        cell_timeout_s: per-cell wall-clock deadline from dispatch,
            enforced by the parent's watchdog (None disables the
            deadline; heartbeat silence still kills a worker).
        max_worker_restarts: total replacement workers the campaign may
            spawn; past the budget dead workers stay dead, and if no
            workers remain the pool reports exhaustion instead of
            raising.
        poison_threshold: successive worker deaths one cell may cause
            before it is quarantined as ``poisoned``.
        telemetry: the parent's telemetry. It records the supervision
            events and metrics, and receives what each worker's
            telemetry ships on its acks (workers record none unless it
            has a directory and a run context, which stamps every
            worker); its profiler's rate profiles every worker.
        worker_faults: a picklable
            :class:`~repro.resilience.faults.FaultInjector` each worker
            wraps around its evaluate (chaos testing).
        tuning: supervision timing knobs.
    """

    def __init__(
        self,
        *,
        workers: int,
        runner_args: dict,
        cell_timeout_s: float | None = None,
        max_worker_restarts: int = 3,
        poison_threshold: int = 2,
        telemetry: Telemetry | NullTelemetry | None = None,
        worker_faults: "FaultInjector | None" = None,
        tuning: PoolTuning | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if max_worker_restarts < 0:
            raise ConfigError("max_worker_restarts must be >= 0")
        if poison_threshold < 1:
            raise ConfigError("poison_threshold must be >= 1")
        self.workers = workers
        self.runner_args = runner_args
        self.cell_timeout_s = cell_timeout_s
        self.max_worker_restarts = max_worker_restarts
        self.poison_threshold = poison_threshold
        self.tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.worker_faults = worker_faults
        self.tuning = tuning if tuning is not None else DEFAULT_TUNING
        self._ctx = multiprocessing.get_context()
        self._handles: list[_WorkerHandle] = []
        self._pending: deque = deque()
        self._kills: dict[str, int] = {}
        self._stats = PoolStats()
        self._keep_going = True
        self._failed_fast = False
        self._next_index = 0
        self._on_result: Callable[[CellOutcome, dict | None], None] = (
            lambda outcome, chains: None
        )

    # -- public API -----------------------------------------------------

    def run(
        self,
        cells: Sequence[tuple],
        *,
        keep_going: bool = True,
        on_result: Callable[[CellOutcome, dict | None], None] | None = None,
    ) -> tuple[PoolStats, list[tuple]]:
        """Run ``(design, workload, key)`` cells to completion.

        ``on_result(outcome, chains)`` is invoked in the parent, once
        per finished cell (worker results, parent-built ``timed_out`` /
        ``poisoned`` / exhaustion ``failed`` outcomes alike; ``chains``
        is the lower chains a worker's ack carried, None for the
        parent's own outcomes), *before* the next cell
        is dispatched to that worker — journal-before-ack ordering: the
        journal line is written by then, though its fsync may trail by
        up to :data:`~repro.resilience.journal.SYNC_INTERVAL_S`.

        Returns ``(stats, leftover)``: ``leftover`` holds the cells
        never finished (drain, fail-fast, or exhaustion with
        ``keep_going=False``), in dispatch order, for the caller to
        mark skipped. Never raises for worker failures.
        """
        stats = self._stats = PoolStats()
        self._pending = deque(cells)
        self._kills = {}
        self._handles = []
        self._keep_going = keep_going
        self._failed_fast = False
        # A later pool of the same telemetry numbers on past the labels
        # an earlier one shipped under.
        self._next_index = self.tel.next_worker_index
        if on_result is not None:
            self._on_result = on_result
        if not self._pending:
            return stats, []
        drain = threading.Event()
        force = threading.Event()
        with _drain_signals(drain, force):
            for _ in range(min(self.workers, len(self._pending))):
                self._spawn()
            try:
                self._loop(drain, force)
            finally:
                self._shutdown(force.is_set())
        return stats, list(self._pending)

    def heartbeat_snapshot(self) -> dict:
        """Point-in-time worker liveness for the readiness probe.

        Safe to call from another thread while :meth:`run` is looping
        (list copies + GIL-atomic field reads; no locks shared with
        the supervisor). The live observability plane's ``/readyz``
        endpoint folds this through
        :func:`repro.telemetry.live.pool_readiness`: an exhausted pool,
        no live workers, or a live worker silent past the heartbeat
        timeout (or already killed by the watchdog) flips readiness.

        Returns a dict with ``workers`` (one entry per ever-spawned
        worker: label, alive, seconds since the last heartbeat, the
        in-flight cell key, and whether the watchdog killed it),
        ``exhausted`` / ``drained`` flags, and the pool's heartbeat
        timeout so the policy needs no back-channel to the tuning.
        """
        now = time.monotonic()
        workers = []
        for handle in list(self._handles):
            try:
                alive = not handle.closed and handle.proc.is_alive()
            except ValueError:  # pragma: no cover - closed process obj
                alive = False
            workers.append({
                "worker": handle.label,
                "alive": alive,
                "beat_age_s": round(max(0.0, now - handle.last_beat), 3),
                "inflight": (
                    handle.inflight[2]
                    if handle.inflight is not None else None
                ),
                "killed": handle.killed,
            })
        return {
            "workers": workers,
            "exhausted": self._stats.exhausted,
            "drained": self._stats.drained,
            "heartbeat_timeout_s": self.tuning.heartbeat_timeout_s,
        }

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, replaces: int | None = None) -> _WorkerHandle:
        index = self._next_index
        self._next_index += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        label = f"worker-{index}"
        tel = self.tel
        context, profile = tel.run_context, tel.profile
        payload = {
            "worker_index": index,
            "telemetry": (
                (context.child(label), tel.next_seq)
                if tel.directory is not None and context is not None
                else None
            ),
            "profile": profile.hz if profile is not None else None,
            "runner_args": self.runner_args,
            "worker_faults": self.worker_faults,
            "heartbeat_interval_s": self.tuning.heartbeat_interval_s,
        }
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(child_conn, payload),
            name=f"repro-pool-{index}",
            daemon=True,
        )
        proc.start()
        # Close the parent's copy of the child end so a SIGKILLed
        # worker's pipe reads EOF instead of blocking forever.
        child_conn.close()
        handle = _WorkerHandle(index, proc, parent_conn)
        self._handles.append(handle)
        self._stats.spawned += 1
        self.tel.gauge("repro_pool_workers_alive").inc()
        # NB: "pool_worker", not "worker" — the latter is the
        # RunContext provenance field on every event and must not be
        # clobbered (the observatory dedups on it).
        if replaces is None:
            self.tel.event("worker_spawned", pool_worker=handle.label)
        else:
            self._stats.respawns += 1
            self.tel.counter("repro_pool_restarts_total").inc()
            self.tel.event(
                "worker_respawned",
                pool_worker=handle.label,
                replaces=f"worker-{replaces}",
            )
        return handle

    def _live(self) -> list[_WorkerHandle]:
        return [h for h in self._handles if not h.closed]

    def _inflight_count(self) -> int:
        return sum(1 for h in self._live() if h.inflight is not None)

    # -- main loop ------------------------------------------------------

    def _loop(self, drain: threading.Event, force: threading.Event) -> None:
        while True:
            now = time.monotonic()
            if force.is_set():
                # Second signal: stop now. In-flight cells go back to
                # pending so the resume journal is exact.
                self._stats.drained = True
                for handle in self._live():
                    if handle.inflight is not None:
                        self._pending.appendleft(handle.inflight)
                        handle.inflight = None
                return
            if drain.is_set() and not self._stats.drained:
                self._stats.drained = True
                self.tel.event(
                    "pool_drain",
                    pending=len(self._pending),
                    inflight=self._inflight_count(),
                )
            stopping = self._stats.drained or self._failed_fast
            if not stopping:
                self._dispatch(now)
            if self._inflight_count() == 0 and (
                stopping or not self._pending
            ):
                return
            live = self._live()
            conns = {
                h.conn: h for h in live if not h.eof
            }
            if conns:
                for conn in _connection_wait(
                    list(conns), timeout=self.tuning.tick_s
                ):
                    self._pump(conns[conn])
            else:
                time.sleep(self.tuning.tick_s)
            now = time.monotonic()
            for handle in list(self._handles):
                if handle.closed:
                    continue
                if not handle.proc.is_alive():
                    self._handle_death(handle, now)
                else:
                    self._watchdog(handle, now)
            stopping = self._stats.drained or self._failed_fast
            if (
                not stopping
                and self._pending
                and not self._live()
            ):
                self._exhaust()
                return

    def _dispatch(self, now: float) -> None:
        for handle in self._handles:
            if not self._pending:
                return
            if (
                handle.closed
                or handle.eof
                or handle.killed
                or handle.sentinel_sent
                or handle.inflight is not None
                or not handle.proc.is_alive()
            ):
                continue
            cell = self._pending.popleft()
            try:
                handle.conn.send(cell)
            except (BrokenPipeError, OSError):
                self._pending.appendleft(cell)
                handle.eof = True
                continue
            handle.inflight = cell
            handle.anchor = now

    def _pump(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.eof = True
                return
            handle.last_beat = time.monotonic()
            kind = message[0]
            if kind == "cell_finished":
                # Delivered even from a worker the watchdog has just
                # killed: the ack beat the kill, so the cell is done.
                _, outcome, chains, shipment = message
                handle.inflight = None
                self._receive(handle, shipment)
                self._finish(outcome, chains)
            elif kind == "drained":
                handle.drained = True
                self._receive(handle, message[1])

    def _receive(self, handle: _WorkerHandle, shipment: dict | None) -> None:
        """Write what a worker's telemetry shipped into the parent's."""
        if shipment is not None:
            self.tel.receive(handle.label, shipment)

    def _finish(
        self, outcome: CellOutcome, chains: dict | None = None
    ) -> None:
        self._on_result(outcome, chains)
        if not outcome.ok and not self._keep_going:
            self._failed_fast = True

    # -- death handling -------------------------------------------------

    def _handle_death(self, handle: _WorkerHandle, now: float) -> None:
        # Drain any result the worker sent just before dying.
        self._pump(handle)
        handle.proc.join(timeout=self.tuning.shutdown_grace_s)
        handle.closed = True
        self.tel.gauge("repro_pool_workers_alive").dec()
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.drained:
            return  # clean sentinel exit, not a death
        cell = handle.inflight
        handle.inflight = None
        self._stats.deaths += 1
        self.tel.counter("repro_pool_worker_deaths_total").inc()
        self.tel.event(
            "worker_died",
            pool_worker=handle.label,
            exitcode=handle.proc.exitcode,
            escalated=handle.killed,
            cell=cell[2] if cell is not None else None,
        )
        if handle.killed and cell is not None:
            design, workload, key = cell
            deadline = (
                f"its {self.cell_timeout_s:g}s deadline"
                if self.cell_timeout_s is not None
                else f"the {self.tuning.heartbeat_timeout_s:g}s heartbeat "
                "timeout"
            )
            self._finish(CellOutcome(
                key=key, design=design.name, workload=workload.name,
                status=STATUS_TIMED_OUT, attempts=1,
                duration_s=now - handle.anchor,
                error=(
                    f"cell exceeded {deadline} on {handle.label}; the "
                    f"watchdog killed the worker"
                ),
            ))
        elif cell is not None:
            self._crash_cell(cell, handle, now)
        stopping = self._stats.drained or self._failed_fast
        if (
            not stopping
            and self._pending
            and self._stats.respawns < self.max_worker_restarts
        ):
            self._spawn(replaces=handle.index)

    def _crash_cell(
        self, cell: tuple, handle: _WorkerHandle, now: float
    ) -> None:
        """Requeue or quarantine the cell a crashed worker was running."""
        design, workload, key = cell
        kills = self._kills.get(key, 0) + 1
        self._kills[key] = kills
        if kills >= self.poison_threshold:
            self._stats.poisoned += 1
            self.tel.counter("repro_pool_poisoned_cells_total").inc()
            self.tel.event(
                "cell_poisoned",
                cell=key,
                design=design.name,
                workload=workload.name,
                worker_kills=kills,
            )
            self._finish(CellOutcome(
                key=key, design=design.name, workload=workload.name,
                status=STATUS_POISONED, attempts=kills,
                duration_s=now - handle.anchor,
                error=(
                    f"poisoned: cell killed {kills} successive worker(s) "
                    f"(poison_threshold={self.poison_threshold}); "
                    f"quarantined so the campaign can continue"
                ),
            ))
        else:
            self._stats.requeues += 1
            self.tel.counter("repro_pool_requeues_total").inc()
            self.tel.event(
                "cell_requeued",
                cell=key,
                design=design.name,
                workload=workload.name,
                worker_kills=kills,
            )
            self._pending.appendleft(cell)

    # -- watchdog -------------------------------------------------------

    def _watchdog(self, handle: _WorkerHandle, now: float) -> None:
        if handle.inflight is None or handle.killed:
            return
        overdue = (
            self.cell_timeout_s is not None
            and now - handle.anchor > self.cell_timeout_s
        )
        silent = now - handle.last_beat > self.tuning.heartbeat_timeout_s
        if not overdue and not silent:
            return
        handle.killed = True
        handle.proc.kill()
        self._stats.escalations += 1
        self.tel.counter("repro_pool_escalations_total").inc()
        self.tel.event(
            "worker_hung", pool_worker=handle.label,
            reason="deadline" if overdue else "heartbeat",
            cell=handle.inflight[2],
        )

    # -- exhaustion and shutdown ----------------------------------------

    def _exhaust(self) -> None:
        """No workers left, no restart budget, cells outstanding."""
        self._stats.exhausted = True
        self.tel.event(
            "pool_exhausted",
            pending=len(self._pending),
            respawns=self._stats.respawns,
        )
        if not self._keep_going:
            return  # leftover cells become skipped at the call site
        while self._pending:
            design, workload, key = self._pending.popleft()
            self._finish(CellOutcome(
                key=key, design=design.name, workload=workload.name,
                status=STATUS_FAILED, attempts=0, duration_s=0.0,
                error=(
                    f"worker pool exhausted: every worker died and the "
                    f"restart budget is spent "
                    f"(max_worker_restarts={self.max_worker_restarts})"
                ),
            ))

    def _shutdown(self, force: bool) -> None:
        for handle in self._handles:
            if handle.closed:
                continue
            if force:
                handle.proc.kill()
                continue
            if not handle.sentinel_sent:
                try:
                    handle.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                handle.sentinel_sent = True
        deadline = time.monotonic() + self.tuning.shutdown_grace_s
        for handle in self._handles:
            if handle.closed:
                continue
            # Read the worker's ``drained`` shipment: it sends it after
            # the sentinel, and may block on a full pipe until read.
            while not (force or handle.drained or handle.eof):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not handle.conn.poll(remaining):
                    break
                self._pump(handle)
            handle.proc.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=1.0)
            handle.closed = True
            self.tel.gauge("repro_pool_workers_alive").dec()
            try:
                handle.conn.close()
            except OSError:
                pass
