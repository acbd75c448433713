"""Deterministic fault injection for testing the resilience paths.

Fault isolation, resume, deadline, and supervision handling are only
trustworthy if they are themselves exercised; this module makes the
failure modes reproducible on demand:

- **cell faults** — wrap the executor's evaluate callable so the Nth
  evaluation raises, a given (design, workload) cell always (or k
  times) fails, a cell stalls long enough to trip its deadline, or the
  whole campaign "dies" mid-run (a :class:`CampaignKill`, which the
  executor deliberately does not catch — simulating SIGKILL for
  resume tests);
- **process faults** — :meth:`FaultInjector.worker_kill` /
  :meth:`FaultInjector.worker_kill_cell` SIGKILL the evaluating
  process from inside a cell, and :meth:`FaultInjector.worker_hang`
  sleeps far past any deadline, so chaos tests can drive the
  supervised worker pool (dead-worker respawn, poison quarantine, the
  hung-worker watchdog) deterministically;
- **artifact corruption** — :func:`truncate_file` and
  :func:`bitflip_file` damage saved trace artifacts deterministically
  so integrity checking can be asserted.

Everything is counted and seeded: the same injector configuration
produces the same failures in the same places, every run. Rules are
built from plain picklable objects (not closures), so an injector can
cross a process boundary into pool workers via
``SweepExecutor(worker_faults=...)``; each worker then counts its own
calls. For faults that must fire **once across the whole pool** —
e.g. kill exactly one worker even though the requeued cell re-runs in
a fresh process — pass a ``latch`` path: the first process to create
the latch file fires the fault, every later one skips it.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError, ReproError

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.designs.base import MemoryDesign
    from repro.model.evaluate import Evaluation
    from repro.workloads.base import Workload


class InjectedFault(ReproError):
    """The default exception raised by an injected cell fault."""


class CampaignKill(BaseException):
    """Simulates the process dying mid-campaign.

    Derives from :class:`BaseException` on purpose: the executor's
    fault isolation catches only :class:`Exception`, so a kill tears
    the campaign down exactly like SIGKILL would — leaving the journal
    with only the cells that finished.
    """


def acquire_latch(path: str | Path | None) -> bool:
    """Atomically claim a cross-process once-only latch.

    Returns True exactly once per path across all processes (O_EXCL
    creation); every other caller — including the same process again —
    gets False. ``None`` always returns True, so unlatched rules keep
    their per-rule ``times`` budget as the only limiter.
    """
    if path is None:
        return True
    try:
        fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# ----------------------------------------------------------------------
# Picklable matchers and actions
# ----------------------------------------------------------------------
#
# Rules must survive pickling into pool worker processes, so matchers
# and actions are small dataclasses with __call__, never closures.


@dataclass(frozen=True)
class _MatchCall:
    """Matches the Nth evaluation overall (1-based, per process)."""

    n: int

    def __call__(self, call: int, design, workload) -> bool:
        return call == self.n


@dataclass(frozen=True)
class _MatchCell:
    """Matches one (design, workload) cell by name."""

    design: str
    workload: str

    def __call__(self, call: int, design, workload) -> bool:
        return design.name == self.design and workload.name == self.workload


@dataclass(frozen=True)
class _RaiseInjected:
    """Raises :class:`InjectedFault` with a fixed message."""

    message: str

    def __call__(self, call: int, design, workload) -> None:
        raise InjectedFault(self.message)


@dataclass(frozen=True)
class _RaiseFactory:
    """Raises whatever a caller-supplied factory builds.

    Only picklable when the factory itself is; custom factories are an
    in-process testing affordance.
    """

    factory: Callable[[], Exception]

    def __call__(self, call: int, design, workload) -> None:
        raise self.factory()


@dataclass(frozen=True)
class _CampaignKillAction:
    """Raises :class:`CampaignKill` (simulated in-process SIGKILL)."""

    message: str

    def __call__(self, call: int, design, workload) -> None:
        raise CampaignKill(self.message)


@dataclass(frozen=True)
class _SleepAction:
    """Stalls the evaluation (``sleep`` injectable for tests)."""

    seconds: float
    sleep: Callable[[float], None] = time.sleep

    def __call__(self, call: int, design, workload) -> None:
        self.sleep(self.seconds)


@dataclass(frozen=True)
class _SigKillSelf:
    """SIGKILLs the evaluating process — no cleanup, no goodbye.

    With a ``latch``, only the first process to claim it dies; the
    requeued cell then completes in the respawned worker.
    """

    latch: str | None = None

    def __call__(self, call: int, design, workload) -> None:
        if acquire_latch(self.latch):
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class _HangAction:
    """Sleeps far past any deadline (the hung-worker scenario)."""

    seconds: float
    latch: str | None = None
    sleep: Callable[[float], None] = time.sleep

    def __call__(self, call: int, design, workload) -> None:
        if acquire_latch(self.latch):
            self.sleep(self.seconds)


@dataclass
class _CellRule:
    """One injection rule matched against evaluation calls."""

    matcher: Callable[[int, "MemoryDesign", "Workload"], bool]
    action: Callable[[int, "MemoryDesign", "Workload"], None]
    remaining: float  # may be math.inf for "always"

    def applies(self, call: int, design, workload) -> bool:
        return self.remaining > 0 and self.matcher(call, design, workload)


@dataclass
class FaultInjector:
    """Wraps an evaluate callable with scripted, deterministic faults.

    Use :meth:`wrap` to decorate ``runner.evaluate`` and hand the
    result to :class:`~repro.resilience.executor.SweepExecutor` via its
    ``evaluate`` argument (in-process), or pass the injector itself as
    ``worker_faults=`` so every pool worker wraps its own
    evaluate with a private copy. Calls are numbered from 1 in
    execution order per process, which is deterministic (design-major,
    workload-minor in a serial sweep; dispatch order per worker in a
    pool).
    """

    calls: int = 0
    _rules: list[_CellRule] = field(default_factory=list)

    # -- scripting ------------------------------------------------------

    def _add(self, matcher, action, times: float) -> "FaultInjector":
        if times <= 0:
            raise ConfigError("times must be positive")
        self._rules.append(_CellRule(matcher, action, times))
        return self

    def fail_at_call(
        self,
        n: int,
        exc_factory: Callable[[], Exception] | None = None,
    ) -> "FaultInjector":
        """Raise on the Nth evaluation overall (1-based)."""
        action = (
            _RaiseFactory(exc_factory) if exc_factory is not None
            else _RaiseInjected(f"injected failure at call {n}")
        )
        return self._add(_MatchCall(n), action, times=1)

    def fail_cell(
        self,
        design_name: str,
        workload_name: str,
        *,
        times: float = float("inf"),
        exc_factory: Callable[[], Exception] | None = None,
    ) -> "FaultInjector":
        """Fail a specific cell ``times`` times (default: always)."""
        action = (
            _RaiseFactory(exc_factory) if exc_factory is not None
            else _RaiseInjected(
                f"injected failure in cell {design_name}/{workload_name}"
            )
        )
        return self._add(
            _MatchCell(design_name, workload_name), action, times=times
        )

    def delay_cell(
        self,
        design_name: str,
        workload_name: str,
        seconds: float,
        *,
        times: float = float("inf"),
        sleep: Callable[[float], None] = time.sleep,
    ) -> "FaultInjector":
        """Stall a cell long enough to trip a wall-clock deadline."""
        return self._add(
            _MatchCell(design_name, workload_name),
            _SleepAction(seconds, sleep),
            times=times,
        )

    def kill_at_call(self, n: int) -> "FaultInjector":
        """Raise :class:`CampaignKill` on the Nth evaluation overall."""
        return self._add(
            _MatchCall(n),
            _CampaignKillAction(f"injected campaign kill at call {n}"),
            times=1,
        )

    def worker_kill(
        self, n: int, *, latch: str | Path | None = None
    ) -> "FaultInjector":
        """SIGKILL the evaluating process from inside its Nth cell.

        Each pool worker counts its own calls, so without a ``latch``
        every (re)spawned worker dies on its Nth evaluation — the
        restart-budget / pool-exhaustion scenario. With a ``latch``,
        exactly one process across the campaign dies.
        """
        return self._add(
            _MatchCall(n),
            _SigKillSelf(str(latch) if latch is not None else None),
            times=1,
        )

    def worker_kill_cell(
        self,
        design_name: str,
        workload_name: str,
        *,
        times: float = float("inf"),
        latch: str | Path | None = None,
    ) -> "FaultInjector":
        """SIGKILL the evaluating process whenever it runs one cell.

        Without a ``latch`` the cell kills every worker it is requeued
        onto — the poison-cell scenario. With a ``latch`` it kills one
        worker and then completes normally on the respawn — the
        requeue-and-recover scenario.
        """
        return self._add(
            _MatchCell(design_name, workload_name),
            _SigKillSelf(str(latch) if latch is not None else None),
            times=times,
        )

    def worker_hang(
        self,
        design_name: str,
        workload_name: str,
        seconds: float = 3600.0,
        *,
        times: float = float("inf"),
        latch: str | Path | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "FaultInjector":
        """Sleep past any deadline inside one cell (hung worker).

        The supervised pool's watchdog SIGKILLs the worker once the
        cell passes its deadline; with a ``latch`` the hang fires once,
        so a resumed campaign completes the cell.
        """
        return self._add(
            _MatchCell(design_name, workload_name),
            _HangAction(
                seconds, str(latch) if latch is not None else None, sleep
            ),
            times=times,
        )

    # -- application ----------------------------------------------------

    def wrap(
        self,
        evaluate: Callable[["MemoryDesign", "Workload"], "Evaluation"],
    ) -> Callable[["MemoryDesign", "Workload"], "Evaluation"]:
        """The instrumented evaluate callable."""

        def instrumented(design, workload):
            self.calls += 1
            for rule in self._rules:
                if rule.applies(self.calls, design, workload):
                    rule.remaining -= 1
                    rule.action(self.calls, design, workload)
            return evaluate(design, workload)

        return instrumented


# ----------------------------------------------------------------------
# Artifact corruption
# ----------------------------------------------------------------------


def truncate_file(path: str | Path, *, keep_fraction: float = 0.5) -> None:
    """Truncate a file to a fraction of its size (simulated torn write)."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ConfigError("keep_fraction must be in [0, 1)")
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep_fraction)])


def bitflip_file(path: str | Path, *, seed: int = 0) -> int:
    """Flip one deterministically-chosen bit in a file.

    Returns the byte offset flipped (for failure messages). The offset
    is drawn from a seeded RNG so the same (file size, seed) pair
    always damages the same position.
    """
    import numpy as np

    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ConfigError(f"cannot bit-flip empty file {path}")
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, len(data)))
    bit = int(rng.integers(0, 8))
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))
    return offset
