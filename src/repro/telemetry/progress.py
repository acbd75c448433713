"""Live sweep progress: per-cell lines, ETA, and the resume summary.

A long campaign should never be a black box between its first and last
cell. :class:`ProgressReporter` prints one line per finished cell —
``[3/12] NMM-PCM-N6/CG: ok in 4.1s (ETA 38s)`` — with an ETA
extrapolated from the mean wall time of the cells evaluated *this*
run (journal-reused cells are free, so they are excluded from the
estimate), plus a one-line resume summary at startup so ``--resume``
says up front how much work remains. The counting rule is
:class:`CellTally`; the live progress API prices its ETA with it too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TextIO


def format_duration(seconds: float) -> str:
    """Compact human duration: ``0.4s``, ``12s``, ``3m05s``, ``2h07m``."""
    if seconds < 0:
        seconds = 0.0
    if seconds < 10:
        return f"{seconds:.1f}s"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


@dataclass
class CellTally:
    """The per-cell counting rule behind every progress ETA.

    Journal-reused cells count free, skipped cells are not priced, and
    the rest add to the mean seconds per evaluated cell. Shared by
    :class:`ProgressReporter` and the live progress fold
    (``/runs/ID/progress`` and ``telemetry watch``), so both quote the
    same number.

    Attributes:
        total: grid cells in the campaign.
        done: cells finished so far, whatever their status.
        evaluated / evaluated_s: cells priced this run and their wall
            time.
        expected_reused: cells a resume announced it will replay from
            the journal.
        reused_done: journal replays finished so far.
    """

    total: int = 0
    done: int = 0
    evaluated: int = 0
    evaluated_s: float = 0.0
    expected_reused: int = 0
    reused_done: int = 0

    def add(self, status: str, duration_s: float, from_journal: bool) -> None:
        """Count one finished cell."""
        self.done += 1
        if from_journal:
            self.reused_done += 1
        elif status != "skipped":
            self.evaluated += 1
            self.evaluated_s += duration_s

    def eta_s(self) -> float | None:
        """Remaining campaign seconds.

        Pending reuses (announced but not yet replayed) are subtracted
        from the remaining count before multiplying by the mean.
        ``None`` while no cell has been evaluated yet (unknown rate,
        unless nothing priced remains — then 0.0); ``0.0`` once the
        campaign is done.
        """
        remaining = max(0, self.total - self.done)
        if remaining == 0:
            return 0.0
        pending_reused = max(0, self.expected_reused - self.reused_done)
        to_evaluate = max(0, remaining - pending_reused)
        if self.evaluated:
            return to_evaluate * (self.evaluated_s / self.evaluated)
        return 0.0 if to_evaluate == 0 else None


class ProgressReporter:
    """Prints sweep progress lines with a running ETA.

    Args:
        total: number of grid cells in the campaign.
        out: destination stream (default ``sys.stderr`` so progress
            never pollutes piped result output).
    """

    def __init__(self, total: int, *, out: TextIO | None = None) -> None:
        self.tally = CellTally(total=int(total))
        self.out = out if out is not None else sys.stderr

    def _print(self, line: str) -> None:
        print(line, file=self.out, flush=True)

    # ------------------------------------------------------------------

    def resume_summary(
        self, *, reused: int, to_run: int, abandoned: int
    ) -> None:
        """One line, before the first cell, on what resume reclaimed.

        Also primes the ETA: the ``reused`` cells will be replayed from
        the journal at effectively zero cost, so the estimate must not
        price them like fresh evaluations.
        """
        self.tally.expected_reused = int(reused)
        line = (
            f"resume: {reused} cell(s) reused from journal, "
            f"{to_run} to run"
        )
        if abandoned:
            line += f", {abandoned} previously abandoned (re-running)"
        self._print(line)

    def cell_started(self, design: str, workload: str) -> None:
        """Announce the cell about to be evaluated."""
        tally = self.tally
        self._print(
            f"[{tally.done + 1}/{tally.total}] {design}/{workload} ..."
        )

    def cell_finished(
        self,
        design: str,
        workload: str,
        status: str,
        duration_s: float,
        *,
        from_journal: bool = False,
    ) -> None:
        """Record and print one finished cell with the updated ETA
        (priced by :class:`CellTally`)."""
        tally = self.tally
        tally.add(status, duration_s, from_journal)
        eta_s = tally.eta_s()
        if tally.done >= tally.total:
            eta = "done"
        elif eta_s is not None:
            eta = f"ETA {format_duration(eta_s)}"
        else:
            eta = "ETA ?"
        if tally.reused_done:
            eta += f", {tally.reused_done} reused"
        source = " (journal)" if from_journal else ""
        self._print(
            f"[{tally.done}/{tally.total}] {design}/{workload}: "
            f"{status}{source} in {format_duration(duration_s)} ({eta})"
        )
