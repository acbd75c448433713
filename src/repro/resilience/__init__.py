"""Fault-tolerant, resumable experiment execution.

Long sweep campaigns (the paper's 9 workloads × dozens of design
points) need to survive bad cells, crashes, and corrupt cached
artifacts. This package provides the resilience layer:

- :mod:`repro.resilience.journal` — on-disk JSON-lines result journal
  keyed by a content hash of (design, workload, scale, seed), one
  ``O_APPEND`` line per cell, fsynced in groups, enabling exact resume
  (:class:`Journal`).
- :mod:`repro.resilience.executor` — the fault-isolated sweep executor:
  each cell evaluated once, a degradation report
  (:class:`SweepExecutor`, :class:`CampaignResult`).
- :mod:`repro.resilience.pool` — the supervised persistent worker pool
  behind ``workers > 1`` and per-cell deadlines: per-cell dispatch
  (workload-affine, then work stealing),
  heartbeats, dead-worker respawn, poison-cell quarantine, a
  hung-worker watchdog, and graceful SIGINT/SIGTERM drain
  (:class:`SupervisedPool`).
- :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (cell failures, slow cells, mid-campaign kills, worker
  kills/hangs, artifact corruption) so the resilience paths are
  themselves tested (:class:`FaultInjector`).
"""

from repro.resilience.executor import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_POISONED,
    STATUS_SKIPPED,
    STATUS_TIMED_OUT,
    CampaignResult,
    CellOutcome,
    SweepExecutor,
    format_exception_chain,
)
from repro.resilience.faults import (
    CampaignKill,
    FaultInjector,
    InjectedFault,
    acquire_latch,
    bitflip_file,
    truncate_file,
)
from repro.resilience.journal import (
    SCHEMA_VERSION,
    Journal,
    JournalEntry,
    cell_key,
    cell_key_for,
)
from repro.resilience.pool import PoolStats, PoolTuning, SupervisedPool

__all__ = [
    "SweepExecutor",
    "CampaignResult",
    "CellOutcome",
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_SKIPPED",
    "STATUS_TIMED_OUT",
    "STATUS_POISONED",
    "format_exception_chain",
    "Journal",
    "JournalEntry",
    "SCHEMA_VERSION",
    "cell_key",
    "cell_key_for",
    "SupervisedPool",
    "PoolStats",
    "PoolTuning",
    "FaultInjector",
    "InjectedFault",
    "CampaignKill",
    "acquire_latch",
    "truncate_file",
    "bitflip_file",
]
