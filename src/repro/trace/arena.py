"""Shared trace arena: one physical trace copy across N sweep workers.

A ``--workers N`` sweep used to pay the trace footprint N+1 times —
every worker re-loaded (or was forked holding) its own private copy of
each workload's post-trace stream. The arena inverts that: the parent
publishes each workload's trace **once** as a store file
(:mod:`repro.trace.store`) and ships workers only a tiny picklable
:class:`TraceHandle`; workers map the file in place and never copy.

There is one medium. When the trace is already a
:class:`~repro.trace.store.MappedStream` (a trace-cache hit, or a cold
trace the runner just saved to the cache) the handle is literally its
path: every worker maps the same file and the page cache keeps one
physical copy. Traces without a backing store are spooled to a store
file in a temp directory the arena owns.

Chunk boundaries are preserved exactly, so a worker's replay batches
bit-identically to a replay of the original stream. The parent is
responsible for lifetime: :meth:`TraceArena.close` removes spooled
files after the sweep drains.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.trace.store import MappedStream, write_store
from repro.trace.stream import AddressStream
from repro.trace.tracer import Region


@dataclass(frozen=True)
class TraceHandle:
    """Picklable reference to one published trace.

    This — not the trace — is what crosses the process boundary: a few
    hundred bytes naming a store file, plus the tracer regions needed
    by the NDM oracle.
    """

    workload: str
    locator: str  # store path
    events: int
    regions: tuple[Region, ...]

    def attach(self) -> tuple[MappedStream, list[Region]]:
        """Map the published store without copying it.

        The publisher verified every chunk digest, so attachment skips
        re-hashing.
        """
        stream = MappedStream.open(self.locator)
        stream._verified = [True] * len(stream._verified)
        return stream, list(self.regions)


@dataclass
class TraceArena:
    """Parent-side registry of published traces.

    Spooled store files live in a private temp directory, removed on
    :meth:`close`.
    """

    _handles: dict[str, TraceHandle] = field(default_factory=dict)
    _tempdir: str | None = None

    def publish(self, workload: str, stream: AddressStream,
                regions: list[Region] | tuple[Region, ...]) -> TraceHandle:
        """Make one workload's trace attachable by workers.

        Idempotent per workload name; returns the (cached) handle.
        """
        if workload in self._handles:
            return self._handles[workload]
        if isinstance(stream, MappedStream):
            stream.verify()  # workers attach unverified; verify once here
            path = stream.path
        else:
            path = self._publish_file(workload, stream)
        handle = TraceHandle(
            workload=workload, locator=str(path), events=len(stream),
            regions=tuple(regions),
        )
        self._handles[workload] = handle
        return handle

    @property
    def handles(self) -> dict[str, TraceHandle]:
        """Published handles keyed by workload name."""
        return dict(self._handles)

    def _publish_file(self, workload: str, stream: AddressStream) -> Path:
        """Spool an in-memory stream to a store in the arena's temp dir."""
        if self._tempdir is None:
            self._tempdir = tempfile.mkdtemp(prefix="repro-arena-")
        return write_store(stream, Path(self._tempdir) / f"{workload}.arena.rts")

    def close(self) -> None:
        """Remove spooled files and forget every handle.

        Call after the sweep drains; attached workers must be done.
        """
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None
        self._handles.clear()

    def __enter__(self) -> "TraceArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
