"""On-disk result journal for resumable sweep campaigns.

One JSON object per line, one line per finished cell. Each append
writes its one line through an ``O_APPEND`` descriptor before it
returns, so the cost does not grow with the journal and a killed
process loses nothing it appended: the line is already in the kernel.
Lines become durable in groups: an append fsyncs only once
:data:`SYNC_INTERVAL_S` has passed since the handle's last fsync, and
:meth:`Journal.sync` fsyncs whatever tail is left (the sweep executor
calls it on every exit path). An OS crash or power loss can therefore
lose up to :data:`SYNC_INTERVAL_S` of lines; resume re-runs those
cells. A crash mid-append leaves at worst one torn trailing line:
loading skips it, and the next handle to append first truncates the
file back to its valid lines, so the torn bytes never end up in the
middle of the journal.

Cells are keyed by a SHA-256 content hash of (design name, design
simulation key, workload name, scale, seed): if any of those change,
the key changes and the cell is re-evaluated; if none change, a
resumed campaign reuses the journalled result without re-running the
workload. Every line carries a schema version so an old journal is
rejected loudly rather than misread.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import SweepError
from repro.model.evaluate import Evaluation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.designs.base import MemoryDesign
    from repro.workloads.base import Workload

#: Journal line schema; bump on incompatible changes.
SCHEMA_VERSION = 1

#: Longest a written line waits for its fsync while appends continue:
#: the most an OS crash or power loss can take from the journal.
SYNC_INTERVAL_S = 0.05


def cell_key(
    design_name: str,
    sim_key: str,
    workload_name: str,
    scale: float,
    seed: int,
    drain: bool = False,
    engine_class: str = "exact",
) -> str:
    """Content hash identifying one (design, workload, scale, seed) cell.

    ``drain`` and a non-default ``engine_class`` enter the hash only
    when set, so journals written before those dimensions existed keep
    their keys and resume cleanly. The *exact* engines (scalar and
    auto) are bit-identical and deliberately share one engine class —
    but ``"analytic"`` results are approximate, so analytic cells hash
    differently and can never satisfy (or be satisfied by) an exact
    campaign on resume.
    """
    payload = {
        "design": design_name,
        "sim_key": sim_key,
        "workload": workload_name,
        "scale": scale,
        "seed": seed,
    }
    if drain:
        payload["drain"] = True
    if engine_class != "exact":
        payload["engine_class"] = engine_class
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def cell_key_for(
    design: "MemoryDesign",
    workload: "Workload",
    scale: float,
    seed: int,
    drain: bool = False,
    engine_class: str = "exact",
) -> str:
    """:func:`cell_key` from live design/workload objects."""
    return cell_key(
        design.name, design.sim_key(), workload.name, scale, seed, drain,
        engine_class,
    )


def evaluation_record(evaluation: Evaluation | None) -> dict | None:
    """The plain dict a journal line carries for an
    :class:`Evaluation`. Its fields are all str or float, so a shallow
    copy is the whole serialization."""
    return None if evaluation is None else dict(vars(evaluation))


@dataclass(frozen=True)
class JournalEntry:
    """One journalled cell outcome.

    Attributes:
        key: content hash (see :func:`cell_key`).
        design / workload: labels, for humans and reports.
        scale / seed: the runner parameters the key was derived from.
        status: ``ok`` / ``failed`` / ``skipped`` / ``timed_out``.
        attempts: 1 for an evaluated cell, the worker kills for a
            poisoned one, 0 for one an exhausted pool never ran.
        duration_s: wall-clock spent on the cell.
        error: formatted exception chain for non-ok cells, else None.
        evaluation: the serialized :class:`Evaluation` for ok cells.
        run_id: telemetry run that produced the entry (None for
            entries written before run correlation existed, or with
            telemetry disabled) — joins the journal to the run's
            telemetry tree. Optional with a default so pre-observatory
            journals keep loading under the same schema version.
        engine_class: ``"exact"`` (bit-exact simulation — scalar
            or auto) or ``"analytic"`` (reuse-profile model).
            Serialized only when not ``"exact"`` so pre-analytic
            journals keep loading and byte-stable.
    """

    key: str
    design: str
    workload: str
    scale: float
    seed: int
    status: str
    attempts: int
    duration_s: float
    error: str | None = None
    evaluation: dict | None = None
    run_id: str | None = None
    engine_class: str = "exact"

    def to_json(self) -> str:
        """The journal line (no trailing newline). The fields are
        already plain values, so they serialize as they are."""
        payload = {"schema": SCHEMA_VERSION, **vars(self)}
        if payload["engine_class"] == "exact":
            del payload["engine_class"]
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "JournalEntry":
        """Parse one journal line.

        Raises:
            SweepError: malformed JSON or unsupported schema.
        """
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SweepError(f"malformed journal line: {line[:80]!r}") from exc
        if not isinstance(payload, dict):
            raise SweepError(f"malformed journal line: {line[:80]!r}")
        schema = payload.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise SweepError(
                f"unsupported journal schema {schema!r} (want "
                f"{SCHEMA_VERSION}); delete the journal to restart"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise SweepError(f"malformed journal entry: {exc}") from exc

    def load_evaluation(self) -> Evaluation | None:
        """Reconstruct the :class:`Evaluation` of an ok cell."""
        if self.evaluation is None:
            return None
        try:
            return Evaluation(**self.evaluation)
        except TypeError as exc:
            raise SweepError(
                f"journal entry for {self.design}/{self.workload} holds an "
                f"incompatible evaluation record: {exc}"
            ) from exc


class Journal:
    """Append-only JSON-lines journal of cell outcomes.

    Args:
        path: journal file; created (with parents) on first append.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: list[JournalEntry] | None = None
        # Set by the first append of this handle, after it has cut any
        # torn tail off the file.
        self._tail_checked = False
        # Monotonic time of this handle's last fsync, and whether lines
        # were written since.
        self._synced_at = float("-inf")
        self._unsynced = False

    def exists(self) -> bool:
        """Whether the journal file is already on disk."""
        return self.path.exists()

    def _scan(self) -> tuple[list[JournalEntry], int, bool]:
        """Parse the file once: ``(valid entries, byte length of the
        prefix holding them, whether that prefix ends in a newline)``."""
        if not self.path.exists():
            return [], 0, True
        data = self.path.read_bytes()
        raw = data.splitlines(keepends=True)
        entries: list[JournalEntry] = []
        offset = valid = 0
        for index, part in enumerate(raw):
            offset += len(part)
            line = part.decode(errors="replace").rstrip("\r\n")
            if line.strip():
                try:
                    entries.append(JournalEntry.from_json(line))
                except SweepError:
                    if index == len(raw) - 1:
                        # Torn trailing line from an interrupted append:
                        # drop it; the cell simply re-runs on resume.
                        break
                    raise SweepError(
                        f"corrupt journal {self.path} at line {index + 1}; "
                        f"delete it to restart the campaign"
                    )
            valid = offset
        return entries, valid, valid == 0 or data[valid - 1:valid] in (b"\n", b"\r")

    def _read_entries(self) -> list[JournalEntry]:
        if self._entries is None:
            self._entries = self._scan()[0]
        return self._entries

    def entries(self) -> list[JournalEntry]:
        """Every valid entry, in append order."""
        return list(self._read_entries())

    def load(self) -> dict[str, JournalEntry]:
        """Latest entry per cell key (later lines win)."""
        return {entry.key: entry for entry in self.entries()}

    def append(self, entry: JournalEntry) -> None:
        """Append one entry: one line, written through ``O_APPEND``
        before this returns, fsynced once :data:`SYNC_INTERVAL_S` has
        passed since this handle's last fsync (call :meth:`sync` to
        make the rest durable).

        The first append of a handle re-reads the file and truncates a
        torn tail (left by a killed run) back to the valid lines, so
        the new entry starts on a line of its own.
        """
        payload = (entry.to_json() + "\n").encode()
        if not self._tail_checked:
            self._entries, valid, terminated = self._scan()
            if not terminated:
                payload = b"\n" + payload
            self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if not self._tail_checked and os.fstat(fd).st_size > valid:
                os.ftruncate(fd, valid)
            view = memoryview(payload)
            while view:
                view = view[os.write(fd, view):]
            now = time.monotonic()
            if now - self._synced_at >= SYNC_INTERVAL_S:
                os.fsync(fd)
                self._synced_at = now
                self._unsynced = False
            else:
                self._unsynced = True
        finally:
            os.close(fd)
        self._tail_checked = True
        self._read_entries().append(entry)

    def sync(self) -> None:
        """Fsync the lines this handle wrote since its last fsync (a
        no-op when there are none)."""
        if not self._unsynced:
            return
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self._synced_at = time.monotonic()
        self._unsynced = False
