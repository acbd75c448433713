"""Telemetry exporters: the JSONL event log and atomic file writes.

All files live alongside the resilience journal and follow the same
durability discipline:

- whole-file artifacts (the Prometheus snapshot, merged outputs) are
  written atomically — temp file in the same directory,
  fsync, ``os.replace`` — so a kill mid-write leaves either the old
  file or the new one, never a torn hybrid;
- the JSONL event log is append-only with a flush per line, so a kill
  can at worst tear the final line; :func:`read_jsonl` tolerates (and
  drops) exactly that torn trailing line, like the resilience journal.

Live readers get the same guarantees in follow mode:
:class:`JsonlTailer` incrementally reads a growing event log, buffers
a torn trailing line until its newline arrives, and detects
truncation/replacement (inode change or size regression) so a
re-created file is re-read from the start instead of streaming
garbage from a stale offset.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Iterable

from repro.errors import TelemetryError


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------


class JsonlEventLog:
    """Append-only JSON-lines event log with per-line durability.

    Args:
        path: log file; created (with parents) on first append.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: io.TextIOWrapper | None = None
        self._lock = threading.Lock()

    def append(self, event: dict) -> None:
        """Serialize one event as a line and flush it to disk."""
        self.append_many((event,))

    def append_many(self, events: Iterable[dict]) -> None:
        """Serialize a batch of events and flush them in one write.

        One buffered write + one flush for the whole batch, so a spool
        of N events costs one syscall round-trip instead of N. A kill
        mid-write can still only tear the *final* line written so far
        (the partial batch ends at the torn line), which is exactly the
        torn tail :func:`read_jsonl` tolerates.
        """
        self.append_lines(
            json.dumps(event, sort_keys=True, default=str)
            for event in events
        )

    def append_lines(self, lines: Iterable[str]) -> None:
        """Flush pre-serialized JSON lines (no trailing newlines) as
        one batched write.

        The fast path for callers that assemble lines themselves (the
        event spool splices a constant run-context fragment instead of
        re-serializing it per event).
        """
        text = "".join(line + "\n" for line in lines)
        if not text:
            return
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a")
            self._handle.write(text)
            self._handle.flush()

    def flush(self) -> None:
        """Push buffered bytes to the OS so live tailers see them.

        Appends already flush per batch; this explicit hook exists for
        boundary points (cell scopes, drain points) where a caller
        wants to guarantee visibility to a concurrent
        :class:`JsonlTailer` even when nothing was pending — it is a
        no-op on a closed or never-opened log.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def sync(self) -> None:
        """Flush, then fsync the log to disk (a no-op on a closed or
        never-opened log): a durability point, such as a finished
        window stage."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file (reopened on next append)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class JsonlTailer:
    """Incremental follow-mode reader for one JSONL event log.

    Each :meth:`poll` returns the complete events appended since the
    previous poll. Robustness for the live-serving path:

    - a torn trailing line (append in progress) is buffered and only
      parsed once its terminating newline lands — polling never
      returns half an event;
    - truncation or replacement is detected (inode change, or size
      shrinking below the read offset) and the file is re-read from
      the start instead of streaming garbage from a stale offset;
    - a line that still fails to parse (mid-file corruption) is
      skipped, mirroring :func:`read_jsonl`'s tolerance rather than
      killing a long-lived stream.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._position = 0
        self._inode: int | None = None
        self._buffer = b""

    def poll(self) -> list[dict]:
        """Events appended since the last poll (empty when none)."""
        try:
            stat = os.stat(self.path)
        except (FileNotFoundError, NotADirectoryError):
            return []
        if self._inode is not None and (
            stat.st_ino != self._inode or stat.st_size < self._position
        ):
            # Truncated in place or atomically replaced: restart.
            self._position = 0
            self._buffer = b""
        self._inode = stat.st_ino
        if stat.st_size <= self._position:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self._position)
            chunk = handle.read()
            self._position = handle.tell()
        data = self._buffer + chunk
        lines = data.split(b"\n")
        self._buffer = lines.pop()  # torn tail: kept for the next poll
        events: list[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict):
                events.append(payload)
        return events


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSONL event log.

    A torn *trailing* line (interrupted append) is dropped silently;
    corruption anywhere else raises :class:`TelemetryError`.
    """
    path = Path(path)
    raw = path.read_text().splitlines()
    events: list[dict] = []
    for index, line in enumerate(raw):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("event line is not an object")
        except ValueError as exc:
            if index == len(raw) - 1:
                continue
            raise TelemetryError(
                f"corrupt event log {path} at line {index + 1}: {exc}"
            ) from exc
        events.append(payload)
    return events

