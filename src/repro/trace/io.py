"""Trace and region-map persistence with integrity protection.

Traces are expensive to produce (the workload actually runs), so the
runner can persist them. There is one stream format: the chunked,
page-aligned store of :mod:`repro.trace.store` (``.rts``), read back
as a lazy, mmap-backed :class:`~repro.trace.store.MappedStream` whose
chunks are zero-copy views verified incrementally (per-chunk SHA-256
from the header) as they are first read.

The tracer's region map is JSON next to the stream. A saved pair is
enough to re-run every design evaluation and the NDM oracle without
re-executing the workload. The trace directory is a cache: anything
else in it (such as a compressed ``.npz`` stream of an older release)
is ignored, so its workload is re-traced.

Because long campaigns lean on these artifacts, writes are **atomic**
(temp file in the destination directory + ``os.replace``) and every
artifact gets a SHA-256 sidecar (``<artifact>.sha256``, ``sha256sum``
format). Loading verifies integrity (sidecar for JSON, embedded chunk
digests for the store) and re-raises any parse failure as
:class:`~repro.errors.TraceIntegrityError` naming the offending file,
so a half-written or bit-flipped cache entry is detected instead of
silently corrupting an evaluation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.errors import TraceError, TraceIntegrityError
from repro.trace.store import MappedStream, write_store
from repro.trace.stream import AddressStream
from repro.trace.tracer import Region, Tracer

#: Format marker stored in every region map.
_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Integrity plumbing
# ----------------------------------------------------------------------


def checksum_path(path: str | Path) -> Path:
    """The SHA-256 sidecar path for an artifact."""
    path = Path(path)
    return path.with_name(path.name + ".sha256")


def compute_checksum(path: str | Path) -> str:
    """SHA-256 hex digest of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace``.

    Readers never observe a partially written artifact: they see either
    the previous version or the new one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_artifact(path: Path, payload: bytes) -> None:
    """Atomically write an artifact and its SHA-256 sidecar."""
    _atomic_write_bytes(path, payload)
    digest = hashlib.sha256(payload).hexdigest()
    _atomic_write_bytes(
        checksum_path(path), f"{digest}  {path.name}\n".encode()
    )


def verify_artifact(path: str | Path) -> None:
    """Check an artifact against its SHA-256 sidecar.

    Artifacts written before sidecars existed (no ``.sha256`` next to
    them) pass unverified, for backward compatibility.

    Raises:
        TraceIntegrityError: on digest mismatch or unreadable sidecar.
    """
    path = Path(path)
    sidecar = checksum_path(path)
    if not sidecar.exists():
        return
    try:
        expected = sidecar.read_text().split()[0]
    except (OSError, IndexError) as exc:
        raise TraceIntegrityError(
            f"unreadable checksum sidecar {sidecar}; delete {path} and "
            f"its sidecar, then re-trace"
        ) from exc
    actual = compute_checksum(path)
    if actual != expected:
        raise TraceIntegrityError(
            f"checksum mismatch for {path} (expected {expected[:12]}…, "
            f"got {actual[:12]}…); delete this file and its .sha256 "
            f"sidecar and re-trace the workload"
        )


# ----------------------------------------------------------------------
# Region maps
# ----------------------------------------------------------------------


def save_regions(tracer: Tracer, path: str | Path) -> None:
    """Write a tracer's region map to ``path`` (JSON).

    Atomic (temp file + rename); parent directories are created; a
    ``.sha256`` sidecar is written alongside.
    """
    payload = {
        "version": _FORMAT_VERSION,
        "regions": [
            {"name": r.name, "base": r.base, "size": r.size}
            for r in tracer.regions
        ],
    }
    _write_artifact(Path(path), json.dumps(payload, indent=2).encode())


def load_regions(path: str | Path) -> list[Region]:
    """Read a region map written by :func:`save_regions`.

    Raises:
        TraceError: for missing files or unknown formats.
        TraceIntegrityError: for corrupt/unparseable files.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no region file at {path}")
    verify_artifact(path)
    try:
        payload = json.loads(path.read_text())
        if payload.get("version") != _FORMAT_VERSION:
            raise TraceError(f"unsupported region format in {path}")
        return [
            Region(name=entry["name"], base=entry["base"], size=entry["size"])
            for entry in payload["regions"]
        ]
    except TraceError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError,
            UnicodeDecodeError) as exc:
        raise TraceIntegrityError(
            f"corrupt region file {path} ({type(exc).__name__}: {exc}); "
            f"delete it and re-trace the workload"
        ) from exc


# ----------------------------------------------------------------------
# Paired artifacts
# ----------------------------------------------------------------------


#: Suffix of the stream artifact in a trace pair.
_STREAM = ".stream.rts"


def save_trace(stream: AddressStream, tracer: Tracer, directory: str | Path,
               name: str) -> tuple[Path, Path]:
    """Persist a (stream, regions) pair under ``directory/name.*``.

    The stream becomes ``<name>.stream.rts`` (see
    :func:`~repro.trace.store.write_store`), the regions
    ``<name>.regions.json``. Returns the two paths written.
    """
    directory = Path(directory)
    stream_path = write_store(stream, directory / f"{name}{_STREAM}")
    regions_path = directory / f"{name}.regions.json"
    save_regions(tracer, regions_path)
    return stream_path, regions_path


def load_trace(
    directory: str | Path, name: str
) -> tuple[MappedStream, list[Region]]:
    """Load a pair written by :func:`save_trace`.

    Raises:
        TraceError: no stream or region file.
        TraceIntegrityError: a corrupt store header or region map
            (store chunks verify as they are first read).
    """
    stream_path = Path(directory) / f"{name}{_STREAM}"
    if not stream_path.exists():
        raise TraceError(f"no stream file at {stream_path}")
    stream = MappedStream.open(stream_path)
    return stream, load_regions(Path(directory) / f"{name}.regions.json")


def discard_trace(directory: str | Path, name: str) -> list[Path]:
    """Delete a saved (stream, regions) pair and sidecars if present.

    The remediation step for a :class:`TraceIntegrityError`; returns
    the paths actually removed.
    """
    directory = Path(directory)
    removed = []
    for artifact in (
        directory / f"{name}{_STREAM}",
        directory / f"{name}.regions.json",
    ):
        for path in (artifact, checksum_path(artifact)):
            if path.exists():
                path.unlink()
                removed.append(path)
    return removed
