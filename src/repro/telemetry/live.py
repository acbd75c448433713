"""Live observability plane: HTTP/SSE serving + terminal dashboard.

Every other telemetry surface is post-hoc: events, metrics, windows
and profiles are only inspectable after the run (or by re-running
``telemetry report``). This module makes a campaign observable *while
it runs* — and keeps working, unchanged, on a finished run's
directory:

- :class:`TelemetryServer` — a stdlib-only (``http.server``) HTTP
  service over a telemetry directory. Started in-process next to a
  sweep (``sweep --serve [PORT]``) it renders the run's metrics live
  and answers readiness from the supervised pool's heartbeats;
  started detached (``telemetry serve DIR``) it serves the on-disk
  artifacts of any run, finished or not. Endpoints:

  ========================  ==========================================
  ``GET /metrics``          Prometheus text: the exposition
                            ``metrics.prom`` holds, rendered live
                            with every worker's latest snapshot
                            (in-process) or read from disk
                            (detached).
  ``GET /events``           SSE stream tailing the run's
                            ``events.jsonl`` (workers' events
                            included) — torn-tail-tolerant, resumable
                            via ``Last-Event-ID``.
  ``GET /runs``             The run ids observed, with brief progress.
  ``GET /runs/ID/progress`` Cell counts by status, reused / failed /
                            poisoned, per-workload progress, worker
                            liveness, recent supervision events, and
                            an ETA priced exactly like
                            :class:`~repro.telemetry.progress.ProgressReporter`.
  ``GET /healthz``          Liveness (always 200 while serving).
  ``GET /readyz``           Readiness: 503 when the supervised pool is
                            exhausted, hung, or dead
                            (:func:`pool_readiness`).
  ========================  ==========================================

- :func:`watch` — a live in-terminal ANSI dashboard (no dependencies)
  over the same feed, pointed at either a serve URL or a directory:
  per-workload progress bars, rolling hit-rate gauges from the window
  events, worker liveness, and the last N supervision events.

**Progress is a view over the run log.** ``/runs``,
``/runs/ID/progress`` and ``watch DIR`` re-read the run's ordered,
deduplicated event log (:func:`~repro.telemetry.observatory.run_events`,
the event half of ``aggregate_run``) on every request and fold it with
:func:`run_progress`. Only ``/events`` tails incrementally.

**SSE resume semantics.** Event identity is the existing
``(run, worker, seq)`` triple; per-worker ``seq`` is monotone (it
continues across pools and resumes), and each worker's lines reach the
one log in ``seq`` order. A single scalar cannot resume N interleaved
per-worker streams, so each SSE ``id:`` carries a full cursor — comma
separated ``source=seq`` high-water marks (e.g.
``root=41,worker-0=17``). A client reconnecting with ``Last-Event-ID``
set to any previously received id gets every event it has not seen,
each exactly once (:class:`EventCursor`).

**Security.** The server binds ``127.0.0.1`` by default and performs
no authentication; exposing it beyond localhost is an explicit opt-in
(``--host``) for trusted networks only.

The SSE stream and the progress API are the foundation the ROADMAP's
campaign server builds on: it reuses both unchanged.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterable, TextIO
from urllib.parse import parse_qs, urlsplit

from repro.errors import SweepError, TelemetryError
from repro.telemetry.core import EVENTS_FILE, METRICS_FILE
from repro.telemetry.exporters import JsonlTailer
from repro.telemetry.observatory import ROOT_WORKER, run_events
from repro.telemetry.progress import CellTally, format_duration
from repro.telemetry.report import _SUPERVISION_EVENTS
from repro.telemetry.windows import decode_window

#: Default bind address: localhost only (see the security note above).
DEFAULT_HOST = "127.0.0.1"

#: Content type of the Prometheus exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Supervision events kept (per run) for the progress API / dashboard.
RECENT_SUPERVISION = 8

#: Rolling window of hit-rate samples kept per level.
HIT_RATE_SAMPLES = 24

#: Run id bucket for events recorded without a RunContext.
UNKNOWN_RUN = "unidentified"

#: The keys of a progress document that make up its ``/runs`` row.
RUN_ROW_KEYS = ("run", "total", "done", "finished", "by_status", "last_ts")


# ----------------------------------------------------------------------
# SSE resume cursor
# ----------------------------------------------------------------------


class EventCursor:
    """Per-source high-water marks over ``(worker, seq)`` identities.

    Encoded into every SSE ``id:`` (``root=41,worker-0=17``) so a
    reconnect with ``Last-Event-ID`` resumes *all* interleaved
    per-worker streams at once: an event is admitted exactly when its
    ``seq`` is above the cursor's mark for its source, so no
    ``(run, worker, seq)`` is ever delivered twice across reconnects.
    """

    def __init__(self, positions: dict[str, int] | None = None) -> None:
        self.positions: dict[str, int] = dict(positions or {})

    def admits(self, source: str, seq: int) -> bool:
        """Whether ``seq`` from ``source`` is new to this cursor."""
        return seq > self.positions.get(source, -1)

    def advance(self, source: str, seq: int) -> None:
        """Raise ``source``'s high-water mark to at least ``seq``."""
        if seq > self.positions.get(source, -1):
            self.positions[source] = seq

    def encode(self) -> str:
        """``source=seq`` pairs, comma separated, sorted for stability."""
        return ",".join(
            f"{source}={seq}"
            for source, seq in sorted(self.positions.items())
        )

    @classmethod
    def decode(cls, text: str | None) -> "EventCursor":
        """Parse an encoded cursor; malformed fragments are ignored
        (worst case the client re-receives some events — never loses
        any)."""
        cursor = cls()
        for item in (text or "").split(","):
            source, _, raw = item.strip().partition("=")
            if not source or not raw:
                continue
            try:
                cursor.advance(source, int(raw))
            except ValueError:
                continue
        return cursor


# ----------------------------------------------------------------------
# Progress tracking
# ----------------------------------------------------------------------


def run_progress(events: Iterable[dict]) -> dict[str, dict]:
    """Each run's ``/runs/ID/progress`` document, keyed by run id.

    Folds a run log
    (:func:`~repro.telemetry.observatory.run_events`), in its order,
    grouped by ``run`` (:data:`UNKNOWN_RUN` when absent): the sweep
    executor's ``sweep_started`` / ``sweep_resume`` / ``cell_finished``
    / ``sweep_finished`` events, ``window`` hit rates and the
    supervision kinds. Cells are counted by
    :class:`~repro.telemetry.progress.CellTally`, the rule
    :class:`~repro.telemetry.progress.ProgressReporter` prints by. A run's ``/runs`` row is its document's :data:`RUN_ROW_KEYS`.
    """
    folds: dict[str, dict] = {}
    for event in events:
        run_id = str(event.get("run") or UNKNOWN_RUN)
        fold = folds.get(run_id)
        if fold is None:
            fold = folds[run_id] = {
                "tally": CellTally(), "designs": 0, "finished": False,
                "by_status": {}, "workloads": {}, "workers": {},
                "supervision": deque(maxlen=RECENT_SUPERVISION),
                "hit_rates": {}, "first_ts": None, "last_ts": None,
            }
        tally = fold["tally"]
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if fold["first_ts"] is None or ts < fold["first_ts"]:
                fold["first_ts"] = ts
            if fold["last_ts"] is None or ts > fold["last_ts"]:
                fold["last_ts"] = ts
        kind = str(event.get("kind", "event"))
        if kind == "sweep_started":
            tally.total = int(event.get("cells", 0))
            fold["designs"] = int(event.get("designs", 0))
        elif kind == "sweep_resume":
            tally.expected_reused = int(event.get("reused", 0))
        elif kind == "sweep_finished":
            fold["finished"] = True
        elif kind == "cell_finished":
            status = str(event.get("status", "?"))
            tally.add(
                status, float(event.get("duration_s", 0.0) or 0.0),
                bool(event.get("from_journal")),
            )
            _count(fold["by_status"], status)
            per = fold["workloads"].setdefault(
                str(event.get("workload", "?")), {"done": 0, "by_status": {}}
            )
            per["done"] += 1
            _count(per["by_status"], status)
        elif kind == "window":
            try:
                records = decode_window(event, f"run {run_id}")
            except TelemetryError:
                records = []  # a live fold skips what it cannot read
            for record in records:
                fold["hit_rates"].setdefault(
                    record.level, deque(maxlen=HIT_RATE_SAMPLES)
                ).append(record.hit_rate)
        if kind in _SUPERVISION_EVENTS:
            entry = {"kind": kind}
            for field in ("pool_worker", "cell", "reason", "exitcode",
                          "pending"):
                if event.get(field) is not None:
                    entry[field] = event[field]
            if isinstance(ts, (int, float)):
                entry["ts"] = ts
            fold["supervision"].append(entry)
            worker = event.get("pool_worker")
            if worker and kind in ("worker_spawned", "worker_respawned"):
                fold["workers"][str(worker)] = "alive"
            elif worker and kind == "worker_died":
                fold["workers"][str(worker)] = "dead"
    return {
        run_id: _progress_document(run_id, folds[run_id])
        for run_id in sorted(folds)
    }


def _count(counts: dict[str, int], status: str) -> None:
    counts[status] = counts.get(status, 0) + 1


def _progress_document(run_id: str, fold: dict) -> dict:
    """One run's folded state as its ``/runs/ID/progress`` document."""
    tally = fold["tally"]
    by_status = fold["by_status"]
    return {
        "run": run_id,
        "total": tally.total,
        "done": tally.done,
        "finished": fold["finished"],
        "by_status": dict(by_status),
        "reused": tally.reused_done,
        "failed": by_status.get("failed", 0),
        "poisoned": by_status.get("poisoned", 0),
        "evaluated": tally.evaluated,
        "evaluated_s": tally.evaluated_s,
        "eta_s": tally.eta_s() if tally.total else None,
        "workloads": {
            name: {
                "total": fold["designs"] or None,
                "done": per["done"],
                "by_status": dict(per["by_status"]),
            }
            for name, per in sorted(fold["workloads"].items())
        },
        "workers": dict(sorted(fold["workers"].items())),
        "supervision": list(fold["supervision"]),
        "hit_rates": {
            level: list(rates)
            for level, rates in sorted(fold["hit_rates"].items())
        },
        "first_ts": fold["first_ts"],
        "last_ts": fold["last_ts"],
    }


def journal_counts(path: str | Path) -> dict[str, dict] | None:
    """Per-run cell counts of a campaign journal, by ``run_id``.

    The journal is the authoritative per-cell record, so
    ``/runs/ID/progress`` carries its counts under ``journal``. It is
    read by :class:`~repro.resilience.journal.Journal`; a journal that
    refuses to load (corrupt before its last line, foreign schema,
    unreadable) yields None and the section is left out.
    """
    # Imported here: serving a directory without a journal, or
    # watching one, loads no resilience module.
    from repro.resilience.journal import Journal

    try:
        entries = Journal(path).entries()
    except (SweepError, OSError):
        return None
    runs: dict[str, dict] = {}
    for entry in entries:
        per = runs.setdefault(
            entry.run_id or UNKNOWN_RUN, {"entries": 0, "by_status": {}}
        )
        per["entries"] += 1
        _count(per["by_status"], entry.status)
    return runs


# ----------------------------------------------------------------------
# Readiness policy
# ----------------------------------------------------------------------


def pool_readiness(snapshot: dict | None) -> tuple[bool, dict]:
    """Judge a :meth:`SupervisedPool.heartbeat_snapshot` for ``/readyz``.

    ``None`` (no pool running: serial campaign, detached serving, or
    the pool already finished) is idle-and-ready. A snapshot flips
    readiness when the pool is exhausted, has no live workers left, or
    any live worker was killed by the watchdog or is silent past the
    heartbeat timeout while holding a cell.
    """
    if snapshot is None:
        return True, {"state": "idle"}
    if snapshot.get("exhausted"):
        return False, {"state": "exhausted"}
    workers = snapshot.get("workers") or []
    live = [w for w in workers if w.get("alive")]
    if workers and not live:
        return False, {"state": "no_live_workers"}
    timeout = float(snapshot.get("heartbeat_timeout_s") or 10.0)
    hung = [
        str(w.get("worker"))
        for w in live
        if w.get("killed")
        or (w.get("inflight") and float(w.get("beat_age_s", 0.0)) > timeout)
    ]
    if hung:
        return False, {"state": "hung", "workers": hung}
    state = "drained" if snapshot.get("drained") else "serving"
    return True, {"state": state, "workers_alive": len(live)}


# ----------------------------------------------------------------------
# The HTTP server
# ----------------------------------------------------------------------


class _LiveHandler(BaseHTTPRequestHandler):
    """Request handler; the owning :class:`TelemetryServer` hangs off
    the ``http.server`` instance as ``live_server``."""

    server_version = "repro-telemetry"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet: one line per SSE keepalive would swamp stderr

    # -- plumbing -------------------------------------------------------

    @property
    def live(self) -> "TelemetryServer":
        return self.server.live_server  # type: ignore[attr-defined]

    def _send_body(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict | list) -> None:
        body = json.dumps(payload, indent=2, default=str).encode() + b"\n"
        self._send_body(status, body, "application/json")

    # -- routing --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        try:
            if segments == ["healthz"]:
                self._send_json(200, {"status": "alive"})
            elif segments == ["readyz"]:
                self._serve_readyz()
            elif segments == ["metrics"]:
                self._serve_metrics()
            elif segments == ["runs"]:
                self._send_json(200, self.live.runs())
            elif len(segments) == 3 and segments[0] == "runs" \
                    and segments[2] == "progress":
                self._serve_progress(segments[1])
            elif segments == ["events"]:
                self._serve_events(parse_qs(parts.query))
            elif not segments:
                self._send_json(200, {
                    "service": "repro-telemetry",
                    "directory": str(self.live.directory),
                    "endpoints": [
                        "/metrics", "/events", "/runs",
                        "/runs/<run_id>/progress", "/healthz", "/readyz",
                    ],
                })
            else:
                self._send_json(404, {"error": f"no route {parts.path}"})
        except TelemetryError as exc:  # an event log corrupt mid-file
            self._send_json(500, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    # -- endpoints ------------------------------------------------------

    def _serve_readyz(self) -> None:
        probe = self.live.readiness
        snapshot = probe() if probe is not None else None
        ready, detail = pool_readiness(snapshot)
        self._send_json(
            200 if ready else 503, {"ready": ready, **detail}
        )

    def _serve_metrics(self) -> None:
        telemetry = self.live.telemetry
        if telemetry is not None:
            text = telemetry.render_metrics()
            self._send_body(200, text.encode(), PROM_CONTENT_TYPE)
            return
        path = self.live.directory / METRICS_FILE
        try:
            body = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            self._send_json(
                404, {"error": f"no {METRICS_FILE} in "
                               f"{self.live.directory} yet"}
            )
            return
        self._send_body(200, body, PROM_CONTENT_TYPE)

    def _serve_progress(self, run_id: str) -> None:
        snapshot = self.live.progress(run_id)
        if snapshot is None:
            self._send_json(404, {"error": f"unknown run {run_id!r}"})
            return
        self._send_json(200, snapshot)

    def _serve_events(self, query: dict[str, list[str]]) -> None:
        last_id = self.headers.get("Last-Event-ID")
        if last_id is None and query.get("last_event_id"):
            last_id = query["last_event_id"][0]
        cursor = EventCursor.decode(last_id)
        tailer = JsonlTailer(self.live.directory / EVENTS_FILE)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        live = self.live
        last_write = time.monotonic()
        try:
            while not live.stopping.is_set():
                wrote = False
                for event in tailer.poll():
                    key = str(event.get("worker") or ROOT_WORKER)
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        if not cursor.admits(key, seq):
                            continue
                        cursor.advance(key, seq)
                    frame = (
                        f"id: {cursor.encode()}\n"
                        f"data: {json.dumps(event, default=str)}\n\n"
                    )
                    self.wfile.write(frame.encode())
                    wrote = True
                now = time.monotonic()
                if wrote:
                    self.wfile.flush()
                    last_write = now
                    continue  # drain quickly while events keep landing
                if now - last_write >= live.keepalive_s:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    last_write = now
                live.stopping.wait(live.poll_interval_s)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client disconnected; its cursor lets it resume


class TelemetryServer:
    """Serve a telemetry directory over HTTP (see module docstring).

    Args:
        directory: the telemetry directory to serve.
        host: bind address — ``127.0.0.1`` by default; widening it is
            an explicit, trusted-network-only decision.
        port: TCP port; 0 picks an ephemeral one (read :attr:`port`
            after :meth:`start`).
        telemetry: the run's live
            :class:`~repro.telemetry.core.Telemetry`, whose
            :meth:`~repro.telemetry.core.Telemetry.render_metrics`
            answers ``/metrics`` (in-process mode); None serves the
            on-disk ``metrics.prom`` instead (detached mode).
        readiness: zero-arg callable returning a pool heartbeat
            snapshot (or None when idle) — typically
            ``executor.pool_snapshot``; judged by
            :func:`pool_readiness`. None means always ready.
        journal: campaign journal whose per-run counts are merged into
            ``/runs/ID/progress`` (None skips the journal section).
        poll_interval_s / keepalive_s: SSE tail poll period and
            comment-keepalive interval.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        telemetry=None,
        readiness: Callable[[], dict | None] | None = None,
        journal: str | Path | None = None,
        poll_interval_s: float = 0.1,
        keepalive_s: float = 10.0,
    ) -> None:
        self.directory = Path(directory)
        self.host = host
        self.port = int(port)
        self.telemetry = telemetry
        self.readiness = readiness
        self.poll_interval_s = float(poll_interval_s)
        self.keepalive_s = float(keepalive_s)
        self.journal = Path(journal) if journal is not None else None
        self.stopping = threading.Event()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "TelemetryServer":
        """Bind and serve on a daemon thread; returns self."""
        if self._httpd is not None:
            return self
        try:
            httpd = ThreadingHTTPServer(
                (self.host, self.port), _LiveHandler
            )
        except OSError as exc:
            raise TelemetryError(
                f"cannot bind telemetry server on "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        httpd.daemon_threads = True
        httpd.live_server = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self.stopping.clear()
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": self.poll_interval_s},
            name="repro-telemetry-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        """The server's base URL."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Graceful shutdown: SSE streams end, then the socket closes."""
        httpd = self._httpd
        if httpd is None:
            return
        self.stopping.set()  # SSE loops exit within one poll interval
        httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        httpd.server_close()
        self._httpd = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- progress -------------------------------------------------------

    def runs(self) -> list[dict]:
        """The ``/runs`` rows, in run-id order (the latest run last)."""
        return [
            {key: document[key] for key in RUN_ROW_KEYS}
            for document in run_progress(run_events(self.directory)).values()
        ]

    def progress(self, run_id: str) -> dict | None:
        """One run's ``/runs/ID/progress`` document, or None.

        Re-folded from the run log on every request; with a
        journal, its :func:`journal_counts` for the run ride along
        under ``journal`` unless the journal refuses to load.
        """
        document = run_progress(run_events(self.directory)).get(run_id)
        if document is not None and self.journal is not None:
            counts = journal_counts(self.journal)
            if counts is not None:
                document["journal"] = counts.get(run_id)
        return document


# ----------------------------------------------------------------------
# The terminal dashboard
# ----------------------------------------------------------------------

#: ANSI: cursor home + erase to end of screen (no full clear: avoids
#: flicker on redraw).
ANSI_REDRAW = "\x1b[H\x1b[J"

_STATUS_GLYPHS = (
    ("ok", "ok"), ("failed", "fail"), ("timed_out", "timeout"),
    ("poisoned", "poison"), ("skipped", "skip"),
)


def _bar(fraction: float, width: int = 28) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_dashboard(
    progress: dict | None,
    ready: dict | None = None,
    *,
    source: str = "",
    width: int = 72,
) -> str:
    """One dashboard frame as plain text (pure: trivially testable).

    Renders the ``/runs/ID/progress`` document: overall + per-workload
    progress bars, rolling hit-rate gauges, worker liveness, and the
    recent supervision events. ``ready`` is the ``/readyz`` document
    when available.
    """
    title = "repro live telemetry"
    if source:
        title += f" — {source}"
    lines = [title, "=" * min(width, len(title))]
    if progress is None:
        lines.append("waiting for events ...")
        return "\n".join(lines) + "\n"

    total = progress.get("total") or 0
    done = progress.get("done", 0)
    state = "finished" if progress.get("finished") else "running"
    if ready is not None:
        state += " | ready" if ready.get("ready") else (
            f" | NOT READY ({ready.get('state', '?')})"
        )
    lines.append(f"run {progress.get('run', '?')}  [{state}]")
    counts = ", ".join(
        f"{label} {progress.get('by_status', {}).get(status, 0)}"
        for status, label in _STATUS_GLYPHS
        if progress.get("by_status", {}).get(status)
    )
    eta_s = progress.get("eta_s")
    if progress.get("finished") or (total and done >= total):
        eta = "done"
    elif isinstance(eta_s, (int, float)):
        eta = "ETA " + format_duration(eta_s)
    else:
        eta = "ETA ?"
    if total:
        frac = done / total
        lines.append(
            f"cells {_bar(frac)} {done}/{total} ({frac:4.0%})  {eta}"
        )
    else:
        lines.append(f"cells {done} finished  {eta}")
    if counts:
        lines.append(f"  {counts}"
                     + (f", {progress['reused']} reused"
                        if progress.get("reused") else ""))

    workloads = progress.get("workloads") or {}
    if workloads:
        lines.append("")
        lines.append("workloads")
        name_w = max(len(name) for name in workloads)
        for name, per in workloads.items():
            per_total = per.get("total")
            per_done = per.get("done", 0)
            if per_total:
                lines.append(
                    f"  {name:<{name_w}} "
                    f"{_bar(per_done / per_total, 20)} "
                    f"{per_done}/{per_total}"
                )
            else:
                lines.append(f"  {name:<{name_w}} {per_done} done")

    hit_rates = progress.get("hit_rates") or {}
    if hit_rates:
        lines.append("")
        lines.append("hit rates (rolling)")
        level_w = max(len(level) for level in hit_rates)
        for level, rates in hit_rates.items():
            if not rates:
                continue
            latest = rates[-1]
            lines.append(
                f"  {level:<{level_w}} {_bar(latest, 20)} {latest:6.4f}"
            )

    workers = progress.get("workers") or {}
    if workers:
        lines.append("")
        lines.append("workers  " + "  ".join(
            f"{name}:{status}" for name, status in workers.items()
        ))

    supervision = progress.get("supervision") or []
    if supervision:
        lines.append("")
        lines.append(f"supervision (last {len(supervision)})")
        for entry in supervision:
            detail = " ".join(
                f"{k}={entry[k]}"
                for k in ("pool_worker", "cell", "reason")
                if entry.get(k) is not None
            )
            lines.append(f"  {entry.get('kind', '?'):<16} {detail}".rstrip())
    return "\n".join(lines) + "\n"


def _http_json(url: str, timeout: float = 5.0):
    """GET a JSON document; errors (incl. 503 bodies) degrade to the
    parsed error body or None, never an exception — the dashboard must
    survive a server mid-restart."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        try:
            return json.loads(exc.read().decode())
        except ValueError:
            return None
    except (urllib.error.URLError, OSError, ValueError):
        return None


def _watch_state(
    target: str, directory: Path | None
) -> tuple[dict | None, dict | None]:
    """(progress, ready) for one dashboard frame, URL or DIR mode."""
    if directory is not None:
        runs = run_progress(run_events(directory))
        return (runs[max(runs)] if runs else None), None
    base = target.rstrip("/")
    runs = _http_json(f"{base}/runs")
    progress = None
    if isinstance(runs, list) and runs:
        run_id = runs[-1].get("run")
        if run_id:
            progress = _http_json(f"{base}/runs/{run_id}/progress")
    ready = _http_json(f"{base}/readyz")
    if not isinstance(ready, dict) or "ready" not in ready:
        ready = None
    return progress if isinstance(progress, dict) else None, ready


def watch(
    target: str,
    *,
    interval_s: float = 1.0,
    once: bool = False,
    out: TextIO | None = None,
) -> int:
    """``telemetry watch URL|DIR``: live ANSI dashboard loop.

    ``target`` is either a serve URL (``http://...``) or a telemetry
    directory read directly. ``once`` renders a single frame without
    ANSI control codes (scripting / CI); otherwise the loop redraws
    every ``interval_s`` seconds until interrupted.
    """
    out = out if out is not None else sys.stdout
    directory = None
    if not target.startswith(("http://", "https://")):
        directory = Path(target)
        if not directory.is_dir():
            raise TelemetryError(
                f"no telemetry directory at {directory} (pass a "
                f"--telemetry DIR or a telemetry serve URL)"
            )
    try:
        while True:
            progress, ready = _watch_state(target, directory)
            frame = render_dashboard(progress, ready, source=target)
            if once:
                out.write(frame)
                out.flush()
                return 0
            out.write(ANSI_REDRAW + frame)
            out.flush()
            time.sleep(interval_s)
    except KeyboardInterrupt:
        out.write("\n")
        return 0
