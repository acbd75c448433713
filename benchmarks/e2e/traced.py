"""Run one ``repro.experiments`` command with layer spans installed.

Usage (``run.py --trace 1`` launches it; ``PYTHONPATH`` must reach
``src``)::

    python benchmarks/e2e/traced.py RECORD_DIR LAUNCHED_AT ARG...

``LAUNCHED_AT`` is the launcher's ``time.time()`` just before it
started this process, so the parent record's ``startup_s`` covers the
interpreter and every ``repro`` import. The exit code is the command's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    record_dir, launched_at, command = Path(argv[0]), float(argv[1]), argv[2:]
    recorder = layers.SpanRecorder(record_dir=record_dir)
    from repro.experiments.cli import main as cli_main

    layers.install(recorder)
    started = time.time()
    try:
        return cli_main(command)
    finally:
        sys.stdout.flush()
        recorder.write_record(startup_s=started - launched_at)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
