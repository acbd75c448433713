"""Shared fixtures for the test suite.

Tests run at tiny scales (``TINY_SCALE``) so the whole suite stays
fast; the benchmarks exercise the default experiment scale.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.mainmem import MainMemory
from repro.cache.setassoc import SetAssociativeCache
from repro.designs.base import ReferenceSystem
from repro.experiments.runner import Runner
from repro.trace.stream import AddressStream
from repro.units import KiB

#: Footprint/capacity scale used throughout the tests.
TINY_SCALE = 1.0 / 4096


@pytest.fixture
def tiny_scale() -> float:
    """Scale factor for fast tests."""
    return TINY_SCALE


@pytest.fixture
def runner() -> Runner:
    """An experiment runner at test scale."""
    return Runner(scale=TINY_SCALE, seed=7)


@pytest.fixture
def small_cache() -> SetAssociativeCache:
    """A 4 KiB, 4-way, 64 B-line LRU cache (16 sets)."""
    return SetAssociativeCache(CacheConfig("T", 4 * KiB, 4, 64))


@pytest.fixture
def memory() -> MainMemory:
    """A fresh terminal memory."""
    return MainMemory("MEM")


@pytest.fixture
def reference_system() -> ReferenceSystem:
    """The Sandy Bridge reference pyramid."""
    return ReferenceSystem.sandy_bridge()


def make_stream(addresses, sizes=8, is_store=0) -> AddressStream:
    """Helper: build a stream from plain lists."""
    return AddressStream.from_arrays(
        np.asarray(addresses, dtype=np.uint64), sizes, is_store
    )


class JournalIO:
    """Stands in for the ``os`` and ``time`` modules of
    :mod:`repro.resilience.journal`: it records the journal's writes and
    fsyncs in call order, forwards every other ``os`` name, and runs a
    ``monotonic`` clock that moves only when a test sets :attr:`now`."""

    def __init__(self) -> None:
        self.calls: list[str] = []
        self.now = 0.0

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        self.calls.append("write")
        return os.write(fd, data)

    def fsync(self, fd) -> None:
        self.calls.append("fsync")
        os.fsync(fd)

    def monotonic(self) -> float:
        return self.now

    @property
    def fsyncs(self) -> int:
        return self.calls.count("fsync")

    @property
    def synced(self) -> bool:
        """Whether no journal write is still waiting for an fsync."""
        return not self.calls or self.calls[-1] == "fsync"


@pytest.fixture
def journal_io(monkeypatch) -> JournalIO:
    """Journal I/O recorded, under a clock that stands still."""
    from repro.resilience import journal

    io = JournalIO()
    monkeypatch.setattr(journal, "os", io)
    monkeypatch.setattr(journal, "time", io)
    return io
