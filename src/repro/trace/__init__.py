"""Address-stream capture substrate (our PEBIL analog).

The paper instruments application binaries with PEBIL and feeds the
resulting memory address stream into an online cache simulator. Here the
same role is played by:

- :class:`~repro.trace.tracer.Tracer` — owns a simulated virtual address
  space and the stream being recorded,
- :class:`~repro.trace.traced_array.TracedArray` — an ndarray wrapper
  that records every load/store with exact byte addresses, and
- :class:`~repro.trace.stream.AddressStream` — the chunked, NumPy-backed
  stream container consumed by the cache simulator.

Synthetic stream generators (:mod:`repro.trace.synthetic`) and reuse
distance analysis (:mod:`repro.trace.reuse`) support testing and the
generalization study. For scale-out, :mod:`repro.trace.store` persists
streams in the one chunked mmap-ready on-disk format, read back
zero-copy as :class:`~repro.trace.store.MappedStream`, and
:mod:`repro.trace.arena` shares one physical copy of that file across
all workers of a parallel sweep.
"""

from repro.trace.events import LOAD, STORE, AccessBatch
from repro.trace.stream import AddressStream, StreamStats
from repro.trace.tracer import Region, Tracer
from repro.trace.traced_array import TracedArray
from repro.trace.synthetic import (
    pointer_chase_stream,
    random_stream,
    sequential_stream,
    strided_stream,
    zipf_stream,
)
from repro.trace.reuse import reuse_distances, working_set_curve
from repro.trace.filters import (
    filter_range,
    loads_only,
    sample_stream,
    split_windows,
    stores_only,
)
from repro.trace.io import discard_trace, load_trace, save_trace, verify_artifact
from repro.trace.store import MappedStream, write_store
from repro.trace.arena import TraceArena, TraceHandle

__all__ = [
    "MappedStream",
    "write_store",
    "TraceArena",
    "TraceHandle",
    "split_windows",
    "sample_stream",
    "filter_range",
    "loads_only",
    "stores_only",
    "save_trace",
    "load_trace",
    "discard_trace",
    "verify_artifact",
    "LOAD",
    "STORE",
    "AccessBatch",
    "AddressStream",
    "StreamStats",
    "Region",
    "Tracer",
    "TracedArray",
    "sequential_stream",
    "strided_stream",
    "random_stream",
    "zipf_stream",
    "pointer_chase_stream",
    "reuse_distances",
    "working_set_curve",
]
