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

The package re-exports nothing: import names from their submodules
(``from repro.trace.store import MappedStream``).
"""
