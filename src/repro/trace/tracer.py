"""The tracer: simulated virtual address space + stream recording.

A :class:`Tracer` plays the role PEBIL plays in the paper: it owns the
address stream being captured during a workload's execution. It also
owns a simple bump allocator for a simulated virtual address space, so
that every logical data structure of a workload (each
:class:`~repro.trace.traced_array.TracedArray`) lives in its own
contiguous, page-aligned region — exactly the "contiguous range of
addresses" granularity at which the paper's NDM partitioning operates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TraceError
from repro.telemetry.core import get_active
from repro.trace.stream import AddressStream

if TYPE_CHECKING:  # pragma: no cover - numpy loads where arrays are made
    import numpy as np

#: Base of the simulated heap. Nonzero so address 0 stays invalid.
HEAP_BASE: int = 0x1000_0000
#: Regions are aligned to this boundary (a 4 KiB OS page).
REGION_ALIGN: int = 4096


@dataclass(frozen=True)
class Region:
    """A named, contiguous region of the simulated address space.

    Attributes:
        name: the logical name given at allocation (e.g. ``"matrix.values"``).
        base: first byte address of the region.
        size: region size in bytes.
    """

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte address of the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True iff ``address`` falls inside the region."""
        return self.base <= address < self.end


@dataclass
class Tracer:
    """Records the address stream of an instrumented workload run.

    Attributes:
        stream: the stream being recorded.
        regions: all allocated regions, in allocation order.
        enabled: when False, record calls are dropped (lets workloads
            run warm-up phases untraced, mirroring how the paper skips
            initialization).
    """

    stream: AddressStream = field(default_factory=AddressStream)
    regions: list[Region] = field(default_factory=list)
    enabled: bool = True
    _next_base: int = HEAP_BASE

    # ------------------------------------------------------------------
    # Address-space management
    # ------------------------------------------------------------------

    def allocate(self, name: str, size: int) -> Region:
        """Reserve a page-aligned region of ``size`` bytes.

        Args:
            name: logical name for the region (used by the NDM range
                profiler to label hot ranges).
            size: number of bytes; must be positive.

        Returns:
            The reserved :class:`Region`.
        """
        if size <= 0:
            raise TraceError(f"region size must be positive, got {size}")
        base = self._next_base
        region = Region(name=name, base=base, size=size)
        self.regions.append(region)
        get_active().event(
            "region_allocated", region=name, base=base, size=size
        )
        aligned = (size + REGION_ALIGN - 1) // REGION_ALIGN * REGION_ALIGN
        # Leave one guard page between regions so off-by-one addresses
        # never alias a neighbouring region.
        self._next_base = base + aligned + REGION_ALIGN
        return region

    def region_of(self, address: int) -> Region | None:
        """The region containing ``address``, or None."""
        for region in self.regions:
            if region.contains(address):
                return region
        return None

    def region_by_name(self, name: str) -> Region:
        """Look up a region by its allocation name.

        Raises:
            KeyError: if no region has that name.
        """
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(name)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        addresses: np.ndarray,
        sizes: np.ndarray | int,
        is_store: np.ndarray | int,
    ) -> None:
        """Append accesses to the stream (no-op when disabled)."""
        if self.enabled:
            self.stream.append(addresses, sizes, is_store)

    def record_loads(self, addresses: np.ndarray, sizes: np.ndarray | int) -> None:
        """Append load accesses."""
        self.record(addresses, sizes, 0)

    def record_stores(self, addresses: np.ndarray, sizes: np.ndarray | int) -> None:
        """Append store accesses."""
        self.record(addresses, sizes, 1)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def array(self, name: str, shape, dtype="float64", fill=None) -> "TracedArray":
        """Allocate and return a :class:`TracedArray` in this tracer's
        address space.

        Args:
            name: region name.
            shape: array shape.
            dtype: NumPy dtype.
            fill: optional fill value (filling is *not* traced; it models
                untraced initialization).
        """
        from repro.trace.traced_array import TracedArray

        return TracedArray.allocate(self, name, shape, dtype=dtype, fill=fill)

    def pause(self) -> "_TracerPause":
        """Context manager that disables recording inside the block::

            with tracer.pause():
                setup_phase()
        """
        return _TracerPause(self)


class _TracerPause:
    """Context manager restoring the tracer's enabled flag on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._saved = tracer.enabled

    def __enter__(self) -> Tracer:
        self._saved = self._tracer.enabled
        self._tracer.enabled = False
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        self._tracer.enabled = self._saved
