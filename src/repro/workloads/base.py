"""Workload abstraction.

A workload couples Table 4 metadata (full-size footprint, reference
runtime, canonical inputs) with a scale-aware traced kernel run. The
``trace`` contract: run the algorithm at a problem size whose traced
footprint is approximately ``scale × footprint``, recording only the
algorithm phase (setup runs under ``tracer.pause()``, mirroring how the
paper's instrumentation skips initialization).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.model.evaluate import WorkloadMeta
from repro.trace.stream import AddressStream
from repro.trace.tracer import Tracer
from repro.units import GiB

if TYPE_CHECKING:  # pragma: no cover - numpy loads where arrays are made
    import numpy as np


@dataclass(frozen=True)
class WorkloadInfo:
    """Table 4 row for one workload.

    Attributes:
        name: workload name.
        suite: "NPB", "CORAL", or "Application".
        footprint_gb: full-size memory footprint per core, GB.
        t_ref_s: wall-clock seconds on the reference system.
        inputs: the published run parameters.
        description: one-line characterization.
    """

    name: str
    suite: str
    footprint_gb: float
    t_ref_s: float
    inputs: str
    description: str

    @property
    def footprint_bytes(self) -> int:
        """Full-size footprint in bytes."""
        return int(self.footprint_gb * GiB)

    def meta(self) -> WorkloadMeta:
        """The model-facing metadata record."""
        return WorkloadMeta(
            name=self.name,
            footprint_bytes=self.footprint_bytes,
            t_ref_s=self.t_ref_s,
        )


@dataclass
class TraceResult:
    """Output of a traced workload run.

    Attributes:
        stream: the recorded address stream.
        tracer: the tracer (carries the region map for NDM profiling).
        checks: workload-specific correctness facts (e.g. converged
            residual, BFS reachable count) so tests can verify the
            *algorithm* did real work, not just touch memory.
    """

    stream: AddressStream
    tracer: Tracer
    checks: dict


class Workload(ABC):
    """One benchmark: metadata + scale-aware traced kernel."""

    #: Table 4 metadata; concrete classes set this.
    info: WorkloadInfo

    @abstractmethod
    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        """Run the instrumented kernel at the given footprint scale.

        Args:
            scale: traced footprint ≈ scale × Table 4 footprint.
            seed: RNG seed for synthetic inputs (determinism).
        """

    def scaled_footprint_bytes(self, scale: float) -> int:
        """Target traced footprint at a scale."""
        if scale <= 0 or scale > 1:
            raise ConfigError(f"scale must be in (0, 1], got {scale}")
        return int(self.info.footprint_bytes * scale)

    @property
    def name(self) -> str:
        """Workload name (Table 4)."""
        return self.info.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.info.name!r})"


def rng_for(seed: int) -> np.random.Generator:
    """Shared deterministic RNG construction for workload inputs."""
    import numpy as np

    return np.random.default_rng(seed)
