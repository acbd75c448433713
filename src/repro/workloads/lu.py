"""NPB LU: SSOR relaxation solver.

NPB LU solves the Navier–Stokes equations with symmetric successive
over-relaxation, sweeping lower- then upper-triangular parts of a
7-point-coupled operator over the 3D grid. The memory signature is
plane-wavefront sweeps: each k-plane update reads the neighbouring
plane and streams the 5-component state.

We implement plane-ordered SSOR on a synthetic diagonally-dominant
7-point operator over a 5-component field: a forward (ascending k) and
backward (descending k) sweep per iteration, with an untraced residual
check confirming the relaxation actually converges.

Traced regions: ``lu.u`` (state), ``lu.b`` (right-hand side).
"""

from __future__ import annotations

import numpy as np

from repro.trace.tracer import Tracer
from repro.workloads.base import TraceResult, Workload, rng_for
from repro.workloads.registry import SUITE

#: Components per grid point (5 conserved quantities, as in NPB LU).
COMPONENTS: int = 5
#: Bytes per cell: state + rhs, 5 components each, 8 B doubles.
_BYTES_PER_CELL: int = 2 * COMPONENTS * 8

#: Stencil coupling strength (diagonal 1.0; dominance requires 6w < 1).
_COUPLING: float = 0.1
#: SSOR over-relaxation factor.
_OMEGA: float = 1.2


def _apply_operator(u: np.ndarray) -> np.ndarray:
    """The 7-point operator A u (untraced; used for rhs + residuals)."""
    out = u.copy()
    w = _COUPLING
    out[1:] -= w * u[:-1]
    out[:-1] -= w * u[1:]
    out[:, 1:] -= w * u[:, :-1]
    out[:, :-1] -= w * u[:, 1:]
    out[:, :, 1:] -= w * u[:, :, :-1]
    out[:, :, :-1] -= w * u[:, :, 1:]
    return out


class LUWorkload(Workload):
    """NPB LU (class C, per Table 4)."""

    info = SUITE["LU"]

    def __init__(self, iterations: int = 1) -> None:
        self.iterations = iterations

    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        target = self.scaled_footprint_bytes(scale)
        n = max(6, round((target / _BYTES_PER_CELL) ** (1.0 / 3.0)))
        rng = rng_for(seed)
        tracer = Tracer()

        with tracer.pause():
            u = tracer.array("lu.u", (n, n, n, COMPONENTS))
            b = tracer.array("lu.b", (n, n, n, COMPONENTS))
            u_exact = rng.uniform(-1.0, 1.0, size=(n, n, n, COMPONENTS))
            b.data[:] = _apply_operator(u_exact)
            u.data[:] = 0.0
            residual_before = float(np.linalg.norm(_apply_operator(u.data) - b.data))

        for _ in range(self.iterations):
            self._sweep(u, b, n, forward=True)
            self._sweep(u, b, n, forward=False)

        with tracer.pause():
            residual_after = float(np.linalg.norm(_apply_operator(u.data) - b.data))

        return TraceResult(
            stream=tracer.stream,
            tracer=tracer,
            checks={
                "grid": n,
                "cells": n**3,
                "residual_before": residual_before,
                "residual_after": residual_after,
                "converging": residual_after < residual_before,
            },
        )

    def _sweep(self, u, b, n, forward: bool) -> None:
        """One plane-ordered relaxation sweep (traced).

        For each k-plane in sweep order: read the rhs plane, the plane
        itself, and its already-updated neighbour plane; relax; store
        the updated plane. The per-plane reads/writes are the streaming
        pattern LU's wavefronts produce.
        """
        w = _COUPLING
        ks = range(n) if forward else range(n - 1, -1, -1)
        for k in ks:
            rhs_plane = b[:, :, k, :]
            plane = u[:, :, k, :]
            neighbour_k = k - 1 if forward else k + 1
            acc = rhs_plane.copy()
            if 0 <= neighbour_k < n:
                acc += w * u[:, :, neighbour_k, :]
            other_k = k + 1 if forward else k - 1
            if 0 <= other_k < n:
                # Untraced stale read would misrepresent traffic: the
                # real code reads this plane too.
                acc += w * u[:, :, other_k, :]
            # In-plane couplings use the freshly loaded plane (Jacobi
            # within the plane, Gauss-Seidel across planes).
            acc[1:, :, :] += w * plane[:-1, :, :]
            acc[:-1, :, :] += w * plane[1:, :, :]
            acc[:, 1:, :] += w * plane[:, :-1, :]
            acc[:, :-1, :] += w * plane[:, 1:, :]
            updated = (1.0 - _OMEGA) * plane + _OMEGA * acc
            u[:, :, k, :] = updated
