"""NPB BT: block-tridiagonal 3D ADI solver.

NPB BT solves 3D Navier–Stokes with alternating-direction-implicit
sweeps: along each dimension, every grid line is an independent
block-tridiagonal system with 5×5 blocks, solved by block Thomas
elimination. The memory signature is long strided sweeps over big
block arrays — unit stride in x, plane-strided in y and z.

We implement the real block Thomas algorithm (forward elimination with
5×5 LU solves, back substitution) over a synthetic diagonally-dominant
block system, tracing the block and RHS arrays.

Traced regions: ``bt.lhsA/lhsB/lhsC`` (the three block diagonals),
``bt.rhs``, ``bt.u`` (solution).
"""

from __future__ import annotations

import numpy as np

from repro.trace.tracer import Tracer
from repro.workloads.base import TraceResult, Workload, rng_for
from repro.workloads.registry import SUITE

#: Block rank of the BT systems (5 conserved quantities per cell).
BLOCK: int = 5
#: Bytes per grid cell: 3 diagonals of 5x5 blocks + rhs + solution.
_BYTES_PER_CELL: int = (3 * BLOCK * BLOCK + 2 * BLOCK) * 8


class BTWorkload(Workload):
    """NPB BT (class D analog)."""

    info = SUITE["BT"]

    def __init__(
        self,
        sweeps: tuple[int, ...] = (0, 1, 2),
        rhs_phase: bool = False,
    ) -> None:
        #: Which dimensions to sweep (0=x contiguous, 1=y, 2=z strided).
        self.sweeps = sweeps
        #: Also trace a compute_rhs-style 7-point stencil pass over the
        #: state before the solves (as the full NPB BT does each step).
        #: Off by default: the published calibration (EXPERIMENTS.md)
        #: was produced without it.
        self.rhs_phase = rhs_phase

    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        target = self.scaled_footprint_bytes(scale)
        n = max(6, round((target / _BYTES_PER_CELL) ** (1.0 / 3.0)))
        rng = rng_for(seed)
        tracer = Tracer()

        with tracer.pause():
            shape = (n, n, n, BLOCK, BLOCK)
            lhs_a = tracer.array("bt.lhsA", shape)
            lhs_b = tracer.array("bt.lhsB", shape)
            lhs_c = tracer.array("bt.lhsC", shape)
            rhs = tracer.array("bt.rhs", (n, n, n, BLOCK))
            u = tracer.array("bt.u", (n, n, n, BLOCK))
            # Diagonally dominant blocks so Thomas elimination is stable.
            lhs_a.data[:] = rng.uniform(-0.1, 0.1, size=shape)
            lhs_c.data[:] = rng.uniform(-0.1, 0.1, size=shape)
            lhs_b.data[:] = rng.uniform(-0.1, 0.1, size=shape)
            eye = np.eye(BLOCK) * (2.0 + BLOCK * 0.2)
            lhs_b.data[...] += eye
            rhs.data[:] = rng.uniform(-1.0, 1.0, size=(n, n, n, BLOCK))
            # Initial state for the (optional) rhs stencil phase; the
            # sweeps overwrite u with the line solutions afterwards.
            u.data[:] = rng.uniform(-1.0, 1.0, size=(n, n, n, BLOCK))
            rhs_original = rhs.data.copy()

        if self.rhs_phase:
            self._compute_rhs(u, rhs, n)
            with tracer.pause():
                rhs_original = rhs.data.copy()

        max_residual = 0.0
        for dim in self.sweeps:
            residual = self._sweep_dimension(
                lhs_a, lhs_b, lhs_c, rhs, u, n, dim, rhs_original
            )
            max_residual = max(max_residual, residual)
            # Each ADI sweep consumes rhs and produces u; the next sweep
            # treats u as its new rhs (untraced copy models the cheap
            # pointer swap of the real code).
            with tracer.pause():
                rhs.data[:] = u.data
                rhs_original = rhs.data.copy()

        return TraceResult(
            stream=tracer.stream,
            tracer=tracer,
            checks={
                "grid": n,
                "cells": n**3,
                "max_residual": max_residual,
                "solved": max_residual < 1e-8,
            },
        )

    # -- traced kernels ------------------------------------------------------

    def _compute_rhs(self, u, rhs, n) -> None:
        """7-point stencil over the 5-component state into rhs (traced).

        Mirrors NPB BT's compute_rhs: plane-by-plane streaming reads of
        the state with neighbour planes, writing the flux divergence.
        """
        for k in range(n):
            centre = rhs[:, :, k, :] * 0.0 + u[:, :, k, :] * (-6.0)
            if k > 0:
                centre += u[:, :, k - 1, :]
            if k + 1 < n:
                centre += u[:, :, k + 1, :]
            plane = u[:, :, k, :]
            centre[1:, :, :] += plane[:-1, :, :]
            centre[:-1, :, :] += plane[1:, :, :]
            centre[:, 1:, :] += plane[:, :-1, :]
            centre[:, :-1, :] += plane[:, 1:, :]
            rhs[:, :, k, :] = centre

    def _sweep_dimension(self, lhs_a, lhs_b, lhs_c, rhs, u, n, dim, rhs_orig):
        """Block-Thomas solve of every grid line along ``dim``.

        Returns the max residual ``|B'x - rhs|`` over sampled lines
        (verified untraced against pristine copies).
        """
        max_residual = 0.0
        # Lines are indexed by the two fixed dimensions.
        for j in range(n):
            for k in range(n):
                idx = self._line_index(dim, j, k, n)
                residual = self._thomas_line(
                    lhs_a, lhs_b, lhs_c, rhs, u, idx, rhs_orig
                )
                max_residual = max(max_residual, residual)
        return max_residual

    @staticmethod
    def _line_index(dim, j, k, n):
        """Index tuples selecting the cells of one grid line."""
        line = np.arange(n)
        if dim == 0:
            return (np.full(n, j), np.full(n, k), line)
        if dim == 1:
            return (np.full(n, j), line, np.full(n, k))
        return (line, np.full(n, j), np.full(n, k))

    def _thomas_line(self, lhs_a, lhs_b, lhs_c, rhs, u, idx, rhs_orig) -> float:
        """Block Thomas elimination along one line (traced)."""
        i0, i1, i2 = idx
        n = len(i0)
        # Forward elimination: load the full line's blocks (the traced
        # loads happen in line order, matching the sweep direction's
        # stride), then eliminate in place.
        a = lhs_a[i0, i1, i2].reshape(n, BLOCK, BLOCK)
        b = lhs_b[i0, i1, i2].reshape(n, BLOCK, BLOCK)
        c = lhs_c[i0, i1, i2].reshape(n, BLOCK, BLOCK)
        d = rhs[i0, i1, i2].reshape(n, BLOCK)

        b_mod = b.copy()
        d_mod = d.copy()
        c_mod = c.copy()
        for cell in range(1, n):
            # factor = a_cell @ inv(b'_{cell-1})
            factor = a[cell] @ np.linalg.inv(b_mod[cell - 1])
            b_mod[cell] = b[cell] - factor @ c_mod[cell - 1]
            d_mod[cell] = d[cell] - factor @ d_mod[cell - 1]
        # The eliminated diagonal and rhs are written back (traced
        # stores at line stride).
        rhs[i0, i1, i2] = d_mod.reshape(d.shape)

        # Back substitution (traced stores into u).
        x = np.empty_like(d_mod)
        x[n - 1] = np.linalg.solve(b_mod[n - 1], d_mod[n - 1])
        for cell in range(n - 2, -1, -1):
            x[cell] = np.linalg.solve(
                b_mod[cell], d_mod[cell] - c_mod[cell] @ x[cell + 1]
            )
        u[i0, i1, i2] = x.reshape(d.shape)

        # Untraced verification on this line: the block-tridiagonal
        # operator applied to x must reproduce the original rhs.
        recon = np.einsum("nij,nj->ni", b, x)
        recon[1:] += np.einsum("nij,nj->ni", a[1:], x[:-1])
        recon[:-1] += np.einsum("nij,nj->ni", c[:-1], x[1:])
        orig = rhs_orig[i0, i1, i2].reshape(n, BLOCK)
        return float(np.max(np.abs(recon - orig)))
