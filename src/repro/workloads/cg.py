"""NPB CG: conjugate gradient with irregular sparse matrix access.

The NAS CG benchmark solves a sparse symmetric positive-definite system
with unpreconditioned conjugate gradient; its signature memory
behaviour is the CSR sparse matrix-vector product whose column gathers
scatter across the solution vector. We implement exactly that: a
random SPD matrix in CSR form, real CG iterations (traced), and
convergence checks on the residual.

Traced data structures (each its own region, for NDM profiling):
``rowptr``, ``colidx``, ``values`` (the matrix), and the CG vectors
``x``, ``r``, ``p``, ``q``.
"""

from __future__ import annotations

import numpy as np

from repro.trace.tracer import Tracer
from repro.workloads.base import TraceResult, Workload, rng_for
from repro.workloads.registry import SUITE

#: Average nonzeros per row (NPB class D CG has ~21; we keep the same
#: order so the gather:vector-op ratio is representative).
NNZ_PER_ROW: int = 16
#: Bytes per row of the traced footprint (matrix + vectors), used to
#: size the problem from the target footprint:
#: nnz*(8B value + 4B colidx) + 8B rowptr + 4 vectors * 8B.
_BYTES_PER_ROW: int = NNZ_PER_ROW * 12 + 8 + 4 * 8

#: Column indices are 4-byte ints, as in the Fortran benchmark.
COLIDX_DTYPE = np.int32


def _build_spd_csr(n: int, rng: np.random.Generator):
    """Random sparse SPD matrix in CSR: strictly diagonally dominant."""
    nnz_off = NNZ_PER_ROW - 1
    cols = rng.integers(0, n, size=(n, nnz_off), dtype=np.int64)
    # Deduplicate against the diagonal to keep structure clean.
    rows = np.repeat(np.arange(n, dtype=np.int64), nnz_off)
    cols_flat = cols.ravel()
    mask = cols_flat != rows
    rows, cols_flat = rows[mask], cols_flat[mask]
    vals = rng.uniform(-1.0, 1.0, size=len(rows))
    # Append the dominant diagonal.
    diag_rows = np.arange(n, dtype=np.int64)
    # Row sums of absolute off-diagonals guarantee dominance.
    row_abs = np.zeros(n)
    np.add.at(row_abs, rows, np.abs(vals))
    all_rows = np.concatenate([rows, diag_rows])
    all_cols = np.concatenate([cols_flat, diag_rows])
    all_vals = np.concatenate([vals, row_abs + 1.0])
    order = np.lexsort((all_cols, all_rows))
    all_rows, all_cols, all_vals = all_rows[order], all_cols[order], all_vals[order]
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(rowptr, all_rows + 1, 1)
    rowptr = np.cumsum(rowptr)
    return rowptr, all_cols, all_vals


class CGWorkload(Workload):
    """NPB CG (class D analog)."""

    info = SUITE["CG"]

    def __init__(self, iterations: int = 2, row_batch: int = 256) -> None:
        self.iterations = iterations
        self.row_batch = row_batch

    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        target = self.scaled_footprint_bytes(scale)
        n = max(256, target // _BYTES_PER_ROW)
        rng = rng_for(seed)
        tracer = Tracer()

        with tracer.pause():
            rowptr_np, colidx_np, values_np = _build_spd_csr(n, rng)
            b = rng.uniform(0.0, 1.0, size=n)
            rowptr = tracer.array("cg.rowptr", rowptr_np.shape, dtype=np.int64)
            rowptr.data[:] = rowptr_np
            colidx = tracer.array("cg.colidx", colidx_np.shape, dtype=COLIDX_DTYPE)
            colidx.data[:] = colidx_np
            values = tracer.array("cg.values", values_np.shape)
            values.data[:] = values_np
            x = tracer.array("cg.x", (n,))
            r = tracer.array("cg.r", (n,))
            p = tracer.array("cg.p", (n,))
            q = tracer.array("cg.q", (n,))
            r.data[:] = b
            p.data[:] = b

        residuals = [float(np.linalg.norm(r.data))]
        rho = self._dot(r, r)
        for _ in range(self.iterations):
            self._matvec(rowptr, colidx, values, p, q, n)
            alpha = rho / self._dot(p, q)
            self._axpy(x, alpha, p)
            self._axpy(r, -alpha, q)
            rho_new = self._dot(r, r)
            beta = rho_new / rho
            rho = rho_new
            self._xpay(p, beta, r)
            residuals.append(float(np.sqrt(rho_new)))

        # Untraced verification: CG on an SPD system must reduce the
        # residual monotonically.
        return TraceResult(
            stream=tracer.stream,
            tracer=tracer,
            checks={
                "n": n,
                "nnz": int(len(values_np)),
                "residuals": residuals,
                "converging": residuals[-1] < residuals[0],
            },
        )

    # -- traced kernels ---------------------------------------------------

    def _matvec(self, rowptr, colidx, values, src, dst, n) -> None:
        """q = A @ p with CSR gathers, traced row-batch at a time.

        Batching keeps instrumentation overhead sane while preserving
        the access order a row-loop produces: row pointers, then the
        column/value streams, then the irregular gathers into ``src``.
        """
        batch = self.row_batch
        for start in range(0, n, batch):
            stop = min(start + batch, n)
            ptrs = rowptr[start : stop + 1]
            lo, hi = int(ptrs[0]), int(ptrs[-1])
            cols = colidx[lo:hi]
            vals = values[lo:hi]
            gathered = src[cols]  # irregular gather — CG's signature
            products = vals * gathered
            sums = np.add.reduceat(
                products, (ptrs[:-1] - lo).astype(np.int64)
            ) if hi > lo else np.zeros(stop - start)
            # Rows with zero entries would corrupt reduceat; dominance
            # construction guarantees >= 1 nnz (the diagonal).
            dst[start:stop] = sums

    def _dot(self, a, b) -> float:
        """Traced dot product (two sequential sweeps)."""
        return float(np.dot(a[:], b[:]))

    def _axpy(self, y, alpha: float, x) -> None:
        """y += alpha * x (traced load+store of y, load of x)."""
        vals = y[:] + alpha * x[:]
        y[:] = vals

    def _xpay(self, p, beta: float, r) -> None:
        """p = r + beta * p."""
        vals = r[:] + beta * p[:]
        p[:] = vals
