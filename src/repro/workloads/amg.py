"""CORAL AMG2013: algebraic multigrid V-cycle.

AMG2013 is a parallel algebraic multigrid solver for unstructured-grid
linear systems. Its memory behaviour is a stack of CSR sparse matrices
of geometrically shrinking size, traversed by smoothing (sparse
matvec), restriction, and prolongation in a V-cycle.

We implement a real AMG: aggregation-based coarsening builds the
operator hierarchy (Galerkin triple products, computed untraced as
setup), and the traced solve phase runs damped-Jacobi-smoothed V-cycles
that verifiably reduce the residual of a 7-point-like SPD system.

Traced regions per level ``i``: ``amg.L{i}.rowptr/colidx/values`` and
the level vectors ``amg.L{i}.x/b/r``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.tracer import Tracer
from repro.trace.traced_array import TracedArray
from repro.workloads.base import TraceResult, Workload, rng_for
from repro.workloads.registry import SUITE

#: Aggregate size of the coarsening (each coarse point absorbs ~4 fine).
_AGGREGATE: int = 4
#: Damped-Jacobi weight.
_JACOBI_OMEGA: float = 0.7
#: Stop coarsening below this many rows.
_COARSEST: int = 64
#: Average nonzeros per fine row (unstructured-mesh-like).
_NNZ_PER_ROW: int = 9
#: Traced bytes per fine row, measured: fine CSR (values 8 B + colidx
#: 4 B per nnz, ~11 realized nnz/row) + vectors, times ~4/3 for the
#: coarse-level hierarchy.
_BYTES_PER_ROW: int = 340


@dataclass
class _Level:
    """One level of the AMG hierarchy (traced arrays + aggregate map)."""

    rowptr: TracedArray
    colidx: TracedArray
    values: TracedArray
    x: TracedArray
    b: TracedArray
    diag: np.ndarray  # untraced cached diagonal for Jacobi
    aggregate_of: np.ndarray | None  # fine index -> coarse aggregate


def _stencil_csr(n: int, rng: np.random.Generator):
    """SPD matrix: ring 7-point-like stencil + random long-range links."""
    offsets = np.array([-3, -2, -1, 1, 2, 3], dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), len(offsets))
    cols = (rows + np.tile(offsets, n)) % n
    vals = np.full(len(rows), -0.5)
    # Random long-range couplings make the graph unstructured.
    extra = max(1, (_NNZ_PER_ROW - 7) * n)
    er = rng.integers(0, n, size=extra, dtype=np.int64)
    ec = rng.integers(0, n, size=extra, dtype=np.int64)
    keep = er != ec
    er, ec = er[keep], ec[keep]
    ev = np.full(len(er), -0.25)
    rows = np.concatenate([rows, er, ec])
    cols = np.concatenate([cols, ec, er])
    vals = np.concatenate([vals, ev, ev])
    # Diagonal = row sum of |off-diagonals| + 1 (strict dominance -> SPD).
    row_abs = np.zeros(n)
    np.add.at(row_abs, rows, np.abs(vals))
    rows = np.concatenate([rows, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([cols, np.arange(n, dtype=np.int64)])
    vals = np.concatenate([vals, row_abs + 1.0])
    return _to_csr(n, rows, cols, vals)


def _to_csr(n, rows, cols, vals):
    """COO -> CSR with duplicate summation."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    # Sum duplicates.
    key_change = np.empty(len(rows), dtype=bool)
    key_change[0] = True
    key_change[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    idx = np.flatnonzero(key_change)
    rows_u, cols_u = rows[idx], cols[idx]
    sums = np.add.reduceat(vals, idx)
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(rowptr, rows_u + 1, 1)
    rowptr = np.cumsum(rowptr)
    return rowptr, cols_u, sums


def _galerkin_coarse(rowptr, colidx, values, n, aggregate_of, n_coarse):
    """Coarse operator A_c = P^T A P for piecewise-constant P."""
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr))
    coarse_rows = aggregate_of[rows]
    coarse_cols = aggregate_of[colidx]
    return _to_csr(n_coarse, coarse_rows, coarse_cols, values.copy())


class AMGWorkload(Workload):
    """CORAL AMG2013 analog."""

    info = SUITE["AMG2013"]

    def __init__(self, cycles: int = 1, row_batch: int = 512) -> None:
        self.cycles = cycles
        self.row_batch = row_batch

    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        target = self.scaled_footprint_bytes(scale)
        n = max(512, target // _BYTES_PER_ROW)
        rng = rng_for(seed)
        tracer = Tracer()

        with tracer.pause():
            levels = self._setup_hierarchy(tracer, n, rng)
            b_fine = rng.uniform(-1.0, 1.0, size=n)
            levels[0].b.data[:] = b_fine
            levels[0].x.data[:] = 0.0
            res0 = float(np.linalg.norm(b_fine))

        for _ in range(self.cycles):
            self._v_cycle(levels, 0)

        with tracer.pause():
            fine = levels[0]
            res1 = float(
                np.linalg.norm(
                    fine.b.data
                    - self._matvec_untraced(fine, fine.x.data)
                )
            )

        return TraceResult(
            stream=tracer.stream,
            tracer=tracer,
            checks={
                "rows": n,
                "levels": len(levels),
                "residual_before": res0,
                "residual_after": res1,
                "converging": res1 < res0,
            },
        )

    # -- setup (untraced) ---------------------------------------------------

    def _setup_hierarchy(self, tracer: Tracer, n: int, rng) -> list[_Level]:
        rowptr_np, colidx_np, values_np = _stencil_csr(n, rng)
        levels: list[_Level] = []
        depth = 0
        while True:
            level = self._make_level(tracer, depth, n, rowptr_np, colidx_np, values_np)
            levels.append(level)
            if n <= _COARSEST:
                break
            n_coarse = (n + _AGGREGATE - 1) // _AGGREGATE
            aggregate_of = (
                np.arange(n, dtype=np.int64) // _AGGREGATE
            )  # contiguous aggregation
            level.aggregate_of = aggregate_of
            rowptr_np, colidx_np, values_np = _galerkin_coarse(
                rowptr_np, colidx_np, values_np, n, aggregate_of, n_coarse
            )
            n = n_coarse
            depth += 1
        return levels

    def _make_level(self, tracer, depth, n, rowptr_np, colidx_np, values_np):
        prefix = f"amg.L{depth}"
        rowptr = tracer.array(f"{prefix}.rowptr", rowptr_np.shape, dtype=np.int64)
        rowptr.data[:] = rowptr_np
        colidx = tracer.array(f"{prefix}.colidx", colidx_np.shape, dtype=np.int32)
        colidx.data[:] = colidx_np
        values = tracer.array(f"{prefix}.values", values_np.shape)
        values.data[:] = values_np
        diag = np.zeros(n)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr_np))
        diag_mask = rows == colidx_np
        diag[rows[diag_mask]] = values_np[diag_mask]
        return _Level(
            rowptr=rowptr,
            colidx=colidx,
            values=values,
            x=tracer.array(f"{prefix}.x", (n,)),
            b=tracer.array(f"{prefix}.b", (n,)),
            diag=diag,
            aggregate_of=None,
        )

    # -- traced solve ---------------------------------------------------------

    def _v_cycle(self, levels: list[_Level], depth: int) -> None:
        level = levels[depth]
        if depth == len(levels) - 1:
            # Coarsest level: relax hard (cheap — few rows).
            for _ in range(8):
                self._jacobi(level)
            return
        self._jacobi(level)  # pre-smooth
        residual = self._residual(level)
        # Restrict: coarse b = P^T r (aggregate sums — traced scatter).
        coarse = levels[depth + 1]
        self._restrict(level, coarse, residual)
        coarse.x[:] = 0.0
        self._v_cycle(levels, depth + 1)
        # Prolong: fine x += P coarse.x (aggregate broadcast).
        self._prolong(level, coarse)
        self._jacobi(level)  # post-smooth

    def _jacobi(self, level: _Level) -> None:
        """x += omega * D^-1 (b - A x), traced."""
        ax = self._matvec_traced(level)
        b = level.b[:]
        x_old = level.x[:]
        level.x[:] = x_old + _JACOBI_OMEGA * (b - ax) / level.diag

    def _residual(self, level: _Level) -> np.ndarray:
        """r = b - A x (traced matvec + vector ops)."""
        ax = self._matvec_traced(level)
        return level.b[:] - ax

    def _restrict(self, level: _Level, coarse: _Level, residual: np.ndarray) -> None:
        n_coarse = coarse.x.size
        sums = np.zeros(n_coarse)
        np.add.at(sums, level.aggregate_of, residual)
        coarse.b[:] = sums

    def _prolong(self, level: _Level, coarse: _Level) -> None:
        correction = coarse.x[:][level.aggregate_of]
        level.x.accumulate(slice(None), correction)

    def _matvec_traced(self, level: _Level) -> np.ndarray:
        """CSR matvec with batched traced gathers (like CG's)."""
        n = level.x.size
        out = np.empty(n)
        batch = self.row_batch
        for start in range(0, n, batch):
            stop = min(start + batch, n)
            ptrs = level.rowptr[start : stop + 1]
            lo, hi = int(ptrs[0]), int(ptrs[-1])
            cols = level.colidx[lo:hi]
            vals = level.values[lo:hi]
            gathered = level.x[cols]
            out[start:stop] = np.add.reduceat(
                vals * gathered, (ptrs[:-1] - lo).astype(np.int64)
            )
        return out

    def _matvec_untraced(self, level: _Level, x: np.ndarray) -> np.ndarray:
        rowptr = level.rowptr.data
        out = np.add.reduceat(
            level.values.data * x[level.colidx.data], rowptr[:-1]
        )
        return out
