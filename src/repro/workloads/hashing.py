"""CORAL Hash: integer hashing benchmark.

The CORAL "Hash" benchmark measures integer-op and memory performance
of hash-table construction and probing — the access pattern of
memory-intensive genomics pipelines. Its signature is uniformly random
probes over a table far larger than any cache, with linear-probe bursts
on collisions.

We implement a real open-addressing (linear probing) hash table with
multiplicative hashing: a traced build phase inserting random keys,
then a traced probe phase of hits and misses, verified against NumPy
set-membership ground truth.

Probing is processed in vectorized *rounds*: each round gathers the
resident keys of every still-pending operation (one traced random
gather), resolves matches/claims, and advances the collided remainder
by one slot. The traced address sequence is the same set of probes a
scalar loop would issue, batched per round.

Traced regions: ``hash.keys``, ``hash.values`` (the table arrays),
``hash.input`` (the sequential key stream).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.trace.tracer import Tracer
from repro.workloads.base import TraceResult, Workload, rng_for
from repro.workloads.registry import SUITE

#: Fibonacci multiplicative hashing constant (Knuth).
_HASH_MULT = np.uint64(11400714819323198485)
#: Table load factor after the build phase.
_LOAD_FACTOR: float = 0.4
#: Sentinel for an empty slot.
_EMPTY = np.int64(-1)
#: Bytes per table slot: key (8) + value (8).
_BYTES_PER_SLOT: int = 16
#: Fraction of the Table 4 footprint occupied by the hash table itself.
#: The published inputs are "-m 30M": 30M slots × 16 B = 480 MB of the
#: 4 GB/core footprint (the rest is input staging and I/O buffers that
#: the hashing kernel does not re-touch). Sizing the hot table from the
#: real inputs is what makes it — as on the paper's testbed — fit
#: almost entirely inside a 512 MB DRAM cache.
HOT_FRACTION: float = 480.0 / 4096.0


def _hash_slots(keys: np.ndarray, table_bits: int) -> np.ndarray:
    """Multiplicative hash of int64 keys into table slots."""
    h = keys.astype(np.uint64) * _HASH_MULT
    return (h >> np.uint64(64 - table_bits)).astype(np.int64)


class HashingWorkload(Workload):
    """CORAL Hashing-2 analog."""

    info = SUITE["Hashing"]

    def __init__(self, ops_per_slot: float = 0.55, probe_batch: int = 16384) -> None:
        #: Total build+probe operations as a fraction of table slots.
        self.ops_per_slot = ops_per_slot
        self.probe_batch = probe_batch

    def trace(self, scale: float = 1.0 / 256, seed: int = 0) -> TraceResult:
        target = int(self.scaled_footprint_bytes(scale) * HOT_FRACTION)
        table_bits = max(10, round(np.log2(max(2, target // _BYTES_PER_SLOT))))
        n_slots = 1 << table_bits
        n_inserts = int(n_slots * _LOAD_FACTOR)
        n_lookups = max(64, int(n_slots * self.ops_per_slot) - n_inserts)
        rng = rng_for(seed)
        tracer = Tracer()

        with tracer.pause():
            keys = tracer.array("hash.keys", (n_slots,), dtype=np.int64)
            keys.data[:] = _EMPTY
            values = tracer.array("hash.values", (n_slots,), dtype=np.int64)
            # Unique positive keys.
            insert_keys = rng.choice(
                np.int64(2) ** 62, size=n_inserts, replace=False
            ).astype(np.int64)
            # Lookup mix: ~half present, ~half absent.
            present = rng.choice(insert_keys, size=n_lookups // 2, replace=True)
            absent = rng.integers(
                2**62, 2**62 + 2**32, size=n_lookups - n_lookups // 2
            ).astype(np.int64)
            lookup_keys = np.concatenate([present, absent])
            rng.shuffle(lookup_keys)
            input_stream = tracer.array(
                "hash.input",
                (n_inserts + len(lookup_keys),),
                dtype=np.int64,
            )
            input_stream.data[:n_inserts] = insert_keys
            input_stream.data[n_inserts:] = lookup_keys

        inserted = self._insert_phase(keys, values, input_stream, n_inserts, table_bits)
        found = self._probe_phase(
            keys, values, input_stream, n_inserts, len(lookup_keys), table_bits
        )

        with tracer.pause():
            expected_found = int(np.isin(lookup_keys, insert_keys).sum())

        return TraceResult(
            stream=tracer.stream,
            tracer=tracer,
            checks={
                "slots": n_slots,
                "inserted": inserted,
                "lookups": len(lookup_keys),
                "found": found,
                "expected_found": expected_found,
                "correct": found == expected_found and inserted == n_inserts,
            },
        )

    # -- traced kernels -------------------------------------------------------

    def _insert_phase(self, keys, values, input_stream, n_inserts, table_bits) -> int:
        """Linear-probing inserts in vectorized probe rounds."""
        mask = (1 << table_bits) - 1
        inserted = 0
        batch = self.probe_batch
        for start in range(0, n_inserts, batch):
            stop = min(start + batch, n_inserts)
            pending_keys = input_stream[start:stop]  # sequential load
            pending_slots = _hash_slots(pending_keys, table_bits)
            rounds = 0
            while len(pending_keys):
                rounds += 1
                if rounds > mask:  # pragma: no cover - sized for load factor
                    raise SimulationError("hash table unexpectedly full")
                resident = keys[pending_slots]  # traced random gather
                empty = resident == _EMPTY
                # Within a round, only the first claimant of each empty
                # slot wins; losers re-probe the next slot like a scalar
                # loop would after the winner's store.
                claim_positions = np.flatnonzero(empty)
                if len(claim_positions):
                    _, first = np.unique(
                        pending_slots[claim_positions], return_index=True
                    )
                    winners = claim_positions[first]
                    win_slots = pending_slots[winners]
                    win_keys = pending_keys[winners]
                    keys[win_slots] = win_keys  # traced scatter store
                    values[win_slots] = win_keys ^ 0x5A5A  # traced store
                    inserted += len(winners)
                    won = np.zeros(len(pending_keys), dtype=bool)
                    won[winners] = True
                else:
                    won = np.zeros(len(pending_keys), dtype=bool)
                # Done: winners, or keys already present (defensive —
                # insert keys are unique so matches should not happen).
                done = won | (resident == pending_keys)
                pending_keys = pending_keys[~done]
                pending_slots = (pending_slots[~done] + 1) & mask
        return inserted

    def _probe_phase(
        self, keys, values, input_stream, n_inserts, n_lookups, table_bits
    ) -> int:
        """Linear-probing lookups in vectorized rounds; returns hits."""
        mask = (1 << table_bits) - 1
        found = 0
        batch = self.probe_batch
        for start in range(0, n_lookups, batch):
            stop = min(start + batch, n_lookups)
            pending_keys = input_stream[n_inserts + start : n_inserts + stop]
            pending_slots = _hash_slots(pending_keys, table_bits)
            rounds = 0
            while len(pending_keys):
                rounds += 1
                if rounds > mask:  # pragma: no cover
                    break
                resident = keys[pending_slots]  # traced random gather
                hit = resident == pending_keys
                if hit.any():
                    _ = values[pending_slots[hit]]  # traced value loads
                    found += int(hit.sum())
                miss = resident == _EMPTY
                done = hit | miss
                pending_keys = pending_keys[~done]
                pending_slots = (pending_slots[~done] + 1) & mask
        return found
