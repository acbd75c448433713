"""The vectorized LRU step against the scalar loop.

A non-sectored LRU level under the ``auto`` engine hands every batch
too thin for set-parallel rounds to
``SetAssociativeCache._process_runs_lru_step`` once it holds at least
``LRU_STEP_MIN_RUNS`` runs; the ``scalar`` engine keeps the per-run
loop. These tests hold the two to identical statistics, emitted
requests (addresses, sizes and kinds, in order), per-set MRU order and
dirty sets on warm caches: several batches, prefetch inserts and
flushes between them, end-of-stream drains, and the cut-off swept from
"always the step" to "never".
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.setassoc as setassoc
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import Hierarchy
from repro.cache.setassoc import SetAssociativeCache
from repro.experiments.runner import CapturingMemory
from repro.trace.events import AccessBatch
from repro.trace.stream import AddressStream

#: Always the step, the shipped cut-off, never the step.
CUTOFFS = [0, setassoc.LRU_STEP_MIN_RUNS, 1 << 62]


def make_cache(engine, sets, ways, hashed, name="L"):
    return SetAssociativeCache(CacheConfig(
        name, sets * ways * 64, ways, 64, hashed_sets=hashed,
    ), engine)


def emitted(batch):
    return (
        batch.addresses.tolist(), batch.sizes.tolist(),
        batch.is_store.tolist(),
    )


def replay(engine, cutoff, batches, between, sets, ways, hashed):
    """Everything one cache emits over the batches, a step after each
    (a block to insert, ``"flush"`` or ``None``) and a final flush,
    plus its end state."""
    old = setassoc.LRU_STEP_MIN_RUNS
    setassoc.LRU_STEP_MIN_RUNS = cutoff
    try:
        cache = make_cache(engine, sets, ways, hashed)
        out = []
        for batch, step in zip(batches, between):
            out.append(emitted(cache.process(batch)))
            if step == "flush":
                out.append(emitted(cache.flush_dirty()))
            elif step is not None:
                out.append(emitted(cache.insert_block(step)))
            state = ([list(s) for s in cache._sets], set(cache._dirty))
            out.append(state)
        out.append(emitted(cache.flush_dirty()))
    finally:
        setassoc.LRU_STEP_MIN_RUNS = old
    return out, cache.stats.as_dict(), cache._sets, cache._dirty


def assert_step_matches_loop(cutoff, batches, between, sets, ways, hashed):
    step = replay("auto", cutoff, batches, between, sets, ways, hashed)
    loop = replay("scalar", cutoff, batches, between, sets, ways, hashed)
    assert step[0] == loop[0]
    assert step[1] == loop[1]
    assert step[2] == loop[2]
    assert step[3] == loop[3]


def make_batches(blocks, offsets, stores, cuts):
    addresses = (
        np.asarray(blocks, dtype=np.uint64) * np.uint64(64)
        + np.asarray(offsets, dtype=np.uint64) * np.uint64(8)
    )
    stores = np.asarray(stores, dtype=np.uint8)
    bounds = [0] + sorted(set(cuts)) + [len(addresses)]
    return [
        AccessBatch.from_lists(addresses[lo:hi], 8, stores[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


levels = st.fixed_dictionaries({
    "sets": st.sampled_from([1, 2, 4, 8, 16]),
    "ways": st.integers(1, 20),
    "hashed": st.booleans(),
})


@given(
    level=levels,
    accesses=st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 7)),
        min_size=3, max_size=400,
    ),
    store_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    cuts=st.lists(st.integers(1, 399), min_size=2, max_size=6),
    between=st.lists(
        st.one_of(st.none(), st.just("flush"), st.integers(0, 300)),
        min_size=7, max_size=7,
    ),
    cutoff=st.sampled_from(CUTOFFS),
)
@settings(max_examples=200, deadline=None)
def test_random_batches(level, accesses, store_fraction, seed, cuts,
                        between, cutoff):
    blocks, offsets = zip(*accesses)
    stores = np.random.default_rng(seed).random(len(accesses)) < store_fraction
    cuts = [c for c in cuts if c < len(accesses)]
    batches = make_batches(blocks, offsets, stores, cuts)
    assert_step_matches_loop(cutoff, batches, between, **level)


@given(
    level=levels,
    length=st.integers(1500, 6000),
    span=st.sampled_from([8, 40, 300, 5000]),
    store_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    pieces=st.integers(3, 6),
    cutoff=st.sampled_from(CUTOFFS),
)
@settings(max_examples=40, deadline=None)
def test_batches_either_side_of_the_cutoff(level, length, span,
                                           store_fraction, seed, pieces,
                                           cutoff):
    """Long skewed streams cut into batches both below and above the
    shipped cut-off, so both paths meet on one warm cache."""
    rng = np.random.default_rng(seed)
    blocks = rng.zipf(1.3, size=length) % span
    offsets = rng.integers(0, 8, size=length)
    stores = rng.random(length) < store_fraction
    cuts = rng.integers(1, length, size=pieces - 1).tolist()
    between = [
        [None, "flush", int(rng.integers(0, span))][rng.integers(3)]
        for _ in range(pieces)
    ]
    batches = make_batches(blocks, offsets, stores, cuts)
    assert_step_matches_loop(cutoff, batches, between, **level)


def run_hierarchy(engine, cutoff, stream, drain):
    old = setassoc.LRU_STEP_MIN_RUNS
    setassoc.LRU_STEP_MIN_RUNS = cutoff
    try:
        caches = [
            make_cache(engine, 1, 8, False, "L1"),
            make_cache(engine, 2, 8, True, "L2"),
            make_cache(engine, 4, 20, True, "L3"),
        ]
        capture = CapturingMemory()
        stats = Hierarchy(caches, capture).run(stream, drain=drain)
    finally:
        setassoc.LRU_STEP_MIN_RUNS = old
    return (
        [level.as_dict() for level in stats.levels],
        emitted(capture.captured.as_batch()),
        [(c._sets, c._dirty) for c in caches],
    )


@pytest.mark.parametrize("drain", [False, True])
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_pyramid_chunks_and_drain(cutoff, drain):
    """A three-level pyramid over a chunked stream, with and without
    the end-of-stream drain: every level's stats, the post-L3 stream
    and every end state equal the loop's."""
    rng = np.random.default_rng(5)
    n = 20_000
    blocks = np.where(
        rng.random(n) < 0.7,
        np.arange(n) // 6,  # streaming runs
        rng.integers(0, 400, size=n),  # scattered reuses
    )
    addresses = blocks.astype(np.uint64) * np.uint64(64)
    stream = AddressStream.from_arrays(
        addresses, 8, (rng.random(n) < 0.3).astype(np.uint8),
        chunk_events=3_000,
    )
    step = run_hierarchy("auto", cutoff, stream, drain)
    loop = run_hierarchy("scalar", cutoff, stream, drain)
    assert step == loop


def test_cutoff_decides_the_path(monkeypatch):
    """The step prices a batch of at least the cut-off's runs, the loop
    a smaller one, and the scalar engine never takes the step."""
    calls = []
    real = SetAssociativeCache._process_runs_lru_step

    def counted(self, run_blocks, *args):
        calls.append(len(run_blocks))
        return real(self, run_blocks, *args)

    monkeypatch.setattr(
        SetAssociativeCache, "_process_runs_lru_step", counted
    )
    monkeypatch.setattr(setassoc, "LRU_STEP_MIN_RUNS", 100)
    batch = AccessBatch.from_lists(
        np.arange(150, dtype=np.uint64) * np.uint64(64), 8,
        np.zeros(150, dtype=np.uint8),
    )
    make_cache("auto", 2, 4, False).process(batch)
    assert calls == [150]
    make_cache("auto", 2, 4, False).process(batch.slice(0, 99))
    make_cache("scalar", 2, 4, False).process(batch)
    assert calls == [150]


@pytest.mark.telemetry
def test_telemetry_counts_step_runs_as_vector(tmp_path):
    """Runs the step prices count under ``path="vector"``, so the
    report's per-level vector fraction says what ran."""
    from repro.telemetry.core import Telemetry, activate
    from repro.telemetry.observatory import aggregate_run
    from repro.experiments.runner import Runner
    from repro.workloads.registry import get_workload

    telemetry = Telemetry(tmp_path)
    with activate(telemetry):
        Runner(scale=1.0 / 4096, seed=7, telemetry=telemetry).prepare(
            get_workload("Hashing")
        )
    telemetry.close()
    fractions = aggregate_run(tmp_path).vector_fractions()
    assert fractions["L1"] == 1.0
    events = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    engines = {
        e["level"]: e["engine"]
        for e in events if e["kind"] == "engine_selected"
    }
    assert engines["L1"] == "setpar"
