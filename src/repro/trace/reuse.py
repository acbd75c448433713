"""Reuse-distance and working-set analysis of address streams.

These analyses validate that the instrumented workload kernels have the
locality signature the paper's benchmarks are chosen for (e.g. the CG
gather is irregular, the BT sweep is strided) and support sizing the
scaled experiments: a cache of capacity C (in lines) hits every access
whose LRU reuse distance is < C / associativity-conflicts, so the reuse
CDF predicts hit rates across the whole capacity sweep at once.

Two implementations are provided:

- :func:`reuse_distances` — the default, a fully vectorized offline
  divide-and-conquer (CDQ) pass. The per-access stack distance is
  rewritten as a difference of two *prefix rank counts* over the
  previous-occurrence array, and every (point, query) pair is counted
  at exactly one merge level, so the whole trace resolves in
  O(log n) numpy sorts instead of a per-access Python loop.
- :func:`reuse_distances_fenwick` — the original Bennett–Kruskal
  Fenwick-tree loop, kept as the bit-exact reference for differential
  tests and the `bench_reuse_profile` microbenchmark.

:func:`lru_hits` answers only "is the distance below ``ways``?",
which bounded forward scans decide faster than the full distance
pass. Its consumer is the exact counts-only pricing of a last-level
LRU cache, :meth:`repro.cache.setassoc.SetAssociativeCache.count_lru`.
"""

from __future__ import annotations

import numpy as np

from repro.trace.stream import AddressStream

#: Reuse distance reported for cold (first-touch) accesses.
COLD_DISTANCE: int = -1


def previous_occurrences(
    lines: np.ndarray, order: np.ndarray | None = None
) -> np.ndarray:
    """Index of the previous access to the same line, -1 for first touch.

    The backbone of the vectorized distance pass: one stable argsort
    groups accesses by line in time order, so each access's predecessor
    is simply its left neighbour within the group. A caller that
    already holds that argsort passes it as ``order``.
    """
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    if order is None:
        order = np.argsort(lines, kind="stable")
    grouped = lines[order]
    same = grouped[1:] == grouped[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _prefix_rank_counts(
    values: np.ndarray, query_pos: np.ndarray, query_vals: np.ndarray
) -> np.ndarray:
    """``out[k] = #{j < query_pos[k] : values[j] <= query_vals[k]}``.

    Offline 2-D dominance counting, fully vectorized: at merge level
    ``w`` the positions split into blocks of width ``w``, and queries
    in odd blocks count the points in their pair's even block. Every
    (j < m) pair lands in exactly one level — the one where the two
    positions' blocks first merge — so the counts are exact.

    Block membership is purely positional, so each level's even-block
    points are a reshape slice (no boolean gather), sorted *per row*
    (O(n log w) instead of a full O(n log n) sort per level), and the
    flat row offsets are ``pair * w`` by construction — queries need a
    single ``searchsorted`` against pair-offset keys, not a lower and
    an upper one.
    """
    n = len(values)
    q = len(query_pos)
    out = np.zeros(q, dtype=np.int64)
    if n == 0 or q == 0:
        return out
    # Shift values so the smallest (COLD_DISTANCE's -1) maps to 0 and
    # keys within a pair stay in [pair*M, pair*M + M). The pad
    # sentinel M-1 exceeds every shifted query value, so padding rows
    # to equal width never perturbs a count.
    m_span = np.int64(n + 2)
    vals = values.astype(np.int64) + 1
    qvals = query_vals.astype(np.int64) + 1
    qpos = query_pos.astype(np.int64)
    for shift in range(max(1, n - 1).bit_length()):
        qblock = qpos >> shift
        odd = (qblock & 1) == 1
        if not odd.any():
            continue
        w = 1 << shift
        period = 2 * w
        pairs = (n + period - 1) // period
        padded = np.full(pairs * period, m_span - 1, dtype=np.int64)
        padded[:n] = vals
        rows = np.sort(padded.reshape(pairs, period)[:, :w], axis=1)
        qpair = qblock[odd] >> 1
        rows += (np.arange(pairs, dtype=np.int64) * m_span)[:, None]
        hi = np.searchsorted(
            rows.reshape(-1), qpair * m_span + qvals[odd], side="right"
        )
        out[odd] += hi - qpair * w
    return out


def _distances_run_heads(lines: np.ndarray) -> np.ndarray:
    """Stack distances for a stream with no immediate repeats."""
    n = len(lines)
    distances = np.full(n, COLD_DISTANCE, dtype=np.int64)
    if n == 0:
        return distances
    prev = previous_occurrences(lines)
    warm = np.flatnonzero(prev >= 0)
    if len(warm) == 0:
        return distances
    p = prev[warm]
    distances[warm] = _prefix_rank_counts(prev, warm, p) - (p + 1)
    return distances


def distances_for_lines(lines: np.ndarray) -> np.ndarray:
    """LRU stack distance of every access, given per-access line ids.

    The distance of access ``i`` with previous occurrence ``p`` is the
    number of distinct lines in ``(p, i)`` — the count of accesses
    ``j`` in that window that are the *first* touch of their line
    within it, i.e. with ``prev[j] <= p``. Splitting the window at
    ``p``: the count up to ``p`` is exactly ``p + 1`` (``prev[j] < j``
    always), so one prefix rank count per warm access suffices.

    Immediate repeats of the preceding line are collapsed before the
    dominance pass: a repeat has distance 0 by definition and never
    adds a distinct line to any other access's window, so only run
    heads go through the full computation. At page granularity
    high-locality streams collapse substantially — the same run
    structure the exact engine's run-collapse path exploits.
    """
    n = len(lines)
    if n == 0:
        return np.full(0, COLD_DISTANCE, dtype=np.int64)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    if head.all():
        return _distances_run_heads(lines)
    distances = np.zeros(n, dtype=np.int64)  # repeats: distance 0
    idx = np.flatnonzero(head)
    distances[idx] = _distances_run_heads(lines[idx])
    return distances


#: Window positions :func:`lru_hits` scans per access, ``ways`` per
#: vectorized pass, before it counts the still-undecided accesses one
#: by one. A speed knob only: every value gives the same result.
LRU_SCAN_POSITIONS = 64


def lru_hits(
    lines: np.ndarray, ways: int, order: np.ndarray | None = None
) -> np.ndarray:
    """Which accesses hit a ``ways``-entry LRU stack, given line ids.

    Equal to ``(d >= 0) & (d < ways)`` for ``d =
    distances_for_lines(lines)``, without computing the distances:
    access ``i`` with previous occurrence ``p`` hits iff fewer than
    ``ways`` positions ``j`` in ``(p, i)`` have ``prev[j] <= p`` (see
    :func:`distances_for_lines`). A window shorter than ``ways`` is a
    hit outright. Longer windows are scanned forward for all
    undecided accesses at once, ``ways`` positions per pass; a scan
    stops once it has counted ``ways`` first touches (a miss) or
    reached ``i`` (a hit). What the first
    :data:`LRU_SCAN_POSITIONS` positions leave undecided is counted
    exactly, one window at a time.

    The exact counts-only pricing of a one-cache LRU chain
    (:meth:`repro.cache.setassoc.SetAssociativeCache.count_lru`) calls
    this on its set-sorted block stream, where every window stays
    inside one set, passing the stable argsort of ``lines`` it already
    holds as ``order``.
    """
    n = len(lines)
    hits = np.ones(n, dtype=bool)  # immediate repeats hit
    if n == 0:
        return hits
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    idx = np.flatnonzero(head)
    if order is not None and len(idx) < n:
        # The run heads keep their relative order within each line.
        order = (np.cumsum(head) - 1)[order[head[order]]]
    hits[idx] = _lru_hits_run_heads(lines[idx], ways, order)
    return hits


def _lru_hits_run_heads(
    lines: np.ndarray, ways: int, order: np.ndarray | None
) -> np.ndarray:
    """:func:`lru_hits` for a stream with no immediate repeats."""
    prev = previous_occurrences(lines, order)
    hits = np.zeros(len(lines), dtype=bool)
    warm = np.flatnonzero(prev >= 0)
    p = prev[warm]
    short = warm - p - 1 < ways
    hits[warm[short]] = True
    query, p = warm[~short], p[~short]
    seen = np.zeros(len(query), dtype=np.int64)
    scanned = 0
    while len(query) and scanned < LRU_SCAN_POSITIONS:
        # One pass scans the next ``ways`` positions of every window;
        # positions at or past ``i`` are masked out (and clamped to it).
        for _ in range(min(ways, LRU_SCAN_POSITIONS - scanned)):
            scanned += 1
            j = p + scanned
            inside = j < query
            np.minimum(j, query, out=j)
            inside &= prev[j] <= p
            seen += inside
        below = seen < ways
        ended = query - p - 1 <= scanned
        hits[query[ended & below]] = True
        undecided = below & ~ended
        query, p, seen = query[undecided], p[undecided], seen[undecided]
    for i, start in zip(query.tolist(), p.tolist()):
        hits[i] = np.count_nonzero(prev[start + 1:i] <= start) < ways
    return hits


def _line_shift(line_size: int) -> np.uint64:
    return np.uint64(int(line_size).bit_length() - 1)


def reuse_distances(stream: AddressStream, line_size: int = 64) -> np.ndarray:
    """LRU stack (reuse) distance of every access, at line granularity.

    The reuse distance of an access is the number of *distinct* lines
    touched since the previous access to the same line; cold misses get
    :data:`COLD_DISTANCE`.

    Vectorized offline implementation (see the module docstring);
    bit-identical to :func:`reuse_distances_fenwick`.

    Returns:
        int64 array of per-access distances.
    """
    batch = stream.as_batch()
    lines = (batch.addresses >> _line_shift(line_size)).astype(np.int64)
    return distances_for_lines(lines)


def reuse_distances_fenwick(
    stream: AddressStream, line_size: int = 64
) -> np.ndarray:
    """Reference Bennett–Kruskal implementation (per-access Fenwick loop).

    A Fenwick (binary indexed) tree over access timestamps holds a 1 at
    each line's most-recent access time; the stack distance of an
    access at time t to a line last touched at t_prev is the number of
    ones in (t_prev, t). O(log n) per access but pure Python per
    update — kept as the differential-test oracle and microbenchmark
    baseline for :func:`reuse_distances`.
    """
    shift = _line_shift(line_size)
    n = len(stream)
    distances = np.empty(n, dtype=np.int64)
    tree = np.zeros(n + 2, dtype=np.int64)  # Fenwick, 1-indexed times

    def add(i: int, delta: int) -> None:
        i += 1
        while i < len(tree):
            tree[i] += delta
            i += i & (-i)

    def prefix(i: int) -> int:
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    last_time: dict[int, int] = {}
    t = 0
    live = 0  # ones currently in the tree == distinct lines seen
    for chunk in stream.chunks():
        for line in (chunk.addresses >> shift).tolist():
            prev = last_time.get(line)
            if prev is None:
                distances[t] = COLD_DISTANCE
                live += 1
            else:
                # ones strictly after prev == live - prefix(prev)
                distances[t] = live - prefix(prev)
                add(prev, -1)
            add(t, 1)
            last_time[line] = t
            t += 1
    return distances


def hit_rate_at_capacity(distances: np.ndarray, capacity_lines: int) -> float:
    """Fully-associative LRU hit rate predicted by a reuse profile.

    An access hits a fully-associative LRU cache of ``capacity_lines``
    iff its reuse distance is in ``[0, capacity_lines)``.
    """
    if len(distances) == 0:
        return 0.0
    hits = np.count_nonzero((distances >= 0) & (distances < capacity_lines))
    return hits / len(distances)


def working_set_curve(
    stream: AddressStream,
    window_sizes: list[int],
    line_size: int = 64,
) -> dict[int, float]:
    """Average working-set size (distinct lines) per window size.

    Denning's working set W(t, τ): for each window of τ consecutive
    accesses, count distinct lines; average over non-overlapping
    windows.

    Returns:
        Mapping window size -> mean distinct line count.
    """
    shift = _line_shift(line_size)
    batch = stream.as_batch()
    lines = batch.addresses >> shift
    result: dict[int, float] = {}
    n = len(lines)
    for tau in window_sizes:
        if tau <= 0 or n == 0:
            result[tau] = 0.0
            continue
        counts = []
        for start in range(0, n - tau + 1, tau):
            counts.append(len(np.unique(lines[start : start + tau])))
        if not counts:  # stream shorter than one window
            counts = [len(np.unique(lines))]
        result[tau] = float(np.mean(counts))
    return result


def footprint_lines(stream: AddressStream, line_size: int = 64) -> int:
    """Total number of distinct lines the stream touches."""
    shift = _line_shift(line_size)
    seen: set[int] = set()
    for chunk in stream.chunks():
        seen.update(np.unique(chunk.addresses >> shift).tolist())
    return len(seen)
