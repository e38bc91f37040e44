"""Conflict-free *oblivious* sorting, merging and permutation kernels.

The naive kernels in :mod:`~repro.core.kernels.sorting`,
:mod:`~repro.core.kernels.merge` and
:mod:`~repro.core.kernels.permutation` schedule their accesses from
the data, so a captured trace of one of them is valid for its own
input only.  This module implements the input-independent
constructions from the
bank-conflict-free line of work — Sitchinava & Weichert, *Bank Conflict
Free Comparison-based Sorting On GPUs*, and Afshani & Sitchinava,
*Sorting and Permuting without Bank Conflicts on GPUs* (both in
PAPERS.md) — whose access streams depend only on the launch shape.
That buys three things at once:

1. **No avoidable bank conflicts.**  Every warp transaction touches
   pairwise-distinct banks (DMM) or a minimal number of address groups
   (UMM): ``slots == ceil(#addresses / w)`` for every transaction, the
   information-theoretic floor.  The trace-level checker in
   :mod:`repro.analysis.certify` verifies this machine-checked.
2. **Replay for every input.**  Because the addresses never depend on
   the stored values, the compiled trace of one capture re-prices
   any latency/policy, and every input of a shape produces
   that same trace (the :mod:`repro.analysis.certify` pass checks it).
3. **Tuner certificates.**  A conflict-free run is a
   ``certificate: "conflict-free"`` early exit for the autotuner.

How the sorting network avoids conflicts
----------------------------------------

Batcher's bitonic network compares pairs ``(i, i | j)`` at stride
``j``.  For ``j >= w`` the lane-per-pair schedule already issues
contiguous transactions (degree-1); the conflicts live in the ``log w``
sub-warp stages, where natural strided addressing is 2-way conflicted.
Following Sitchinava-Weichert, the sub-warp stages reorganize the
*access layout* instead of the network: each warp loads a contiguous
block of ``2w`` elements (two degree-1 transactions), performs the
compare-exchange shuffles in registers — lane-local numpy here, warp
shuffles on real hardware — and stores the block back contiguously.
Unfused, this issues *exactly* the same number of transactions and
requests as the strided schedule, just conflict-free; fused
(``fused=True``), one load/store pass covers every remaining sub-warp
stage of the phase, the same burst structure the paper uses for its
``O(n log n / w)`` shared-memory term.

The merge is the bitonic merger applied to the bitonic sequence
``[a ascending, +inf padding, b reversed]`` — an oblivious
``O((n/w + nl/p + l) log n)`` merge, conflict-free by the same layout.

The permutation generalizes :func:`~repro.core.kernels.permutation
.conflict_free_permutation_schedule`'s König/Hall round decomposition
to **arbitrary sizes and DMM/HMM widths**: when ``w`` does not divide
``n`` the bipartite (source bank -> destination bank) multigraph is
completed to ``ceil(n/w)``-regular with virtual fixed points, which the
kernel masks off lane-wise.  Because the permutation is *offline* —
``pi`` and its schedule are part of the launch closure, hashed into the
replay launch key — the kernel is replay-eligible even though its
addresses depend on ``pi``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.engine import MachineEngine
from repro.machine.hmm import HMMEngine, split_threads
from repro.machine.memory import ArrayHandle
from repro.machine.report import RunReport
from repro.machine.trace import TraceRecorder
from repro.machine.warp import WarpContext
from repro.params import next_power_of_two
from repro.core.kernels.contiguous import copy_range_steps
from repro.core.kernels.sorting import compare_exchange_steps

__all__ = [
    "cf_bitonic_sort_kernel",
    "cf_bitonic_merge_kernel",
    "oblivious_permutation_kernel",
    "generalized_permutation_schedule",
    "generalized_naive_schedule",
    "flat_cf_sort",
    "hmm_cf_sort",
    "flat_cf_merge",
    "flat_cf_permutation",
    "hmm_cf_permutation",
]


def _require_power_of_two_width(width: int) -> None:
    if width < 1 or width & (width - 1):
        raise ConfigurationError(
            "conflict-free kernels require a power-of-two machine width "
            f"(the strided stages rely on w | j), got w={width}"
        )


# ---------------------------------------------------------------------------
# Block machinery: contiguous gather / in-register shuffle / scatter.
# ---------------------------------------------------------------------------


def _gather_block(warp: WarpContext, arr: ArrayHandle, base: int, size: int):
    """Read ``arr[base : base + size)`` in contiguous lane-rounds.

    Every transaction covers consecutive addresses, so it is degree-1 on
    the DMM for any lane count ``<= w``.  Returns the block as one
    vector (the warp's "registers").
    """
    lanes = warp.num_lanes
    parts = []
    r = 0
    while r * lanes < size:
        take = min(lanes, size - r * lanes)
        idx = r * lanes + warp.lanes
        if take == lanes:
            vals = yield warp.read(arr, base + idx)
            parts.append(vals)
        else:
            mask = idx < size
            vals = yield warp.read(arr, base + np.where(mask, idx, 0),
                                   mask=mask)
            parts.append(vals[:take])
        r += 1
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _scatter_block(warp: WarpContext, arr: ArrayHandle, base: int,
                   values: np.ndarray):
    """Write ``values`` back to ``arr[base : base + len(values))``
    contiguously (the inverse of :func:`_gather_block`)."""
    lanes = warp.num_lanes
    size = values.size
    r = 0
    while r * lanes < size:
        take = min(lanes, size - r * lanes)
        idx = r * lanes + warp.lanes
        if take == lanes:
            yield warp.write(arr, base + idx, values[idx])
        else:
            mask = idx < size
            safe = np.where(mask, idx, 0)
            yield warp.write(arr, base + safe, values[safe], mask=mask)
        r += 1


def _pair_indices(size: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Local (lo, hi) indices of the stride-``j`` pairs within a block."""
    q = np.arange(size // 2, dtype=np.int64)
    lo = ((q & ~(j - 1)) << 1) | (q & (j - 1))
    return lo, lo | j


def _cf_block_stages(
    warp: WarpContext,
    arr: ArrayHandle,
    offset: int,
    count: int,
    j_top: int,
    j_stop: int,
    k: int,
    block: int,
    worker: int,
    num_workers: int,
    *,
    global_base: int = 0,
):
    """Stages ``j_top, j_top/2, .., j_stop`` of phase ``k``, block-wise.

    Requires ``2 * j_top <= block`` so every pair is block-internal;
    blocks are then independent at each sub-stage, which is what makes
    fusing them into one gather/shuffle/scatter pass legal.
    """
    nblocks = count // block
    for b in range(worker, nblocks, num_workers):
        base = offset + b * block
        x = yield from _gather_block(warp, arr, base, block)
        x = np.array(x, dtype=np.float64, copy=True)
        j = j_top
        while j >= j_stop:
            lo, hi = _pair_indices(block, j)
            gi = global_base + b * block + lo
            ascending = (gi & k) == 0
            lo_v, hi_v = x[lo], x[hi]
            small = np.minimum(lo_v, hi_v)
            big = np.maximum(lo_v, hi_v)
            x[lo] = np.where(ascending, small, big)
            x[hi] = np.where(ascending, big, small)
            yield warp.compute(1)
            j //= 2
        yield from _scatter_block(warp, arr, base, x)


def _merge_phase_steps(
    warp: WarpContext,
    arr: ArrayHandle,
    offset: int,
    count: int,
    k: int,
    j_start: int,
    *,
    fused: bool,
    global_base: int = 0,
    worker: int | None = None,
    num_workers: int | None = None,
    num_threads: int | None = None,
    tids: np.ndarray | None = None,
):
    """The stride chain ``j_start, j_start/2, .., 1`` of phase ``k``.

    Strides ``j >= w`` use the lane-per-pair schedule (contiguous,
    degree-1 for power-of-two ``w``); strides ``j < w`` switch to the
    conflict-avoiding block layout.  ``fused=True`` collapses every
    remaining sub-warp stage into one block pass.
    """
    width = warp.width
    block = min(2 * width, count)
    if worker is None:
        worker = warp.warp_id
    if num_workers is None:
        num_workers = -(-warp.num_threads // width)
    j = j_start
    while j >= 1:
        if 2 * j <= block and (fused or j < width):
            j_stop = 1 if fused else j
            yield from _cf_block_stages(
                warp, arr, offset, count, j, j_stop, k, block,
                worker, num_workers, global_base=global_base,
            )
            yield warp.barrier()
            if fused:
                return
            j //= 2
            continue
        yield from compare_exchange_steps(
            warp, arr, offset, count, j, k, global_base=global_base,
            num_threads=num_threads, tids=tids,
        )
        yield warp.barrier()
        j //= 2


# ---------------------------------------------------------------------------
# Sorting: the conflict-free bitonic network.
# ---------------------------------------------------------------------------


def cf_bitonic_sort_kernel(a: ArrayHandle, n: int, *, fused: bool = True):
    """Kernel: in-place ascending conflict-free bitonic sort of ``a[0..n)``.

    ``n`` must be a power of two (the launch helpers pad).  ``fused``
    collapses all remaining sub-warp stages of a phase into one
    load/shuffle/store burst per block (fewer transactions); unfused,
    the network issues exactly as many transactions as the naive strided
    schedule — just conflict-free.
    """
    if n < 1 or n & (n - 1):
        raise ConfigurationError(
            f"bitonic sort requires a power-of-two size, got {n}")

    def program(warp: WarpContext):
        _require_power_of_two_width(warp.width)
        k = 2
        while k <= n:
            yield from _merge_phase_steps(
                warp, a, 0, n, k, k // 2, fused=fused)
            k *= 2

    return program


def flat_cf_sort(
    engine: MachineEngine,
    values: np.ndarray,
    num_threads: int,
    *,
    fused: bool = True,
    trace: TraceRecorder | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Sort ``values`` ascending, conflict-free, on a flat machine."""
    _require_power_of_two_width(engine.params.width)
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size < 1:
        raise ConfigurationError("cannot sort an empty array")
    n = next_power_of_two(vals.size)
    a = engine.alloc(n, "cfsort.a")
    a.set(np.concatenate([vals, np.full(n - vals.size, np.inf)]))
    report = engine.launch(
        cf_bitonic_sort_kernel(a, n, fused=fused), num_threads,
        trace=trace, label="cf-sort",
    )
    return a.to_numpy()[: vals.size], report


def hmm_cf_sort(
    engine: HMMEngine,
    values: np.ndarray,
    num_threads: int,
    *,
    fused: bool = True,
    trace: TraceRecorder | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Conflict-free bitonic sort on the HMM.

    The structure of :func:`~repro.core.kernels.sorting.hmm_bitonic_sort`
    — chunk-local stages burst through the latency-1 shared memories,
    only the ``O(log^2 d)`` cross-chunk stages touch the global port —
    with the shared-memory stages running the Sitchinava-Weichert
    conflict-avoiding block layout instead of the strided schedule.
    """
    _require_power_of_two_width(engine.params.width)
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size < 1:
        raise ConfigurationError("cannot sort an empty array")
    n = next_power_of_two(vals.size)
    d = engine.params.num_dmms
    shares = split_threads(num_threads, d)
    avail = sum(1 for s in shares if s > 0)
    active = 1
    while active * 2 <= min(avail, n // 2 if n >= 2 else 1):
        active *= 2
    chunk = n // active

    a = engine.alloc_global(n, "cfsort.a")
    a.set(np.concatenate([vals, np.full(n - vals.size, np.inf)]))
    stage = [
        engine.alloc_shared(i, chunk if i < active else 1, "cfsort.stage")
        for i in range(d)
    ]
    shares = [0] * d
    for i, s in enumerate(split_threads(num_threads, active)):
        shares[i] = s

    def program(warp: WarpContext):
        i = warp.dmm_id
        q = warp.threads_in_dmm
        local = warp.local_tids
        base = i * chunk
        width = warp.width
        warps_in_dmm = -(-q // width)

        def shared_burst(k_now: int, j_top: int):
            yield from copy_range_steps(
                warp, a, base, stage[i], 0, chunk, num_threads=q, tids=local
            )
            yield warp.sync_dmm()
            j = j_top
            while j >= 1:
                block = min(2 * width, chunk)
                if 2 * j <= block and (fused or j < width):
                    j_stop = 1 if fused else j
                    yield from _cf_block_stages(
                        warp, stage[i], 0, chunk, j, j_stop, k_now, block,
                        warp.warp_in_dmm, warps_in_dmm, global_base=base,
                    )
                    yield warp.sync_dmm()
                    if fused:
                        break
                else:
                    yield from compare_exchange_steps(
                        warp, stage[i], 0, chunk, j, k_now,
                        global_base=base, num_threads=q, tids=local,
                    )
                    yield warp.sync_dmm()
                j //= 2
            yield from copy_range_steps(
                warp, stage[i], 0, a, base, chunk, num_threads=q, tids=local
            )

        k = 2
        while k <= n:
            j = k // 2
            while j >= 1:
                if j < chunk:
                    yield from shared_burst(k, j)
                    yield warp.barrier()
                    break
                yield from compare_exchange_steps(
                    warp, a, 0, n, j, k,
                    num_threads=warp.num_threads, tids=warp.tids,
                )
                yield warp.barrier()
                j //= 2
            k *= 2

    report = engine.launch(
        program, num_threads, threads_per_dmm=shares, trace=trace,
        label="hmm-cf-sort",
    )
    return a.to_numpy()[: vals.size], report


# ---------------------------------------------------------------------------
# Merging: the oblivious bitonic merger.
# ---------------------------------------------------------------------------


def cf_bitonic_merge_kernel(buf: ArrayHandle, m: int, *, fused: bool = True):
    """Kernel: sort the bitonic sequence ``buf[0..m)`` ascending.

    One phase of the bitonic network (``j = m/2 .. 1``, all comparators
    ascending) — the classic oblivious merger.  ``m`` must be a power of
    two; the launch helper stages ``[a, +inf pad, reversed(b)]`` which
    is bitonic whenever ``a`` and ``b`` are sorted.
    """
    if m < 1 or m & (m - 1):
        raise ConfigurationError(
            f"bitonic merge requires a power-of-two size, got {m}")

    def program(warp: WarpContext):
        _require_power_of_two_width(warp.width)
        # k = 2m keeps every comparator ascending: (gi & 2m) == 0 always.
        yield from _merge_phase_steps(
            warp, buf, 0, m, 2 * m, m // 2, fused=fused)

    return program


def flat_cf_merge(
    engine: MachineEngine,
    a_values: np.ndarray,
    b_values: np.ndarray,
    num_threads: int,
    *,
    fused: bool = True,
    trace: TraceRecorder | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Merge two sorted arrays obliviously and conflict-free.

    Unlike :func:`~repro.core.kernels.merge.flat_merge` (merge-path:
    data-dependent diagonal searches, one trace per input), the bitonic
    merger's addresses depend only on the sizes — the trade is
    ``O(n log n)`` comparator work for one trace per shape and zero
    conflicts.
    """
    _require_power_of_two_width(engine.params.width)
    av = np.asarray(a_values, dtype=np.float64).ravel()
    bv = np.asarray(b_values, dtype=np.float64).ravel()
    if av.size + bv.size < 1:
        raise ConfigurationError("merge requires at least one element")
    if av.size > 1 and (np.diff(av) < 0).any():
        raise ConfigurationError("first input is not sorted")
    if bv.size > 1 and (np.diff(bv) < 0).any():
        raise ConfigurationError("second input is not sorted")
    n = av.size + bv.size
    m = next_power_of_two(n)
    # [ascending, +inf plateau, descending] is bitonic.
    staged = np.concatenate([av, np.full(m - n, np.inf), bv[::-1]])
    buf = engine.alloc(m, "cfmerge.buf")
    buf.set(staged)
    report = engine.launch(
        cf_bitonic_merge_kernel(buf, m, fused=fused), num_threads,
        trace=trace, label="cf-merge",
    )
    return buf.to_numpy()[:n], report


# ---------------------------------------------------------------------------
# Permutation: generalized offline round decomposition, any n, any width.
# ---------------------------------------------------------------------------


def _check_permutation(perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64).ravel()
    n = perm.size
    if n < 1:
        raise ConfigurationError("permutation must be non-empty")
    if perm.min() < 0 or perm.max() >= n:
        raise ConfigurationError("permutation values out of range")
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise ConfigurationError(
            "input is not a permutation (duplicate values)")
    return perm


def generalized_naive_schedule(n: int, width: int) -> np.ndarray:
    """In-order schedule for any ``n``: element ``i`` moves in round
    ``i // w``; the short final round idles the trailing lanes (entries
    ``>= n`` are virtual and masked off by the kernel)."""
    if n < 1 or width < 1:
        raise ConfigurationError("n and width must be >= 1")
    rounds = -(-n // width)
    return np.arange(rounds * width, dtype=np.int64).reshape(rounds, width)


def generalized_permutation_schedule(perm: np.ndarray,
                                     width: int) -> np.ndarray:
    """Conflict-free round decomposition for **any** ``n`` and ``width``.

    Extends :func:`~repro.core.kernels.permutation
    .conflict_free_permutation_schedule` past the ``w | n`` restriction:
    the (source bank -> destination bank) multigraph is completed to
    ``ceil(n/w)``-regular with virtual fixed points ``perm'(i) = i`` for
    ``i in [n, ceil(n/w)*w)``, König-decomposed into perfect matchings,
    and the virtual entries (``schedule >= n``) are masked off lane-wise
    by the kernel.  Every round's live lanes still have pairwise
    distinct source banks *and* destination banks.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    perm = _check_permutation(perm)
    n = perm.size
    rounds = -(-n // width)
    n_pad = rounds * width
    # Virtual elements are fixed points; they pad every (s, t) degree to
    # exactly `rounds` per bank on both sides.
    dest = np.concatenate([perm, np.arange(n, n_pad, dtype=np.int64)])

    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n_pad):
        key = (int(i % width), int(dest[i] % width))
        buckets.setdefault(key, []).append(i)
    mult = np.zeros((width, width), dtype=np.int64)
    for (s, t), items in buckets.items():
        mult[s, t] = len(items)

    schedule = np.empty((rounds, width), dtype=np.int64)
    for r in range(rounds):
        matching = _perfect_matching(mult, width)
        for s, t in enumerate(matching):
            schedule[r, s] = buckets[(s, t)].pop()
            mult[s, t] -= 1
    return schedule


def _perfect_matching(mult: np.ndarray, width: int) -> list[int]:
    """A perfect matching of the regular bipartite multigraph ``mult``
    (Kuhn's augmenting paths; the graphs are at most ``w x w``)."""
    match_t = [-1] * width

    def try_assign(s: int, visited: list[bool]) -> bool:
        for t in range(width):
            if mult[s, t] > 0 and not visited[t]:
                visited[t] = True
                if match_t[t] == -1 or try_assign(match_t[t], visited):
                    match_t[t] = s
                    return True
        return False

    for s in range(width):
        if not try_assign(s, [False] * width):
            raise ConfigurationError(
                "no perfect matching found; the residual graph lost "
                "regularity (schedule construction bug)"
            )
    match_s = [-1] * width
    for t, s in enumerate(match_t):
        match_s[s] = t
    return match_s


def oblivious_permutation_kernel(
    a: ArrayHandle,
    b: ArrayHandle,
    perm: np.ndarray,
    schedule: np.ndarray,
):
    """Kernel: ``b[perm[i]] = a[i]`` following an offline ``schedule``.

    ``schedule`` is a ``(rounds, w)`` source-index array from either
    :func:`generalized_permutation_schedule` or
    :func:`generalized_naive_schedule`; entries ``>= len(perm)`` are
    virtual and mask their lane off.  The permutation and schedule are
    launch-closure data (hashed into the replay launch key), so the trace is
    input-independent and replay-eligible — the *offline* in "offline
    permutation".
    """
    perm = _check_permutation(perm)
    n = perm.size
    schedule = np.asarray(schedule, dtype=np.int64)
    if schedule.ndim != 2:
        raise ConfigurationError("schedule must be a (rounds, w) array")

    def program(warp: WarpContext):
        if warp.num_lanes != warp.width:
            raise ConfigurationError(
                "oblivious_permutation_kernel requires full warps: launch "
                f"with a multiple of {warp.width} threads"
            )
        if schedule.shape[1] != warp.width:
            raise ConfigurationError(
                f"schedule width {schedule.shape[1]} != machine width "
                f"{warp.width}"
            )
        num_warps = -(-warp.num_threads // warp.width)
        rounds = schedule.shape[0]
        lane = warp.local_tids % warp.width
        for r in range(warp.warp_id, rounds, num_warps):
            src = schedule[r, lane]
            live = src < n
            src_safe = np.where(live, src, 0)
            vals = yield warp.read(a, src_safe, mask=live)
            yield warp.write(b, perm[src_safe], vals, mask=live)

    return program


def flat_cf_permutation(
    engine: MachineEngine,
    values: np.ndarray,
    perm: np.ndarray,
    num_threads: int,
    *,
    schedule: str = "conflict-free",
    trace: TraceRecorder | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Apply ``b[perm[i]] = a[i]`` on a flat machine, any size/width."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    perm = _check_permutation(perm)
    if vals.size != perm.size:
        raise ConfigurationError(
            f"values ({vals.size}) and permutation ({perm.size}) sizes differ")
    w = engine.params.width
    if schedule == "conflict-free":
        sched = generalized_permutation_schedule(perm, w)
    elif schedule == "naive":
        sched = generalized_naive_schedule(perm.size, w)
    else:
        raise ConfigurationError(
            f"schedule must be 'conflict-free' or 'naive', got {schedule!r}")
    a = engine.array_from(vals, "cfperm.a")
    b = engine.alloc(perm.size, "cfperm.b")
    report = engine.launch(
        oblivious_permutation_kernel(a, b, perm, sched), num_threads,
        trace=trace, label="cf-permutation",
    )
    return b.to_numpy(), report


def _hmm_chunk_bounds(n: int, d: int, width: int) -> list[tuple[int, int]]:
    """Contiguous per-DMM chunks, bases aligned to ``w`` so the global
    staging transactions stay single-group; the final chunk may be
    ragged (that is what the generalized schedule builder handles)."""
    per = -(-n // d)
    per = -(-per // width) * width  # round up to a width multiple
    bounds = []
    lo = 0
    for _ in range(d):
        hi = min(lo + per, n)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def hmm_cf_permutation(
    engine: HMMEngine,
    values: np.ndarray,
    perm: np.ndarray,
    num_threads: int,
    *,
    trace: TraceRecorder | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Chunk-local offline permutation on the HMM.

    Each DMM stages its contiguous chunk into shared memory (coalesced,
    width-aligned bases), applies its slice of the permutation with a
    conflict-free generalized schedule — chunk sizes need *not* be
    multiples of the width — and writes back coalesced.  Requires the
    permutation to be chunk-local (``perm`` maps every chunk into
    itself); arbitrary global routing would need scattered global
    transactions the UMM prices as uncoalesced.
    """
    _require_power_of_two_width(engine.params.width)
    vals = np.asarray(values, dtype=np.float64).ravel()
    perm = _check_permutation(perm)
    if vals.size != perm.size:
        raise ConfigurationError(
            f"values ({vals.size}) and permutation ({perm.size}) sizes differ")
    n = perm.size
    d = engine.params.num_dmms
    w = engine.params.width
    bounds = _hmm_chunk_bounds(n, d, w)
    for lo, hi in bounds:
        if hi > lo:
            seg = perm[lo:hi]
            if seg.min() < lo or seg.max() >= hi:
                raise ConfigurationError(
                    "hmm_cf_permutation requires a chunk-local permutation: "
                    f"chunk [{lo}, {hi}) maps outside itself"
                )
    shares = split_threads(num_threads, d)
    for s, (lo, hi) in zip(shares, bounds):
        if s % w or (hi > lo and s == 0):
            raise ConfigurationError(
                "hmm_cf_permutation requires full warps per DMM: launch "
                f"with a multiple of {d * w} threads"
            )
    schedules = []
    for lo, hi in bounds:
        if hi > lo:
            schedules.append(
                generalized_permutation_schedule(perm[lo:hi] - lo, w))
        else:
            schedules.append(np.empty((0, w), dtype=np.int64))

    a = engine.global_from(vals, "cfperm.a")
    b = engine.alloc_global(n, "cfperm.b")
    s_in = [engine.alloc_shared(i, max(hi - lo, 1), "cfperm.in")
            for i, (lo, hi) in enumerate(bounds)]
    s_out = [engine.alloc_shared(i, max(hi - lo, 1), "cfperm.out")
             for i, (lo, hi) in enumerate(bounds)]

    def program(warp: WarpContext):
        i = warp.dmm_id
        lo, hi = bounds[i]
        size = hi - lo
        if size <= 0:
            return
        q = warp.threads_in_dmm
        local = warp.local_tids
        yield from copy_range_steps(
            warp, a, lo, s_in[i], 0, size, num_threads=q, tids=local)
        yield warp.sync_dmm()
        sched = schedules[i]
        local_perm = perm[lo:hi] - lo
        warps_in_dmm = q // warp.width
        lane = local % warp.width
        for r in range(warp.warp_in_dmm, sched.shape[0], warps_in_dmm):
            src = sched[r, lane]
            live = src < size
            src_safe = np.where(live, src, 0)
            v = yield warp.read(s_in[i], src_safe, mask=live)
            yield warp.write(s_out[i], local_perm[src_safe], v, mask=live)
        yield warp.sync_dmm()
        yield from copy_range_steps(
            warp, s_out[i], 0, b, lo, size, num_threads=q, tids=local)

    report = engine.launch(
        program, num_threads, threads_per_dmm=shares, trace=trace,
        label="hmm-cf-permutation",
    )
    return b.to_numpy(), report
