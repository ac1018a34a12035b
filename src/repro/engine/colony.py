"""Lockstep batched colony construction: every ant advances per kernel call.

The ACO colonies are the paper's motivating workload — visited-city
zeroing drives ``k`` far below ``n`` — yet the scalar colonies draw one
next-city at a time through Python-level ``SelectionMethod.select``
calls, so a tour costs ``n`` interpreter round-trips per ant.  This
module advances **all** ants one construction step per kernel
invocation: the choice weights form an ``(n_ants, n)`` matrix (one wheel
per row) and a single vectorised batched selection draws every ant's
next city at once — the data-parallel layout of the GPU implementations
the paper cites (ref [6]).

Two selection modes, mirroring the compiled-wheel policy split of
:mod:`repro.engine.compiled`:

* **fast** (default) — the exact methods (``log_bidding`` / ``gumbel`` /
  ``prefix_sum``) share one two-level *blocked inverse-CDF* kernel
  (:func:`blocked_choice`): per row, block sums are fused with the
  unvisited mask in a single ``einsum`` pass, a tiny cumulative scan
  over ``n/block`` blocks locates the winning block, and the winner is
  resolved inside one block.  Distributionally identical to the scalar
  draw (every exact method samples the same law ``F_i``) but touches
  ``O(n + block)`` cumsum entries instead of ``O(n)``, which is what
  clears the end-to-end speedup gate on one core.  The biased
  ``independent`` baseline keeps its key form (``f_i * u_i`` row-wise)
  so the bias demonstration survives vectorisation.
* **faithful** (``streams=``) — per-ant RNG substreams
  (:class:`AntStreams`) replay the scalar methods' arithmetic
  bit-for-bit: ant ``i``'s row consumes exactly the draws that
  ``construct(rng=streams.generator(i))`` would, so lockstep and scalar
  construction produce **identical** tours and identical
  ``ConstructionStats`` — the seed-for-seed equivalence mode the tests
  pin for all three colonies.

The public entry points are the per-problem kernels
(:func:`tsp_lockstep_orders`, :func:`qap_lockstep_assignments`,
:func:`coloring_lockstep_colors`) wired into the colonies behind their
``engine="vectorized"`` switch, plus :func:`lockstep_select` — the
audit-facing batched selection that enforces the unified input contract
(invalid input raises ``FitnessError``, all-zero rows raise
``DegenerateFitnessError``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bidding import gumbel_keys, independent_keys, log_bid_keys
from repro.errors import DegenerateFitnessError, FitnessError, UnknownMethodError
from repro.rng.adapters import resolve_rng

__all__ = [
    "AntStreams",
    "LOCKSTEP_METHODS",
    "CDF_METHODS",
    "DEFAULT_BLOCK",
    "blocked_choice",
    "lockstep_keys",
    "lockstep_select",
    "tsp_lockstep_orders",
    "qap_lockstep_assignments",
    "coloring_lockstep_colors",
]

#: Methods with a lockstep batched implementation.
LOCKSTEP_METHODS = ("log_bidding", "gumbel", "independent", "prefix_sum")

#: Exact methods that share the fast inverse-CDF kernel: they all sample
#: the same law ``F_i``, so one exact sampler serves every one of them
#: (the compiled-wheel "auto" policy, applied row-wise).
CDF_METHODS = ("log_bidding", "gumbel", "prefix_sum")

#: Default block width of the two-level scan.  Tuned on the benchmark
#: machine at n=500: small enough that the per-row block scan stays in
#: cache, large enough that the block count n/b keeps the level-1 cumsum
#: tiny.
DEFAULT_BLOCK = 32

_KEY_FUNCTIONS = {
    "log_bidding": log_bid_keys,
    "gumbel": gumbel_keys,
    "independent": independent_keys,
}


# ----------------------------------------------------------------------
# Per-ant RNG substreams (the shared adapter of the equivalence mode)
# ----------------------------------------------------------------------
class AntStreams:
    """Independent per-ant generators spawned from one master seed.

    ``AntStreams(seed, m).generator(i)`` is ant ``i``'s private stream.
    Running the scalar colony with ant ``i`` on ``generator(i)`` and the
    lockstep kernel with the same ``AntStreams`` consumes the streams in
    the same per-ant order, so both paths draw identical variates and
    construct identical tours.
    """

    def __init__(self, seed, n_ants: int) -> None:
        n_ants = int(n_ants)
        if n_ants <= 0:
            raise ValueError(f"n_ants must be positive, got {n_ants}")
        self.seed = seed
        self.n_ants = n_ants
        self._generators = [
            np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n_ants)
        ]

    def __len__(self) -> int:
        return self.n_ants

    def generator(self, i: int) -> np.random.Generator:
        """Ant ``i``'s private generator."""
        return self._generators[i]

    def scalars(self) -> np.ndarray:
        """One scalar uniform per ant (ant ``i`` from stream ``i``)."""
        return np.fromiter(
            (g.random() for g in self._generators),
            dtype=np.float64,
            count=self.n_ants,
        )

    def row_uniforms(self, width: int) -> np.ndarray:
        """``(n_ants, width)`` raw uniforms; row ``i`` from stream ``i``."""
        out = np.empty((self.n_ants, int(width)), dtype=np.float64)
        for i, g in enumerate(self._generators):
            out[i] = g.random(int(width))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AntStreams(seed={self.seed!r}, n_ants={self.n_ants})"


# ----------------------------------------------------------------------
# Row-wise primitives
# ----------------------------------------------------------------------
def _validate_rows(fitness: np.ndarray) -> np.ndarray:
    arr = np.asarray(fitness, dtype=np.float64)
    if arr.ndim != 2:
        raise FitnessError(
            f"fitness must be 2-D (rows = wheels), got shape {arr.shape}"
        )
    if arr.size == 0:
        raise FitnessError("fitness matrix is empty")
    if not np.all(np.isfinite(arr)):
        raise FitnessError("fitness values must be finite")
    if np.any(arr < 0.0):
        raise FitnessError("fitness values must be non-negative")
    return arr


def lockstep_keys(
    W: np.ndarray,
    rng=None,
    *,
    method: str = "log_bidding",
    uniforms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Selection keys for every row of a fitness matrix at once.

    ``uniforms`` are *raw* ``[0, 1)`` draws of ``W``'s shape (drawn from
    ``rng`` when omitted); they are reflected to ``(0, 1]`` exactly as
    the scalar key transforms do, so feeding row ``i`` the draws of ant
    ``i``'s stream reproduces the scalar keys bit-for-bit.
    """
    try:
        key_fn = _KEY_FUNCTIONS[method]
    except KeyError:
        raise UnknownMethodError(
            f"method {method!r} has no key form; available: {sorted(_KEY_FUNCTIONS)}"
        ) from None
    if uniforms is None:
        uniforms = np.asarray(resolve_rng(rng).random(W.shape), dtype=np.float64)
    return key_fn(W, None, uniforms=1.0 - uniforms)


def _last_positive_column(rows: np.ndarray) -> np.ndarray:
    """Per row, the index of the last strictly positive entry."""
    n = rows.shape[1]
    return n - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)


def _prefix_replay(W: np.ndarray, raw_spins: np.ndarray) -> np.ndarray:
    """Row-wise replay of ``PrefixSumSelection.select``'s arithmetic.

    ``raw_spins[i]`` is the single uniform ant ``i``'s scalar call would
    draw; the interval test ``p_{j-1} <= R < p_j`` and the FP boundary
    fallback (last positive item) match the scalar method exactly.
    """
    cs = np.cumsum(W, axis=1)
    r = raw_spins * cs[:, -1]
    prev = np.empty_like(cs)
    prev[:, 0] = 0.0
    prev[:, 1:] = cs[:, :-1]
    hit = (prev <= r[:, None]) & (r[:, None] < cs)
    winners = hit.argmax(axis=1).astype(np.int64)
    miss = ~hit.any(axis=1)
    if miss.any():  # pragma: no cover - FP corner
        rows = np.flatnonzero(miss)
        winners[rows] = _last_positive_column(W[rows])
    return winners


def blocked_choice(
    W: np.ndarray,
    spins: np.ndarray,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Exact inverse-CDF winner per row via a two-level blocked scan.

    Parameters
    ----------
    W:
        ``(m, n)`` non-negative weight matrix (caller-validated).
    spins:
        ``(m,)`` uniforms in ``[0, 1)``; row ``i`` is located at
        ``spins[i] * total_i``.
    block:
        Width of the level-0 blocks.

    Returns
    -------
    numpy.ndarray
        ``(m,)`` winner columns; ``-1`` for rows with zero total mass.

    The half-open interval convention matches the prefix-sum method: a
    spin landing exactly on a boundary belongs to the next item, and
    zero-width (zero-weight) positions can never win.  A spin that
    rounds up to the total falls back to the row's last positive column
    (the same FP guard every prefix-sum backend carries).
    """
    m, n = W.shape
    b = max(1, min(int(block), n))
    nb = -(-n // b)
    npad = nb * b
    if npad != n:
        Wp = np.zeros((m, npad), dtype=np.float64)
        Wp[:, :n] = W
    else:
        Wp = np.ascontiguousarray(W, dtype=np.float64)
    W3 = Wp.reshape(m, nb, b)
    BS = W3.sum(axis=2)
    CB = np.cumsum(BS, axis=1)
    totals = CB[:, -1]
    alive = totals > 0.0
    rows = np.arange(m)
    sv = np.asarray(spins, dtype=np.float64) * totals
    above = CB > sv[:, None]
    blk = above.argmax(axis=1)
    prev = np.where(blk > 0, CB[rows, np.maximum(blk - 1, 0)], 0.0)
    rem = sv - prev
    inner = np.cumsum(W3[rows, blk], axis=1)
    hit = inner > rem[:, None]
    winners = (hit.argmax(axis=1) + blk * b).astype(np.int64)
    miss = alive & (~above.any(axis=1) | ~hit.any(axis=1))
    if miss.any():  # pragma: no cover - FP corner
        bad = np.flatnonzero(miss)
        winners[bad] = _last_positive_column(W[bad])
    winners[~alive] = -1
    return winners


def lockstep_select(
    fitness_rows: np.ndarray,
    rng=None,
    *,
    method: str = "log_bidding",
    streams: Optional[AntStreams] = None,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """One batched lockstep selection under the unified input contract.

    This is the audit-facing entry point of the vectorized colony path:
    row ``i`` of ``fitness_rows`` is wheel ``i`` and the return value is
    one winner per row.  Unlike the colony-internal kernels (which apply
    their own uniform-over-unvisited fallback before selecting), invalid
    input raises :class:`~repro.errors.FitnessError` and a row with no
    positive fitness raises
    :class:`~repro.errors.DegenerateFitnessError`.

    With ``streams`` the faithful per-ant replay is used (row ``i``
    consumes stream ``i`` exactly as the scalar method would); otherwise
    the fast mode draws from the shared ``rng``.
    """
    if method not in LOCKSTEP_METHODS:
        raise UnknownMethodError(
            f"method {method!r} has no lockstep implementation; "
            f"available: {LOCKSTEP_METHODS}"
        )
    W = _validate_rows(fitness_rows)
    m, _n = W.shape
    dead = ~np.any(W > 0.0, axis=1)
    if dead.any():
        raise DegenerateFitnessError(
            f"row {int(np.flatnonzero(dead)[0])} has no positive fitness "
            f"({int(dead.sum())} degenerate of {m} rows)"
        )
    if streams is not None:
        if len(streams) != m:
            raise ValueError(
                f"streams carries {len(streams)} ants but fitness has {m} rows"
            )
        if method == "prefix_sum":
            return _prefix_replay(W, streams.scalars())
        keys = lockstep_keys(W, method=method, uniforms=streams.row_uniforms(W.shape[1]))
        return np.argmax(keys, axis=1).astype(np.int64)
    rng = resolve_rng(rng)
    if method in CDF_METHODS:
        spins = np.asarray(rng.random(m), dtype=np.float64)
        return blocked_choice(W, spins, block=block)
    keys = lockstep_keys(W, rng, method=method)
    return np.argmax(keys, axis=1).astype(np.int64)


# ----------------------------------------------------------------------
# TSP kernel
# ----------------------------------------------------------------------
def _padded_shape(n: int, block: int) -> Tuple[int, int, int]:
    """Block width, block count and padded row width of the TSP scan."""
    b = max(1, min(int(block), n))
    nb = -(-n // b)
    return b, nb, nb * b


class _TspWorkspace:
    """Preallocated buffers of the hot TSP loop (reused across iterations)."""

    def __init__(self, m: int, n: int, block: int, dtype=np.float64) -> None:
        b, self.nb, self.npad = _padded_shape(n, block)
        dt = np.dtype(dtype)
        self.m, self.n, self.block, self.dtype = m, n, b, dt
        self.Dp = np.zeros((n, self.npad), dtype=dt)
        self.uv = np.empty((m, self.npad), dtype=dt)
        self.W = np.empty((m, self.npad), dtype=dt)
        self.WM = np.empty((m, self.npad), dtype=dt)
        self.BS = np.empty((m, self.nb), dtype=dt)
        # Zero-prepended block cumsum: CB[:, j] is the mass of blocks
        # < j, so the winning block's prefix is a single plain gather.
        self.CB = np.zeros((m, self.nb + 1), dtype=dt)
        self.above = np.empty((m, self.nb), dtype=bool)
        self.hit = np.empty((m, b), dtype=bool)
        self.ics = np.empty((m, b), dtype=dt)
        self.ks = np.empty(m, dtype=np.int64)
        # Upper-triangular all-ones: ``X @ T`` is the row-wise prefix sum
        # of ``X`` through BLAS, ~4x faster than np.cumsum at these
        # shapes (sequential scalar scan vs a vectorised small GEMM).
        self.Tnb = np.triu(np.ones((self.nb, self.nb), dtype=dt))
        self.Tb = np.triu(np.ones((b, b), dtype=dt))


def _workspace(
    cache: Optional[Dict[Tuple[int, int, int, str], "_TspWorkspace"]],
    m: int,
    n: int,
    block: int,
    dtype=np.float64,
) -> _TspWorkspace:
    if cache is None:
        return _TspWorkspace(m, n, block, dtype)
    key = (m, n, block, np.dtype(dtype).name)
    ws = cache.get(key)
    if ws is None:
        ws = cache[key] = _TspWorkspace(m, n, block, dtype)
    return ws


def _validate_square(desirability: np.ndarray, what: str) -> np.ndarray:
    D = np.asarray(desirability, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise FitnessError(f"{what} must be square, got shape {D.shape}")
    if not np.all(np.isfinite(D)) or np.any(D < 0.0):
        raise FitnessError(f"{what} must be finite and non-negative")
    return D


def _all_offdiagonal_positive(D: np.ndarray) -> bool:
    """True when every off-diagonal weight is strictly positive.

    Then every unvisited city is always a live candidate, so the
    candidate count is exactly ``k = n - step`` for every ant — the
    O(1) shortcut that lets the fast path skip materialising the masked
    matrix just to count its nonzeros.
    """
    positive = D > 0.0
    np.fill_diagonal(positive, True)
    return bool(positive.all())


def _scan_plan(D: np.ndarray, dtype, cdf: bool, npad: int) -> Tuple[np.dtype, int]:
    """Scan dtype and the exponent ``e`` of the exact weight shift ``D * 2**e``.

    ``e`` puts the largest weight below ``max(dtype) / npad``, so no block
    or row sum of the scaled buffer can overflow, and leaves every
    smaller weight the whole exponent range beneath it.  Only the
    exponent of the largest weight enters ``e``, so ``D * 2**k`` gets the
    shift ``e - k`` and the very same scan buffer.  The default policy
    (``dtype=None``) scans the inverse-CDF methods in float32 unless the
    smallest positive weight would still land below float32's smallest
    normal; that call scans in float64.
    """
    if dtype is not None:
        candidates = (np.dtype(dtype),)
    elif cdf:
        candidates = (np.dtype(np.float32), np.dtype(np.float64))
    else:
        candidates = (np.dtype(np.float64),)
    top = float(D.max())
    if top <= 0.0:
        return candidates[0], 0
    low = float(np.min(D, where=D > 0.0, initial=np.inf)) if len(candidates) > 1 else top
    headroom = (npad - 1).bit_length()  # npad <= 2**headroom
    for dt in candidates:
        info = np.finfo(dt)
        shift = info.maxexp - 1 - headroom - math.frexp(top)[1]
        if math.ldexp(low, shift) >= info.smallest_normal:
            break
    return dt, shift


def tsp_lockstep_orders(
    desirability: np.ndarray,
    count: int,
    rng=None,
    *,
    method: str = "log_bidding",
    stats=None,
    block: int = DEFAULT_BLOCK,
    starts: Optional[np.ndarray] = None,
    workspace: Optional[Dict[Tuple[int, int, int, str], _TspWorkspace]] = None,
    k_profile: Optional[List[float]] = None,
    dtype=None,
) -> np.ndarray:
    """Construct ``count`` TSP tours in lockstep (fast mode).

    Parameters
    ----------
    desirability:
        ``(n, n)`` matrix ``tau^alpha * eta^beta`` (hoisted by the
        caller — computed once per colony iteration).
    count:
        Number of ants (= rows advanced per step).
    rng:
        Shared generator for start cities and selection draws.
    method:
        One of :data:`LOCKSTEP_METHODS`.
    stats:
        Optional :class:`~repro.aco.tsp.colony.ConstructionStats`;
        receives the exact per-step ``k`` of every ant.
    block:
        Block width of the two-level scan.
    starts:
        Optional ``(count,)`` start cities (default: uniform draws).
    workspace:
        Optional dict cache for buffer reuse across iterations.
    k_profile:
        Optional list; appends the mean candidate count of each step
        (the sparsity profile the benchmark records).
    dtype:
        Arithmetic precision of the scan buffers.  Default: float32 for
        the inverse-CDF methods, float64 otherwise.  Single precision
        halves the memory traffic of the two O(m*n) passes (the
        dominant cost) and perturbs each selection probability only at
        the 2^-24 rounding level — the law stays the method's exact
        distribution, unlike the *method-level* bias of
        ``independent``.  Before the scan the weights are multiplied by
        an exact power of two ``2**e``, chosen from the largest weight
        so that it times the padded row width stays below the dtype's
        maximum: no block or row sum overflows, and the smaller weights
        keep the whole exponent range below the top (~2^240 in float32)
        instead of sliding into subnormals as pheromone decays.  Every
        step of the scan (block sums, prefix sums, ``spin * total``,
        comparisons) scales exactly, so the orders equal those of the
        unshifted scan whenever its buffer held only normal values.
        When the default float32 scan would still hold a subnormal
        weight (a row range beyond ~2^240, about iteration 220 of an
        Ant System at ``rho = 0.5``) that call scans in float64; an
        explicit ``dtype`` is always honoured.  Faithful mode
        (:func:`tsp_lockstep_orders_faithful`) is always bit-exact
        float64.

    Returns
    -------
    numpy.ndarray
        ``(count, n)`` city orders, one valid tour per row.
    """
    if method not in LOCKSTEP_METHODS:
        raise UnknownMethodError(
            f"method {method!r} has no lockstep implementation; "
            f"available: {LOCKSTEP_METHODS}"
        )
    D = _validate_square(desirability, "desirability")
    n = D.shape[0]
    m = int(count)
    if m <= 0:
        raise ValueError(f"count must be positive, got {m}")
    rng = resolve_rng(rng)
    cdf = method in CDF_METHODS
    dtype, shift = _scan_plan(D, dtype, cdf, _padded_shape(n, block)[2])
    ws = _workspace(workspace, m, n, block, dtype)
    b, nb = ws.block, ws.nb
    np.ldexp(D, shift, out=ws.Dp[:, :n])
    uv, W, WM = ws.uv, ws.W, ws.WM
    uv[:, :n] = 1.0
    uv[:, n:] = 0.0
    # Decided on the scan buffer, not on D: with an explicit float32
    # dtype a weight positive in float64 can still underflow to zero, and
    # the fused path must then not run (it would treat a zero row as live
    # and repeat a city).
    allpos = _all_offdiagonal_positive(ws.Dp[:, :n])

    orders = np.empty((m, n), dtype=np.int64)
    rows = np.arange(m)
    if starts is None:
        cur = (np.asarray(rng.random(m)) * n).astype(np.int64) % n
    else:
        cur = np.asarray(starts, dtype=np.int64) % n
    orders[:, 0] = cur
    uv[rows, cur] = 0.0
    spins = (
        np.asarray(rng.random((n - 1, m))).astype(ws.dtype, copy=False)
        if cdf and n > 1
        else None
    )

    W3 = W.reshape(m, nb, b)
    U3 = uv.reshape(m, nb, b)
    WM3 = WM.reshape(m, nb, b)
    CB1 = ws.CB[:, 1:]
    fused = cdf and allpos
    record_uniform = getattr(stats, "record_uniform", None)
    for step in range(1, n):
        np.take(ws.Dp, cur, axis=0, out=W)
        uniform_k = True
        ks = None
        if not fused:
            # Materialise the masked weights: needed to count candidates
            # exactly when zeros can appear, and for the key methods.
            np.multiply(W, uv, out=WM)
            if not allpos:
                ks = np.count_nonzero(WM, axis=1)
                uniform_k = False
                dead = ks == 0
                if dead.any():
                    # Same fallback as the scalar path: uniform over the
                    # unvisited cities.
                    WM[dead] = uv[dead]
                    ks[dead] = n - step
        if uniform_k:
            # Every unvisited city is a live candidate: k = n - step for
            # all ants, so stats need no per-row array at all.
            if stats is not None:
                if record_uniform is not None:
                    record_uniform(n - step, m)
                else:  # pragma: no cover - duck-typed stats objects
                    ws.ks.fill(n - step)
                    stats.record_many(ws.ks)
            if k_profile is not None:
                k_profile.append(float(n - step))
        else:
            if stats is not None:
                stats.record_many(ks)
            if k_profile is not None:
                k_profile.append(float(ks.mean()))

        if cdf:
            if fused:
                # Fused mask-multiply + block-sum: one pass over W and uv.
                np.einsum("mjb,mjb->mj", W3, U3, out=ws.BS)
            else:
                np.add.reduce(WM3, axis=2, out=ws.BS)
            np.matmul(ws.BS, ws.Tnb, out=CB1)
            sv = spins[step - 1] * CB1[:, -1]
            np.greater(CB1, sv[:, None], out=ws.above)
            blk = ws.above.argmax(axis=1)
            rem = sv - ws.CB[rows, blk]
            # BLAS computes each prefix column independently, so an ulp
            # of non-monotonicity could push rem below zero — and a
            # negative rem would let a visited (zero-weight) leading
            # element win the inner scan.  Clamp.
            np.maximum(rem, 0.0, out=rem)
            if fused:
                inner = W3[rows, blk] * U3[rows, blk]
            else:
                inner = WM3[rows, blk]
            np.matmul(inner, ws.Tb, out=ws.ics)
            np.greater(ws.ics, rem[:, None], out=ws.hit)
            win = ws.hit.argmax(axis=1) + blk * b
            # Prefix sums of non-negative weights are non-decreasing, so
            # a row has any hit iff its last column hits.
            ok = ws.above[:, -1] & ws.hit[:, -1]
            if not ok.all():  # pragma: no cover - FP corner
                bad = np.flatnonzero(~ok)
                masked = W[bad, :n] * uv[bad, :n]
                win[bad] = _last_positive_column(masked)
        else:
            keys = lockstep_keys(WM[:, :n], rng, method=method)
            win = np.argmax(keys, axis=1).astype(np.int64)

        orders[:, step] = win
        uv[rows, win] = 0.0
        cur = win
    return orders


def tsp_lockstep_orders_faithful(
    desirability: np.ndarray,
    streams: AntStreams,
    *,
    method: str = "log_bidding",
    stats=None,
    starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Construct tours in lockstep, bit-identical to the scalar path.

    Row ``i`` consumes ``streams.generator(i)`` in exactly the order the
    scalar ``construct_tour(rng=streams.generator(i))`` would: one start
    draw, then per step either ``n`` key uniforms or one prefix-sum
    spin.  Identical draws through identical arithmetic give identical
    tours and identical ``ConstructionStats``.
    """
    if method not in LOCKSTEP_METHODS:
        raise UnknownMethodError(
            f"method {method!r} has no lockstep implementation; "
            f"available: {LOCKSTEP_METHODS}"
        )
    D = _validate_square(desirability, "desirability")
    n = D.shape[0]
    m = len(streams)
    orders = np.empty((m, n), dtype=np.int64)
    visited = np.zeros((m, n), dtype=bool)
    rows = np.arange(m)
    if starts is None:
        cur = (streams.scalars() * n).astype(np.int64) % n
    else:
        cur = np.asarray(starts, dtype=np.int64) % n
    orders[:, 0] = cur
    visited[rows, cur] = True
    F = np.empty((m, n), dtype=np.float64)
    for step in range(1, n):
        np.take(D, cur, axis=0, out=F)
        F[visited] = 0.0
        ks = np.count_nonzero(F, axis=1)
        dead = ks == 0
        if dead.any():
            F[dead] = (~visited[dead]).astype(np.float64)
            ks[dead] = n - step
        if stats is not None:
            stats.record_many(ks)
        if method == "prefix_sum":
            win = _prefix_replay(F, streams.scalars())
        else:
            keys = lockstep_keys(F, method=method, uniforms=streams.row_uniforms(n))
            win = np.argmax(keys, axis=1).astype(np.int64)
        orders[:, step] = win
        visited[rows, win] = True
        cur = win
    return orders


# ----------------------------------------------------------------------
# QAP kernel
# ----------------------------------------------------------------------
def _step_winners(
    F: np.ndarray,
    rng,
    method: str,
    streams: Optional[AntStreams],
    block: int,
) -> np.ndarray:
    """One lockstep selection over already-masked fitness rows."""
    if streams is not None:
        if method == "prefix_sum":
            return _prefix_replay(F, streams.scalars())
        keys = lockstep_keys(F, method=method, uniforms=streams.row_uniforms(F.shape[1]))
        return np.argmax(keys, axis=1).astype(np.int64)
    if method in CDF_METHODS:
        spins = np.asarray(rng.random(F.shape[0]), dtype=np.float64)
        return blocked_choice(F, spins, block=block)
    keys = lockstep_keys(F, rng, method=method)
    return np.argmax(keys, axis=1).astype(np.int64)


def _ant_orders(
    n: int, m: int, rng, streams: Optional[AntStreams]
) -> np.ndarray:
    """Random per-ant processing orders (argsort of per-ant uniforms)."""
    if streams is not None:
        return np.stack(
            [np.argsort(np.asarray(streams.generator(i).random(n))) for i in range(m)]
        )
    return np.argsort(np.asarray(rng.random((m, n))), axis=1)


def qap_lockstep_assignments(
    tau_alpha: np.ndarray,
    count: Optional[int] = None,
    rng=None,
    *,
    method: str = "log_bidding",
    stats=None,
    streams: Optional[AntStreams] = None,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Construct QAP assignments in lockstep.

    Each ant processes the facilities in its own random order and places
    the current facility on a free location by roulette over
    ``tau_alpha[facility]``; occupied locations carry fitness zero.
    With ``streams`` the construction is bit-identical to per-ant scalar
    ``construct(rng=streams.generator(i))`` calls.

    Returns ``(count, n)`` assignments (``assignment[i, f]`` = location
    of facility ``f`` for ant ``i``).
    """
    if method not in LOCKSTEP_METHODS:
        raise UnknownMethodError(
            f"method {method!r} has no lockstep implementation; "
            f"available: {LOCKSTEP_METHODS}"
        )
    T = _validate_square(tau_alpha, "tau_alpha")
    n = T.shape[0]
    m = len(streams) if streams is not None else int(count)
    if m <= 0:
        raise ValueError(f"count must be positive, got {m}")
    rng = resolve_rng(rng)
    orders = _ant_orders(n, m, rng, streams)
    assignment = np.full((m, n), -1, dtype=np.int64)
    free = np.ones((m, n), dtype=bool)
    rows = np.arange(m)
    F = np.empty((m, n), dtype=np.float64)
    for t in range(n):
        fac = orders[:, t]
        np.take(T, fac, axis=0, out=F)
        F[~free] = 0.0
        ks = np.count_nonzero(F, axis=1)
        dead = ks == 0
        if dead.any():
            # Pheromone underflow: uniform over the free locations.
            F[dead] = free[dead].astype(np.float64)
            ks[dead] = n - t
        if stats is not None:
            stats.record_many(ks)
        win = _step_winners(F, rng, method, streams, block)
        assignment[rows, fac] = win
        free[rows, win] = False
    return assignment


# ----------------------------------------------------------------------
# Graph-coloring kernel
# ----------------------------------------------------------------------
def coloring_lockstep_colors(
    pheromone: np.ndarray,
    adjacency: np.ndarray,
    count: Optional[int] = None,
    rng=None,
    *,
    method: str = "log_bidding",
    stats=None,
    streams: Optional[AntStreams] = None,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Construct colorings in lockstep.

    Each ant colors the vertices in its own random order; the fitness of
    color ``c`` for vertex ``v`` is ``pheromone[v, c]`` unless an
    already-colored neighbour holds ``c`` (then zero).  When no color in
    the budget is feasible the scalar colony falls back to a uniform
    choice over the *whole* budget (a conflict is unavoidable) — the
    lockstep rows do the same.

    Returns ``(count, n)`` per-ant vertex colors.
    """
    if method not in LOCKSTEP_METHODS:
        raise UnknownMethodError(
            f"method {method!r} has no lockstep implementation; "
            f"available: {LOCKSTEP_METHODS}"
        )
    P = np.asarray(pheromone, dtype=np.float64)
    if P.ndim != 2:
        raise FitnessError(f"pheromone must be 2-D, got shape {P.shape}")
    if not np.all(np.isfinite(P)) or np.any(P < 0.0):
        raise FitnessError("pheromone must be finite and non-negative")
    A = np.asarray(adjacency, dtype=bool)
    n, budget = P.shape
    if A.shape != (n, n):
        raise FitnessError(
            f"adjacency must be ({n}, {n}) to match pheromone, got {A.shape}"
        )
    m = len(streams) if streams is not None else int(count)
    if m <= 0:
        raise ValueError(f"count must be positive, got {m}")
    rng = resolve_rng(rng)
    orders = _ant_orders(n, m, rng, streams)
    colors = np.full((m, n), -1, dtype=np.int64)
    rows = np.arange(m)
    F = np.empty((m, budget), dtype=np.float64)
    forbidden = np.empty((m, budget), dtype=bool)
    for t in range(n):
        v = orders[:, t]
        forbidden[:] = False
        neigh = A[v] & (colors >= 0)
        r, c = np.nonzero(neigh)
        forbidden[r, colors[r, c]] = True
        np.take(P, v, axis=0, out=F)
        F[forbidden] = 0.0
        ks = np.count_nonzero(F, axis=1)
        dead = ks == 0
        if dead.any():
            # No feasible color in budget: uniform over the whole budget
            # (matching the scalar colony's least-bad fallback).
            F[dead] = 1.0
            ks[dead] = budget
        if stats is not None:
            stats.record_many(ks)
        win = _step_winners(F, rng, method, streams, block)
        colors[rows, v] = win
    return colors
