"""Log-partition estimation: exact enumeration, analytic hidden-unit
sum-out, annealed importance sampling, and two estimators driven by
rounded samples of a relaxed solution (a deduplicated lower bound and a
width-2 importance sampler with exactly known proposal probabilities)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gibbs import _tempered_block_sweep
from .models import (
    Domain,
    MrfParams,
    RbmParams,
    CapExceededError,
    iter_corner_blocks,
    score_batch,
)
from .rounding import (
    SAMPLE_BLOCK_ROWS,
    _arc_index,
    _check_feasible_rows,
    _direction_blocks,
    build_px_k2,
    enumerate_support_k2,
)

BRUTE_LOGZ_CAP = 24


@dataclass(frozen=True)
class Budget:
    """Work counters for an estimate: sample count, temperature count, and
    sweeps per run. Unused counters are zero."""

    samples: int = 0
    temperatures: int = 0
    sweeps: int = 0

    def __post_init__(self):
        if min(self.samples, self.temperatures, self.sweeps) < 0:
            raise ValueError("budget counters must be non-negative")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """One log-partition estimate with its budget and provenance. `details`
    carries estimator-specific extras (e.g. the spread of AIS run weights)."""

    log_z: float
    budget: Budget
    seed: int
    wall_clock: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.log_z):
            raise ValueError("log_z must be finite")


def _streaming_logsumexp(chunks) -> float:
    """Max-shifted log-sum-exp over one score array or an iterable of
    them."""
    if isinstance(chunks, np.ndarray):
        chunks = (chunks,)
    running_max = -np.inf
    running_sum = 0.0
    for values in chunks:
        if values.size == 0:
            continue
        m = float(values.max())
        if m > running_max:
            if np.isfinite(running_max):
                running_sum *= np.exp(running_max - m)
            running_max = m
        running_sum += float(np.exp(values - running_max).sum())
    if not np.isfinite(running_max):
        raise ValueError("no scores to accumulate")
    return running_max + float(np.log(running_sum))


def exact_logz_mrf(params: MrfParams, cap: int = BRUTE_LOGZ_CAP) -> float:
    """log sum_x exp(x' A x) over all corners of the model's domain, by
    streaming enumeration."""
    if params.n > cap:
        raise CapExceededError(f"n={params.n} exceeds enumeration cap {cap}")
    return _streaming_logsumexp(
        score_batch(params, block)
        for block in iter_corner_blocks(params.n, params.domain)
    )


def exact_logz_rbm(params: RbmParams, cap: int = BRUTE_LOGZ_CAP) -> float:
    """Exact log partition of an RBM by summing out the hidden layer.

    Enumerates the 2**m visible configurations and applies the analytic
    per-hidden-unit factor: log(2 cosh(z_j)) on the {-1,+1} domain,
    log(1 + exp(z_j)) on the {0,1} domain, with z = v'W + b. The hidden
    layer size is unbounded.
    """
    if params.m > cap:
        raise CapExceededError(f"m={params.m} exceeds enumeration cap {cap}")

    def blocks():
        for V in iter_corner_blocks(params.m, params.domain):
            z = V @ params.W + params.b
            if params.domain is Domain.PLUS_MINUS_ONE:
                hidden = np.logaddexp(z, -z).sum(axis=1)
            else:
                hidden = np.logaddexp(0.0, z).sum(axis=1)
            yield V @ params.a + hidden

    return _streaming_logsumexp(blocks())


def _uniform_states(
    rng: np.random.Generator, rows: int, cols: int, domain: Domain
) -> np.ndarray:
    bits = rng.integers(0, 2, size=(rows, cols), dtype=np.int8)
    if domain is Domain.PLUS_MINUS_ONE:
        return (2 * bits - 1).astype(np.int8)
    return bits


def _rbm_score_batch(params: RbmParams, V: np.ndarray, H: np.ndarray) -> np.ndarray:
    return (
        np.einsum("rm,rm->r", V @ params.W, H.astype(float))
        + V @ params.a
        + H @ params.b
    )


def ais_logz(
    params: RbmParams, num_temps: int, num_runs: int, seed: int
) -> EstimateReport:
    """Annealed importance sampling from the uniform base distribution.

    Interpolates exp(beta * score) along a linear beta grid on [0, 1].
    Each run accumulates sum_t (beta_{t+1} - beta_t) * score(x_t) and
    advances x with one block sweep per temperature; the estimate is
    (m+p) log 2 plus the log-mean-exp of the run weights, reduced in run
    order. `details` reports the standard deviation of the run weights.
    """
    if num_temps < 2:
        raise ValueError("num_temps must be >= 2")
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    betas = np.linspace(0.0, 1.0, num_temps)
    V = _uniform_states(rng, num_runs, params.m, params.domain)
    H = _uniform_states(rng, num_runs, params.p, params.domain)
    log_weights = np.zeros(num_runs)
    for t in range(1, num_temps):
        log_weights += (betas[t] - betas[t - 1]) * _rbm_score_batch(params, V, H)
        V, H = _tempered_block_sweep(params, V, H, float(betas[t]), rng)
    log_base = (params.m + params.p) * np.log(2.0)
    log_z = float(log_base + _streaming_logsumexp(log_weights) - np.log(num_runs))
    return EstimateReport(
        log_z=log_z,
        budget=Budget(samples=num_runs, temperatures=num_temps, sweeps=num_temps - 1),
        seed=seed,
        wall_clock=time.perf_counter() - start,
        details={"weight_std": float(np.std(log_weights))},
    )


def _distinct_keys(rows, n: int) -> tuple[np.ndarray, int]:
    """The distinct np.packbits(rows > 0, axis=1) keys of a {-1,+1} row
    array, or of an iterable of row blocks, sorted as np.unique(...,
    axis=0) sorts the rows, and the row count."""
    if isinstance(rows, np.ndarray):
        rows = (rows,)
    key = np.dtype((np.void, (n + 7) // 8))
    keys = np.empty(0, dtype=key)
    pending: list[np.ndarray] = []
    pending_size = 0
    count = 0
    for block in rows:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != n:
            raise ValueError(f"rows have shape {block.shape}, expected (?, {n})")
        count += block.shape[0]
        pending.append(np.unique(np.packbits(block > 0, axis=1).view(key).ravel()))
        pending_size += pending[-1].size
        # merge only once the pending keys outnumber the merged ones, so the
        # merged keys are re-sorted a logarithmic number of times, not once
        # per block
        if pending_size > keys.size:
            keys = np.unique(np.concatenate([keys, *pending]))
            pending, pending_size = [], 0
    if count < 1:
        raise ValueError("rows must be nonempty")
    return np.unique(np.concatenate([keys, *pending])), count


def _unpack_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The {-1,+1} int8 rows of packed keys from `_distinct_keys`."""
    packed = keys.view(np.uint8).reshape(keys.size, -1)
    bits = np.unpackbits(packed, axis=1, count=n)
    return np.where(bits > 0, np.int8(1), np.int8(-1))


def rrr_low(params: MrfParams, rows) -> EstimateReport:
    """Deduplicated lower bound on the log partition.

    Keeps each distinct sampled assignment once and returns the
    log-sum-exp of their scores, which can only undercount the full sum
    over corners. Without deduplication repeated samples would be counted
    twice and the bound would be lost.

    `rows` is one array of {-1,+1} assignments stacked as rows, or an
    iterable of such blocks (as from `rrr_sample_blocks`). Each block is
    reduced to the distinct keys of np.packbits(rows > 0, axis=1), one
    byte string per row, and the keys are merged across blocks. Packed
    bytes sort like the int8 rows (-1 < +1, variable 0 most significant),
    so the distinct rows are those of np.unique(rows, axis=0), in its
    order. The distinct keys are unpacked and scored SAMPLE_BLOCK_ROWS at a
    time; at width k=2 (at most 2n patterns) that is one block. Memory is
    one block plus a few copies of the distinct keys (n/8 bytes each), and
    the merges cost O(count log count) key comparisons however many rows
    are distinct; no samples x n matrix is built. The report's seed is 0:
    the rows carry their own provenance.
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("rrr_low takes {-1,+1} assignments")
    start = time.perf_counter()
    keys, count = _distinct_keys(rows, params.n)
    log_z = _streaming_logsumexp(
        score_batch(params, _unpack_keys(keys[i : i + SAMPLE_BLOCK_ROWS], params.n))
        for i in range(0, keys.size, SAMPLE_BLOCK_ROWS)
    )
    return EstimateReport(
        log_z=log_z,
        budget=Budget(samples=count),
        seed=0,
        wall_clock=time.perf_counter() - start,
        details={"distinct": int(keys.size)},
    )


def _score_support(params: MrfParams, X):
    """The width-2 support pass of `rrr_is` and `rrr_is_exact`: checks the
    arguments, builds the rounding distribution, enumerates its at most 2n
    patterns and scores them once. Returns the distribution, the scores
    and the probabilities, both in `enumerate_support_k2` order."""
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("rounding produces {-1,+1} assignments")
    X = _check_feasible_rows(params, X)
    if X.shape[1] != 2:
        raise ValueError("importance sampling requires width k=2")
    dist = build_px_k2(X)
    support = enumerate_support_k2(dist, X)
    scores = score_batch(params, np.stack([pattern for pattern, _ in support]))
    return dist, scores, np.array([p for _, p in support])


def rrr_is(params: MrfParams, X, count: int, seed: int) -> EstimateReport:
    """Importance sampling against the width-2 rounding distribution.

    Draws `count` Gaussian directions (the stream of `rrr_map_sample`) and
    weights each draw's pattern by exp(score)/p, p its arc's length over
    2*pi, then averages. A draw's pattern is fixed by its arc, so the
    draws are only counted per arc (`_arc_index`), and each of the at most
    2n patterns of `enumerate_support_k2` is scored once and weighted by
    count/p. A direction on a boundary, or within rounding distance of
    one, takes the pattern of the arc that searchsorted(angles,
    atan2(g) mod 2*pi, side="right") picks. Degenerate rows (norm below
    DEGENERATE_NORM) read +1 in every pattern, as in
    `enumerate_support_k2`, where rounding a nonzero one would take the
    sign of its tiny product with g. No samples x n matrix is built.

    The same scores give the sampler's exact expectation, so `details`
    carries `log_z_exact_support`, equal to `rrr_is_exact(params, X).log_z`,
    and `support_size`, the number of patterns.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    start = time.perf_counter()
    dist, scores, probs = _score_support(params, X)
    rng = np.random.default_rng(seed)
    hits = np.zeros(scores.size, dtype=np.int64)
    for G in _direction_blocks(rng, count, 2):
        hits += np.bincount(_arc_index(dist, G), minlength=scores.size)
    seen = hits > 0
    log_z = float(
        _streaming_logsumexp(scores[seen] + np.log(hits[seen]) - np.log(probs[seen]))
        - np.log(count)
    )
    return EstimateReport(
        log_z=log_z,
        budget=Budget(samples=count),
        seed=seed,
        wall_clock=time.perf_counter() - start,
        details={
            "log_z_exact_support": _streaming_logsumexp(scores),
            "support_size": int(scores.size),
        },
    )


def rrr_is_exact(params: MrfParams, X) -> EstimateReport:
    """Exact expectation of the width-2 importance sampler.

    The mean of exp(score)/p over the rounding distribution equals the sum
    of exp(score) over the support, computed here by enumerating it. This
    lower-bounds the log partition (with equality when the support covers
    every corner) and is deterministic.
    """
    start = time.perf_counter()
    _, scores, _ = _score_support(params, X)
    return EstimateReport(
        log_z=_streaming_logsumexp(scores),
        budget=Budget(samples=int(scores.size)),
        seed=0,
        wall_clock=time.perf_counter() - start,
        details={"exact_support": True},
    )
