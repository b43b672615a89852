"""Log-partition estimation: exact enumeration, analytic hidden-unit
sum-out, annealed importance sampling, and two estimators driven by
rounded samples of a relaxed solution (a deduplicated lower bound and a
width-2 importance sampler with exactly known proposal probabilities)."""

from __future__ import annotations

import copy
import functools
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .models import Domain, MrfParams, RbmParams, iter_corner_blocks, score_batch
from .rounding import (
    SAMPLE_BLOCK_ROWS,
    _arc_index,
    _check_sampling,
    _direction_blocks,
    build_px_k2,
    enumerate_support_k2,
)

@dataclass(frozen=True)
class Budget:
    """Work counter for an estimate: its sample count (AIS runs, rounding
    draws or rows)."""

    samples: int = 0

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError("samples must be non-negative")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """One log-partition estimate with its budget and wall-clock time.
    `details` carries estimator-specific extras (e.g. the spread of AIS run
    weights)."""

    log_z: float
    budget: Budget
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


def exact_logz_mrf(params: MrfParams) -> float:
    """log sum_x exp(x' A x) over all corners of the model's domain, by
    streaming enumeration, for n up to BRUTE_FORCE_CAP."""
    return _streaming_logsumexp(
        score_batch(params, block)
        for block in iter_corner_blocks(params.n, params.domain)
    )


def exact_logz_rbm(params: RbmParams) -> float:
    """Exact log partition of an RBM by summing out the hidden layer.

    Enumerates the 2**m visible configurations and applies the analytic
    per-hidden-unit factor: log(2 cosh(z_j)) on the {-1,+1} domain,
    log(1 + exp(z_j)) on the {0,1} domain, with z = v'W + b. The visible
    layer is capped at BRUTE_FORCE_CAP units; the hidden layer size is
    unbounded.
    """
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
    return 2.0 * bits - 1.0 if domain is Domain.PLUS_MINUS_ONE else bits.astype(float)


class _RowStream:
    """Rows [r0, r1) of a stream of (runs, cols) uniform blocks, on a copy
    of a bit generator: `random(out=u)` fills the (r1 - r0, cols) block u
    with the uniforms those rows take from a serial rng.random((runs,
    cols)). Generator.random takes one PCG64 output per float64, so the
    copy advances r0 * cols outputs before the block and (runs - r1) *
    cols after it."""

    def __init__(self, bit_generator, r0: int, r1: int, runs: int):
        self._bits = copy.deepcopy(bit_generator)
        self._rng = np.random.Generator(self._bits)
        self._skip = r0, runs - r1

    def random(self, out: np.ndarray) -> None:
        before, after = self._skip
        self._bits.advance(before * out.shape[1])
        self._rng.random(out=out)
        self._bits.advance(after * out.shape[1])


# Whether `_fork_join` may run its second lane in a forked child.
_FORK = sys.platform.startswith("linux")


def _resample_layer(layer, field, bias, scale, lo, u, rng) -> None:
    """layer = 1 where u < 1 / (1 + exp(-(scale * (field + bias)))), else lo."""
    field += bias
    field *= -scale  # exactly -(scale * field): rounding is symmetric in sign
    with np.errstate(over="ignore"):  # exp(-z) = inf where the probability is 0
        np.exp(field, out=field)
    field += 1.0
    np.reciprocal(field, out=field)
    rng.random(out=u)
    np.less(u, field, out=layer)
    layer *= 1 - lo
    layer += lo


def _ais_runs(params: RbmParams, betas: np.ndarray, V, H, rng) -> np.ndarray:
    """The log weights of the AIS runs in the float64 rows of V (runs x m)
    and H (runs x p), entries in {lo, 1}. Per temperature t >= 1 a run adds
    (betas[t] - betas[t-1]) times its pre-sweep score, which V @ W also
    gives, then takes one block sweep at beta = betas[t], in place: H given
    V, then V given the new H. `rng.random(out=...)` fills the hidden
    uniforms, then the visible ones, in buffers allocated once per call.
    Each logistic keeps the operation order of 1 / (1 + exp(-(gain * beta *
    (field + bias)))), the sign inside the exact product, so every decision
    is bit for bit the expression's; another order (say, gain * beta folded
    into the bias) moves probabilities by ulps."""
    gain, lo = (2.0, -1) if params.domain is Domain.PLUS_MINUS_ONE else (1.0, 0)
    runs = V.shape[0]
    field_h, u_h = np.empty((2, runs, params.p))
    field_v, u_v = np.empty((2, runs, params.m))
    log_weights = np.zeros(runs)
    for t in range(1, betas.size):
        scale = gain * float(betas[t])
        np.matmul(V, params.W, out=field_h)
        scores = np.einsum("rp,rp->r", field_h, H) + V @ params.a + H @ params.b
        log_weights += (betas[t] - betas[t - 1]) * scores
        _resample_layer(H, field_h, params.b, scale, lo, u_h, rng)
        np.matmul(H, params.W.T, out=field_v)
        _resample_layer(V, field_v, params.a, scale, lo, u_v, rng)
    return log_weights


def _fork_join(first, second) -> tuple:
    """(first(), second()), second() run in a forked child on Linux while
    this thread is the process's one Python thread (a lock another thread
    holds at the fork would stay held in the child); otherwise first()
    then second() run here. The child pickles (True, value), or (False,
    exc) if second() raised, to a pipe and leaves by os._exit, so it runs
    no exit handler and flushes no inherited buffer. The parent runs
    first(), reads to EOF and reaps the child, then re-raises a
    transported exception as it is; a failed child or an unreadable
    result raises RuntimeError. If first() raises, the child is killed
    and reaped before the exception propagates."""
    if not (_FORK and threading.active_count() == 1):
        return first(), second()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = True, second()
            except Exception as exc:
                result = False, exc
            data = memoryview(pickle.dumps(result))
            while data:
                data = data[os.write(write_fd, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            head = first()
            data = pipe.read()
    except BaseException:
        import signal  # here only: its import builds enums every command would pay for

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        ok, tail = pickle.loads(data)
    except Exception:
        ok = None
    if status != 0 or ok is None:
        raise RuntimeError(f"forked child exited with {status} after {len(data)} bytes")
    if not ok:
        raise tail
    return head, tail


def ais_logz(
    params: RbmParams, num_temps: int, num_runs: int, seed: int
) -> EstimateReport:
    """Annealed importance sampling from the uniform base distribution.

    Interpolates exp(beta * score) along a linear beta grid on [0, 1].
    Each run accumulates sum_t (beta_{t+1} - beta_t) * score(x_t) and
    advances x with one in-place block sweep per temperature, whose
    product V @ W also gives score(x_t). The runs are float64 state
    arrays, split into two fixed halves, rows [0, c) and [c, num_runs)
    with c = ceil(num_runs / 2). Each half runs the temperature loop by
    itself, with work buffers allocated once per half. With two or more
    runs the halves go through `_fork_join`: the first in the caller, the
    second in a forked child where it may fork, else here after the first,
    with the same arithmetic (one run has no second half). The split does
    not depend on the CPU count, so neither does the report.

    One np.random.default_rng(seed) draws the int8 start states, then
    per temperature a (num_runs, p) block of uniforms for the hidden
    layer and a (num_runs, m) block for the visible one. Each half draws
    its own rows of those blocks from a copy of the stream (`_RowStream`),
    so every run takes the uniforms it would take with all runs in one
    loop. A half's products run over its own rows, so BLAS may round them
    differently from a product over every run.

    The estimate is (m+p) log 2 plus the log-mean-exp of the run weights,
    reduced in run order. `details` reports the standard deviation of
    the run weights.
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
    cut = (num_runs + 1) // 2
    halves = [
        functools.partial(_ais_runs, params, betas, V[r0:r1], H[r0:r1],
                          _RowStream(rng.bit_generator, r0, r1, num_runs))
        for r0, r1 in ((0, cut), (cut, num_runs))
        if r1 > r0
    ]
    if len(halves) == 2:
        log_weights = np.concatenate(_fork_join(*halves))
    else:
        log_weights = halves[0]()
    log_base = (params.m + params.p) * np.log(2.0)
    log_z = float(log_base + _streaming_logsumexp(log_weights) - np.log(num_runs))
    return EstimateReport(
        log_z=log_z,
        budget=Budget(samples=num_runs),
        wall_clock=time.perf_counter() - start,
        details={"weight_std": float(np.std(log_weights))},
    )


def _distinct_keys(rows, n: int) -> tuple[np.ndarray, int]:
    """The distinct np.packbits(rows > 0, axis=1) keys of an iterable of
    {-1,+1} row blocks, sorted as np.unique(..., axis=0) sorts the rows,
    and the row count."""
    key = np.dtype((np.void, (n + 7) // 8))
    distinct = set()
    count = 0
    for block in rows:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != n:
            raise ValueError(f"rows have shape {block.shape}, expected (?, {n})")
        count += block.shape[0]
        distinct.update(np.packbits(block > 0, axis=1).view(key).ravel().tolist())
    if count < 1:
        raise ValueError("rows must be nonempty")
    # bytes sort as the keys' memory does, as np.unique sorts them
    return np.frombuffer(b"".join(sorted(distinct)), dtype=key), count


def _unpack_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The {-1,+1} int8 rows of packed keys from `_distinct_keys`."""
    packed = keys.view(np.uint8).reshape(keys.size, -1)
    # the bits as int8, mapped to 2b - 1, as `rounding._round_rows` does
    return 2 * np.unpackbits(packed, axis=1, count=n).view(np.int8) - 1


def rrr_low(params: MrfParams, rows) -> EstimateReport:
    """Deduplicated lower bound on the log partition.

    Keeps each distinct sampled assignment once and returns the
    log-sum-exp of their scores, which can only undercount the full sum
    over corners. Without deduplication repeated samples would be counted
    twice and the bound would be lost.

    `rows` is an iterable of blocks of {-1,+1} assignments stacked as rows
    (as from `rrr_sample_blocks`). Each row becomes the key
    np.packbits(row > 0), one byte string, and one set keeps the distinct
    keys across blocks; they are sorted once at the end. Packed
    bytes sort like the int8 rows (-1 < +1, variable 0 most significant),
    so the distinct rows are those of np.unique(rows, axis=0), in its
    order. The distinct keys are unpacked and scored SAMPLE_BLOCK_ROWS at a
    time; at width k=2 (at most 2n patterns) that is one block while
    2n <= SAMPLE_BLOCK_ROWS, i.e. n <= 1024. Memory is one block plus the
    set and one sorted copy of the distinct keys (n/8 bytes each), and the
    work is one hash per row and O(distinct log distinct) key comparisons;
    no samples x n matrix is built.
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
        wall_clock=time.perf_counter() - start,
        details={"distinct": int(keys.size)},
    )


def rrr_is(params: MrfParams, X, count: int, seed: int) -> EstimateReport:
    """Importance sampling against the width-2 rounding distribution.

    Draws `count` Gaussian directions (the stream of `rrr_map_sample`) and
    weights each draw's pattern by exp(score)/p, p its arc's length over
    2*pi, then averages. A draw's pattern is fixed by its arc, so the
    draws are only counted per arc (`_arc_index`), and each of the at most
    2n patterns of `enumerate_support_k2` is scored once and weighted by
    count/p. A direction on a boundary, or within rounding distance of
    one, takes the pattern of the arc that searchsorted(angles,
    atan2(g) mod 2*pi, side="right") picks. A zero row reads +1 in every
    pattern, as rounding gives it; any nonzero row, however short, takes
    the sign the rounding kernel gives it on its arc. No samples x n matrix
    is built.

    The same scores give the sampler's exact expectation: the mean of
    exp(score)/p over the rounding distribution is the sum of exp(score)
    over the support. `details` carries its log, `log_z_exact_support`,
    which lower-bounds the log partition, with equality when the support
    covers every corner, and does not depend on `count` or `seed`; and
    `support_size`, the number of patterns.
    """
    start = time.perf_counter()
    dist = build_px_k2(_check_sampling(params, X, count))
    support = enumerate_support_k2(dist)
    scores = score_batch(params, np.stack([pattern for pattern, _ in support]))
    probs = np.array([p for _, p in support])
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
        wall_clock=time.perf_counter() - start,
        details={
            "log_z_exact_support": _streaming_logsumexp(scores),
            "support_size": int(scores.size),
        },
    )
