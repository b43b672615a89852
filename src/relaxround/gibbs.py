"""Single-site and block Gibbs sampling with optional annealing, plus the
relax-and-round warm start that feeds rounded samples into annealed chains.

Temperature always divides the score, so a conditional flip probability is
a logistic in (score difference)/temperature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .models import Domain, MrfParams, RbmParams, check_assignment
from .rounding import _check_feasible_rows, _sample_batch

# machine epsilon, and the largest argument math.exp takes without overflow
_EPS = sys.float_info.epsilon
_EXP_MAX = math.log(sys.float_info.max)

__all__ = [
    "AnnealSchedule",
    "ChainState",
    "block_gibbs_rbm_sweep",
    "annealed_gibbs",
    "rrr_ag",
]


@dataclass(frozen=True, eq=False)
class AnnealSchedule:
    """Sequence of strictly positive, non-increasing temperatures ending at
    1.0. May be empty (no sweeps at all)."""

    temperatures: np.ndarray

    def __post_init__(self):
        temps = np.array(self.temperatures, dtype=float)
        if temps.ndim != 1:
            raise ValueError("temperatures must be a 1-dimensional sequence")
        if temps.size:
            if not np.all(temps > 0.0):
                raise ValueError("temperatures must be strictly positive")
            if np.any(np.diff(temps) > 0.0):
                raise ValueError("temperatures must be non-increasing")
            if temps[-1] != 1.0:
                raise ValueError("the final temperature must be 1.0")
        temps.setflags(write=False)
        object.__setattr__(self, "temperatures", temps)

    @classmethod
    def linear(cls, t_high: float, steps: int) -> "AnnealSchedule":
        """Linear ramp from t_high down to 1.0 over `steps` sweeps."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if t_high < 1.0:
            raise ValueError("t_high must be >= 1.0")
        if steps == 1:
            return cls(np.array([1.0]))
        return cls(np.linspace(t_high, 1.0, steps))

    def __len__(self) -> int:
        return self.temperatures.size


@dataclass(frozen=True, eq=False)
class ChainState:
    """The end of a chain run: the final assignment, the score after each
    sweep, and the best state visited, the start state included, with its
    score (for `rrr_ag`, over all of its chains); the first visit wins
    ties."""

    x: np.ndarray
    score_trace: tuple
    best_x: np.ndarray
    best_score: float

    @property
    def sweep_count(self) -> int:
        return len(self.score_trace)

    @property
    def final_score(self):
        return self.score_trace[-1] if self.score_trace else None


def _site_probability(A: np.ndarray, x, i: int, temperature: float) -> float:
    """P(x_i = +1 | rest) from the per-site field A[i] @ x - A[i, i] * x[i].

    The x_i-dependent part of the score x'Ax is 2 x_i times that field, so
    the conditional is the logistic 1 / (1 + exp(-z)) of z = 4 * field / T,
    taken as 0.0 where exp(-z) would overflow.
    """
    z = 4.0 * float(A[i] @ x - A[i, i] * x[i]) / temperature
    return 1.0 / (1.0 + math.exp(-z)) if -z <= _EXP_MAX else 0.0


def _field_error(A: np.ndarray) -> float:
    """Bound on how far the incremental field of `_sweep_inplace` can sit
    from the per-site field `A[i] @ x - A[i, i] * x[i]`.

    With x in {-1,+1}^n every product A_ij x_j is exact, so a field is off
    only by its roundings, each at most u = eps/2 times a partial result no
    larger than the row's absolute sum R_i. The per-site field takes n
    roundings (a dot product of n terms in any summation order, then one
    subtraction); the incremental one at most 2n - 1 (a matrix-vector
    product of n terms, one subtraction, up to n - 1 flip updates). The two
    therefore differ by at most about 3n u R_i = 1.5 n eps R_i; the bound is
    4 (n + 1) eps times the largest R_i, over twice that.
    """
    n = A.shape[0]
    return 4.0 * (n + 1) * _EPS * float(np.abs(A).sum(axis=1).max(initial=0.0))


def _sweep_inplace(
    A: np.ndarray,
    x: np.ndarray,
    temperature: float,
    rng: np.random.Generator,
    field_error: float,
) -> None:
    """One systematic scan over sites 0..n-1, drawing one uniform per site.

    Decides every site as `u < _site_probability(A, x, i, T)`, without
    computing the per-site field `A[i] @ x - A[i, i] * x[i]`: the fields
    are refreshed with one matrix-vector product per sweep and moved by
    2 s A[i] when site i flips to s (A is exactly symmetric). Uniforms come
    from one `rng.random(n)`, the same stream as n scalar draws.

    `field_error` (see `_field_error`) bounds the incremental field's
    distance from the per-site one. The logistic is 1/T-Lipschitz in the
    field, so the two probabilities differ by at most field_error / T plus
    the rounding of the logistic itself (a few eps). Outside that guard
    width the comparison with u cannot come out differently; inside it the
    site is decided with `_site_probability`, so every decision, and the
    chain, is bit for bit that of the per-site kernel.
    """
    n = x.shape[0]
    # half of each field, diagonal excluded, so a flip to s adds s * A[i]
    # with no scaling; site i's own entry goes stale once visited, which no
    # later site reads
    half = 0.5 * (A @ x - A.diagonal() * x)
    field_of = half.item
    guard = field_error / temperature + 8.0 * _EPS
    xs = x.tolist()
    for i, u in enumerate(rng.random(n).tolist()):
        # `_site_probability`'s logistic, inlined: a call per site costs
        # about 8% of a sweep
        z = 8.0 * field_of(i) / temperature
        prob = 1.0 / (1.0 + math.exp(-z)) if -z <= _EXP_MAX else 0.0
        if abs(u - prob) <= guard:
            prob = _site_probability(A, x, i, temperature)
        s = 1 if u < prob else -1
        if s != xs[i]:
            xs[i] = s
            x[i] = s
            if s > 0:
                half += A[i]
            else:
                half -= A[i]


def _tempered_block_sweep(
    params: RbmParams,
    V: np.ndarray,
    H: np.ndarray,
    beta: float,
    rng: np.random.Generator,
):
    """Block sweep targeting exp(beta * score), vectorized over chains.
    Conditionals are 1 / (1 + exp(-z)) on arrays; exp(-z) overflows to inf
    where the probability is 0."""
    gain = 2.0 if params.domain is Domain.PLUS_MINUS_ONE else 1.0
    lo = -1 if params.domain is Domain.PLUS_MINUS_ONE else 0
    with np.errstate(over="ignore"):
        ph = 1.0 / (1.0 + np.exp(-(gain * beta * (V @ params.W + params.b))))
        H = np.where(rng.random(ph.shape) < ph, 1, lo).astype(np.int8)
        pv = 1.0 / (1.0 + np.exp(-(gain * beta * (H @ params.W.T + params.a))))
        V = np.where(rng.random(pv.shape) < pv, 1, lo).astype(np.int8)
    return V, H


def block_gibbs_rbm_sweep(
    params: RbmParams, v, h, temperature: float, rng: np.random.Generator
):
    """One block sweep: resample all hidden units given v, then all visible
    units given the new h. Conditionals are logistic(2 * field / T)."""
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("block sampling expects the {-1,+1} domain")
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    vv = check_assignment(v, params.m, params.domain)
    hv = check_assignment(h, params.p, params.domain)
    V, H = _tempered_block_sweep(
        params, vv[None, :], hv[None, :], 1.0 / temperature, rng
    )
    return V[0], H[0]


def _run_schedule(
    params: MrfParams,
    temperatures: np.ndarray,
    x0: np.ndarray,
    rng: np.random.Generator,
) -> ChainState:
    """The chain loop: one sweep per temperature from x0, recording the
    score after each sweep and the best state visited (x0 included, first
    visit wins ties)."""
    A = params.A
    x = np.asarray(x0, dtype=np.int8).copy()
    best_x, best_score = x.copy(), float(x @ A @ x)
    field_error = _field_error(A)
    trace = []
    for temperature in temperatures:
        _sweep_inplace(A, x, float(temperature), rng, field_error)
        value = float(x @ A @ x)
        trace.append(value)
        if value > best_score:
            best_x, best_score = x.copy(), value
    return ChainState(x, tuple(trace), best_x, best_score)


def annealed_gibbs(
    params: MrfParams, schedule: AnnealSchedule, init, seed: int
) -> ChainState:
    """Run one sweep per schedule temperature, starting from `init`. The
    returned state carries the best state visited next to the final one."""
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("single-site sampling expects the {-1,+1} domain")
    if len(schedule) == 0:
        raise ValueError("schedule must be nonempty")
    check_assignment(init, params.n, params.domain)
    rng = np.random.default_rng(seed)
    return _run_schedule(params, schedule.temperatures, init, rng)


def rrr_ag(
    params: MrfParams, X, schedule: AnnealSchedule, chains: int, seed: int
) -> ChainState:
    """Relax-and-round warm start for annealed Gibbs.

    Draws `chains` rounded samples of X and anneals one chain from each
    along `schedule`. Returns the final state of the chain that ended with
    the best score; its `best_x` and `best_score` hold the best state
    visited by any chain, starts included. The first chain wins ties in
    both. With an empty schedule both are the best initial sample,
    unchanged. Seed derivation: the root seed spawns (sampling, annealing);
    the annealing child spawns one generator per chain.
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("single-site sampling expects the {-1,+1} domain")
    if chains < 1:
        raise ValueError("chains must be >= 1")
    X = _check_feasible_rows(params, X)
    sample_ss, anneal_ss = np.random.SeedSequence(seed).spawn(2)
    batch = _sample_batch(params, X, chains, np.random.default_rng(sample_ss), seed)
    states = [
        _run_schedule(params, schedule.temperatures, x0, np.random.default_rng(ss))
        for x0, ss in zip(batch.samples, anneal_ss.spawn(chains))
    ]
    # max() keeps the first of equal keys; a chain without sweeps ends at
    # its start, which is its best state
    final = max(states, key=lambda s: s.final_score if s.sweep_count else s.best_score)
    best = max(states, key=lambda s: s.best_score)
    return replace(final, best_x=best.best_x, best_score=best.best_score)
