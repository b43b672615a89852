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

from .models import Domain, MrfParams, RbmParams, _scan_spans, check_assignment
from .rounding import rrr_sample_blocks

# the largest argument math.exp takes without overflow
_EXP_MAX = math.log(sys.float_info.max)

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


def _sweep(
    A: np.ndarray, spans: list, X: np.ndarray, U: np.ndarray, temperature: float
) -> None:
    """One systematic scan over sites 0..n-1 of every chain (row) of X, in
    place, site i of chain c deciding with the uniform U[c, i].

    Site i takes +1 where u < 1 / (1 + exp(-4 * field / T)), the logistic
    of its field A[i] @ x - A[i, i] * x[i] (0.0 where exp overflows). The
    fields are not taken per site: one matrix product per sweep refreshes
    them, and they are kept current as the scan moves along `spans` (see
    `_scan_spans`):
    - a run of mutually uncoupled sites is decided at once, with a
      vectorized logistic, and its flips reach the fields of the later
      sites through one product;
    - a span of singleton runs goes site by site in Python floats, a flip
      of site i to s adding 2 s A[i] to the fields (A is exactly
      symmetric).

    With x in {-1,+1}^n every product A_ij x_j is exact, so a field kept
    this way differs from the dot product A[i] @ x - A[i, i] * x[i] only
    by rounding, a few ulps of the row's absolute sum. A decision can
    therefore differ from a per-site kernel's only where u lies within that
    rounding of the probability. The per-site field is itself rounded in
    one summation order, so neither kernel is the more exact.
    """
    n = X.shape[1]
    # half of each field, diagonal excluded, so a flip to s adds s * A[i]
    # with no scaling; a site's own entry goes stale once visited, which no
    # later site reads
    H = 0.5 * (X @ A - A.diagonal() * X)
    exp, exp_max = math.exp, _EXP_MAX  # local names: read at every site below
    for start, stop, blocked in spans:
        if blocked:
            old = X[:, start:stop]
            with np.errstate(over="ignore"):  # exp(-z) = inf: probability 0
                prob = 1.0 / (1.0 + np.exp(-(8.0 * H[:, start:stop] / temperature)))
            new = 2 * (U[:, start:stop] < prob).view(np.int8) - 1
            if stop < n:
                H[:, stop:] += 0.5 * ((new - old) @ A[start:stop, stop:])
            old[...] = new
            continue
        for x, half, u_row in zip(X, H, U):
            field_of = half.item
            xs = x[:stop].tolist()  # indexed by site, read before any flip
            for i, u in enumerate(u_row[start:stop].tolist(), start):
                z = 8.0 * field_of(i) / temperature
                prob = 1.0 / (1.0 + exp(-z)) if -z <= exp_max else 0.0
                s = 1 if u < prob else -1
                if s != xs[i]:
                    x[i] = s
                    if s > 0:
                        half += A[i]
                    else:
                        half -= A[i]


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


def _tempered_block_sweep(
    params: RbmParams,
    V: np.ndarray,
    H: np.ndarray,
    beta: float,
    rng: np.random.Generator,
    work: tuple,
) -> np.ndarray:
    """Block sweep targeting exp(beta * score), in place on the float64
    chain states V (runs x m) and H (runs x p), entries in {lo, 1}: H given
    V, then V given the new H. Returns the scores of the input state, which
    the hidden conditional's product V @ W also gives. `work` is a float64
    (2, runs, p) and a (2, runs, m) buffer, a field and uniforms per layer,
    allocated once by the caller. Each logistic takes the operations of
    1 / (1 + exp(-(gain * beta * (field + bias)))) in that order (the sign
    inside the product, which is exact), so every probability and decision
    is bit for bit that of the expression; another order (say, gain * beta
    folded into the bias) moves probabilities by ulps."""
    gain, lo = (2.0, -1) if params.domain is Domain.PLUS_MINUS_ONE else (1.0, 0)
    (field_h, u_h), (field_v, u_v) = work
    np.matmul(V, params.W, out=field_h)
    scores = np.einsum("rp,rp->r", field_h, H) + V @ params.a + H @ params.b
    _resample_layer(H, field_h, params.b, gain * beta, lo, u_h, rng)
    np.matmul(H, params.W.T, out=field_v)
    _resample_layer(V, field_v, params.a, gain * beta, lo, u_v, rng)
    return scores


def _run_schedule(
    params: MrfParams,
    temperatures: np.ndarray,
    x0: np.ndarray,
    rngs: list,
) -> list:
    """The chain loop: advances one chain per row of x0 in lockstep, one
    sweep per temperature, chain c drawing its sweep's uniforms from
    rngs[c]. Returns one ChainState per chain, with the score after each
    sweep and the best state visited (its start included, first visit wins
    ties)."""
    A = params.A
    X = np.array(x0, dtype=np.int8)
    best_x = X.copy()
    best_score = [float(x @ A @ x) for x in X]
    traces = [[] for _ in rngs]
    spans = _scan_spans(A)
    U = np.empty(X.shape)
    for temperature in temperatures:
        # one rng.random(n) per chain, the same stream as n scalar draws
        for rng, u in zip(rngs, U):
            rng.random(out=u)
        _sweep(A, spans, X, U, float(temperature))
        for c, x in enumerate(X):
            value = float(x @ A @ x)
            traces[c].append(value)
            if value > best_score[c]:
                best_x[c], best_score[c] = x, value
    return [
        ChainState(x.copy(), tuple(trace), bx.copy(), bs)
        for x, trace, bx, bs in zip(X, traces, best_x, best_score)
    ]


def _linear_temperatures(t_high: float, sweeps: int) -> np.ndarray:
    """One temperature per sweep, falling linearly from t_high to 1.0; a
    single sweep runs at 1.0, and t_high = 1.0 is plain Gibbs sampling."""
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if not 1.0 <= t_high < math.inf:
        raise ValueError(f"t_high must be finite and >= 1.0, got {t_high}")
    return np.linspace(t_high if sweeps > 1 else 1.0, 1.0, sweeps)


def annealed_gibbs(
    params: MrfParams, t_high: float, sweeps: int, init, seed: int
) -> ChainState:
    """Run `sweeps` sweeps, cooling linearly from t_high to 1.0, starting
    from `init`. The returned state carries the best state visited next to
    the final one."""
    temperatures = _linear_temperatures(t_high, sweeps)
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("single-site sampling expects the {-1,+1} domain")
    check_assignment(init, params.n, params.domain)
    rngs = [np.random.default_rng(seed)]
    return _run_schedule(params, temperatures, [init], rngs)[0]


def rrr_ag(
    params: MrfParams, X, t_high: float, sweeps: int, chains: int, seed: int
) -> ChainState:
    """Relax-and-round warm start for annealed Gibbs.

    Draws `chains` rounded samples of X and anneals one chain from each
    for `sweeps` sweeps from t_high down to 1.0, as `annealed_gibbs`
    does, all chains advancing in lockstep. Returns the final state of the
    chain that ended with the best score; its `best_x` and `best_score`
    hold the best state visited by any chain, starts included. The first
    chain wins ties in both. Seed derivation: the root seed spawns
    (sampling, annealing); the annealing child spawns one generator per
    chain. `rrr_sample_blocks` checks the domain and X.
    """
    temperatures = _linear_temperatures(t_high, sweeps)
    if chains < 1:
        raise ValueError("chains must be >= 1")
    sample_ss, anneal_ss = np.random.SeedSequence(seed).spawn(2)
    starts = np.concatenate(list(rrr_sample_blocks(params, X, chains, sample_ss)))
    rngs = [np.random.default_rng(ss) for ss in anneal_ss.spawn(chains)]
    states = _run_schedule(params, temperatures, starts, rngs)
    final = max(states, key=lambda s: s.score_trace[-1])
    best = max(states, key=lambda s: s.best_score)
    return replace(final, best_x=best.best_x, best_score=best.best_score)
