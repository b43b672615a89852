"""Single-site Gibbs sampling with optional annealing, plus the
relax-and-round warm start that feeds rounded samples into annealed
chains. AIS's RBM block sweep is in `partition._ais_runs`.

Temperature always divides the score, so a conditional flip probability is
a logistic in (score difference)/temperature. A chain decides each site
against a field threshold from its uniform, the logistic's up to rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .models import Domain, MrfParams, _scan_spans, check_assignment, score
from .rounding import rrr_sample_blocks

# the largest argument math.exp takes without overflow
_EXP_MAX = math.log(sys.float_info.max)
# uniforms per buffer of `_run_schedule`, drawn and turned into thresholds
# a chunk of sweeps at a time (at least one sweep per chunk)
_CHUNK = 1 << 15

@dataclass(frozen=True, eq=False)
class ChainState:
    """The end of a chain run: the final assignment, the score after each
    sweep, and the best state visited, the start state included, with its
    score (for `rrr_ag`, over all of its chains); the first visit wins
    ties. `_sweep`'s scores fill the trace and choose the best state, and
    best_score is `models.score(best_x)`: batched products round by batch
    size, and every `map` method reports its best state's score this way,
    so equal states tie bit for bit across methods."""

    x: np.ndarray
    score_trace: tuple
    best_x: np.ndarray
    best_score: float


def _thresholds(u: np.ndarray, temperatures) -> np.ndarray:
    """Turns the uniforms u into field thresholds in place and returns u:
    u at temperature T becomes (T / 4) * logit(u), logit clamped below at
    -_EXP_MAX; `temperatures` broadcasts against u. A site with field f
    takes +1 where f > its threshold, which is u < 1 / (1 + exp(-4 f / T))
    up to rounding. The clamp keeps u = 0 at -1 exactly where that
    probability underflows to 0 (exp(-4 f / T) overflows), and a u above 1
    gives nan, so -1, as the logistic's comparison does."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0); u > 1
        log_1mu = np.log1p(-u)
        np.log(u, out=u)
        u -= log_1mu
        np.maximum(u, -_EXP_MAX, out=u)
    u *= 0.25 * temperatures
    return u


def _sweep_plan(A: np.ndarray, X: np.ndarray) -> tuple:
    """What `_sweep` reads and writes, taken once per run for the float64
    chain states X (a row per chain): X, L, trace(A), and per span S of
    `_scan_spans(A)` the slice S, the views of X and L on S, a field buffer,
    the factors of lower_S and of upper_S (None where the block is empty:
    the first span's lower, the last span's upper), and, where S is scanned
    site by site, B = A[S, S] with zero diagonal, its rows and x_S B (else
    None: a lone site is decided as a blocked span)."""
    n, L, spans = A.shape[0], np.zeros(X.shape), []
    for start, stop, blocked in _scan_spans(A):
        S, site = slice(start, stop), None
        if not blocked and stop - start > 1:
            B = A[S, S].copy()
            np.fill_diagonal(B, 0.0)
            site = B, list(B), X[:, S] @ B
        lower = (X[:, :start], A[:start, S]) if start else None
        upper = (X[:, stop:], A[stop:, S]) if stop < n else None
        spans.append((S, X[:, S], L[:, S], np.empty(L[:, S].shape), lower, upper, site))
    return X, L, float(A.trace()), spans


def _sweep(plan: tuple, thresholds: np.ndarray | None) -> np.ndarray:
    """One systematic scan over sites 0..n-1 of every chain (row) of X, in
    place, site i of chain c deciding against thresholds[c, i]; returns the
    new states' scores. With thresholds None it only scores X.

    Site i takes +1 where its field sum_{j != i} A[i, j] x[j] exceeds its
    threshold, (T / 4) * logit(u) from `_thresholds`. The spans S of `plan`
    (see `_sweep_plan`) take their fields in order from the off-diagonal
    blocks of A, as `relaxation._ascend` does: lower_S = X[:, :start] @
    A[:start, S] from this sweep's rows plus upper_S = X[:, stop:] @
    A[stop:, S] from the last sweep's. A blocked span is decided at once
    by one comparison (a span with no upper block compares lower_S itself).
    A span of singleton runs goes site by site in Python floats, comparing
    the half fields (lower_S + upper_S + x_S B) / 2 with half thresholds, a
    flip of site i to s adding s B[i]; x_S B is then taken anew, for the
    score and the next sweep.

    The score is sum_S <x_S, A[S, S] x_S + 2 lower_S> = trace(A) + 2 <x, L>
    with L_S = lower_S + x_S B / 2, so it takes no product of its own. With
    x in {-1,+1}^n every A_ij x_j is exact: a field differs from its exact
    value only by rounding, and a score from x'Ax by at most
    4 n eps sum_ij |A_ij| (eps the float64 machine epsilon). A decision can
    differ from a per-site kernel's, u < 1 / (1 + exp(-4 * field / T)),
    only where u lies within rounding of that probability.
    """
    X, L, trace, spans = plan
    for S, xs, ls, buffer, lower, upper, site in spans:
        if lower is not None:
            np.matmul(*lower, out=ls)
        elif site is not None:  # L_S still holds the last sweep's x_S B / 2
            ls[...] = 0.0
        if thresholds is not None:
            field = ls if upper is None else np.matmul(*upper, out=buffer)
            if lower is not None and upper is not None:
                field += ls
            if site is None:
                np.greater(field, thresholds[:, S], out=xs)  # 1.0 or 0.0
                xs *= 2.0
                xs -= 1.0
                continue
            B, rows, XB = site
            half, half_thresholds = 0.5 * (field + XB), 0.5 * thresholds[:, S]
            for x, h, t_row in zip(xs, half, half_thresholds):
                field_of = h.item
                old = x.tolist()  # indexed by site in S, read before any flip
                for i, t in enumerate(t_row.tolist()):
                    s = 1.0 if field_of(i) > t else -1.0
                    if s != old[i]:
                        x[i] = s
                        if s > 0:
                            h += rows[i]
                        else:
                            h -= rows[i]
            np.matmul(xs, B, out=XB)
        if site is not None:
            ls += 0.5 * site[2]
    return trace + 2.0 * np.einsum("ci,ci->c", X, L)


def _run_schedule(
    params: MrfParams, temperatures: np.ndarray, x0: np.ndarray, rngs: list
) -> list:
    """The chain loop: advances one chain per row of x0 in lockstep, one
    sweep per temperature, chain c drawing its sweep's uniforms from
    rngs[c]. The uniforms of a chunk of sweeps, about _CHUNK for all chains
    together, are drawn at once, one rng.random((sweeps, n)) per chain (the
    same stream as n scalar draws per sweep), and turned into `_thresholds`
    in one pass, so memory stays flat in the number of sweeps. Returns one
    ChainState per chain, with the score `_sweep` returns after each sweep
    and the best state visited by those scores, its start (scored by the
    same sum) included, first visit winning ties."""
    X = np.array(x0, dtype=float)
    plan, traces = _sweep_plan(params.A, X), [[] for _ in rngs]
    chunk = max(1, _CHUNK // max(1, X.size))
    uniforms = np.empty((X.shape[0], min(chunk, len(temperatures)), X.shape[1]))
    best_score, best_x = _sweep(plan, None).tolist(), X.copy()
    for start in range(0, len(temperatures), chunk):
        temps = temperatures[start:start + chunk]
        thresholds = uniforms[:, :len(temps)]
        for rng, u in zip(rngs, thresholds):
            rng.random(out=u)
        _thresholds(thresholds, temps[:, None])
        for sweep in range(len(temps)):
            for c, value in enumerate(_sweep(plan, thresholds[:, sweep]).tolist()):
                traces[c].append(value)
                if value > best_score[c]:
                    best_x[c], best_score[c] = X[c], value
    return [
        ChainState(x.astype(np.int8), tuple(t), b.astype(np.int8), score(params, b))
        for x, t, b in zip(X, traces, best_x)
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
