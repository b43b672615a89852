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
# the magnitude of a decided site, as an array: a Python float would be
# converted on every `np.copysign` call
_ONE = np.array(1.0)

@dataclass(frozen=True, eq=False)
class ChainState:
    """The end of a chain run: the final assignment, the score after each
    sweep, and the best state visited, the start state included, with its
    score (for `rrr_ag`, over all of its chains); the first visit wins
    ties, also across chunks of sweeps. `_scores` fills the trace and
    chooses the best state, and best_score is `models.score(best_x)`:
    batched products round by batch size, and every `map` method reports
    its best state's score this way, so equal states tie bit for bit
    across methods."""

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
    probability underflows to 0 (exp(-4 f / T) overflows). A u at or above
    1 gives +inf, so -1, as the logistic's comparison does, and no
    threshold is -0 (u = 1/2 gives +0)."""
    np.minimum(u, 1.0, out=u)
    with np.errstate(divide="ignore"):  # log(0), log1p(-1)
        log_1mu = np.negative(u)
        np.log1p(log_1mu, out=log_1mu)
        np.log(u, out=u)
        u -= log_1mu
        np.maximum(u, -_EXP_MAX, out=u)
    u *= 0.25 * temperatures
    return u


def _sweep_plan(A: np.ndarray, Y: np.ndarray, thresholds: np.ndarray) -> tuple:
    """What `_sweep` reads and writes, taken once per run for the negated
    float64 chain states Y = -X (a row per chain) and the buffer of one
    sweep's thresholds (same shape): L, trace(A), and per span S of
    `_scan_spans(A)` the views of Y, L and the thresholds on S, a field
    buffer, the factors of lower_S and of upper_S (None where the block is
    empty: the first span's lower, the last span's upper), and, where S is
    scanned site by site, B = A[S, S] with zero diagonal, its rows and
    y_S B (else None: a lone site is decided as a blocked span). L is
    filled for the start states, so `_scores(trace, Y, L)` scores them as
    it scores each sweep's."""
    n, L, spans = A.shape[0], np.zeros(Y.shape), []
    for start, stop, blocked in _scan_spans(A):
        S, site = slice(start, stop), None
        lower = (Y[:, :start], A[:start, S]) if start else None
        upper = (Y[:, stop:], A[stop:, S]) if stop < n else None
        if lower is not None:
            np.matmul(*lower, out=L[:, S])
        if not blocked and stop - start > 1:
            B = A[S, S].copy()
            np.fill_diagonal(B, 0.0)
            site = B, list(B), Y[:, S] @ B
            L[:, S] += 0.5 * site[2]
        spans.append((Y[:, S], L[:, S], thresholds[:, S], np.empty(L[:, S].shape),
                      lower, upper, site))
    return L, float(A.trace()), spans


def _sweep(spans: list) -> None:
    """One systematic scan over sites 0..n-1 of every chain, in place, by
    the spans of `_sweep_plan`; site i of chain c decides against entry
    [c, i] of the plan's threshold buffer. It only decides: `_scores`
    scores the states it leaves, from Y and L.

    Site i takes +1 where its field sum_{j != i} A[i, j] x[j] exceeds its
    threshold t, (T / 4) * logit(u) from `_thresholds`. The chains hold
    y = -x: rounding is symmetric in sign, so a field f_y of y is -field
    bit for bit (up to the sign of a zero), and t + f_y is t - field. The
    spans S take their fields in order from the off-diagonal blocks of A,
    as `relaxation._ascend` does: lower_S = Y[:, :start] @ A[:start, S]
    from this sweep's rows plus upper_S = Y[:, stop:] @ A[stop:, S] from
    the last sweep's. A blocked span is decided at once by two calls,
    y_S = copysign(1, t + f_y) (a span with no upper block takes lower_S
    itself as f_y): an exact tie cancels to +0, so y = +1 and x = -1, as
    `field > t` decides, and since t is never -0 a zero field meets it as
    +0 whatever its sign. A span of singleton runs goes site by site in
    Python floats: y_i = -1 exactly where the half field
    (lower_S + upper_S + y_S B) / 2 is below -t / 2, a flip of site i to
    s adding s B[i]; y_S B is then taken anew, for the score and the next
    sweep.

    The score of a state is sum_S <y_S, A[S, S] y_S + 2 lower_S> =
    trace(A) + 2 <y, L> with L_S = lower_S + y_S B / 2, so it takes no
    product of its own, and y_i L_i is x_i times x's L_i exactly. With
    x in {-1,+1}^n every A_ij x_j is exact: a field differs from its exact
    value only by rounding, and a score from x'Ax by at most
    4 n eps sum_ij |A_ij| (eps the float64 machine epsilon). A decision can
    differ from a per-site kernel's, u < 1 / (1 + exp(-4 * field / T)),
    only where u lies within rounding of that probability.
    """
    for ys, ls, ts, buffer, lower, upper, site in spans:
        if lower is not None:
            np.matmul(*lower, out=ls)
        elif site is not None:  # L_S still holds the last sweep's y_S B / 2
            ls[...] = 0.0
        field = ls if upper is None else np.matmul(*upper, out=buffer)
        if lower is not None and upper is not None:
            field += ls
        if site is None:
            np.add(ts, field, out=ys)
            np.copysign(_ONE, ys, out=ys)
            continue
        B, rows, YB = site
        half, half_thresholds = 0.5 * (field + YB), -0.5 * ts
        for y, h, t_row in zip(ys, half, half_thresholds):
            field_of = h.item
            old = y.tolist()  # indexed by site in S, read before any flip
            for i, t in enumerate(t_row.tolist()):
                s = -1.0 if field_of(i) < t else 1.0
                if s != old[i]:
                    y[i] = s
                    if s > 0:
                        h += rows[i]
                    else:
                        h -= rows[i]
        np.matmul(ys, B, out=YB)
        ls += 0.5 * YB


def _scores(trace: float, Y: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The scores trace(A) + 2 <y, l> of the rows y of Y (see `_sweep`),
    one einsum over all rows; a row's value does not depend on how many
    rows are scored with it."""
    return trace + 2.0 * np.einsum("ci,ci->c", Y, L)


def _run_schedule(
    params: MrfParams, temperatures: np.ndarray, x0: np.ndarray, rngs: list
) -> list:
    """The chain loop: advances one chain per row of x0 in lockstep, one
    sweep per temperature, chain c drawing its sweep's uniforms from
    rngs[c]. The uniforms of a chunk of sweeps, about _CHUNK for all chains
    together, are drawn at once, one rng.random((sweeps, n)) per chain (the
    same stream as n scalar draws per sweep), and turned into `_thresholds`
    in one pass. Each sweep copies its thresholds into the plan's buffer,
    and its states and L into two chunk buffers of (sweeps, chains, n),
    which `_scores` scores once per chunk. Like the uniforms, each buffer
    holds at most _CHUNK floats (or one sweep's, if more), so memory stays
    flat in the number of sweeps. Returns one ChainState per chain, with
    its score after each sweep and the best state visited by those scores,
    its start (scored by the same sum) included: a chunk's first maximum
    replaces the best state only where it is strictly greater, so the
    first visit wins ties across chunks too."""
    Y = np.negative(x0, dtype=float)
    chains, n = Y.shape
    sweep_thresholds = np.empty(Y.shape)
    L, trace, spans = _sweep_plan(params.A, Y, sweep_thresholds)
    chunk = max(1, _CHUNK // max(1, Y.size))
    uniforms = np.empty((chains, min(chunk, len(temperatures)), n))
    states, fields = np.empty((2, uniforms.shape[1], chains, n))
    best_score, best_y, traces = _scores(trace, Y, L), Y.copy(), [[] for _ in rngs]
    for start in range(0, len(temperatures), chunk):
        temps = temperatures[start:start + chunk]
        k = len(temps)
        thresholds = uniforms[:, :k]
        for rng, u in zip(rngs, thresholds):
            rng.random(out=u)
        _thresholds(thresholds, temps[:, None])
        for sweep in range(k):
            sweep_thresholds[...] = thresholds[:, sweep]
            _sweep(spans)
            states[sweep], fields[sweep] = Y, L
        rows = states[:k].reshape(k * chains, n), fields[:k].reshape(k * chains, n)
        scores = _scores(trace, *rows).reshape(k, chains)
        for t, column in zip(traces, scores.T.tolist()):
            t.extend(column)
        first = scores.argmax(axis=0)
        top = scores[first, range(chains)]
        better = np.flatnonzero(top > best_score)
        best_score[better] = top[better]
        best_y[better] = states[first[better], better]
    X, best_x = -Y, -best_y
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
