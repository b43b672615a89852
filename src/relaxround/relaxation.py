"""Low-rank relaxation of the binary quadratic problem.

Replaces each spin with a row vector of width k constrained to the unit
ball and maximizes tr(X' A X) by block-coordinate ascent in sweeps along
the Gibbs scan plan. Width 1 is the box relaxation; width n is the full
factored semidefinite relaxation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .models import Domain, MrfParams, _check_rows_feasible, _scan_spans

logger = logging.getLogger(__name__)

# Stopping rule: a restart stops once its objective has changed by less than
# _REL_TOL (relative) over _STALL_WINDOW sweeps, or after _MAX_ITERS sweeps.
_STALL_WINDOW = 5
_REL_TOL = 1e-8
_MAX_ITERS = 10_000

# estimate_lipschitz's power iteration: its cap on products, and the
# relative change of the norm estimate at which it stops early.
_LIPSCHITZ_ITERS = 50
_LIPSCHITZ_TOL = 1e-6


@dataclass(frozen=True)
class LrpOptions:
    """Solver options. `k` is the relaxation width, `restarts` the number
    of independent random initializations, and `seed` drives all of them.
    The stopping rule is the solver's own (_REL_TOL, _MAX_ITERS)."""

    k: int = 2
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class RelaxedSolution:
    """Best iterate found: row matrix X, its objective, the total number of
    sweeps across all restarts, the winning run's objective trace (entry 0
    at initialization, then one per sweep), and the solve's work in
    n-vector products with A (`matvecs`): a b x c block of A times w columns
    counts b*c*w / n^2, power iterations included, rounded up once."""

    X: np.ndarray
    objective: float
    iterations: int
    trace: np.ndarray
    matvecs: int

    def __post_init__(self):
        _check_rows_feasible(self.X)


def project_rows(X: np.ndarray) -> np.ndarray:
    """Project every row onto the unit ball. Rows with norm <= 1 are
    returned unchanged, longer rows are rescaled to norm 1. Rows run along
    the last axis, so a stack of row matrices is projected row by row."""
    X = np.asarray(X, dtype=float)
    norms = np.sqrt(np.einsum("...k,...k->...", X, X))
    return X * (1.0 / np.maximum(norms, 1.0))[..., None]


def estimate_lipschitz(A: np.ndarray) -> tuple[float, int]:
    """Estimate of the gradient Lipschitz constant L = 2*||A||_2, at least L/2,
    and the number of products A @ v it took, for a square float array A.

    Projected gradient ascent with step 1/estimate is monotone whenever the
    estimate is at least L/2 (a step of at most 2/L never decreases an
    L-smooth objective), so that is the contract. Power iteration from a
    fixed pseudorandom start approaches ||A||_2 from below, and the
    converged value is inflated by 1 percent; truncation can still leave
    the result a few percent under L, so it is not an upper bound.
    """
    n = A.shape[0]
    rng = np.random.default_rng(0xA11CE)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    matvecs = 0
    for _ in range(_LIPSCHITZ_ITERS):
        w = A @ v
        matvecs += 1
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            est = 0.0
            break
        if abs(nw - est) <= _LIPSCHITZ_TOL * max(nw, 1.0):
            est = nw
            break
        est = nw
        v = w / nw
    return 2.0 * est * 1.01, matvecs


def _init_rows_in_ball(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Rows drawn uniformly from the unit ball: uniform direction, radius
    distributed as U**(1/k)."""
    g = rng.standard_normal((n, k))
    norms = np.linalg.norm(g, axis=1)
    norms[norms < 1e-300] = 1.0
    radii = rng.random(n) ** (1.0 / k)
    return g * (radii / norms)[:, None]


def _row_maximizer(G: np.ndarray, d: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Each row's maximizer over the unit ball of d_i |x|^2 + 2 g.x, for the
    rows g of G (the fields) along the last axis and d = A[i, i] of shape
    (b, 1, 1): g / max(|g|, -d_i), which is g/|g| if d_i >= 0 and -g/d_i
    clipped to the ball if d_i < 0. Where that is 0/0 (g = 0 and d_i >= 0)
    the row of X is kept. Written over G, which is returned.

    |g| adds the squared columns in order, which is numpy's own summation
    below 8 terms: for k <= 7 the rows are bit for bit those of
    G / max(np.linalg.norm(G, axis=-1), -d), without its reduction over a
    short axis. From k = 8 numpy sums pairwise, and |g| may differ by an ulp.
    """
    scale = G[..., :1] * G[..., :1]
    for j in range(1, G.shape[-1]):
        scale += G[..., j : j + 1] * G[..., j : j + 1]
    np.sqrt(scale, out=scale)
    np.maximum(scale, -d, out=scale)
    if scale.all():
        G /= scale
    else:
        kept = scale == 0.0
        G[...] = np.where(kept, X, G / np.where(kept, 1.0, scale))
    return G


def _ascend(A: np.ndarray, X: np.ndarray):
    """Block-coordinate ascent on the restarts X[:, r] of an (n, R, k) stack.

    A sweep updates the spans S of `_scan_spans(A)` in order from their
    fields G = A[S, :start] X[:start] + A[S, stop:] X[stop:], earlier spans
    at this sweep's rows: a span with no couplings among its own sites
    takes `_row_maximizer`, a coupled one a projected step of 1/L along
    2(P + G), L from estimate_lipschitz of A[S, S], P = A[S, S] X[S] kept
    from its last update. The objective sums <X_S, P + 2 A[S, :start]
    X[:start]> over the spans, so a dense A (one coupled span) costs one
    product per sweep. A restart stops once its objective has changed by
    less than _REL_TOL (relative) over _STALL_WINDOW sweeps. Returns
    (best_X, best_f, traces, capped, work): per restart its best iterate
    (the first wins ties), that objective and its trace, how many restarts
    were still running after _MAX_ITERS sweeps, and the entries of A read by
    products times the columns they multiply, power iterations included.
    """
    n, d = X.shape[0], A.diagonal()[:, None, None]
    P, work = np.empty_like(X), 0  # P: A[S, S] X[S] for every coupled span S

    def times(B, X):  # B @ X for a (b, c) block of A and a (c, R, k) stack
        nonlocal work
        work += B.size * X.shape[1] * X.shape[2]
        return (B @ X.reshape(X.shape[0], -1)).reshape(B.shape[0], *X.shape[1:])

    # per span: its slice, the blocks A[S, :start] and A[S, stop:] (None if
    # empty), d_S or a coupled span's A[S, S], and that span's step or None
    spans = []
    for start, stop, blocked in _scan_spans(A):
        S, own, step = slice(start, stop), d[start:stop], None
        if not blocked and stop - start > 1:
            own = A[S, S]
            L, count = estimate_lipschitz(own)
            step = 1.0 / L if L > 0 else 1.0
            work += count * own.size
        spans.append((S, A[S, :start] if start else None,
                      A[S, stop:] if stop < n else None, own, step))

    def sweep(X, update):
        # the objective of X, or with `update` the next sweep's rows and
        # theirs; those are C-ordered whatever X's layout once restarts
        # leave, as einsum's summation order, down to the last bit of a
        # dense objective, follows the layout
        new = np.empty(X.shape) if update else X
        terms = np.empty((len(spans), X.shape[1]))
        for i, (S, before, after, own, step) in enumerate(spans):
            lower = 0.0 if before is None else times(before, new[: S.start])
            xs = X[S]
            if update:
                upper = 0.0 if after is None else times(after, X[S.stop :])
                if step is None:  # the fields G go to new[S], then its rows
                    xs = _row_maximizer(np.add(lower, upper, out=new[S]), own, xs)
                else:
                    G = lower + upper
                    new[S] = xs = project_rows(xs + (2.0 * step) * (P[S] + G))
            if step is None:
                Q = own * xs
            else:
                P[S] = Q = times(own, xs)
            if before is not None:  # Q + 2 lower, in place
                lower *= 2.0
                lower += Q
                Q = lower
            terms[i] = np.einsum("irk,irk->r", xs, Q)
        # the rows add as np.sum adds a list of them: in order, pairwise
        # from 8 spans once a single restart is left
        return new, terms.sum(axis=0).tolist()

    X, f = sweep(X, False)
    traces = [[v] for v in f]
    best = [(v, X[:, r]) for r, v in enumerate(f)]
    run = list(range(len(f)))  # restart in each column of the block
    for _ in range(_MAX_ITERS):
        X, f = sweep(X, True)
        keep = []
        for j, v in enumerate(f):
            r = run[j]
            trace = traces[r]
            trace.append(v)
            if v > best[r][0]:
                best[r] = (v, X[:, j])
            stalled = len(trace) > _STALL_WINDOW and abs(
                v - trace[-1 - _STALL_WINDOW]
            ) < _REL_TOL * max(1.0, abs(v))
            if not stalled:
                keep.append(j)
        if len(keep) < len(run):
            run = [run[j] for j in keep]
            if not run:
                break
            X, P = X[:, keep], P[:, keep]
    best_f, best_X = zip(*best)
    return best_X, best_f, traces, len(run), work


def solve_lrp(params: MrfParams, opts: LrpOptions) -> RelaxedSolution:
    """Maximize tr(X' A X) over row matrices with unit-ball rows.

    Runs `opts.restarts` block-coordinate ascents (`_ascend`) on the Gibbs
    scan plan, together as one n x (restarts*k) block, each from a random
    start drawn from its own child of SeedSequence(opts.seed). A span of
    coupled sites steps by 1/L, L from estimate_lipschitz of its own block
    of A; uncoupled runs need no step. Reaching _MAX_ITERS sweeps logs one
    warning per solve. Returns the best iterate seen; the first restart
    wins ties.
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("relaxation expects a {-1,+1}-domain model")
    if opts.k > params.n:
        raise ValueError(f"width k={opts.k} exceeds n={params.n}")
    starts = [
        _init_rows_in_ball(params.n, opts.k, np.random.default_rng(child))
        for child in np.random.SeedSequence(opts.seed).spawn(opts.restarts)
    ]
    best_X, best_f, traces, capped, work = _ascend(params.A, np.stack(starts, axis=1))
    if capped:
        logger.warning(
            "relaxation stopped at max_iters=%d in %d of %d restarts",
            _MAX_ITERS, capped, opts.restarts,
        )
    iterations = sum(len(trace) - 1 for trace in traces)
    win = int(np.argmax(best_f))
    return RelaxedSolution(
        X=best_X[win].copy(),
        objective=best_f[win],
        iterations=iterations,
        trace=np.asarray(traces[win]),
        matvecs=-(-work // params.n**2),
    )
