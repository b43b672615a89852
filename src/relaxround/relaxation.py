"""Low-rank relaxation of the binary quadratic problem.

Replaces each spin with a row vector of width k constrained to the unit
ball and maximizes tr(X' A X) by projected gradient ascent. Width 1 is the
box relaxation; width n is the full factored semidefinite relaxation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .models import Domain, MrfParams

logger = logging.getLogger(__name__)

# Stopping rule compares objectives this many iterations apart.
_STALL_WINDOW = 5


@dataclass(frozen=True)
class LrpOptions:
    """Solver options. `k` is the relaxation width, `restarts` the number of
    independent random initializations, and `seed` drives all of them."""

    k: int = 2
    max_iters: int = 10_000
    rel_tol: float = 1e-8
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class RelaxedSolution:
    """Best iterate found: row matrix X, its objective, the total number of
    gradient steps across all restarts, the winning run's objective trace
    (entry 0 is the objective at initialization), and the number of
    n-vector products with A the solve did (`matvecs`: the power iteration
    of estimate_lipschitz included, a product with an n x k block counted
    as k)."""

    X: np.ndarray
    objective: float
    iterations: int
    trace: np.ndarray
    matvecs: int

    def __post_init__(self):
        norms = np.linalg.norm(self.X, axis=1)
        if norms.size and norms.max() > 1.0 + 1e-9:
            raise ValueError(f"infeasible solution: max row norm {norms.max()}")


def lrp_objective(A: np.ndarray, X: np.ndarray) -> float:
    """tr(X' A X) for an n x n coupling matrix and n x k row matrix."""
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if X.ndim != 2 or X.shape[0] != A.shape[0]:
        raise ValueError(f"X has shape {X.shape}, expected ({A.shape[0]}, k)")
    return float(np.sum(X * (A @ X)))


def project_rows(X: np.ndarray) -> np.ndarray:
    """Project every row onto the unit ball. Rows with norm <= 1 are
    returned unchanged, longer rows are rescaled to norm 1. Rows run along
    the last axis, so a stack of row matrices is projected row by row."""
    X = np.asarray(X, dtype=float)
    norms = np.sqrt(np.einsum("...k,...k->...", X, X))
    return X * (1.0 / np.maximum(norms, 1.0))[..., None]


def estimate_lipschitz(
    A: np.ndarray, iters: int = 50, tol: float = 1e-6
) -> tuple[float, int]:
    """Estimate of the gradient Lipschitz constant L = 2*||A||_2, at least L/2,
    and the number of products A @ v it took.

    Projected gradient ascent with step 1/estimate is monotone whenever the
    estimate is at least L/2 (a step of at most 2/L never decreases an
    L-smooth objective), so that is the contract. Power iteration from a
    fixed pseudorandom start approaches ||A||_2 from below, and the
    converged value is inflated by 1 percent; truncation can still leave
    the result a few percent under L, so it is not an upper bound.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    n = A.shape[0]
    rng = np.random.default_rng(0xA11CE)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    matvecs = 0
    for _ in range(iters):
        w = A @ v
        matvecs += 1
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            est = 0.0
            break
        if abs(nw - est) <= tol * max(nw, 1.0):
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


def _ascend(A: np.ndarray, X: np.ndarray, max_iters: int, rel_tol: float, step: float):
    """Projected gradient ascent with a fixed step on R restarts at once.

    X has shape (n, R, k): restart r starts from the row matrix X[:, r].
    Every iteration does one product of A with the n x (R'k) block of the
    R' restarts still running. That product P = AX gives each restart's
    objective tr(X'AX) and is kept as the next step's gradient 2P. A
    restart leaves the block once its objective has changed by less than
    rel_tol (relative) over the last _STALL_WINDOW steps.

    Returns (best_X, best_f, traces, capped), sequences indexed by restart
    except `capped`: each restart's best iterate (first one wins ties) and
    its objective, its objective trace (entry 0 at the start, one entry per
    step), and how many restarts were still running after max_iters steps.
    """
    n = X.shape[0]
    P = (A @ X.reshape(n, -1)).reshape(X.shape)
    f = np.einsum("irk,irk->r", X, P).tolist()
    traces = [[v] for v in f]
    best = [(v, X[:, r]) for r, v in enumerate(f)]
    run = list(range(len(f)))  # restart in each column of the block
    for _ in range(max_iters):
        X = project_rows(X + (2.0 * step) * P)  # gradient 2P
        P = (A @ X.reshape(n, -1)).reshape(X.shape)
        keep = []
        for j, v in enumerate(np.einsum("irk,irk->r", X, P).tolist()):
            r = run[j]
            trace = traces[r]
            trace.append(v)
            if v > best[r][0]:
                best[r] = (v, X[:, j])
            stalled = len(trace) > _STALL_WINDOW and abs(
                v - trace[-1 - _STALL_WINDOW]
            ) < rel_tol * max(1.0, abs(v))
            if not stalled:
                keep.append(j)
        if len(keep) < len(run):
            run = [run[j] for j in keep]
            if not run:
                break
            X, P = X[:, keep], P[:, keep]
    best_f, best_X = zip(*best)
    return best_X, best_f, traces, len(run)


def solve_lrp(params: MrfParams, opts: LrpOptions) -> RelaxedSolution:
    """Maximize tr(X' A X) over row matrices with unit-ball rows.

    Runs `opts.restarts` projected gradient ascents, each from a random
    start drawn from its own child of SeedSequence(opts.seed), with the
    fixed step 1/L from estimate_lipschitz. The restarts advance together
    as one n x (restarts*k) block, so each iteration reads A once, and the
    product that yields the objectives is reused as the next gradient. A
    restart stops when its objective changes by less than rel_tol
    (relative) across a fixed window, or at max_iters, which logs one
    warning per solve. Returns the best iterate seen; the first restart
    wins ties.
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("relaxation expects a {-1,+1}-domain model")
    if opts.k > params.n:
        raise ValueError(f"width k={opts.k} exceeds n={params.n}")
    A = params.A
    L, lipschitz_matvecs = estimate_lipschitz(A)
    step = 1.0 / L if L > 0 else 1.0
    starts = [
        _init_rows_in_ball(params.n, opts.k, np.random.default_rng(child))
        for child in np.random.SeedSequence(opts.seed).spawn(opts.restarts)
    ]
    best_X, best_f, traces, capped = _ascend(
        A, np.stack(starts, axis=1), opts.max_iters, opts.rel_tol, step
    )
    if capped:
        logger.warning(
            "relaxation stopped at max_iters=%d in %d of %d restarts",
            opts.max_iters, capped, opts.restarts,
        )
    iterations = sum(len(trace) - 1 for trace in traces)
    win = int(np.argmax(best_f))
    return RelaxedSolution(
        X=best_X[win].copy(),
        objective=best_f[win],
        iterations=iterations,
        trace=np.asarray(traces[win]),
        matvecs=lipschitz_matvecs + opts.k * (opts.restarts + iterations),
    )
