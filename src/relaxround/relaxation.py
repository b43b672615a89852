"""Low-rank relaxation of the binary quadratic problem.

Replaces each spin with a row vector of width k constrained to the unit
ball and maximizes tr(X' A X) by projected gradient ascent. Width 1 is the
box relaxation; width n is the full factored semidefinite relaxation.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .models import Domain, MrfParams

logger = logging.getLogger(__name__)

# Stopping rule compares objectives this many iterations apart.
_STALL_WINDOW = 5

# Armijo line search: initial step in units of 1/L, sufficient-increase
# coefficient, and maximum number of halvings.
_BACKTRACK_START = 4.0
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 30


class StepRule(enum.Enum):
    FIXED_INVERSE_LIPSCHITZ = "fixed"
    BACKTRACKING = "backtracking"


@dataclass(frozen=True)
class LrpOptions:
    """Solver options. `k` is the relaxation width, `restarts` the number of
    independent random initializations, and `seed` drives all of them."""

    k: int = 2
    max_iters: int = 10_000
    rel_tol: float = 1e-8
    step_rule: StepRule = StepRule.FIXED_INVERSE_LIPSCHITZ
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
        if not isinstance(self.step_rule, StepRule):
            raise ValueError(f"step_rule must be a StepRule, got {self.step_rule!r}")


@dataclass(frozen=True, eq=False)
class RelaxedSolution:
    """Best iterate found: row matrix X, its objective, the total number of
    gradient steps across all restarts, and the winning run's objective
    trace (entry 0 is the objective at initialization)."""

    X: np.ndarray
    objective: float
    iterations: int
    trace: np.ndarray

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
    returned unchanged, longer rows are rescaled to norm 1."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=1)
    scale = np.ones_like(norms)
    long = norms > 1.0
    scale[long] = 1.0 / norms[long]
    return X * scale[:, None]


def estimate_lipschitz(A: np.ndarray, iters: int = 50, tol: float = 1e-6) -> float:
    """Estimate of the gradient Lipschitz constant L = 2*||A||_2, at least L/2.

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
    for _ in range(iters):
        w = A @ v
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            est = 0.0
            break
        if abs(nw - est) <= tol * max(nw, 1.0):
            est = nw
            break
        est = nw
        v = w / nw
    return 2.0 * est * 1.01


def _init_rows_in_ball(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Rows drawn uniformly from the unit ball: uniform direction, radius
    distributed as U**(1/k)."""
    g = rng.standard_normal((n, k))
    norms = np.linalg.norm(g, axis=1)
    norms[norms < 1e-300] = 1.0
    radii = rng.random(n) ** (1.0 / k)
    return g * (radii / norms)[:, None]


def _ascend(A: np.ndarray, X: np.ndarray, opts: LrpOptions, base_step: float):
    """Projected gradient ascent from X. Returns (best_X, best_f, steps, trace)."""
    f = float(np.sum(X * (A @ X)))
    trace = [f]
    best_X, best_f = X, f
    steps = 0
    for _ in range(opts.max_iters):
        G = 2.0 * (A @ X)
        if opts.step_rule is StepRule.FIXED_INVERSE_LIPSCHITZ:
            Xn = project_rows(X + base_step * G)
            fn = float(np.sum(Xn * (A @ Xn)))
        else:
            eta = _BACKTRACK_START * base_step
            Xn = None
            for _ in range(_MAX_HALVINGS):
                cand = project_rows(X + eta * G)
                fc = float(np.sum(cand * (A @ cand)))
                if fc >= f + _ARMIJO_C * float(np.sum(G * (cand - X))):
                    Xn, fn = cand, fc
                    break
                eta /= 2.0
            if Xn is None:
                # No acceptable step: treat as converged.
                break
        X, f = Xn, fn
        steps += 1
        trace.append(f)
        if f > best_f:
            best_X, best_f = X, f
        if len(trace) > _STALL_WINDOW:
            if abs(trace[-1] - trace[-1 - _STALL_WINDOW]) < opts.rel_tol * max(
                1.0, abs(trace[-1])
            ):
                break
    else:
        logger.warning("relaxation stopped at max_iters=%d", opts.max_iters)
    return best_X, best_f, steps, np.asarray(trace)


def solve_lrp(params: MrfParams, opts: LrpOptions) -> RelaxedSolution:
    """Maximize tr(X' A X) over row matrices with unit-ball rows.

    Runs `opts.restarts` independent projected gradient ascents with a step
    of 1/L from estimate_lipschitz (the backtracking rule starts each line
    search above that and halves until the Armijo test passes) and returns
    the best iterate seen. Stops a run when the objective changes by less
    than rel_tol (relative) across a fixed window, or at max_iters.
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("relaxation expects a {-1,+1}-domain model")
    if opts.k > params.n:
        raise ValueError(f"width k={opts.k} exceeds n={params.n}")
    A = params.A
    L = estimate_lipschitz(A)
    base_step = 1.0 / L if L > 0 else 1.0
    root = np.random.SeedSequence(opts.seed)
    best = None
    total_steps = 0
    for child in root.spawn(opts.restarts):
        rng = np.random.default_rng(child)
        X0 = _init_rows_in_ball(params.n, opts.k, rng)
        X, f, steps, trace = _ascend(A, X0, opts, base_step)
        total_steps += steps
        if best is None or f > best[1]:
            best = (X, f, trace)
    X, f, trace = best
    return RelaxedSolution(X=X, objective=f, iterations=total_steps, trace=trace)
