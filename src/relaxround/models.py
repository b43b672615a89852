"""Model types, scoring, the {-1,+1} embedding, generators and brute-force
oracles for binary pairwise models with a symmetric coupling matrix."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Hard cap on exhaustive enumeration (2**n assignments).
BRUTE_FORCE_CAP = 24

_CORNER_BLOCK = 1 << 16

# Cap on a model's summed absolute entries. Every score, field and entry of
# its embedding is at most that sum, so they and their squares (norms, the
# AIS weight spread) stay finite.
_MAX_ABS_SUM = 2.0**500


class Domain(enum.Enum):
    """Binary variable domain: spins in {-1,+1} or bits in {0,1}."""

    PLUS_MINUS_ONE = "pm1"
    ZERO_ONE = "01"


class CapExceededError(ValueError):
    """An exhaustive-enumeration cap would be exceeded."""


def domain_values(domain: Domain) -> tuple[float, float]:
    """(low, high) variable values for a domain, with low < high."""
    if domain is Domain.PLUS_MINUS_ONE:
        return (-1.0, 1.0)
    if domain is Domain.ZERO_ONE:
        return (0.0, 1.0)
    raise ValueError(f"unknown domain {domain!r}")


def _finite_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.array(x, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_magnitude(*arrays) -> None:
    """Raise if the arrays' absolute entries sum past _MAX_ABS_SUM."""
    with np.errstate(over="ignore"):
        total = sum(float(np.abs(arr).sum()) for arr in arrays)
    if not total <= _MAX_ABS_SUM:
        raise ValueError(f"absolute entries sum to {total:g}, above 2**500")


@dataclass(frozen=True, eq=False)
class MrfParams:
    """Symmetric coupling matrix over n binary variables.

    Off-diagonal entries are pairwise couplings and diagonal entries are
    unary weights. The input matrix is symmetrized as (A + A.T)/2, which
    leaves every score x' A x unchanged. Entries must be finite, and their
    absolute values must sum to at most 2**500.
    """

    A: np.ndarray
    domain: Domain = Domain.PLUS_MINUS_ONE

    def __post_init__(self):
        A = _finite_array(self.A, "A", 2)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        _check_magnitude(A)
        if not isinstance(self.domain, Domain):
            raise ValueError(f"domain must be a Domain, got {self.domain!r}")
        A = (A + A.T) / 2.0
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class RbmParams:
    """Bipartite model with m visible and p hidden binary units.

    The score of a configuration (v, h) is v' W h + a' v + b' h. Entries
    must be finite, and the absolute values of W, a and b together must sum
    to at most 2**500.
    """

    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    domain: Domain = Domain.PLUS_MINUS_ONE

    def __post_init__(self):
        W = _finite_array(self.W, "W", 2)
        a = _finite_array(self.a, "a", 1)
        b = _finite_array(self.b, "b", 1)
        if a.shape[0] != W.shape[0] or b.shape[0] != W.shape[1]:
            raise ValueError(
                f"inconsistent shapes: W {W.shape}, a {a.shape}, b {b.shape}"
            )
        _check_magnitude(W, a, b)
        if not isinstance(self.domain, Domain):
            raise ValueError(f"domain must be a Domain, got {self.domain!r}")
        for arr in (W, a, b):
            arr.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def p(self) -> int:
        return self.W.shape[1]


def check_assignment(x, n: int, domain: Domain) -> np.ndarray:
    """Validate one assignment and return it as a float vector."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (n,):
        raise ValueError(f"assignment has shape {xv.shape}, expected ({n},)")
    lo, hi = domain_values(domain)
    if not np.all((xv == lo) | (xv == hi)):
        raise ValueError(f"assignment entries must all be {lo:g} or {hi:g}")
    return xv


def _check_rows_feasible(X) -> None:
    """Raise unless every row of X lies in the unit ball, up to 1e-9; a row
    with a NaN entry does not."""
    norms = np.linalg.norm(X, axis=1)
    if not np.all(norms <= 1.0 + 1e-9):
        raise ValueError(f"infeasible rows: max row norm {np.max(norms)}")


def score(params: MrfParams, x) -> float:
    """Quadratic score x' A x of a single assignment."""
    xv = check_assignment(x, params.n, params.domain)
    return float(xv @ params.A @ xv)


def score_batch(params: MrfParams, X) -> np.ndarray:
    """Scores of assignments stacked as rows. Rows are not validated."""
    Xv = np.asarray(X, dtype=float)
    if Xv.ndim != 2 or Xv.shape[1] != params.n:
        raise ValueError(f"batch has shape {Xv.shape}, expected (?, {params.n})")
    return np.einsum("ti,ti->t", Xv @ params.A, Xv)


def rbm_score(params: RbmParams, v, h) -> float:
    """Score v' W h + a' v + b' h of one visible/hidden configuration."""
    vv = check_assignment(v, params.m, params.domain)
    hv = check_assignment(h, params.p, params.domain)
    return float(vv @ params.W @ hv + params.a @ vv + params.b @ hv)


def _scan_spans(A: np.ndarray) -> list:
    """The scan plan of `gibbs._sweep` and of the relaxation's block ascent
    (`relaxation._ascend`): (start, stop, blocked) triples covering 0..n-1
    in order.

    The scan splits into the maximal runs of consecutive sites whose
    couplings to each other, A[i, j] for i != j inside the run, are all
    exact zeros. No field of a run's site reads another site of the run,
    so a run of two or more sites is one blocked span, decided at once.
    Consecutive singleton runs merge into one span, scanned site by site.
    An RBM embedding (auxiliary site 0, then the visible, then the hidden
    block) has the spans [0, 1), [1, m + 1) and [m + 1, n); a dense matrix
    has one span of n singletons.
    """
    n = A.shape[0]
    spans, start = [], 0
    for stop in range(1, n + 1):
        if stop < n and not A[stop, start:stop].any():
            continue  # site `stop` joins the run [start, stop)
        blocked = stop - start > 1
        if not blocked and spans and not spans[-1][2]:
            start = spans.pop()[0]
        spans.append((start, stop, blocked))
        start = stop
    return spans


@dataclass(frozen=True, eq=False)
class Embedding:
    """An instance rewritten as a {-1,+1} quadratic model `mrf`.

    Every corner x of `mrf` scores the native score of to_native(x) minus
    `offset`. With `has_aux`, index 0 is an auxiliary variable carrying the
    linear terms, and x and -x score and decode alike.
    """

    source: MrfParams | RbmParams
    mrf: MrfParams
    offset: float
    has_aux: bool

    def canonical(self, x) -> np.ndarray:
        """x (one corner or stacked rows) with each auxiliary coordinate
        flipped to +1 by a global sign flip; x itself without one. Scores
        are invariant under x -> -x, so the flip keeps each row's score.
        The input is never modified."""
        if not self.has_aux:
            return np.asarray(x)
        out = np.array(x)
        out *= np.where(out[..., :1] < 0, -1, 1).astype(out.dtype)
        return out

    def to_native(self, x) -> dict:
        """The instance's own assignment for an embedded corner x:
        {"v": ..., "h": ...} for an RBM, {"x": ...} for an MRF."""
        x = self.canonical(x)
        t = x[1:] if self.has_aux else x
        if self.source.domain is Domain.ZERO_ONE:
            t = (t + 1) // 2
        values = [int(value) for value in t]
        if isinstance(self.source, RbmParams):
            m = self.source.m
            return {"v": values[:m], "h": values[m:]}
        return {"x": values}


def embed(instance: MrfParams | RbmParams) -> Embedding:
    """Rewrite an MRF or RBM in either domain as a {-1,+1} quadratic model.

    One block builder covers every case, in three steps:

    1. Quadratic plus linear. An RBM is the block matrix
       [[0, W/2], [W'/2, 0]] (the quadratic form counts every pair twice)
       plus the linear term [a; b]. An MRF is A, with no linear term.
    2. Bits to spins. On {0,1} the linear term joins the diagonal, since
       x_i^2 = x_i. Substituting x = (t + 1)/2 then gives, at every corner,
       x' A x = t' (A/4) t + ((A'1 + A1)/4)' t + (1' A 1)/4, and the
       constant becomes `offset`.
    3. Auxiliary spin. A linear term l becomes row and column 0 as l/2, so
       the corner (1, t) scores the quadratic part plus l' t. A {-1,+1} MRF
       has no linear term and is returned as is.
    """
    if isinstance(instance, MrfParams):
        quad, linear = instance.A, None
    else:
        m, p = instance.m, instance.p
        quad = np.zeros((m + p, m + p))
        quad[:m, m:] = instance.W / 2.0
        quad[m:, :m] = instance.W.T / 2.0
        linear = np.concatenate([instance.a, instance.b])
    offset = 0.0
    if instance.domain is Domain.ZERO_ONE:
        if linear is not None:
            quad = quad + np.diag(linear)
        one = np.ones(quad.shape[0])
        linear = (quad.T @ one + quad @ one) / 4.0
        offset = float(one @ quad @ one) / 4.0
        quad = quad / 4.0
    if linear is None:
        return Embedding(instance, instance, 0.0, False)
    n = quad.shape[0] + 1
    A = np.zeros((n, n))
    A[0, 1:] = linear / 2.0
    A[1:, 0] = linear / 2.0
    A[1:, 1:] = quad
    return Embedding(instance, MrfParams(A), offset, True)


def iter_corner_blocks(n: int, domain: Domain):
    """Yield all 2**n assignments as float matrices of at most _CORNER_BLOCK
    rows, in lexicographic order.

    Variable 0 is the most significant position and low < high, so the
    all-low corner comes first. This is the one enumerator, and the one
    place the cap is checked: for n above BRUTE_FORCE_CAP the first block
    raises CapExceededError.
    """
    if n > BRUTE_FORCE_CAP:
        raise CapExceededError(f"n={n} exceeds enumeration cap {BRUTE_FORCE_CAP}")
    lo, hi = domain_values(domain)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    total = 1 << n
    for start in range(0, total, _CORNER_BLOCK):
        codes = np.arange(start, min(start + _CORNER_BLOCK, total), dtype=np.uint64)
        bits = (codes[:, None] >> shifts) & 1
        yield np.where(bits == 1, hi, lo)


def brute_force_map(params: MrfParams):
    """Exhaustive maximizer of x' A x over all corners, for n up to
    BRUTE_FORCE_CAP.

    Returns (assignment, score). Ties break toward the lexicographically
    smallest assignment (low value sorts before high).
    """
    best = -np.inf
    best_x = None
    for corners in iter_corner_blocks(params.n, params.domain):
        scores = score_batch(params, corners)
        j = int(np.argmax(scores))
        if scores[j] > best:
            best = float(scores[j])
            best_x = corners[j]
    x = best_x.astype(np.int8)
    return x, score(params, x)


def gen_hard_rbm(
    m: int,
    p: int,
    pairs: int = 3,
    couple: float = 5000.0,
    bias: float = 500.0,
    seed: int = 0,
) -> RbmParams:
    """Random RBM over the {-1,+1} domain, with planted strong couplings
    that trap local samplers; the one instance generator.

    Draws standard-Gaussian W, a, b in that order from one generator seeded
    with `seed`, then picks `pairs` disjoint (visible, hidden) index pairs
    and overwrites W[i, j] = couple, a[i] = b[j] = bias. With pairs=0 the
    output is the plain Gaussian draw, as `gen --kind random` writes it.
    """
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    if pairs < 0 or pairs > min(m, p):
        raise ValueError(f"pairs must lie in [0, min(m, p)] = [0, {min(m, p)}]")
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((m, p))
    a = rng.standard_normal(m)
    b = rng.standard_normal(p)
    vis = rng.permutation(m)[:pairs]
    hid = rng.permutation(p)[:pairs]
    W[vis, hid] = couple
    a[vis] = bias
    b[hid] = bias
    return RbmParams(W, a, b, Domain.PLUS_MINUS_ONE)
