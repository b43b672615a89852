"""Model types, scoring, domain reductions, generators and brute-force oracles
for binary pairwise models with a symmetric coupling matrix."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Hard default cap on exhaustive enumeration (2**n assignments).
BRUTE_FORCE_CAP = 24

_CORNER_BLOCK = 1 << 16


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


@dataclass(frozen=True, eq=False)
class MrfParams:
    """Symmetric coupling matrix over n binary variables.

    Off-diagonal entries are pairwise couplings and diagonal entries are
    unary weights. The input matrix is symmetrized as (A + A.T)/2, which
    leaves every score x' A x unchanged.
    """

    A: np.ndarray
    domain: Domain = Domain.PLUS_MINUS_ONE

    def __post_init__(self):
        A = _finite_array(self.A, "A", 2)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
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

    The score of a configuration (v, h) is v' W h + a' v + b' h.
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


@dataclass(frozen=True, eq=False)
class LinearReduction:
    """Quadratic-plus-linear form produced by a domain change.

    Represents the identity  original_score(x) = x' Aprime x + b' x + c
    on the corners of the target domain.
    """

    Aprime: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        Ap = _finite_array(self.Aprime, "Aprime", 2)
        b = _finite_array(self.b, "b", 1)
        if Ap.shape[0] != Ap.shape[1] or b.shape[0] != Ap.shape[0]:
            raise ValueError(
                f"inconsistent shapes: Aprime {Ap.shape}, b {b.shape}"
            )
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        Ap = (Ap + Ap.T) / 2.0
        Ap.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "Aprime", Ap)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))


def check_assignment(x, n: int, domain: Domain) -> np.ndarray:
    """Validate one assignment and return it as a float vector."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (n,):
        raise ValueError(f"assignment has shape {xv.shape}, expected ({n},)")
    lo, hi = domain_values(domain)
    if not np.all((xv == lo) | (xv == hi)):
        raise ValueError(f"assignment entries must all be {lo:g} or {hi:g}")
    return xv


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


def rbm_to_mrf(params: RbmParams) -> MrfParams:
    """Embed a spin-domain RBM into a single coupling matrix.

    The result has 1 + m + p variables. Index 0 is an auxiliary variable
    that carries the bias terms: the assignment (1, v, h) scores exactly
    rbm_score(params, v, h). Blocks (scaled by 1/2 because the quadratic
    form counts every pair twice):

        [[0,   a',  b' ],
         [a,   0,   W  ],
         [b,   W',  0  ]]
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("embedding is defined for the {-1,+1} domain")
    m, p = params.m, params.p
    n = 1 + m + p
    A = np.zeros((n, n))
    A[0, 1 : 1 + m] = params.a / 2.0
    A[1 : 1 + m, 0] = params.a / 2.0
    A[0, 1 + m :] = params.b / 2.0
    A[1 + m :, 0] = params.b / 2.0
    A[1 : 1 + m, 1 + m :] = params.W / 2.0
    A[1 + m :, 1 : 1 + m] = params.W.T / 2.0
    return MrfParams(A, Domain.PLUS_MINUS_ONE)


def canonicalize_auxiliary(x) -> np.ndarray:
    """Flip the global sign so the auxiliary coordinate (index 0) is +1.

    Accepts one assignment or assignments stacked as rows, and flips each
    one independently. Pure quadratic scores are invariant under x -> -x,
    so this picks one representative of each antipodal pair without
    changing the score. The input is never modified.
    """
    out = np.array(x)
    if out.ndim not in (1, 2) or out.shape[-1] < 1:
        raise ValueError("expected nonempty assignment vectors")
    out *= np.where(out[..., :1] < 0, -1, 1).astype(out.dtype)
    return out


def bits_to_hyp(params: MrfParams) -> tuple[MrfParams, LinearReduction]:
    """Rewrite a {0,1}-domain quadratic over the {-1,+1} domain.

    Substituting x = (t + 1)/2 gives, for every corner,

        x' A x = t' (A/4) t + ((A'1 + A1)/4)' t + (1' A 1)/4.
    """
    if params.domain is not Domain.ZERO_ONE:
        raise ValueError("bits_to_hyp expects a {0,1}-domain model")
    A = params.A
    one = np.ones(params.n)
    Ap = A / 4.0
    b = (A.T @ one + A @ one) / 4.0
    c = float(one @ A @ one) / 4.0
    return MrfParams(Ap, Domain.PLUS_MINUS_ONE), LinearReduction(Ap, b, c)


def hyp_to_bits(params: MrfParams) -> tuple[MrfParams, LinearReduction]:
    """Rewrite a {-1,+1}-domain quadratic over the {0,1} domain.

    Substituting t = 2x - 1 gives, for every corner,

        t' A t = x' (4A) x - 2((A + A')1)' x + 1' A 1.
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("hyp_to_bits expects a {-1,+1}-domain model")
    A = params.A
    one = np.ones(params.n)
    Ap = 4.0 * A
    b = -2.0 * (A @ one + A.T @ one)
    c = float(one @ A @ one)
    return MrfParams(Ap, Domain.ZERO_ONE), LinearReduction(Ap, b, c)


def fold_linear_hyp(params: MrfParams, red: LinearReduction) -> MrfParams:
    """Absorb a linear term into one auxiliary {-1,+1} variable.

    Returns an (n+1)-variable model whose assignment (1, t) scores
    t' A t + b' t. The constant red.c is not folded; callers track it.
    """
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("fold_linear_hyp expects a {-1,+1}-domain model")
    if red.b.shape[0] != params.n:
        raise ValueError(
            f"linear term has length {red.b.shape[0]}, expected {params.n}"
        )
    n = params.n
    A = np.zeros((n + 1, n + 1))
    A[0, 1:] = red.b / 2.0
    A[1:, 0] = red.b / 2.0
    A[1:, 1:] = params.A
    return MrfParams(A, Domain.PLUS_MINUS_ONE)


def fold_linear_bits(params: MrfParams, red: LinearReduction) -> MrfParams:
    """Absorb a linear term into the diagonal of a {0,1}-domain model.

    Uses x_i^2 = x_i on bits, so x' (A + diag(b)) x = x' A x + b' x.
    """
    if params.domain is not Domain.ZERO_ONE:
        raise ValueError("fold_linear_bits expects a {0,1}-domain model")
    if red.b.shape[0] != params.n:
        raise ValueError(
            f"linear term has length {red.b.shape[0]}, expected {params.n}"
        )
    return MrfParams(params.A + np.diag(red.b), Domain.ZERO_ONE)


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
        flipped to +1 by a global sign flip; x itself without one."""
        return canonicalize_auxiliary(x) if self.has_aux else np.asarray(x)

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
    """Rewrite an MRF or RBM in either domain as a {-1,+1} quadratic model,
    adding an auxiliary variable when linear terms appear."""
    if isinstance(instance, MrfParams):
        if instance.domain is Domain.PLUS_MINUS_ONE:
            return Embedding(instance, instance, 0.0, False)
        hyp, red = bits_to_hyp(instance)
        return Embedding(instance, fold_linear_hyp(hyp, red), red.c, True)
    if instance.domain is Domain.PLUS_MINUS_ONE:
        return Embedding(instance, rbm_to_mrf(instance), 0.0, True)
    # {0,1} RBM: quadratic coupling block plus the biases folded into the
    # diagonal (bits square to themselves), then the spin-domain rewrite.
    m, p = instance.m, instance.p
    quad = np.zeros((m + p, m + p))
    quad[:m, m:] = instance.W / 2.0
    quad[m:, :m] = instance.W.T / 2.0
    folded = fold_linear_bits(
        MrfParams(quad, Domain.ZERO_ONE),
        LinearReduction(quad, np.concatenate([instance.a, instance.b]), 0.0),
    )
    hyp, red = bits_to_hyp(folded)
    return Embedding(instance, fold_linear_hyp(hyp, red), red.c, True)


def iter_corner_blocks(n: int, domain: Domain, block: int = _CORNER_BLOCK):
    """Yield all 2**n assignments as float matrices, in lexicographic order.

    Variable 0 is the most significant position and low < high, so the
    all-low corner comes first.
    """
    lo, hi = domain_values(domain)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    total = 1 << n
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.uint64)
        bits = (codes[:, None] >> shifts) & 1
        yield np.where(bits == 1, hi, lo)


def brute_force_map(params: MrfParams, cap: int = BRUTE_FORCE_CAP):
    """Exhaustive maximizer of x' A x over all corners.

    Returns (assignment, score). Ties break toward the lexicographically
    smallest assignment (low value sorts before high).
    """
    n = params.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds brute-force cap {cap}")
    best = -np.inf
    best_x = None
    for corners in iter_corner_blocks(n, params.domain):
        scores = score_batch(params, corners)
        j = int(np.argmax(scores))
        if scores[j] > best:
            best = float(scores[j])
            best_x = corners[j]
    x = best_x.astype(np.int8)
    return x, score(params, x)


def _draw_rbm(rng: np.random.Generator, m: int, p: int):
    W = rng.standard_normal((m, p))
    a = rng.standard_normal(m)
    b = rng.standard_normal(p)
    return W, a, b


def gen_random_rbm(m: int, p: int, seed: int = 0) -> RbmParams:
    """Standard-Gaussian RBM over the {-1,+1} domain. W, a, b are drawn in
    that order from one generator seeded with `seed`."""
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    rng = np.random.default_rng(seed)
    W, a, b = _draw_rbm(rng, m, p)
    return RbmParams(W, a, b, Domain.PLUS_MINUS_ONE)


def gen_hard_rbm(
    m: int,
    p: int,
    pairs: int = 3,
    couple: float = 5000.0,
    bias: float = 500.0,
    seed: int = 0,
) -> RbmParams:
    """Random RBM with planted strong couplings that trap local samplers.

    Starts from the same draw as gen_random_rbm(m, p, seed), then picks
    `pairs` disjoint (visible, hidden) index pairs and overwrites
    W[i, j] = couple, a[i] = b[j] = bias. With pairs=0 the output equals
    gen_random_rbm(m, p, seed) exactly.
    """
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    if pairs < 0 or pairs > min(m, p):
        raise ValueError(f"pairs must lie in [0, min(m, p)] = [0, {min(m, p)}]")
    rng = np.random.default_rng(seed)
    W, a, b = _draw_rbm(rng, m, p)
    vis = rng.permutation(m)[:pairs]
    hid = rng.permutation(p)[:pairs]
    W[vis, hid] = couple
    a[vis] = bias
    b[hid] = bias
    return RbmParams(W, a, b, Domain.PLUS_MINUS_ONE)
