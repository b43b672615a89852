"""Hyperplane rounding of relaxed solutions and, for width 2, exact
computation of the induced distribution over sign patterns.

A random unit direction g turns a row matrix X into the sign pattern
sign(X g) with sign(0) := +1. For k = 2 each row constrains g to a closed
half-circle, so every realizable pattern corresponds to one arc between
consecutive boundary angles; the pattern probability is the arc length
over 2*pi and the support has at most 2n patterns.

Directions are drawn and rounded in int8 blocks of at most
`SAMPLE_BLOCK_ROWS` rows. `rrr_sample_blocks` yields those blocks
unscored, so a consumer that streams them holds one block, never a
samples x n matrix; `rrr_map_sample` concatenates the same blocks and
scores them as one `SampleBatch`. At width 2 a direction's pattern is
fixed by the arc it falls in (`_arc_index`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Domain, MrfParams, check_assignment, score_batch

# Rows shorter than this are excluded from the arc geometry and treated as
# unconstrained by the distribution queries.
DEGENERATE_NORM = 1e-12

# Boundary angles closer than this merge into one boundary.
_MERGE_TOL = 1e-12

_TWO_PI = 2.0 * np.pi

# Rows per block yielded by rrr_sample_blocks: a block at n=501 is about
# 8 MB of products, whatever the sample count.
SAMPLE_BLOCK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Rounded samples as int8 rows, their scores, and the seed used."""

    samples: np.ndarray
    scores: np.ndarray
    seed: int

    def __post_init__(self):
        if self.samples.ndim != 2 or self.scores.shape != (self.samples.shape[0],):
            raise ValueError(
                f"inconsistent batch shapes {self.samples.shape} / {self.scores.shape}"
            )

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True, eq=False)
class RoundingDistributionK2:
    """Preprocessed arc arrangement for a width-2 row matrix.

    `angles` are the distinct boundary angles in [0, 2*pi) sorted
    increasingly, `thetas` holds each row's direction angle (NaN for
    degenerate rows), and `degenerate` is a read-only boolean mask of the
    rows shorter than DEGENERATE_NORM.
    """

    angles: np.ndarray
    thetas: np.ndarray
    degenerate: np.ndarray

    @property
    def n(self) -> int:
        return self.thetas.shape[0]


def round_once(X, g) -> np.ndarray:
    """Sign pattern sign(X g) with sign(0) := +1, as an int8 vector."""
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    if X.ndim != 2 or g.shape != (X.shape[1],):
        raise ValueError(f"shape mismatch: X {X.shape}, g {g.shape}")
    return np.where(X @ g >= 0.0, 1, -1).astype(np.int8)


def _check_feasible_rows(params: MrfParams, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != params.n:
        raise ValueError(f"X has shape {X.shape}, expected ({params.n}, k)")
    norms = np.linalg.norm(X, axis=1)
    if norms.size and norms.max() > 1.0 + 1e-9:
        raise ValueError(f"infeasible rows: max norm {norms.max()}")
    return X


def _draw_directions(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    G = rng.standard_normal((count, k))
    # Signs are invariant to the length of g, so Gaussian directions round
    # exactly like unit ones; only (measure-zero) zero draws are replaced.
    norms = np.linalg.norm(G, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        G[bad] = rng.standard_normal((int(bad.sum()), k))
        norms = np.linalg.norm(G, axis=1)
    return G


def _round_rows(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    # the sign bits b as int8, mapped to 2b - 1: a tenth of the time of
    # np.where, and no int64 temporary
    return 2 * (G @ X.T >= 0.0).view(np.int8) - 1


def _direction_blocks(rng: np.random.Generator, count: int, k: int):
    """`count` Gaussian directions in k dimensions, drawn in blocks of
    SAMPLE_BLOCK_ROWS rows: the one draw path of every rounding sampler."""
    for start in range(0, count, SAMPLE_BLOCK_ROWS):
        yield _draw_directions(rng, min(SAMPLE_BLOCK_ROWS, count - start), k)


def _iter_blocks(X: np.ndarray, count: int, rng: np.random.Generator):
    for G in _direction_blocks(rng, count, X.shape[1]):
        yield _round_rows(G, X)


def _sample_batch(
    params: MrfParams, X: np.ndarray, count: int, rng: np.random.Generator, seed: int
) -> SampleBatch:
    blocks = list(_iter_blocks(X, count, rng))
    # a single block (the map commands' default 1000 draws) is used as
    # is: copying it raised their peak RSS by about 0.5 MB
    samples = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    scores = score_batch(params, samples)
    return SampleBatch(samples=samples, scores=scores, seed=seed)


def _check_sampling(params: MrfParams, X, count: int) -> np.ndarray:
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("rounding produces {-1,+1} assignments")
    if count < 1:
        raise ValueError("count must be >= 1")
    return _check_feasible_rows(params, X)


def rrr_map_sample(params: MrfParams, X, count: int, seed: int) -> SampleBatch:
    """Draw `count` rounded samples of a feasible relaxed solution and
    score each one. Deterministic given the seed."""
    X = _check_sampling(params, X, count)
    rng = np.random.default_rng(seed)
    return _sample_batch(params, X, count, rng, seed)


def rrr_sample_blocks(params: MrfParams, X, count: int, seed: int):
    """The rows of rrr_map_sample(params, X, count, seed), unscored, as an
    iterator of int8 blocks of SAMPLE_BLOCK_ROWS rows (the last one
    shorter), in draw order. Arguments are checked on the call, not on
    the first block.
    """
    X = _check_sampling(params, X, count)
    return _iter_blocks(X, count, np.random.default_rng(seed))


def _check_width2(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) row matrix, got shape {X.shape}")
    return X


def build_px_k2(X) -> RoundingDistributionK2:
    """Preprocess the rounding distribution of a width-2 row matrix.

    Each non-degenerate row with direction angle theta contributes the two
    boundary angles theta +- pi/2 (mod 2*pi) where its sign flips.
    Coincident boundaries (up to 1e-12, including across the wraparound)
    merge into one.
    """
    X = _check_width2(X)
    n = X.shape[0]
    norms = np.linalg.norm(X, axis=1)
    degenerate = norms < DEGENERATE_NORM
    thetas = np.full(n, np.nan)
    live = ~degenerate
    thetas[live] = np.arctan2(X[live, 1], X[live, 0])

    raw = np.concatenate([thetas[live] + np.pi / 2.0, thetas[live] - np.pi / 2.0])
    raw = np.mod(raw, _TWO_PI)
    raw[raw >= _TWO_PI] -= _TWO_PI  # mod can round up to the modulus itself
    raw.sort()

    angles: list[float] = []
    for value in raw:
        if not angles or value - angles[-1] > _MERGE_TOL:
            angles.append(float(value))
    if len(angles) >= 2 and (_TWO_PI - angles[-1]) + angles[0] <= _MERGE_TOL:
        angles.pop()

    thetas.setflags(write=False)
    degenerate.setflags(write=False)
    return RoundingDistributionK2(
        angles=np.asarray(angles), thetas=thetas, degenerate=degenerate
    )


def px_query(dist: RoundingDistributionK2, X, x) -> float:
    """Probability that rounding produces the sign pattern x.

    The admissible directions form the intersection of one closed
    half-circle per non-degenerate row (centered on the row direction for
    +1, opposite it for -1), which is a single arc; the probability is its
    length over 2*pi. Degenerate rows accept either sign. O(n) per query.
    """
    X = _check_width2(X)
    if X.shape[0] != dist.n:
        raise ValueError(f"X has {X.shape[0]} rows, distribution has {dist.n}")
    xv = check_assignment(x, dist.n, Domain.PLUS_MINUS_ONE)
    return float(_px_query_batch(dist, xv[None, :])[0])


def _px_query_batch(dist: RoundingDistributionK2, S: np.ndarray) -> np.ndarray:
    """px_query over sample rows, without argument checks."""
    mask = ~dist.degenerate
    if not mask.any():
        return np.ones(S.shape[0])
    centers = dist.thetas[mask][None, :] + np.where(S[:, mask] < 0, np.pi, 0.0)
    rel = np.mod(centers - centers[:, :1] + np.pi, _TWO_PI) - np.pi
    width = (rel.min(axis=1) + np.pi / 2.0) - (rel.max(axis=1) - np.pi / 2.0)
    return np.maximum(width, 0.0) / _TWO_PI


def enumerate_support_k2(dist: RoundingDistributionK2, X) -> list:
    """All realizable sign patterns with their probabilities.

    Sweeps the direction angle across consecutive boundary arcs and reads
    off the constant pattern on each arc at its midpoint. Entry j is the
    arc [angles[j], angles[j+1]), the last one wrapping to angles[0]; the
    merged boundaries are more than 1e-12 apart, so every arc has positive
    width. Degenerate rows are reported as +1. Probabilities sum to 1.
    """
    X = _check_width2(X)
    if X.shape[0] != dist.n:
        raise ValueError(f"X has {X.shape[0]} rows, distribution has {dist.n}")
    if dist.angles.size == 0:
        return [(np.ones(dist.n, dtype=np.int8), 1.0)]
    out = []
    m = dist.angles.size
    for j in range(m):
        a0 = dist.angles[j]
        a1 = dist.angles[j + 1] if j + 1 < m else dist.angles[0] + _TWO_PI
        width = a1 - a0
        mid = 0.5 * (a0 + a1)
        pattern = round_once(X, np.array([np.cos(mid), np.sin(mid)]))
        pattern[dist.degenerate] = 1
        out.append((pattern, width / _TWO_PI))
    return out


def _arc_index(dist: RoundingDistributionK2, G: np.ndarray) -> np.ndarray:
    """Index of the arc [angles[j], angles[j+1]) holding each direction row
    of the (count, 2) array G, as numbered by enumerate_support_k2.

    A direction on a boundary, or within rounding distance of one, takes
    the arc that searchsorted(angles, atan2(g) mod 2*pi, side="right")
    picks; below angles[0] it wraps to the last arc. Without boundaries
    (every row degenerate) there is one arc, 0.
    """
    if dist.angles.size == 0:
        return np.zeros(G.shape[0], dtype=np.intp)
    phi = np.mod(np.arctan2(G[:, 1], G[:, 0]), _TWO_PI)
    return (np.searchsorted(dist.angles, phi, side="right") - 1) % dist.angles.size
