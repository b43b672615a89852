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
samples x n matrix; `rrr_map_sample` scores the same blocks one at a time
and returns the concatenated rows and scores. Directions are used as drawn:
sign(X g) depends only on the direction of g. At width 2 a direction's
pattern is fixed by the arc it falls in (`_arc_index`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    Domain,
    MrfParams,
    _check_rows_feasible,
    check_assignment,
    score_batch,
)

# Boundary angles closer than this merge into one boundary.
_MERGE_TOL = 1e-12

_TWO_PI = 2.0 * np.pi

# Rows per block yielded by rrr_sample_blocks: a block at n=501 is about
# 8 MB of products, whatever the sample count.
SAMPLE_BLOCK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class RoundingDistributionK2:
    """Preprocessed arc arrangement for a width-2 row matrix.

    `X` is a read-only copy of the rows it was built from and `angles` are
    the distinct boundary angles in [0, 2*pi) sorted increasingly. A zero
    row rounds to +1 for every direction.
    """

    X: np.ndarray
    angles: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _round_rows(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The sign patterns sign(X g) of the direction rows g of G, as int8
    rows: the one rounding kernel, behind the samplers and
    `enumerate_support_k2`."""
    # an exact power-of-two scale puts each nonzero row's largest |entry| in
    # [0.5, 1), so g . x of a subnormal row does not underflow to 0 (+1)
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=1, initial=0.0))[1][:, None])
    # the sign bits b as int8, mapped to 2b - 1: a tenth of the time of
    # np.where, and no int64 temporary
    return 2 * (G @ X.T >= 0.0).view(np.int8) - 1


def _direction_blocks(rng: np.random.Generator, count: int, k: int):
    """`count` Gaussian directions in k dimensions, drawn in blocks of
    SAMPLE_BLOCK_ROWS rows: the one draw path of every rounding sampler."""
    for start in range(0, count, SAMPLE_BLOCK_ROWS):
        yield rng.standard_normal((min(SAMPLE_BLOCK_ROWS, count - start), k))


def _check_sampling(params: MrfParams, X, count: int) -> np.ndarray:
    """The argument checks of every rounding sampler; X back as floats."""
    if params.domain is not Domain.PLUS_MINUS_ONE:
        raise ValueError("rounding produces {-1,+1} assignments")
    if count < 1:
        raise ValueError("count must be >= 1")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != params.n:
        raise ValueError(f"X has shape {X.shape}, expected ({params.n}, k)")
    _check_rows_feasible(X)
    return X


def rrr_map_sample(params: MrfParams, X, count: int, seed) -> tuple:
    """Draw `count` rounded samples of a feasible relaxed solution and
    score each one: `(samples, scores)`, the (count, n) int8 rows and their
    float scores. `seed` is anything np.random.default_rng takes; a
    Generator is drawn from as is. The blocks of `rrr_sample_blocks` are
    scored one at a time, so no samples x n float64 array is built."""
    blocks = list(rrr_sample_blocks(params, X, count, seed))
    scores = np.concatenate([score_batch(params, block) for block in blocks])
    return np.concatenate(blocks), scores


def rrr_sample_blocks(params: MrfParams, X, count: int, seed):
    """The rows of rrr_map_sample(params, X, count, seed), unscored, as an
    iterator of int8 blocks of SAMPLE_BLOCK_ROWS rows (the last one
    shorter), in draw order. `seed` is anything np.random.default_rng
    takes. Arguments are checked on the call, not on the first block.
    """
    X = _check_sampling(params, X, count)
    rng = np.random.default_rng(seed)
    return (_round_rows(G, X) for G in _direction_blocks(rng, count, X.shape[1]))


def build_px_k2(X) -> RoundingDistributionK2:
    """Preprocess the rounding distribution of a width-2 row matrix, keeping
    a read-only copy of X for the queries.

    Each nonzero row with direction angle theta contributes the two
    boundary angles theta +- pi/2 (mod 2*pi) where its sign flips.
    Coincident boundaries (up to 1e-12, including across the wraparound)
    merge into one.
    """
    X = np.array(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) row matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X has non-finite entries")
    live = X[X.any(axis=1)]
    thetas = np.arctan2(live[:, 1], live[:, 0])

    raw = np.concatenate([thetas + np.pi / 2.0, thetas - np.pi / 2.0])
    raw = np.mod(raw, _TWO_PI)
    raw[raw >= _TWO_PI] -= _TWO_PI  # mod can round up to the modulus itself
    raw.sort()

    angles: list[float] = []
    for value in raw:
        if not angles or value - angles[-1] > _MERGE_TOL:
            angles.append(float(value))
    if len(angles) >= 2 and (_TWO_PI - angles[-1]) + angles[0] <= _MERGE_TOL:
        angles.pop()

    X.setflags(write=False)
    return RoundingDistributionK2(X=X, angles=np.asarray(angles))


def px_query(dist: RoundingDistributionK2, x) -> float:
    """Probability that rounding dist.X produces the sign pattern x.

    The admissible directions form the intersection of one closed
    half-circle per nonzero row (centered on the row direction for +1,
    opposite it for -1), which is a single arc; the probability is its
    length over 2*pi. A zero row rounds to +1, so a pattern with -1 there
    has probability 0. O(n) per query.
    """
    xv = check_assignment(x, dist.n, Domain.PLUS_MINUS_ONE)
    mask = dist.X.any(axis=1)
    if (xv[~mask] < 0).any():
        return 0.0
    if not mask.any():
        return 1.0
    live = dist.X[mask]
    centers = np.arctan2(live[:, 1], live[:, 0]) + np.where(xv[mask] < 0, np.pi, 0.0)
    rel = np.mod(centers - centers[0] + np.pi, _TWO_PI) - np.pi
    width = (rel.min() + np.pi / 2.0) - (rel.max() - np.pi / 2.0)
    return float(np.maximum(width, 0.0) / _TWO_PI)


def enumerate_support_k2(dist: RoundingDistributionK2) -> list:
    """All realizable sign patterns of dist.X with their probabilities.

    Sweeps the direction angle across consecutive boundary arcs and reads
    off the rounding kernel's pattern on each arc at its midpoint. Entry j
    is the arc [angles[j], angles[j+1]), the last one wrapping to
    angles[0]; the merged boundaries are more than 1e-12 apart, so every
    arc has positive width. Zero rows read +1. Probabilities sum to 1.
    """
    if dist.angles.size == 0:
        return [(np.ones(dist.n, dtype=np.int8), 1.0)]
    starts = dist.angles
    stops = np.append(starts[1:], starts[0] + _TWO_PI)
    mids = 0.5 * (starts + stops)
    patterns = _round_rows(np.column_stack([np.cos(mids), np.sin(mids)]), dist.X)
    return list(zip(patterns, (stops - starts) / _TWO_PI))


def _arc_index(dist: RoundingDistributionK2, G: np.ndarray) -> np.ndarray:
    """Index of the arc [angles[j], angles[j+1]) holding each direction row
    of the (count, 2) array G, as numbered by enumerate_support_k2.

    A direction on a boundary, or within rounding distance of one, takes
    the arc that searchsorted(angles, atan2(g) mod 2*pi, side="right")
    picks; below angles[0] it wraps to the last arc. Without boundaries
    (every row zero) there is one arc, 0.
    """
    if dist.angles.size == 0:
        return np.zeros(G.shape[0], dtype=np.intp)
    phi = np.mod(np.arctan2(G[:, 1], G[:, 0]), _TWO_PI)
    return (np.searchsorted(dist.angles, phi, side="right") - 1) % dist.angles.size
