"""Hyperplane rounding, the width-2 rounding distribution, and its sampler."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from relaxround import (
    LrpOptions,
    MrfParams,
    build_px_k2,
    enumerate_support_k2,
    px_query,
    round_once,
    rrr_map_sample,
    score,
    solve_lrp,
)
from relaxround.rounding import SAMPLE_BLOCK_ROWS, _arc_index, rrr_sample_blocks

TWO_PI = 2.0 * math.pi


def chi_square_ok(observed, probs, alpha=0.01):
    """Pearson test against given cell probabilities; cells with expected
    count below 5 are pooled into one bin before comparing."""
    observed = np.asarray(observed, dtype=float)
    total = observed.sum()
    expected = np.asarray(probs, dtype=float) * total
    keep = expected >= 5.0
    obs = list(observed[keep])
    exp = list(expected[keep])
    if not np.all(keep):
        obs.append(observed[~keep].sum())
        exp.append(expected[~keep].sum())
    obs, exp = np.array(obs), np.array(exp)
    stat = ((obs - exp) ** 2 / exp).sum()
    return stat <= stats.chi2.ppf(1.0 - alpha, df=len(obs) - 1)


# ------------------------------------------------------------- round_once


def test_round_once_aligned_rows():
    g = np.array([0.6, 0.8])
    X = np.tile(g, (4, 1))
    assert list(round_once(X, g)) == [1, 1, 1, 1]


def test_round_once_opposed_row():
    g = np.array([1.0, 0.0])
    assert list(round_once(np.array([[-1.0, 0.0]]), g)) == [-1]


def test_round_once_zero_row_gets_plus_one():
    g = np.array([0.0, 1.0])
    assert list(round_once(np.array([[0.0, 0.0]]), g)) == [1]


# ---------------------------------------------------------------- sampler


def test_identical_rows_sample_in_lockstep():
    rng = np.random.default_rng(3)
    X = np.tile(rng.normal(size=2), (5, 1))
    X /= np.linalg.norm(X[0])
    m = MrfParams(np.zeros((5, 5)))
    batch = rrr_map_sample(m, X, 10_000, seed=4)
    same = np.abs(batch.samples.sum(axis=1))
    assert np.all(same == 5)  # every draw is all-(+1) or all-(-1)
    plus = (batch.samples[:, 0] > 0).sum()
    assert abs(plus - 5000) <= 4 * math.sqrt(10_000 * 0.25)


def test_orthogonal_rows_give_quarter_each():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = MrfParams(np.zeros((2, 2)))
    batch = rrr_map_sample(m, X, 10_000, seed=5)
    patterns, counts = np.unique(batch.samples, axis=0, return_counts=True)
    assert len(patterns) == 4
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 4 * sigma)


def test_batch_scores_match_score_function():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(6, 6))
    m = MrfParams(A)
    X = rng.normal(size=(6, 2))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    batch = rrr_map_sample(m, X, 200, seed=7)
    assert len(batch) == 200
    assert batch.seed == 7
    for i in range(0, 200, 37):
        assert_allclose(batch.scores[i], score(m, batch.samples[i]), rtol=1e-12)


def test_sampler_mean_score_respects_two_over_pi():
    # statistical form of the PSD rounding guarantee, 4-sigma slack
    rng = np.random.default_rng(8)
    B = rng.normal(size=(10, 10))
    m = MrfParams(B @ B.T)
    sol = solve_lrp(m, LrpOptions(k=2, restarts=6, seed=9, rel_tol=1e-10))
    batch = rrr_map_sample(m, sol.X, 20_000, seed=10)
    mean = batch.scores.mean()
    stderr = batch.scores.std() / math.sqrt(len(batch))
    assert mean >= (2.0 / math.pi) * sol.objective - 4.0 * stderr


def test_sampler_input_validation():
    m = MrfParams(np.zeros((2, 2)))
    X = np.eye(2)
    with pytest.raises(ValueError):
        rrr_map_sample(m, X, 0, seed=0)
    with pytest.raises(ValueError):
        rrr_map_sample(m, np.eye(3), 5, seed=0)
    with pytest.raises(ValueError):
        rrr_map_sample(m, 2.0 * X, 5, seed=0)


# ------------------------------------------------- distribution geometry


def test_boundaries_orthogonal_rows():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    dist = build_px_k2(X)
    assert_allclose(dist.angles, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    arcs = np.diff(np.append(dist.angles, dist.angles[0] + TWO_PI))
    assert_allclose(arcs, math.pi / 2)


def test_boundaries_identical_rows():
    X = np.array([[0.6, 0.8], [0.6, 0.8], [0.6, 0.8]])
    dist = build_px_k2(X)
    assert len(dist.angles) == 2
    arcs = np.diff(np.append(dist.angles, dist.angles[0] + TWO_PI))
    assert_allclose(arcs, math.pi)


def test_boundary_count_bound():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(5, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    assert len(dist.angles) <= 10
    assert np.all(np.diff(dist.angles) > 0)


def test_degenerate_rows_tracked():
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    dist = build_px_k2(X)
    assert dist.degenerate.tolist() == [False, True, False]
    assert not dist.degenerate.flags.writeable
    assert len(dist.angles) == 4


# ----------------------------------------------------------- point query


def test_px_identical_rows():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    dist = build_px_k2(X)
    assert_allclose(px_query(dist, X, np.array([1, 1])), 0.5, atol=1e-15)
    assert_allclose(px_query(dist, X, np.array([-1, -1])), 0.5, atol=1e-15)
    assert px_query(dist, X, np.array([1, -1])) == 0.0


def test_px_orthogonal_rows():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    dist = build_px_k2(X)
    assert_allclose(px_query(dist, X, np.array([1, 1])), 0.25, atol=1e-15)


def test_px_relative_angle_formula():
    for theta in (0.3, 1.1, 2.0, 2.9):
        X = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        dist = build_px_k2(X)
        want = (math.pi - theta) / TWO_PI
        assert_allclose(px_query(dist, X, np.array([1, 1])), want, atol=1e-14)


def test_px_relative_angle_monte_carlo():
    theta = 1.1
    X = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
    m = MrfParams(np.zeros((2, 2)))
    batch = rrr_map_sample(m, X, 1_000_000, seed=13)
    hits = np.all(batch.samples == 1, axis=1).sum()
    p = (math.pi - theta) / TWO_PI
    sigma = math.sqrt(1_000_000 * p * (1 - p))
    assert abs(hits - 1_000_000 * p) <= 4 * sigma


def test_px_antipodal_symmetry():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    for x, _ in enumerate_support_k2(dist, X):
        assert_allclose(
            px_query(dist, X, x), px_query(dist, X, -x), rtol=0, atol=1e-15
        )


def test_px_degenerate_row_unconstrained():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    dist = build_px_k2(X)
    # second coordinate is free: probability +-1/2 on the first alone
    for second in (1, -1):
        assert_allclose(px_query(dist, X, np.array([1, second])), 0.5)


# ---------------------------------------------------- support enumeration


def test_support_identical_rows():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    supp = enumerate_support_k2(build_px_k2(X), X)
    assert sorted((tuple(x), p) for x, p in supp) == [
        ((-1, -1), 0.5),
        ((1, 1), 0.5),
    ]


def test_support_orthogonal_rows():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    supp = enumerate_support_k2(build_px_k2(X), X)
    assert len(supp) == 4
    assert_allclose([p for _, p in supp], 0.25)


def test_support_matches_query_and_normalizes():
    rng = np.random.default_rng(15)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        X = rng.normal(size=(n, 2))
        X /= np.maximum(np.linalg.norm(X, axis=1), 1.0)[:, None]
        dist = build_px_k2(X)
        supp = enumerate_support_k2(dist, X)
        assert len(supp) <= 2 * n
        total = sum(p for _, p in supp)
        assert abs(total - 1.0) <= 1e-12
        for x, p in supp:
            assert abs(px_query(dist, X, x) - p) <= 1e-12


def test_off_support_patterns_get_zero():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(7, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    on = {tuple(x) for x, _ in enumerate_support_k2(dist, X)}
    found = 0
    for x in on.copy():
        for i in range(7):
            y = np.array(x, dtype=np.int8)
            y[i] = -y[i]
            if tuple(y) not in on:
                assert px_query(dist, X, y) == 0.0
                found += 1
    assert found > 0


def test_sampling_agreement_chi_square():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(8, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    m = MrfParams(rng.normal(size=(8, 8)))
    dist = build_px_k2(X)
    supp = enumerate_support_k2(dist, X)
    batch = rrr_map_sample(m, X, 100_000, seed=18)
    index = {tuple(x): i for i, (x, _) in enumerate(supp)}
    counts = np.zeros(len(supp))
    for row in batch.samples:
        counts[index[tuple(row)]] += 1  # KeyError would mean off-support draw
    assert chi_square_ok(counts, [p for _, p in supp])


def test_two_over_pi_exact_expectation_psd():
    rng = np.random.default_rng(19)
    for trial in range(6):
        n = int(rng.integers(4, 31))
        B = rng.normal(size=(n, n))
        m = MrfParams(B @ B.T)
        sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=trial, rel_tol=1e-10))
        norms = np.linalg.norm(sol.X, axis=1)
        assert norms.min() >= 1.0 - 1e-9  # PSD pushes every row to the boundary
        X = sol.X / norms[:, None]
        dist = build_px_k2(X)
        supp = enumerate_support_k2(dist, X)
        expectation = sum(p * score(m, x) for x, p in supp)
        relaxed = float(np.sum(X * (m.A @ X)))
        assert expectation >= (2.0 / math.pi) * relaxed - 1e-9


def test_sample_blocks_are_the_batch_rows_in_order():
    rng = np.random.default_rng(40)
    X = rng.normal(size=(9, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    m = MrfParams(np.zeros((9, 9)))
    for count in (1, SAMPLE_BLOCK_ROWS, SAMPLE_BLOCK_ROWS + 1, 5000):
        blocks = list(rrr_sample_blocks(m, X, count, seed=41))
        sizes = [len(block) for block in blocks]
        assert sizes[:-1] == [SAMPLE_BLOCK_ROWS] * (len(blocks) - 1)
        assert 1 <= sizes[-1] <= SAMPLE_BLOCK_ROWS and sum(sizes) == count
        assert all(block.dtype == np.int8 for block in blocks)
        # blocking continues one Gaussian stream: the rows are those of a
        # single count x 2 draw
        G = np.random.default_rng(41).standard_normal((count, 2))
        want = np.where(G @ X.T >= 0.0, 1, -1)
        assert_array_equal(np.concatenate(blocks), want)
        assert_array_equal(rrr_map_sample(m, X, count, seed=41).samples, want)


def test_sample_blocks_check_arguments_on_call():
    m = MrfParams(np.zeros((3, 3)))
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    with pytest.raises(ValueError):
        rrr_sample_blocks(m, X, 0, seed=0)
    with pytest.raises(ValueError):
        rrr_sample_blocks(m, 2.0 * X, 5, seed=0)


def test_arc_index_boundary_rule():
    # row 0 points along +x, so pi/2 is a boundary and g = (0, 1) lies
    # exactly on it: atan2(1, 0) is the same double as 0 + pi/2
    X = np.array([[1.0, 0.0], [math.cos(0.3), math.sin(0.3)], [-0.6, 0.8]])
    dist = build_px_k2(X)
    supp = enumerate_support_k2(dist, X)
    j = int(np.flatnonzero(dist.angles == math.pi / 2)[0])
    below = math.pi / 2
    above = math.pi / 2
    for _ in range(4):
        below = np.nextafter(below, 0.0)
        above = np.nextafter(above, 4.0)
    G = np.array([[0.0, 1.0], [math.cos(above), math.sin(above)],
                  [math.cos(below), math.sin(below)]])
    arcs = _arc_index(dist, G)
    # on the boundary, the arc starting there wins, although sign(0) := +1
    # would round row 0 to the pattern of the arc before it
    assert arcs.tolist() == [j, j, (j - 1) % dist.angles.size]
    assert round_once(X, G[0])[0] == 1 and supp[j][0][0] == -1
    assert_array_equal(round_once(X, G[1]), supp[j][0])
    assert_array_equal(round_once(X, G[2]), supp[arcs[2]][0])
    # below the first boundary and at 2*pi (mod rounding up) wrap to the last arc
    first = dist.angles[0]
    wrap = np.array([[math.cos(first / 2), math.sin(first / 2)], [1.0, -1e-300]])
    assert _arc_index(dist, wrap).tolist() == [dist.angles.size - 1] * 2


def test_arc_index_counts_follow_rounded_patterns():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(12, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    supp = np.stack([x for x, _ in enumerate_support_k2(dist, X)])
    G = rng.standard_normal((5000, 2))
    assert_array_equal(supp[_arc_index(dist, G)], np.where(G @ X.T >= 0, 1, -1))
