"""Hyperplane rounding, the width-2 rounding distribution, and its sampler."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from relaxround import (
    LrpOptions,
    MrfParams,
    build_px_k2,
    embed,
    enumerate_support_k2,
    gen_hard_rbm,
    px_query,
    rrr_map_sample,
    score,
    solve_lrp,
)
from relaxround import relaxation
from relaxround.rounding import (
    SAMPLE_BLOCK_ROWS,
    _arc_index,
    _round_rows,
    rrr_sample_blocks,
)

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


# ------------------------------------------------------- rounding kernel


def test_round_once_aligned_rows():
    g = np.array([0.6, 0.8])
    X = np.tile(g, (4, 1))
    assert list(_round_rows(g[None, :], X)[0]) == [1, 1, 1, 1]


def test_round_once_opposed_row():
    g = np.array([1.0, 0.0])
    assert list(_round_rows(g[None, :], np.array([[-1.0, 0.0]]))[0]) == [-1]


def test_round_once_zero_row_gets_plus_one():
    g = np.array([0.0, 1.0])
    assert list(_round_rows(g[None, :], np.array([[0.0, 0.0]]))[0]) == [1]


# ---------------------------------------------------------------- sampler


def test_identical_rows_sample_in_lockstep():
    rng = np.random.default_rng(3)
    X = np.tile(rng.normal(size=2), (5, 1))
    X /= np.linalg.norm(X[0])
    m = MrfParams(np.zeros((5, 5)))
    samples, _ = rrr_map_sample(m, X, 10_000, seed=4)
    same = np.abs(samples.sum(axis=1))
    assert np.all(same == 5)  # every draw is all-(+1) or all-(-1)
    plus = (samples[:, 0] > 0).sum()
    assert abs(plus - 5000) <= 4 * math.sqrt(10_000 * 0.25)


def test_orthogonal_rows_give_quarter_each():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = MrfParams(np.zeros((2, 2)))
    samples, _ = rrr_map_sample(m, X, 10_000, seed=5)
    patterns, counts = np.unique(samples, axis=0, return_counts=True)
    assert len(patterns) == 4
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 4 * sigma)


def test_batch_scores_match_score_function():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(6, 6))
    m = MrfParams(A)
    X = rng.normal(size=(6, 2))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    samples, scores = rrr_map_sample(m, X, 200, seed=7)
    assert samples.shape == (200, 6) and samples.dtype == np.int8
    assert scores.shape == (200,)
    for i in range(0, 200, 37):
        assert_allclose(scores[i], score(m, samples[i]), rtol=1e-12)


def test_sampler_mean_score_respects_two_over_pi(monkeypatch):
    # statistical form of the PSD rounding guarantee, 4-sigma slack
    monkeypatch.setattr(relaxation, "_REL_TOL", 1e-10)
    rng = np.random.default_rng(8)
    B = rng.normal(size=(10, 10))
    m = MrfParams(B @ B.T)
    sol = solve_lrp(m, LrpOptions(k=2, restarts=6, seed=9))
    _, scores = rrr_map_sample(m, sol.X, 20_000, seed=10)
    mean = scores.mean()
    stderr = scores.std() / math.sqrt(scores.size)
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


def test_build_px_k2_rejects_non_finite_rows_and_wrong_shapes():
    # a NaN row would otherwise take a share of the arcs, while px_query
    # gives its patterns probability nan
    for X in ([[np.nan, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -np.inf]]):
        with pytest.raises(ValueError, match="non-finite"):
            build_px_k2(X)
    with pytest.raises(ValueError, match="shape"):
        build_px_k2(np.ones((3, 3)))


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
    assert (~dist.X.any(axis=1)).tolist() == [False, True, False]
    assert len(dist.angles) == 4
    # the zero row reads +1: the two live rows' quarter circle, or nothing
    assert_allclose(px_query(dist, np.array([1, 1, 1])), 0.25, atol=1e-15)
    assert px_query(dist, np.array([1, -1, 1])) == 0.0


# ----------------------------------------------------------- point query


def test_px_identical_rows():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    dist = build_px_k2(X)
    assert_allclose(px_query(dist, np.array([1, 1])), 0.5, atol=1e-15)
    assert_allclose(px_query(dist, np.array([-1, -1])), 0.5, atol=1e-15)
    assert px_query(dist, np.array([1, -1])) == 0.0


def test_px_orthogonal_rows():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    dist = build_px_k2(X)
    assert_allclose(px_query(dist, np.array([1, 1])), 0.25, atol=1e-15)


def test_px_relative_angle_formula():
    for theta in (0.3, 1.1, 2.0, 2.9):
        X = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        dist = build_px_k2(X)
        want = (math.pi - theta) / TWO_PI
        assert_allclose(px_query(dist, np.array([1, 1])), want, atol=1e-14)


def test_px_relative_angle_monte_carlo():
    theta = 1.1
    X = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
    m = MrfParams(np.zeros((2, 2)))
    samples, _ = rrr_map_sample(m, X, 1_000_000, seed=13)
    hits = np.all(samples == 1, axis=1).sum()
    p = (math.pi - theta) / TWO_PI
    sigma = math.sqrt(1_000_000 * p * (1 - p))
    assert abs(hits - 1_000_000 * p) <= 4 * sigma


def test_px_antipodal_symmetry():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    for x, _ in enumerate_support_k2(dist):
        assert_allclose(
            px_query(dist, x), px_query(dist, -x), rtol=0, atol=1e-15
        )


def test_px_degenerate_row_unconstrained():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    dist = build_px_k2(X)
    # a zero row rounds to +1 for every direction, as the kernel gives it
    assert_allclose(px_query(dist, np.array([1, 1])), 0.5)
    assert px_query(dist, np.array([1, -1])) == 0.0


def test_px_sums_to_one_over_corners_with_a_zero_row():
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.6, 0.8]])
    dist = build_px_k2(X)
    corners = np.array(list(itertools.product([-1, 1], repeat=3)))
    assert_allclose(sum(px_query(dist, x) for x in corners), 1.0, rtol=1e-15)


def test_support_of_a_short_row_matches_the_draws():
    # a row of norm 1e-13 is no zero row: the sampler gives it the sign of
    # its product with g, and the distribution follows it. So does a row
    # of one subnormal entry, whose product with g would underflow to 0
    # (read as +1) without the kernel's power-of-two rescale.
    for short in (-1e-13, -5e-324):
        X = np.array([[1.0, 0.0], [short, 0.0]])
        supp = enumerate_support_k2(build_px_k2(X))
        assert sorted(tuple(x) for x, _ in supp) == [(-1, 1), (1, -1)]
        drawn, _ = rrr_map_sample(MrfParams(np.zeros((2, 2))), X, 10_000, seed=9)
        assert {tuple(row) for row in drawn} == {(-1, 1), (1, -1)}


def test_distribution_keeps_a_copy_of_its_rows():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(6, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    assert not dist.X.flags.writeable
    before = [(x.copy(), p) for x, p in enumerate_support_k2(dist)]
    queried = [px_query(dist, x) for x, _ in before]
    X[:] = -X[::-1]
    after = enumerate_support_k2(dist)
    assert len(after) == len(before)
    for (x0, p0), (x1, p1), q in zip(before, after, queried):
        assert_array_equal(x1, x0)
        assert p1 == p0 and px_query(dist, x0) == q


# ---------------------------------------------------- support enumeration


def test_support_identical_rows():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    supp = enumerate_support_k2(build_px_k2(X))
    assert sorted((tuple(x), p) for x, p in supp) == [
        ((-1, -1), 0.5),
        ((1, 1), 0.5),
    ]


def test_support_orthogonal_rows():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    supp = enumerate_support_k2(build_px_k2(X))
    assert len(supp) == 4
    assert_allclose([p for _, p in supp], 0.25)


def _special_rows(rng, n):
    """n feasible width-2 rows, some of them zero (degenerate), some of norm
    1e-13, and some a copy of another row, negated or halved (their
    boundaries coincide)."""
    X = rng.normal(size=(n, 2))
    kind = rng.integers(0, 5, size=n)
    X[kind == 0] = 0.0
    X[kind == 1] *= 1e-13 / np.linalg.norm(X[kind == 1], axis=1)[:, None]
    copies = np.flatnonzero(kind == 2)
    X[copies] = X[rng.integers(0, n, copies.size)] * rng.choice(
        [-1.0, 0.5, -0.5], copies.size)[:, None]
    return X / max(1.0, np.linalg.norm(X, axis=1).max())


def test_support_matches_query_and_normalizes():
    rng = np.random.default_rng(15)
    arrangements = []
    for trial in range(10):
        n = int(rng.integers(2, 9))
        X = rng.normal(size=(n, 2))
        X /= np.maximum(np.linalg.norm(X, axis=1), 1.0)[:, None]
        arrangements.append(X)
    arrangements += [_special_rows(rng, int(rng.integers(1, 12))) for _ in range(300)]
    for X in arrangements:
        n = X.shape[0]
        dist = build_px_k2(X)
        supp = enumerate_support_k2(dist)
        assert len(supp) <= 2 * n
        total = sum(p for _, p in supp)
        assert abs(total - 1.0) <= 1e-12
        for x, p in supp:
            assert abs(px_query(dist, x) - p) <= 1e-12
        if dist.angles.size == 0:  # every row degenerate
            assert len(supp) == 1 and supp[0][1] == 1.0
            assert_array_equal(supp[0][0], np.ones(n))
            continue
        # entry j: the rounding kernel's pattern at the midpoint of the arc
        # [angles[j], angles[j+1]) (the last one wraps), zero rows +1; its
        # probability, the arc's width over 2 pi
        stops = np.append(dist.angles[1:], dist.angles[0] + TWO_PI)
        assert len(supp) == dist.angles.size
        for (x, p), a0, a1 in zip(supp, dist.angles, stops):
            mid = 0.5 * (a0 + a1)
            want = _round_rows(np.array([[np.cos(mid), np.sin(mid)]]), X)[0]
            assert np.all(want[~dist.X.any(axis=1)] == 1)
            assert_array_equal(x, want)
            assert p == (a1 - a0) / TWO_PI


def test_off_support_patterns_get_zero():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(7, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    on = {tuple(x) for x, _ in enumerate_support_k2(dist)}
    found = 0
    for x in on.copy():
        for i in range(7):
            y = np.array(x, dtype=np.int8)
            y[i] = -y[i]
            if tuple(y) not in on:
                assert px_query(dist, y) == 0.0
                found += 1
    assert found > 0


def test_sampling_agreement_chi_square():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(8, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    m = MrfParams(rng.normal(size=(8, 8)))
    dist = build_px_k2(X)
    supp = enumerate_support_k2(dist)
    samples, _ = rrr_map_sample(m, X, 100_000, seed=18)
    index = {tuple(x): i for i, (x, _) in enumerate(supp)}
    counts = np.zeros(len(supp))
    for row in samples:
        counts[index[tuple(row)]] += 1  # KeyError would mean off-support draw
    assert chi_square_ok(counts, [p for _, p in supp])


def test_two_over_pi_exact_expectation_psd(monkeypatch):
    monkeypatch.setattr(relaxation, "_REL_TOL", 1e-10)
    rng = np.random.default_rng(19)
    for trial in range(6):
        n = int(rng.integers(4, 31))
        B = rng.normal(size=(n, n))
        m = MrfParams(B @ B.T)
        sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=trial))
        norms = np.linalg.norm(sol.X, axis=1)
        assert norms.min() >= 1.0 - 1e-9  # PSD pushes every row to the boundary
        X = sol.X / norms[:, None]
        dist = build_px_k2(X)
        supp = enumerate_support_k2(dist)
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
        assert_array_equal(rrr_map_sample(m, X, count, seed=41)[0], want)


def test_map_sample_scores_block_by_block():
    # 20000 draws at n=501: the samples are int8, and no samples x n float64
    # array (80 MB) is built to score them
    m = embed(gen_hard_rbm(300, 200, pairs=0, seed=100)).mrf
    X = np.random.default_rng(42).normal(size=(m.n, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    rrr_map_sample(m, X, 10, seed=43)  # first-call allocations stay out
    tracemalloc.start()
    try:
        samples, scores = rrr_map_sample(m, X, 20_000, seed=43)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000 * m.n * 8, peak
    assert_allclose(scores[-5:], [score(m, x) for x in samples[-5:]], rtol=1e-12)


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
    supp = enumerate_support_k2(dist)
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
    rounded = _round_rows(G, X)
    assert rounded[0][0] == 1 and supp[j][0][0] == -1
    assert_array_equal(rounded[1], supp[j][0])
    assert_array_equal(rounded[2], supp[arcs[2]][0])
    # below the first boundary and at 2*pi (mod rounding up) wrap to the last arc
    first = dist.angles[0]
    wrap = np.array([[math.cos(first / 2), math.sin(first / 2)], [1.0, -1e-300]])
    assert _arc_index(dist, wrap).tolist() == [dist.angles.size - 1] * 2


def test_arc_index_counts_follow_rounded_patterns():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(12, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    dist = build_px_k2(X)
    supp = np.stack([x for x, _ in enumerate_support_k2(dist)])
    G = rng.standard_normal((5000, 2))
    assert_array_equal(supp[_arc_index(dist, G)], np.where(G @ X.T >= 0, 1, -1))
