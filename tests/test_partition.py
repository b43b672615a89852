"""Exact, annealed-importance, and relax-and-round partition estimates."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from relaxround import (
    Budget,
    CapExceededError,
    Domain,
    EstimateReport,
    LrpOptions,
    MrfParams,
    RbmParams,
    SampleBatch,
    ais_logz,
    embed,
    exact_logz_mrf,
    exact_logz_rbm,
    gen_random_rbm,
    rbm_score,
    round_once,
    rrr_is,
    rrr_is_exact,
    rrr_low,
    rrr_map_sample,
    score,
    score_batch,
    solve_lrp,
)
from relaxround.partition import _distinct_keys, _streaming_logsumexp, _unpack_keys
from relaxround.rounding import (
    _px_query_batch,
    _sample_batch,
    build_px_k2,
    rrr_sample_blocks,
)

LOG2 = math.log(2.0)


# ------------------------------------------------------------ exact, MRF


def test_exact_mrf_uniform():
    assert_allclose(exact_logz_mrf(MrfParams(np.zeros((3, 3)))), 3 * LOG2,
                    rtol=1e-12)


def test_exact_mrf_single_coupling_closed_form():
    for c in (0.5, 1.0, 2.5):
        A = np.array([[0.0, c], [c, 0.0]])
        want = math.log(2 * math.exp(2 * c) + 2 * math.exp(-2 * c))
        assert_allclose(exact_logz_mrf(MrfParams(A)), want, rtol=1e-12)


def test_exact_mrf_matches_high_precision_sum():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(10, 10))
    m = MrfParams(A)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for bits in itertools.product((-1.0, 1.0), repeat=10):
            x = np.array(bits)
            total += mpmath.e ** mpmath.mpf(float(x @ m.A @ x))
        want = float(mpmath.log(total))
    assert abs(exact_logz_mrf(m) - want) <= 1e-10 * abs(want)


def test_exact_mrf_zero_one_domain():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 6))
    m = MrfParams(A, Domain.ZERO_ONE)
    want = np.logaddexp.reduce(
        [score(m, np.array(bits)) for bits in itertools.product((0.0, 1.0), repeat=6)]
    )
    assert_allclose(exact_logz_mrf(m), want, rtol=1e-12)


def test_exact_mrf_cap():
    with pytest.raises(CapExceededError):
        exact_logz_mrf(MrfParams(np.zeros((25, 25))))


def test_exact_mrf_no_overflow_at_large_scores():
    A = np.full((6, 6), 2500.0)  # scores reach 9e4
    value = exact_logz_mrf(MrfParams(A))
    assert np.isfinite(value)
    # two degenerate dominant corners (all +1 and all -1)
    assert_allclose(value, 6 * 6 * 2500.0 + LOG2, rtol=1e-9)


# ------------------------------------------------------------ exact, RBM


def test_exact_rbm_zero_pm1():
    rbm = RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    assert_allclose(exact_logz_rbm(rbm), 4 * LOG2, rtol=1e-12)


def test_exact_rbm_zero_bits():
    rbm = RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2), Domain.ZERO_ONE)
    assert_allclose(exact_logz_rbm(rbm), 4 * LOG2, rtol=1e-12)


def test_exact_rbm_matches_full_enumeration():
    rbm = gen_random_rbm(4, 3, seed=2)
    scores = [
        rbm_score(rbm, np.array(v), np.array(h))
        for v in itertools.product((-1.0, 1.0), repeat=4)
        for h in itertools.product((-1.0, 1.0), repeat=3)
    ]
    want = np.logaddexp.reduce(scores)
    assert abs(exact_logz_rbm(rbm) - want) <= 1e-9 * abs(want)


def test_exact_rbm_sum_out_equivalence_sweep():
    rng = np.random.default_rng(3)
    for m, p in [(1, 1), (2, 5), (5, 2), (4, 4), (5, 5)]:
        for domain in Domain:
            W = rng.normal(size=(m, p))
            a = rng.normal(size=m)
            b = rng.normal(size=p)
            rbm = RbmParams(W, a, b, domain)
            vals = (-1.0, 1.0) if domain is Domain.PLUS_MINUS_ONE else (0.0, 1.0)
            scores = [
                rbm_score(rbm, np.array(v), np.array(h))
                for v in itertools.product(vals, repeat=m)
                for h in itertools.product(vals, repeat=p)
            ]
            want = np.logaddexp.reduce(scores)
            assert abs(exact_logz_rbm(rbm) - want) <= 1e-9 * max(1.0, abs(want))


def test_exact_rbm_cap_only_counts_visible():
    # hidden units are summed out analytically, so p can exceed the cap
    rbm = gen_random_rbm(2, 30, seed=4)
    assert np.isfinite(exact_logz_rbm(rbm))
    with pytest.raises(CapExceededError):
        exact_logz_rbm(gen_random_rbm(25, 2, seed=5))


# -------------------------------------------------------------------- AIS


def test_ais_zero_rbm_is_exact():
    rbm = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
    for seed in (0, 1, 2):
        report = ais_logz(rbm, num_temps=20, num_runs=10, seed=seed)
        assert_allclose(report.log_z, 5 * LOG2, rtol=1e-12)
        assert report.details["weight_std"] == 0.0


def test_ais_report_fields():
    rbm = gen_random_rbm(3, 2, seed=6)
    report = ais_logz(rbm, num_temps=30, num_runs=8, seed=7)
    assert report.budget == Budget(samples=8, temperatures=30, sweeps=29)
    assert report.seed == 7
    assert report.wall_clock >= 0.0
    assert np.isfinite(report.log_z)


def test_ais_accuracy_small_rbm():
    hits = 0
    for seed in range(20):
        rbm = gen_random_rbm(4, 3, seed=400 + seed)
        exact = exact_logz_rbm(rbm)
        report = ais_logz(rbm, num_temps=1000, num_runs=100, seed=seed)
        hits += abs(report.log_z - exact) <= 0.1
    assert hits >= 19  # 95% of 20


def test_ais_deterministic():
    rbm = gen_random_rbm(4, 3, seed=8)
    r1 = ais_logz(rbm, num_temps=50, num_runs=10, seed=9)
    r2 = ais_logz(rbm, num_temps=50, num_runs=10, seed=9)
    assert r1.log_z == r2.log_z


def test_ais_zero_one_domain():
    rng = np.random.default_rng(10)
    rbm = RbmParams(rng.normal(size=(4, 3)), rng.normal(size=4),
                    rng.normal(size=3), Domain.ZERO_ONE)
    exact = exact_logz_rbm(rbm)
    report = ais_logz(rbm, num_temps=600, num_runs=80, seed=11)
    assert abs(report.log_z - exact) <= 0.15


def test_ais_validation():
    rbm = gen_random_rbm(2, 2, seed=12)
    with pytest.raises(ValueError):
        ais_logz(rbm, num_temps=1, num_runs=5, seed=0)
    with pytest.raises(ValueError):
        ais_logz(rbm, num_temps=10, num_runs=0, seed=0)


# ---------------------------------------------------------------- rrr-low


def _single_sample_batch(m, x):
    x = np.asarray(x, dtype=np.int8)
    return SampleBatch(
        samples=x[None, :], scores=np.array([score(m, x)]), seed=0
    )


def test_rrr_low_single_sample():
    rng = np.random.default_rng(13)
    m = MrfParams(rng.normal(size=(5, 5)))
    x = rng.choice([-1, 1], size=5)
    report = rrr_low(m, _single_sample_batch(m, x).samples)
    assert_allclose(report.log_z, score(m, x), rtol=1e-12)
    assert report.details["distinct"] == 1


def test_rrr_low_duplicates_collapse():
    rng = np.random.default_rng(14)
    m = MrfParams(rng.normal(size=(4, 4)))
    x = np.array([1, -1, 1, 1], dtype=np.int8)
    batch = SampleBatch(
        samples=np.tile(x, (50, 1)),
        scores=np.full(50, score(m, x)),
        seed=0,
    )
    assert_allclose(rrr_low(m, batch.samples).log_z, score(m, x), rtol=1e-12)


def test_rrr_low_bound_and_missed_mass():
    rng = np.random.default_rng(15)
    m = MrfParams(rng.normal(size=(8, 8)) * 0.3)
    sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=16))
    batch = rrr_map_sample(m, sol.X, 100_000, seed=17)
    report = rrr_low(m, batch.samples)
    exact = exact_logz_mrf(m)
    assert report.log_z <= exact + 1e-9

    # the gap is exactly the log of the covered probability mass
    distinct = np.unique(batch.samples, axis=0)
    covered = sum(
        math.exp(score(m, row) - exact) for row in distinct
    )
    assert_allclose(report.log_z - exact, math.log(covered), atol=1e-9)


def test_rrr_low_monotone_in_batch_size():
    rng = np.random.default_rng(18)
    m = MrfParams(rng.normal(size=(6, 6)))
    sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=19))
    batch = rrr_map_sample(m, sol.X, 400, seed=20)
    values = []
    for count in (1, 10, 50, 400):
        sub = SampleBatch(
            samples=batch.samples[:count],
            scores=batch.scores[:count],
            seed=batch.seed,
        )
        values.append(rrr_low(m, sub.samples).log_z)
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def _rows_with_repeats(rng, n, count, pool=300):
    rows = np.where(rng.random((pool, n)) < 0.5, 1, -1).astype(np.int8)
    return rows[rng.integers(0, pool, size=count)]


@pytest.mark.parametrize(
    "n, pool", [(1, 300), (7, 300), (8, 300), (9, 300), (501, 300), (501, 5000)]
)
def test_rrr_low_blocks_match_one_array(n, pool):
    # n = 1, 7 and 9 leave padding bits in the packed keys; 8 leaves none.
    # A pool of 5000 makes most rows distinct, as at width k > 2, so the
    # merged keys keep growing across blocks.
    rng = np.random.default_rng([800, n, pool])
    count = 5000
    S = _rows_with_repeats(rng, n, count, pool)
    A = rng.normal(size=(n, n)) * 0.05
    m = MrfParams(0.5 * (A + A.T))
    whole = rrr_low(m, S)
    want = np.unique(S, axis=0)
    assert whole.details["distinct"] == want.shape[0]
    assert_array_equal(_unpack_keys(_distinct_keys(S, n)[0], n), want)
    # past SAMPLE_BLOCK_ROWS distinct rows the scores are summed per block
    one_array = _streaming_logsumexp(score_batch(m, want))
    assert_allclose(whole.log_z, one_array, rtol=1e-13)
    splits = [
        np.split(S, [1, 7, 2048]),  # block boundaries 1, 7, 2048 and count
        [S[i : i + 7] for i in range(0, count, 7)],
        [S[i : i + 2048] for i in range(0, count, 2048)],
    ]
    for blocks in splits:
        keys, rows_read = _distinct_keys(iter(blocks), n)
        assert_array_equal(_unpack_keys(keys, n), want)
        assert rows_read == count
        report = rrr_low(m, iter(blocks))
        assert report.log_z == whole.log_z
        assert report.details["distinct"] == whole.details["distinct"]
        assert report.budget.samples == count


def test_rrr_low_rejects_empty_and_misshapen_rows():
    m = MrfParams(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        rrr_low(m, np.empty((0, 3), dtype=np.int8))
    with pytest.raises(ValueError):
        rrr_low(m, iter([]))
    with pytest.raises(ValueError):
        rrr_low(m, np.ones((2, 4), dtype=np.int8))
    # packed keys keep only rows > 0, so {0,1} rows would be read as {-1,+1}
    with pytest.raises(ValueError):
        rrr_low(MrfParams(np.eye(3), Domain.ZERO_ONE), np.eye(3, dtype=np.int8))


def test_rrr_low_streamed_peak_memory_flat():
    # one block plus the distinct keys: a 10x larger sample count must not
    # raise the traced peak (n=501, the logz benchmark's size). At width 3
    # most draws are distinct; each one may then cost a few copies of its
    # n/8-byte key, at most n bytes, never the 8n bytes of a float row.
    emb = embed(gen_random_rbm(16, 484, seed=31))
    m = emb.mrf

    def traced(k, counts):
        X = np.random.default_rng(32).normal(size=(m.n, k))
        X /= np.linalg.norm(X, axis=1, keepdims=True)

        def streamed(count):
            blocks = rrr_sample_blocks(m, X, count, 33)
            return rrr_low(m, (emb.canonical(rows) for rows in blocks))

        streamed(100)  # first-call allocations stay out of the comparison
        peaks, distinct = [], []
        for count in counts:
            tracemalloc.start()
            try:
                report = streamed(count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.budget.samples == count
            distinct.append(report.details["distinct"])
        return peaks, distinct

    peaks, _ = traced(2, (10_000, 100_000))
    assert peaks[1] <= 1.1 * peaks[0], peaks
    peaks, distinct = traced(3, (10_000, 40_000))
    assert distinct[1] - distinct[0] >= 10_000, distinct
    assert peaks[1] - peaks[0] <= m.n * (distinct[1] - distinct[0]), peaks


# ----------------------------------------------------------------- rrr-is


def test_rrr_is_identical_rows_support():
    m = MrfParams(np.array([[0.0, 0.7], [0.7, 0.0]]))
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    report = rrr_is_exact(m, X)
    x = np.array([1, 1])
    want = math.log(2.0) + score(m, x)  # {x, -x}, equal scores
    assert_allclose(report.log_z, want, rtol=1e-12)
    assert report.details["exact_support"] is True


def test_rrr_is_sampled_near_exact_support():
    rng = np.random.default_rng(21)
    m = MrfParams(rng.normal(size=(7, 7)) * 0.4)
    sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=22))
    exact = rrr_is_exact(m, sol.X)
    exact_support = exact.log_z
    sampled = rrr_is(m, sol.X, 100_000, seed=23)
    # the sampler's one pass over the support also gives the exact value
    assert sampled.details["log_z_exact_support"] == exact_support
    assert sampled.details["support_size"] == exact.budget.samples

    # 3 standard errors, computed from the weight spread on a fresh batch
    batch = _sample_batch(m, sol.X, 100_000, np.random.default_rng(24), 24)
    probs = _px_query_batch(build_px_k2(sol.X), batch.samples)
    w = np.exp(batch.scores - np.log(probs) - exact_support)
    se = w.std() / (w.mean() * math.sqrt(len(w)))
    assert abs(sampled.log_z - exact_support) <= 3 * se


def test_rrr_is_support_below_exact():
    rng = np.random.default_rng(25)
    for trial in range(5):
        n = int(rng.integers(2, 9))
        m = MrfParams(rng.normal(size=(n, n)))
        sol = solve_lrp(m, LrpOptions(k=2, restarts=3, seed=trial))
        support_value = rrr_is_exact(m, sol.X).log_z
        assert support_value <= exact_logz_mrf(m) + 1e-9


def test_rrr_is_equality_when_support_covers_everything():
    # n=1: the support is {+1, -1}, i.e. every corner
    m = MrfParams(np.array([[0.4]]))
    X = np.array([[1.0, 0.0]])
    assert_allclose(rrr_is_exact(m, X).log_z, exact_logz_mrf(m), rtol=1e-12)


def reference_rrr_is(params, X, count, seed, degenerate_plus=True):
    """The per-draw importance sampler: round and score every draw, query
    each draw's pattern probability, and log-mean-exp in draw order.
    Degenerate rows read +1, as in enumerate_support_k2, unless
    `degenerate_plus` is False: then they keep their rounded sign."""
    batch = _sample_batch(params, X, count, np.random.default_rng(seed), seed)
    dist = build_px_k2(X)
    samples = batch.samples.copy()
    if degenerate_plus:
        samples[:, dist.degenerate] = 1
    probs = _px_query_batch(dist, samples)
    if np.any(probs <= 0.0):
        raise RuntimeError("sampled pattern has zero computed probability")
    scores = score_batch(params, samples)
    return float(_streaming_logsumexp(scores - np.log(probs)) - np.log(count))


def test_rrr_is_matches_per_draw_reference():
    for trial in range(12):
        rng = np.random.default_rng([710, trial])
        n = int(rng.integers(2, 31))
        A = rng.normal(size=(n, n)) * 0.3
        m = MrfParams(0.5 * (A + A.T))
        if trial % 2:
            X = rng.normal(size=(n, 2))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
        else:
            X = solve_lrp(m, LrpOptions(k=2, restarts=2, seed=trial)).X
        seed = 7100 + trial
        assert_allclose(
            rrr_is(m, X, 20_000, seed).log_z,
            reference_rrr_is(m, X, 20_000, seed),
            rtol=1e-9,
        )


def test_rrr_is_matches_per_draw_reference_rbm501():
    m = embed(gen_random_rbm(16, 484, seed=101)).mrf
    X = solve_lrp(m, LrpOptions(k=2, restarts=1, seed=3)).X
    assert_allclose(
        rrr_is(m, X, 10_000, seed=72).log_z,
        reference_rrr_is(m, X, 10_000, seed=72),
        rtol=1e-9,
    )


def test_rrr_is_tiny_nonzero_row_reads_plus_one():
    # a row of norm 1e-13 is feasible but degenerate: rounding gives it the
    # sign of its tiny product with g, while rrr_is, like the support
    # enumeration, reads it as +1 in every pattern
    rng = np.random.default_rng(74)
    n = 6
    A = rng.normal(size=(n, n))
    m = MrfParams(0.5 * (A + A.T))
    X = rng.normal(size=(n, 2))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[2] *= 1e-13
    assert build_px_k2(X).degenerate.tolist() == [False, False, True] + [False] * 3
    signs = rrr_map_sample(m, X, 2000, seed=75).samples[:, 2]
    assert -1 in signs and 1 in signs
    got = rrr_is(m, X, 2000, seed=75).log_z
    assert_allclose(got, reference_rrr_is(m, X, 2000, 75), rtol=1e-9)
    assert abs(got - reference_rrr_is(m, X, 2000, 75, degenerate_plus=False)) > 1e-6


def test_rrr_is_merged_boundaries_take_the_arc_pattern():
    # two rows 1e-13 rad apart have merging boundaries; the first draw is
    # placed in the sliver between them and counts toward the merged arc,
    # exactly as if the rows coincided
    seed = 73
    g = np.random.default_rng(seed).standard_normal(2)
    phi = math.atan2(g[1], g[0])
    m = MrfParams(np.array([[0.0, 0.3, -0.2], [0.3, 0.0, 0.5], [-0.2, 0.5, 0.0]]))

    def rows(split):
        thetas = np.array([phi + math.pi / 2 - split, phi + math.pi / 2 + split, 1.0])
        return np.stack([np.cos(thetas), np.sin(thetas)], axis=1)

    X = rows(0.5e-13)
    assert build_px_k2(X).angles.size == 4
    sliver = round_once(X, g)
    assert sliver[0] != sliver[1]  # the draw itself rounds inside the sliver
    report = rrr_is(m, X, 200, seed)
    assert np.isfinite(report.log_z)
    assert_allclose(report.log_z, rrr_is(m, rows(0.0), 200, seed).log_z, rtol=1e-12)


def test_rrr_is_requires_width_two():
    m = MrfParams(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        rrr_is(m, np.ones((3, 3)) / 2.0, 10, seed=0)


# ------------------------------------------------------------- reporting


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(samples=-1)
    with pytest.raises(ValueError):
        EstimateReport(math.nan, Budget(), 0, 0.0)
