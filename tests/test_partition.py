"""Exact, annealed-importance, and relax-and-round partition estimates."""

import copy
import itertools
import math
import os
import threading
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
    ais_logz,
    embed,
    enumerate_support_k2,
    exact_logz_mrf,
    exact_logz_rbm,
    gen_hard_rbm,
    rbm_score,
    rrr_is,
    rrr_low,
    rrr_map_sample,
    score,
    score_batch,
    solve_lrp,
)
from relaxround import partition
from relaxround.partition import _distinct_keys, _streaming_logsumexp, _unpack_keys
from relaxround.rounding import (
    _round_rows,
    build_px_k2,
    px_query,
    rrr_sample_blocks,
)

from chain_utils import no_child_left

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
    rbm = gen_hard_rbm(4, 3, pairs=0, seed=2)
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
    rbm = gen_hard_rbm(2, 30, pairs=0, seed=4)
    assert np.isfinite(exact_logz_rbm(rbm))
    with pytest.raises(CapExceededError):
        exact_logz_rbm(gen_hard_rbm(25, 2, pairs=0, seed=5))


# -------------------------------------------------------------------- AIS


def test_ais_zero_rbm_is_exact():
    rbm = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
    for seed in (0, 1, 2):
        report = ais_logz(rbm, num_temps=20, num_runs=10, seed=seed)
        assert_allclose(report.log_z, 5 * LOG2, rtol=1e-12)
        assert report.details["weight_std"] == 0.0


def test_ais_report_fields():
    rbm = gen_hard_rbm(3, 2, pairs=0, seed=6)
    report = ais_logz(rbm, num_temps=30, num_runs=8, seed=7)
    assert report.budget == Budget(samples=8)
    assert report.wall_clock >= 0.0
    assert np.isfinite(report.log_z)


def test_ais_accuracy_small_rbm():
    hits = 0
    for seed in range(20):
        rbm = gen_hard_rbm(4, 3, pairs=0, seed=400 + seed)
        exact = exact_logz_rbm(rbm)
        report = ais_logz(rbm, num_temps=1000, num_runs=100, seed=seed)
        hits += abs(report.log_z - exact) <= 0.1
    assert hits >= 19  # 95% of 20


def test_ais_deterministic():
    rbm = gen_hard_rbm(4, 3, pairs=0, seed=8)
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


def _reference_ais(params, num_temps, num_runs, seed):
    """ais_logz as a plain loop per half of the runs, rows [0, c) and
    [c, runs) with c = ceil(runs / 2): each state is scored with its own
    V @ W before the block sweep, written out here, moves it. Each half
    draws its rows of the serial (runs, p) and (runs, m) uniform blocks
    by advancing its own copy of the bit generator past the other rows."""
    rng = np.random.default_rng(seed)
    spin = params.domain is Domain.PLUS_MINUS_ONE
    gain, lo = (2.0, -1) if spin else (1.0, 0)

    def uniform(cols):
        bits = rng.integers(0, 2, size=(num_runs, cols), dtype=np.int8)
        return (2 * bits - 1).astype(np.int8) if spin else bits

    V0, H0 = uniform(params.m), uniform(params.p)
    betas = np.linspace(0.0, 1.0, num_temps)
    cut = (num_runs + 1) // 2
    halves = []
    for r0, r1 in ((0, cut), (cut, num_runs)):
        bits = copy.deepcopy(rng.bit_generator)
        half = np.random.Generator(bits)

        def draw(shape):
            bits.advance(r0 * shape[1])
            u = half.random(shape)
            bits.advance((num_runs - r1) * shape[1])
            return u

        V, H = V0[r0:r1], H0[r0:r1]
        log_weights = np.zeros(r1 - r0)
        for t in range(1, num_temps):
            scores = (np.einsum("rp,rp->r", V @ params.W, H.astype(float))
                      + V @ params.a + H @ params.b)
            log_weights += (betas[t] - betas[t - 1]) * scores
            beta = float(betas[t])
            with np.errstate(over="ignore"):
                ph = 1.0 / (1.0 + np.exp(-(gain * beta * (V @ params.W + params.b))))
                H = np.where(draw(ph.shape) < ph, 1, lo).astype(np.int8)
                pv = 1.0 / (1.0 + np.exp(-(gain * beta * (H @ params.W.T + params.a))))
                V = np.where(draw(pv.shape) < pv, 1, lo).astype(np.int8)
        halves.append(log_weights)
    log_weights = np.concatenate(halves)
    log_base = (params.m + params.p) * np.log(2.0)
    return float(log_base + _streaming_logsumexp(log_weights) - np.log(num_runs))


@pytest.mark.parametrize("domain", [Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE])
def test_ais_matches_reference_loop(domain):
    # weights taken after the hidden resample, or from a stale V @ W,
    # would move log Z by far more than one ulp. The bench-shaped case
    # (m=16, p=484, 100 runs) runs BLAS-sized products on the float
    # states, the planted one (couple 5000) exp's overflow to inf.
    rng = np.random.default_rng(13)
    small = RbmParams(rng.normal(size=(9, 7)), rng.normal(size=9),
                      rng.normal(size=7), domain)
    bench = gen_hard_rbm(16, 484, pairs=0, seed=1)
    hard = gen_hard_rbm(12, 10, pairs=3, couple=5000.0, bias=5.0, seed=3)
    cases = [(small, 60, 12, (0, 1, 2)), (small, 40, 7, (3,)), (small, 40, 1, (4,))]
    cases += [(RbmParams(r.W, r.a, r.b, domain), 30, 100, (0, 1)) for r in (bench, hard)]
    for rbm, temps, runs, seeds in cases:
        for seed in seeds:
            got = ais_logz(rbm, num_temps=temps, num_runs=runs, seed=seed).log_z
            assert got == _reference_ais(rbm, temps, runs, seed)


@pytest.mark.parametrize("runs", [1, 2, 3, 7, 100])
@pytest.mark.parametrize("domain", [Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE])
def test_ais_halves_draw_the_serial_uniforms(monkeypatch, domain, runs):
    # each half's per-temperature uniforms are its rows of one serial
    # rng.random((runs, p)) and rng.random((runs, m)) per temperature,
    # drawn after the int8 start states (which leave a buffered 32-bit
    # half that float draws do not use); one run has no second half
    m, p, temps, seed = 3, 5, 4, 31
    rng = np.random.default_rng(32)
    rbm = RbmParams(rng.normal(size=(m, p)), rng.normal(size=m),
                    rng.normal(size=p), domain)
    drawn = []  # each layer's uniforms per call: hidden, then visible

    def recording(layer, field, bias, scale, lo, u, stream):
        resample(layer, field, bias, scale, lo, u, stream)
        drawn.append(u.copy())

    resample = partition._resample_layer
    monkeypatch.setattr(partition, "_FORK", False)
    monkeypatch.setattr(partition, "_resample_layer", recording)
    ais_logz(rbm, num_temps=temps, num_runs=runs, seed=seed)

    serial = np.random.default_rng(seed)
    serial.integers(0, 2, size=(runs, m), dtype=np.int8)
    serial.integers(0, 2, size=(runs, p), dtype=np.int8)
    blocks = [(serial.random((runs, p)), serial.random((runs, m)))
              for _ in range(temps - 1)]
    cut = (runs + 1) // 2
    halves = [(r0, r1) for r0, r1 in ((0, cut), (cut, runs)) if r1 > r0]
    assert len(drawn) == 2 * len(halves) * (temps - 1)
    for half, (r0, r1) in enumerate(halves):
        for t, (u_h, u_v) in enumerate(blocks):
            call = 2 * (half * (temps - 1) + t)
            got_h, got_v = drawn[call], drawn[call + 1]
            assert got_h.tobytes() == u_h[r0:r1].tobytes()
            assert got_v.tobytes() == u_v[r0:r1].tobytes()


@pytest.mark.parametrize("domain", [Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE])
def test_ais_forked_and_inline_halves_agree(monkeypatch, domain):
    # the forked child runs the same arithmetic as the inline second half,
    # and no child outlives the call
    rng = np.random.default_rng(33)
    small = RbmParams(rng.normal(size=(9, 7)), rng.normal(size=9),
                      rng.normal(size=7), domain)
    bench = gen_hard_rbm(16, 484, pairs=0, seed=1)
    cases = [(small, 50, runs) for runs in (1, 2, 3, 7)] + [
        (RbmParams(bench.W, bench.a, bench.b, domain), 30, 100)]
    for rbm, temps, runs in cases:
        reports = []
        for fork in (True, False):
            monkeypatch.setattr(partition, "_FORK", fork)
            reports.append(ais_logz(rbm, num_temps=temps, num_runs=runs, seed=34))
            no_child_left()
        forked, inline = reports
        assert forked.log_z == inline.log_z
        assert forked.details["weight_std"] == inline.details["weight_std"]


def test_ais_forks_no_child_beside_another_thread(monkeypatch):
    def no_fork():
        raise AssertionError("forked beside another thread")

    rbm = gen_hard_rbm(4, 3, pairs=0, seed=41)
    forked = ais_logz(rbm, num_temps=20, num_runs=4, seed=42)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        inline = ais_logz(rbm, num_temps=20, num_runs=4, seed=42)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert inline.log_z == forked.log_z


def test_ais_failed_child_raises(monkeypatch):
    # an exception raised in the child arrives as itself, with its message;
    # a child that dies without a result raises RuntimeError naming its
    # exit status
    parent = os.getpid()
    resample = partition._resample_layer
    rbm = gen_hard_rbm(4, 3, pairs=0, seed=35)

    def raising():
        raise ValueError("child fails")

    def dying():
        os._exit(3)

    for fail, error, match in ((raising, ValueError, "^child fails$"),
                               (dying, RuntimeError, "exited with 3 after 0 bytes")):
        def failing_in_child(*args, fail=fail):
            if os.getpid() != parent:
                fail()
            return resample(*args)

        monkeypatch.setattr(partition, "_resample_layer", failing_in_child)
        with pytest.raises(error, match=match):
            ais_logz(rbm, num_temps=20, num_runs=4, seed=36)
        no_child_left()


def test_ais_parent_failure_leaves_no_child(monkeypatch):
    parent = os.getpid()
    resample = partition._resample_layer

    def interrupted_in_parent(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return resample(*args)

    monkeypatch.setattr(partition, "_resample_layer", interrupted_in_parent)
    rbm = gen_hard_rbm(16, 484, pairs=0, seed=37)
    with pytest.raises(KeyboardInterrupt):
        ais_logz(rbm, num_temps=1000, num_runs=100, seed=38)
    no_child_left()


def test_ais_child_flushes_no_inherited_buffer(capfd):
    # the child leaves by os._exit, so a line still in a buffer of this
    # process when it forks is written once, by the parent
    with os.fdopen(os.dup(1), "w", buffering=1 << 16) as buffered:
        buffered.write("before ais\n")
        ais_logz(gen_hard_rbm(4, 3, pairs=0, seed=39), num_temps=20, num_runs=4, seed=40)
    out, err = capfd.readouterr()
    assert out.count("before ais") == 1
    assert err == ""


def test_ais_validation():
    rbm = gen_hard_rbm(2, 2, pairs=0, seed=12)
    with pytest.raises(ValueError):
        ais_logz(rbm, num_temps=1, num_runs=5, seed=0)
    with pytest.raises(ValueError):
        ais_logz(rbm, num_temps=10, num_runs=0, seed=0)


# ---------------------------------------------------------------- rrr-low


def test_rrr_low_single_sample():
    rng = np.random.default_rng(13)
    m = MrfParams(rng.normal(size=(5, 5)))
    x = rng.choice([-1, 1], size=5)
    report = rrr_low(m, [np.asarray(x, dtype=np.int8)[None, :]])
    assert_allclose(report.log_z, score(m, x), rtol=1e-12)
    assert report.details["distinct"] == 1


def test_rrr_low_duplicates_collapse():
    rng = np.random.default_rng(14)
    m = MrfParams(rng.normal(size=(4, 4)))
    x = np.array([1, -1, 1, 1], dtype=np.int8)
    assert_allclose(rrr_low(m, [np.tile(x, (50, 1))]).log_z, score(m, x), rtol=1e-12)


def test_rrr_low_bound_and_missed_mass():
    rng = np.random.default_rng(15)
    m = MrfParams(rng.normal(size=(8, 8)) * 0.3)
    sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=16))
    samples, _ = rrr_map_sample(m, sol.X, 100_000, seed=17)
    report = rrr_low(m, [samples])
    exact = exact_logz_mrf(m)
    assert report.log_z <= exact + 1e-9

    # the gap is exactly the log of the covered probability mass
    distinct = np.unique(samples, axis=0)
    covered = sum(
        math.exp(score(m, row) - exact) for row in distinct
    )
    assert_allclose(report.log_z - exact, math.log(covered), atol=1e-9)


def test_rrr_low_monotone_in_batch_size():
    rng = np.random.default_rng(18)
    m = MrfParams(rng.normal(size=(6, 6)))
    sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=19))
    samples, _ = rrr_map_sample(m, sol.X, 400, seed=20)
    values = [rrr_low(m, [samples[:count]]).log_z for count in (1, 10, 50, 400)]
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
    whole = rrr_low(m, [S])
    want = np.unique(S, axis=0)
    assert whole.details["distinct"] == want.shape[0]
    assert_array_equal(_unpack_keys(_distinct_keys([S], n)[0], n), want)
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
    with pytest.raises(ValueError, match="nonempty"):
        rrr_low(m, [np.empty((0, 3), dtype=np.int8)])
    with pytest.raises(ValueError, match="nonempty"):
        rrr_low(m, iter([]))
    with pytest.raises(ValueError, match=r"shape \(2, 4\)"):
        rrr_low(m, [np.ones((2, 4), dtype=np.int8)])
    # a bare array is an iterable of 1-D rows, not of blocks
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        rrr_low(m, np.ones((2, 3), dtype=np.int8))
    # packed keys keep only rows > 0, so {0,1} rows would be read as {-1,+1}
    with pytest.raises(ValueError, match="takes"):
        rrr_low(MrfParams(np.eye(3), Domain.ZERO_ONE), [np.eye(3, dtype=np.int8)])


def test_rrr_low_streamed_peak_memory_flat():
    # one block plus the distinct keys: a 10x larger sample count must not
    # raise the traced peak (n=501, the logz benchmark's size). At width 3
    # most draws are distinct; each one may then cost a few copies of its
    # n/8-byte key, at most n bytes, never the 8n bytes of a float row.
    emb = embed(gen_hard_rbm(16, 484, pairs=0, seed=31))
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
    report = rrr_is(m, X, 1, 0)
    x = np.array([1, 1])
    want = math.log(2.0) + score(m, x)  # {x, -x}, equal scores
    assert_allclose(report.details["log_z_exact_support"], want, rtol=1e-12)
    assert report.details["support_size"] == 2


def _px_of_rows(X, samples):
    """px_query of every sample row, one query per distinct pattern."""
    dist = build_px_k2(X)
    patterns, inverse = np.unique(samples, axis=0, return_inverse=True)
    return np.array([px_query(dist, x) for x in patterns])[inverse.ravel()]


def test_rrr_is_sampled_near_exact_support():
    rng = np.random.default_rng(21)
    m = MrfParams(rng.normal(size=(7, 7)) * 0.4)
    sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=22))
    exact_support = rrr_is(m, sol.X, 1, 0).details["log_z_exact_support"]
    sampled = rrr_is(m, sol.X, 100_000, seed=23)
    # the exact-support value depends on neither the draw count nor the seed
    assert sampled.details["log_z_exact_support"] == exact_support
    support = enumerate_support_k2(build_px_k2(sol.X))
    assert sampled.details["support_size"] == len(support)

    # 3 standard errors, computed from the weight spread on a fresh batch
    samples, scores = rrr_map_sample(m, sol.X, 100_000, np.random.default_rng(24))
    probs = _px_of_rows(sol.X, samples)
    w = np.exp(scores - np.log(probs) - exact_support)
    se = w.std() / (w.mean() * math.sqrt(len(w)))
    assert abs(sampled.log_z - exact_support) <= 3 * se


def test_rrr_is_support_below_exact():
    rng = np.random.default_rng(25)
    for trial in range(5):
        n = int(rng.integers(2, 9))
        m = MrfParams(rng.normal(size=(n, n)))
        sol = solve_lrp(m, LrpOptions(k=2, restarts=3, seed=trial))
        support_value = rrr_is(m, sol.X, 1, 0).details["log_z_exact_support"]
        assert support_value <= exact_logz_mrf(m) + 1e-9


def test_rrr_is_equality_when_support_covers_everything():
    # n=1: the support is {+1, -1}, i.e. every corner
    m = MrfParams(np.array([[0.4]]))
    X = np.array([[1.0, 0.0]])
    support_value = rrr_is(m, X, 1, 0).details["log_z_exact_support"]
    assert_allclose(support_value, exact_logz_mrf(m), rtol=1e-12)


def reference_rrr_is(params, X, count, seed):
    """The per-draw importance sampler: round and score every draw, query
    each draw's pattern probability, and log-mean-exp in draw order."""
    samples, scores = rrr_map_sample(params, X, count, np.random.default_rng(seed))
    probs = _px_of_rows(X, samples)
    if np.any(probs <= 0.0):
        raise RuntimeError("sampled pattern has zero computed probability")
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
    m = embed(gen_hard_rbm(16, 484, pairs=0, seed=101)).mrf
    X = solve_lrp(m, LrpOptions(k=2, restarts=1, seed=3)).X
    assert_allclose(
        rrr_is(m, X, 10_000, seed=72).log_z,
        reference_rrr_is(m, X, 10_000, seed=72),
        rtol=1e-9,
    )


def test_rrr_is_tiny_nonzero_row_reads_plus_one():
    # a row of norm 1e-13 is no zero row: rounding gives it the sign of its
    # tiny product with g, and rrr_is, like the support enumeration, reads
    # the drawn sign; only an exactly zero row reads +1 in every pattern
    rng = np.random.default_rng(74)
    n = 6
    A = rng.normal(size=(n, n))
    m = MrfParams(0.5 * (A + A.T))
    X = rng.normal(size=(n, 2))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[2] *= 1e-13
    assert build_px_k2(X).X.any(axis=1).all()
    signs = rrr_map_sample(m, X, 2000, seed=75)[0][:, 2]
    assert -1 in signs and 1 in signs
    got = rrr_is(m, X, 2000, seed=75).log_z
    assert_allclose(got, reference_rrr_is(m, X, 2000, 75), rtol=1e-9)
    X[2] = 0.0
    zero_rows = ~build_px_k2(X).X.any(axis=1)
    assert zero_rows.tolist() == [False, False, True] + [False] * 3
    assert_allclose(rrr_is(m, X, 2000, seed=75).log_z,
                    reference_rrr_is(m, X, 2000, 75), rtol=1e-9)


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
    sliver = _round_rows(g[None, :], X)[0]
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
        EstimateReport(math.nan, Budget(), 0.0)
