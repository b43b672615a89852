"""Single-site and block Gibbs, linear annealing, and the warm start."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from relaxround import (
    Domain,
    LrpOptions,
    MrfParams,
    RbmParams,
    RelaxedSolution,
    annealed_gibbs,
    brute_force_map,
    embed,
    gen_hard_rbm,
    rrr_ag,
    rrr_is,
    rrr_map_sample,
    score,
    solve_lrp,
)
from relaxround import gibbs as gibbs_module
from relaxround import partition
from relaxround.gibbs import (
    _linear_temperatures,
    _run_schedule,
    _scan_spans,
    _sweep,
    _sweep_plan,
    _thresholds,
)
from relaxround.rounding import rrr_sample_blocks

from chain_utils import (
    CountingMatrix,
    ExactScore,
    assert_scores_match,
    block_sweep,
    conditional_table,
    exact_distribution,
    fast_chain_trajectory,
    reference_chain,
    reference_sweep,
    run_fast_chain,
    score_tolerance,
    state_code,
)


# ------------------------------------------------------------ conditional


def _pm(values):
    return np.array(values, dtype=np.int8)


def _span_blocked(A, i):
    """Whether `_sweep` decides site i by the vectorized logistic: in an
    uncoupled run, or alone in its span."""
    return next(blocked or stop - start == 1
                for start, stop, blocked in _scan_spans(A) if start <= i < stop)


def _both_span_kinds(A, x, i):
    """(A, x) with site i scanned site by site, and the same model with an
    uncoupled spare site at +1 inserted after site i, which puts site i in
    a blocked run and leaves every field as it was."""
    assert not _span_blocked(A, i)
    spare = np.insert(np.insert(A, i + 1, 0.0, axis=0), i + 1, 0.0, axis=1)
    assert _span_blocked(spare, i)
    return [(A, _pm(x)), (spare, np.insert(_pm(x), i + 1, 1))]


def _decisions(A, x, i, p, temperature=1.0):
    """Site i after one library sweep from x with its uniform at
    p (1 - 1e-9), then at p (1 + 1e-9). Every other site keeps its value:
    its uniform is 0 at +1 and 1 at -1."""
    got = []
    for u in (p * (1 - 1e-9), p * (1 + 1e-9)):
        X = _pm(x)[None, :]
        U = np.where(X > 0, 0.0, 1.0)
        U[0, i] = u
        _sweep_rows(A, X, U, temperature)
        assert np.array_equal(np.delete(X[0], i), np.delete(_pm(x), i))
        got.append(int(X[0, i]))
    return got


def test_conditional_isolated_site():
    # an uncoupled site turns +1 with probability 1/2; the diagonal does not
    # influence the conditional. Such a site is never scanned site by site:
    # it is alone in its span or joins an uncoupled run
    for A, x in [(np.array([[7.0]]), [1]), (np.diag([7.0, -3.0]), [1, -1])]:
        assert _span_blocked(A, 0)
        assert _decisions(A, x, 0, 0.5) == [1, -1]


def test_conditional_saturates():
    A = np.zeros((2, 2))
    A[0, 1] = A[1, 0] = 10.0
    for A_, x in _both_span_kinds(A, [-1, 1], 0):
        assert _decisions(A_, x, 0, expit(40.0)) == [1, -1]
    # field -1e3: exp(-z) overflows and the site takes -1 even at u = 0,
    # with no exception or warning
    A[0, 1] = A[1, 0] = -1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A_, x in _both_span_kinds(A, [1, 1], 0):
            assert _decisions(A_, x, 0, 0.0) == [-1, -1]


def test_conditional_matches_two_point_ratio():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        m = MrfParams(rng.normal(size=(n, n)))
        x = _pm(rng.choice([-1, 1], size=n))
        i = int(rng.integers(n))
        xp, xm = x.copy(), x.copy()
        xp[i], xm[i] = 1, -1
        sp, sm = score(m, xp), score(m, xm)
        want = math.exp(sp - sm) / (math.exp(sp - sm) + 1.0)
        for A, x_ in _both_span_kinds(m.A, x, i):
            assert _decisions(A, x_, i, want) == [1, -1]


def test_conditional_temperature_flattens():
    A = np.zeros((2, 2))
    A[0, 1] = A[1, 0] = 3.0
    hot = expit(4.0 * 3.0 / 1e6)
    assert abs(hot - 0.5) <= 1e-5
    for A_, x in _both_span_kinds(A, [-1, 1], 0):
        assert _decisions(A_, x, 0, hot, temperature=1e6) == [1, -1]


def test_single_site_marginals_match_enumeration():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4)) * 0.4
    m = MrfParams(A)
    table = conditional_table(m)
    counts = run_fast_chain(table, 4, 1_000_000, np.random.default_rng(2))
    states = np.vstack(
        [[1 if (s >> (3 - i)) & 1 else -1 for i in range(4)] for s in range(16)]
    )
    emp_marginal = (counts / counts.sum()) @ (states > 0)
    exact = exact_distribution(m) @ (states > 0)
    assert np.abs(emp_marginal - exact).max() <= 0.01


# ------------------------------------------------------------ full sweeps


def _sweep_rows(A, X, U, temperature=1.0):
    """One library sweep of the chains in the rows of the int8 X, in place,
    with the uniforms U turned into thresholds as `_run_schedule` turns
    them; returns the new states' scores."""
    Xf = X.astype(float)
    thresholds = _thresholds(np.array(U, dtype=float), temperature)
    scores = _sweep(_sweep_plan(A, Xf), thresholds)
    X[...] = Xf
    return scores


def test_uncoupled_runs_of_rbm_embedding():
    emb = embed(gen_hard_rbm(7, 5, pairs=0, seed=1)).mrf
    assert _scan_spans(emb.A) == [(0, 1, False), (1, 8, True), (8, 13, True)]


@pytest.mark.parametrize("domain", [Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE])
def test_scan_spans_of_embedded_rbm_in_either_domain(domain):
    # the {0,1} embedding has a nonzero diagonal; only the off-diagonal
    # zeros decide the runs
    rng = np.random.default_rng(5)
    rbm = RbmParams(rng.normal(size=(4, 3)), rng.normal(size=4),
                    rng.normal(size=3), domain)
    A = embed(rbm).mrf.A
    assert np.diag(A).any() == (domain is Domain.ZERO_ONE)
    assert _scan_spans(A) == [(0, 1, False), (1, 5, True), (5, 8, True)]


def test_uncoupled_runs_of_dense_matrix():
    # n singleton runs merge into one span scanned site by site
    m = MrfParams(np.random.default_rng(2).normal(size=(6, 6)))
    assert _scan_spans(m.A) == [(0, 6, False)]
    assert _scan_spans(np.zeros((0, 0))) == []
    # singletons [0, 3), the uncoupled run [3, 6), singletons [6, 8)
    A = np.zeros((8, 8))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 6), (5, 6), (6, 7)]:
        A[i, j] = A[j, i] = 1.0
    assert _scan_spans(A) == [(0, 3, False), (3, 6, True), (6, 8, False)]


def test_uncoupled_runs_split_at_tiny_coupling():
    # an exact zero keeps a run together; 1e-300 is a coupling
    A = embed(gen_hard_rbm(7, 5, pairs=0, seed=1)).mrf.A.copy()
    A[4, 2] = A[2, 4] = 1e-300
    assert _scan_spans(A) == [(0, 1, False), (1, 4, True), (4, 8, True), (8, 13, True)]
    A[4, 2] = A[2, 4] = -0.0
    assert _scan_spans(A) == [(0, 1, False), (1, 8, True), (8, 13, True)]


def test_sweep_zero_coupling_is_uniform():
    A = np.zeros((3, 3))
    rng = np.random.default_rng(3)
    x = np.ones(3, dtype=np.int8)
    plus = np.zeros(3)
    for _ in range(10_000):
        _sweep_rows(A, x[None, :], rng.random((1, 3)))
        plus += x > 0
    sigma = math.sqrt(10_000 * 0.25)
    assert np.all(np.abs(plus - 5000) <= 4 * sigma)


def test_sweep_trace_scores_consistent():
    rng = np.random.default_rng(4)
    m = MrfParams(rng.normal(size=(6, 6)))
    x0 = np.ones(6, dtype=np.int8)
    state = annealed_gibbs(m, 1.0, 10, x0, seed=4)
    assert len(state.score_trace) == 10
    assert abs(state.score_trace[-1] - score(m, state.x)) <= 1e-9


def test_fast_chain_follows_library_chain():
    # the table-driven test helper must replicate the library kernel
    # draw-for-draw
    rng = np.random.default_rng(5)
    A = rng.normal(size=(7, 7)) * 0.5
    m = MrfParams(A)
    x0 = np.array([1, -1, 1, 1, -1, -1, 1], dtype=np.int8)

    x = x0.copy()
    lib_rng = np.random.default_rng(6)
    lib_codes = []
    for _ in range(50):
        _sweep_rows(m.A, x[None, :], lib_rng.random((1, 7)))
        lib_codes.append(state_code(x))

    fast_codes = fast_chain_trajectory(
        conditional_table(m), 7, 50, np.random.default_rng(6), state_code(x0)
    )
    assert fast_codes == lib_codes


def _dense_mrf():
    return MrfParams(np.random.default_rng(32).normal(size=(161, 161)))


def _zero_one_rbm():
    rbm = gen_hard_rbm(40, 30, pairs=0, seed=33)
    return RbmParams(rbm.W, rbm.a, rbm.b, Domain.ZERO_ONE)


def _mixed_mrf():
    # singletons [0, 40), the uncoupled run [40, 80), singletons [80, 120):
    # site-by-site spans with fields from both sides
    A = np.random.default_rng(36).normal(size=(120, 120))
    A[40:80, 40:80] = np.diag(np.diag(A)[40:80])
    m = MrfParams(A)
    assert _scan_spans(m.A) == [(0, 40, False), (40, 80, True), (80, 120, False)]
    return m


# (instance, whether exp(-4 * field) overflows at T = 1 from a random start)
_CHAIN_CASES = {
    "hard-50-5": (lambda: gen_hard_rbm(100, 60, 3, 50.0, 5.0), False),
    "hard-default": (lambda: gen_hard_rbm(100, 60), True),
    "random-300-200": (lambda: gen_hard_rbm(300, 200, pairs=0), False),
    "dense-161": (_dense_mrf, False),
    "mixed-120": (_mixed_mrf, False),
    "zero-one-40-30": (_zero_one_rbm, False),
}


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_sweep_matches_reference_kernel(case):
    # the span kernel must reproduce the per-site kernel's states bit for
    # bit, and score each within its stated rounding of the exact x'Ax
    make, overflows = _CHAIN_CASES[case]
    emb = embed(make()).mrf
    A = emb.A
    x0 = (2 * np.random.default_rng(30).integers(0, 2, emb.n) - 1).astype(np.int8)
    if overflows:
        # fields large enough that exp(-4 * field) overflows at T = 1
        fields = A @ x0 - np.diag(A) * x0
        assert np.abs(4.0 * fields).max() > math.log(sys.float_info.max)
    state = annealed_gibbs(emb, 10.0, 2000, x0, seed=31)
    x_ref, trace_ref = reference_chain(A, _linear_temperatures(10.0, 2000), x0,
                                       np.random.default_rng(31))
    assert np.array_equal(state.x, x_ref)
    assert_scores_match(A, state.score_trace, trace_ref)


@pytest.mark.parametrize(
    "case", ["hard-50-5", "hard-default", "random-300-200", "dense-161", "mixed-120"]
)
def test_lockstep_chains_match_reference_replays(case):
    # rrr_ag advances its chains as one array; each chain must still be the
    # per-site kernel's chain from its own start and generator
    emb = embed(_CHAIN_CASES[case][0]()).mrf
    sol = solve_lrp(emb, LrpOptions(k=2, restarts=2, seed=34))
    temperatures = _linear_temperatures(10.0, 500)
    chains, seed = 3, 35
    # rrr_ag's seed derivation
    sample_ss, anneal_ss = np.random.SeedSequence(seed).spawn(2)
    starts, _ = rrr_map_sample(emb, sol.X, chains, np.random.default_rng(sample_ss))
    chain_seeds = anneal_ss.spawn(chains)
    states = _run_schedule(emb, temperatures, starts,
                           [np.random.default_rng(ss) for ss in chain_seeds])
    replays = []
    for x0, chain_ss in zip(starts, chain_seeds):
        x_ref, trace_ref = reference_chain(emb.A, temperatures, x0,
                                           np.random.default_rng(chain_ss))
        replays.append((x_ref, trace_ref))
    for state, (x_ref, trace_ref) in zip(states, replays):
        assert np.array_equal(state.x, x_ref)
        assert_scores_match(emb.A, state.score_trace, trace_ref)

    # rrr_ag returns the replay whose final score is best
    winner = max(range(chains), key=lambda c: replays[c][1][-1])
    got = rrr_ag(emb, sol.X, 10.0, 500, chains=chains, seed=seed)
    assert np.array_equal(got.x, replays[winner][0])
    assert_scores_match(emb.A, got.score_trace, replays[winner][1])


@pytest.mark.parametrize("case", ["random-300-200", "dense-161", "mixed-120"])
def test_identical_chains_tie(case):
    # chains that start alike and draw alike stay alike in every row of the
    # batched products, so "the first chain wins ties" is decided by order
    emb = embed(_CHAIN_CASES[case][0]()).mrf
    x0 = (2 * np.random.default_rng(37).integers(0, 2, emb.n) - 1).astype(np.int8)
    temperatures = _linear_temperatures(10.0, 200)
    states = _run_schedule(emb, temperatures, [x0] * 3,
                           [np.random.default_rng(38) for _ in range(3)])
    for state in states[1:]:
        assert np.array_equal(state.x, states[0].x)
        assert state.score_trace == states[0].score_trace
        assert state.best_score == states[0].best_score
    # the same chain run alone: its one-row products may round otherwise,
    # but its states are the same, and its best score, x'Ax of the best
    # state, is the same bits
    alone = _run_schedule(emb, temperatures, [x0], [np.random.default_rng(38)])[0]
    assert np.array_equal(alone.x, states[0].x)
    assert np.array_equal(alone.best_x, states[0].best_x)
    assert alone.best_score == states[0].best_score == score(emb, alone.best_x)
    assert_scores_match(emb.A, alone.score_trace, states[0].score_trace)


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_chunk_size_changes_no_bit(case, monkeypatch):
    # uniforms are drawn and turned into thresholds a chunk of sweeps at a
    # time; one sweep per chunk, and 7 (50 sweeps leave a last chunk of 1),
    # give the default's chains to the bit
    emb = embed(_CHAIN_CASES[case][0]()).mrf
    x0 = (2 * np.random.default_rng(41).integers(0, 2, (2, emb.n)) - 1).astype(np.int8)
    temperatures = _linear_temperatures(10.0, 50)

    def run():
        return _run_schedule(emb, temperatures, x0,
                             [np.random.default_rng(42 + c) for c in range(2)])

    want = run()
    for chunk in (1, 7 * x0.size):
        monkeypatch.setattr(gibbs_module, "_CHUNK", chunk)
        for got, ref in zip(run(), want):
            assert np.array_equal(got.x, ref.x)
            assert got.score_trace == ref.score_trace
            assert np.array_equal(got.best_x, ref.best_x)
            assert got.best_score == ref.best_score


def test_chain_peak_memory_flat_in_sweeps():
    # 3000 more sweeps of 8 chains at n = 161 may raise the traced peak by
    # the score traces (a float per chain and sweep), not by a uniform or
    # threshold per site and sweep (8 x 4000 x 161 floats would be 41 MB)
    emb = embed(_CHAIN_CASES["hard-50-5"][0]()).mrf
    assert emb.n == 161
    x0 = np.ones((8, emb.n), dtype=np.int8)

    def traced(sweeps):
        rngs = [np.random.default_rng(43 + c) for c in range(8)]
        tracemalloc.start()
        try:
            _run_schedule(emb, _linear_temperatures(10.0, sweeps), x0, rngs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced(10)  # first-call allocations stay out of the comparison
    low, high = traced(1000), traced(4000)
    assert high - low <= 64 * 8 * 3000, (low, high)


def test_sweep_reads_only_the_off_diagonal_blocks():
    # a sweep of an RBM embedding reads A[S, :start] and A[S, stop:] per
    # span S, never the zero visible-visible and hidden-hidden blocks, and
    # scores from those products
    m, p = 30, 20
    emb = embed(gen_hard_rbm(m, p, pairs=0, seed=39)).mrf
    object.__setattr__(emb, "A", emb.A.view(CountingMatrix))
    x0 = np.ones((1, emb.n), dtype=np.int8)
    reads = []
    for sweeps in (1, 2):
        CountingMatrix.read = 0
        _run_schedule(emb, np.ones(sweeps), x0, [np.random.default_rng(40)])
        reads.append(CountingMatrix.read)
    assert 0 < reads[1] - reads[0] <= 2 * m * p + 2 * emb.n


class _FixedUniforms:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        out, self._values = self._values[:size], self._values[size:]
        return np.array(out)


@pytest.mark.parametrize("unary", [0.0, 1e3])
def test_sweep_near_tie_decided_exactly(unary):
    # zero coupling: every conditional is exactly 1/2, so a uniform at 1/2
    # gives -1, one 1e-12 below gives +1 and one 1e-12 above gives -1.
    # Unary weights (the diagonal) leave the conditionals alone
    m = MrfParams(unary * np.eye(3))
    uniforms = [0.5, 0.5 - 1e-12, 0.5 + 1e-12]
    x0 = np.array([1, -1, 1], dtype=np.int8)
    x = x0.copy()
    _sweep_rows(m.A, x[None, :], [uniforms])
    assert x.tolist() == [-1, 1, -1]

    x_ref = x0.copy()
    reference_sweep(m.A, x_ref, 1.0, _FixedUniforms(uniforms))
    assert np.array_equal(x, x_ref)


def test_sweep_near_tie_inside_run_with_chains():
    # runs [0, 2) and [2, 5): sites 0 and 1 couple to every site of the
    # second run, with weights +1 and -1. Uniforms of 0 set both to +1, so
    # each site of the second run sees a field of exactly 0 and a
    # conditional of exactly 1/2, and the uniform at 1/2 gives -1
    A = np.zeros((5, 5))
    A[0, 2:] = A[2:, 0] = 1.0
    A[1, 2:] = A[2:, 1] = -1.0
    assert _scan_spans(A) == [(0, 2, True), (2, 5, True)]
    X0 = np.array([[-1, -1, 1, 1, 1], [1, -1, -1, 1, -1]], dtype=np.int8)
    U = [[0.0, 0.0, 0.5, 0.5 - 1e-12, 0.5 + 1e-12],
         [0.0, 0.0, 0.5 - 1e-12, 0.5 + 1e-12, 0.5]]
    X = X0.copy()
    _sweep_rows(A, X, U)
    assert X.tolist() == [[1, 1, -1, 1, -1], [1, 1, 1, -1, -1]]
    for x0, x, u in zip(X0, X, U):
        x_ref = x0.copy()
        reference_sweep(A, x_ref, 1.0, _FixedUniforms(u))
        assert np.array_equal(x, x_ref)


# (coupling c of site 0 to sites 1 and 2 and of site 1 to site 2, the
# start, site 0's uniform, site 0 after the sweep)
_THRESHOLD_END_CASES = {
    # u = 0 takes +1 wherever the probability is above 0: field -5, p = expit(-20)
    "zero-u-small-p": (-2.5, [-1, 1, 1], 0.0, 1),
    # u = 0 takes -1 where exp(-4 * field) overflows: field -2000
    "zero-u-overflow": (-1e3, [1, 1, 1], 0.0, -1),
    # u = 1/2 at a zero field: p is exactly 1/2, and u < p fails
    "half-u-zero-field": (1.0, [1, 1, -1], 0.5, -1),
}


@pytest.mark.parametrize("case", sorted(_THRESHOLD_END_CASES))
def test_threshold_end_cases_match_reference(case):
    # the clamped logit of a zero uniform, and the exact tie, decide as the
    # per-site logistic does, site by site and in a blocked span, and no
    # log(0) RuntimeWarning escapes
    coupling, x, u, want = _THRESHOLD_END_CASES[case]
    A = coupling * (1.0 - np.eye(3))
    for A_, x_ in _both_span_kinds(A, x, 0):
        uniforms = [u] + [0.3] * (len(x_) - 1)
        X = x_[None, :].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _sweep_rows(A_, X, [uniforms])
        assert X[0, 0] == want
        x_ref = x_.copy()
        reference_sweep(A_, x_ref, 1.0, _FixedUniforms(uniforms))
        assert np.array_equal(X[0], x_ref)


def test_stationary_distribution_small_instance():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3)) * 0.5
    m = MrfParams(A)
    counts = run_fast_chain(conditional_table(m), 3, 1_000_000,
                            np.random.default_rng(8))
    tv = 0.5 * np.abs(counts / counts.sum() - exact_distribution(m)).sum()
    assert tv <= 0.02


# ------------------------------------------------------------ block gibbs


def test_block_sweep_zero_weights_uniform():
    zero = RbmParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    rng = np.random.default_rng(10)
    plus = np.zeros(3)
    v, h = np.ones(3), np.ones(3)
    for _ in range(10_000):
        block_sweep(zero, v, h, 1.0, rng)
        plus += h > 0
    sigma = math.sqrt(10_000 * 0.25)
    assert np.all(np.abs(plus - 5000) <= 4 * sigma)


@pytest.mark.parametrize("domain", [Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE])
def test_block_sweep_probabilities_match_the_expression(monkeypatch, domain):
    # the in-place logistic keeps the expression's operation order: the
    # probabilities it leaves in the field buffers, and so every decision,
    # are bit for bit those of 1 / (1 + exp(-(gain * beta * (field + bias))))
    gain, lo = (2.0, -1.0) if domain is Domain.PLUS_MINUS_ONE else (1.0, 0.0)
    resample, probabilities = partition._resample_layer, []

    def recording(layer, field, *args):
        resample(layer, field, *args)
        probabilities.append(field.copy())

    monkeypatch.setattr(partition, "_resample_layer", recording)
    bench = gen_hard_rbm(16, 484, pairs=0, seed=1)
    hard = gen_hard_rbm(12, 10, pairs=3, couple=5000.0, bias=5.0, seed=3)
    for r, beta in ((bench, 0.37), (hard, 0.9)):
        rbm = RbmParams(r.W, r.a, r.b, domain)
        rng = np.random.default_rng(21)
        V0 = rng.choice([lo, 1.0], size=(50, rbm.m))
        H0 = rng.choice([lo, 1.0], size=(50, rbm.p))
        V, H = V0.copy(), H0.copy()
        probabilities.clear()
        # one sweep at beta, whose weight increment is beta times the score
        weights = partition._ais_runs(
            rbm, np.array([0.0, beta]), V, H, np.random.default_rng(22))
        ref = np.random.default_rng(22)
        with np.errstate(over="ignore"):
            ph = 1.0 / (1.0 + np.exp(-(gain * beta * (V0 @ rbm.W + rbm.b))))
            h = np.where(ref.random(ph.shape) < ph, 1.0, lo)
            pv = 1.0 / (1.0 + np.exp(-(gain * beta * (h @ rbm.W.T + rbm.a))))
            v = np.where(ref.random(pv.shape) < pv, 1.0, lo)
        assert len(probabilities) == 2
        for got, want in zip(probabilities + [H, V], (ph, pv, h, v)):
            assert np.array_equal(got, want)
        want = ((V0 @ rbm.W) * H0).sum(axis=1) + V0 @ rbm.a + H0 @ rbm.b
        assert_allclose(weights / beta, want, rtol=1e-12, atol=1e-9)


def test_block_conditional_value():
    # a hidden unit with total input 1.0 turns on with probability
    # logistic(2) ~ 0.88080; cross-checked against the two-state ratio
    rbm = RbmParams(np.array([[1.0]]), np.zeros(1), np.zeros(1))
    sp, sm = 1.0, -1.0  # rbm scores at h=+1 / h=-1
    ratio = math.exp(sp) / (math.exp(sp) + math.exp(sm))
    assert abs(ratio - expit(2.0)) <= 1e-15
    hits = 0
    rng = np.random.default_rng(11)
    for _ in range(20_000):
        v, h = np.ones(1), np.ones(1)  # the sweep moves v too: reset it
        block_sweep(rbm, v, h, 1.0, rng)
        hits += h[0] > 0
    sigma = math.sqrt(20_000 * expit(2.0) * (1 - expit(2.0)))
    assert abs(hits - 20_000 * expit(2.0)) <= 4 * sigma


def test_block_conditional_matches_embedded_single_site():
    rng = np.random.default_rng(12)
    rbm = gen_hard_rbm(4, 3, pairs=0, seed=13)
    A = embed(rbm).mrf.A
    # the embedding's sites: the auxiliary one, then visible 1..4, then
    # hidden 5..7. In its own order every layer is a blocked run; with the
    # layers interleaved, each site couples to the next and all are scanned
    # site by site
    order = [0, 1, 5, 2, 6, 3, 7, 4]
    assert _scan_spans(A) == [(0, 1, False), (1, 5, True), (5, 8, True)]
    assert _scan_spans(A[np.ix_(order, order)]) == [(0, 8, False)]
    for _ in range(20):
        v = rng.choice([-1, 1], size=4)
        h = rng.choice([-1, 1], size=3)
        x = _pm(np.concatenate([[1], v, h]))
        want = np.concatenate([expit(2.0 * (rbm.W @ h + rbm.a)),
                               expit(2.0 * (v @ rbm.W + rbm.b))])
        for site, p in enumerate(want, 1):
            assert _decisions(A, x, site, p) == [1, -1]
            i = order.index(site)
            assert _decisions(A[np.ix_(order, order)], x[order], i, p) == [1, -1]


def test_block_chain_marginals_match_enumeration(monkeypatch):
    rng = np.random.default_rng(14)
    rbm = gen_hard_rbm(3, 3, pairs=0, seed=15)
    # exact marginals by enumerating all 64 (v, h) pairs
    states = np.vstack(
        [[1 if (s >> (5 - i)) & 1 else -1 for i in range(6)] for s in range(64)]
    ).astype(float)
    V, H = states[:, :3], states[:, 3:]
    scores = (V @ rbm.W * H).sum(axis=1) + V @ rbm.a + H @ rbm.b
    w = np.exp(scores - scores.max())
    exact_marginals = (w / w.sum()) @ (states > 0)

    # the sweeps of block_sweep(rbm, v, h, 1.0, rng) in one run on a flat
    # grid, with the same draws; each sweep's state is read as its layers
    # are resampled: hidden after its call, visible after its call
    v, h = np.ones((1, 3)), np.ones((1, 3))
    plus = np.zeros(6)
    sweeps = 400_000
    resample = partition._resample_layer

    def counting(layer, *args):
        resample(layer, *args)
        counts = plus[:3] if layer is v else plus[3:]
        counts += layer[0] > 0

    monkeypatch.setattr(partition, "_resample_layer", counting)
    partition._ais_runs(rbm, np.full(sweeps + 1, 1.0), v, h, rng)
    assert np.abs(plus / sweeps - exact_marginals).max() <= 0.01


# -------------------------------------------------------------- schedules


def test_linear_schedule_endpoints():
    assert_allclose(_linear_temperatures(10.0, 3), [10.0, 5.5, 1.0])


def test_schedule_validation():
    # every chain cools from a finite t_high >= 1 down to 1 in >= 1 sweeps
    for t_high in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_high"):
            _linear_temperatures(t_high, 3)
    with pytest.raises(ValueError, match="sweeps"):
        _linear_temperatures(10.0, 0)
    assert_allclose(_linear_temperatures(10.0, 1), [1.0])


def test_constant_schedule_equals_plain_gibbs():
    rng = np.random.default_rng(16)
    m = MrfParams(rng.normal(size=(5, 5)))
    x0 = np.ones(5, dtype=np.int8)
    annealed = annealed_gibbs(m, 1.0, 12, x0, seed=17)

    x, trace = reference_chain(m.A, np.ones(12), x0, np.random.default_rng(17))
    assert np.array_equal(annealed.x, x)
    assert_scores_match(m.A, annealed.score_trace, trace)


def test_annealing_traps_planted_pairs():
    # chains started with planted pairs at (-1,-1) cannot cross the coupling
    # barrier, so they end below the true optimum
    rbm = gen_hard_rbm(6, 6, pairs=3, couple=50.0, bias=5.0, seed=18)
    emb = embed(rbm).mrf
    x_map, best = brute_force_map(emb)
    vis, hid = np.where(rbm.W == 50.0)

    trapped = np.array(x_map, dtype=np.int8).copy()
    if trapped[0] < 0:
        trapped = -trapped
    for i, j in zip(vis, hid):
        trapped[1 + i] = -1
        trapped[1 + 6 + j] = -1

    finals = []
    for seed in range(20):
        state = annealed_gibbs(emb, 10.0, 200, trapped, seed=100 + seed)
        finals.append(state.score_trace[-1])
    assert np.median(finals) < best


# -------------------------------------------------------------- warm start


def test_rrr_ag_chain_starts_at_drawn_sample():
    rng = np.random.default_rng(19)
    m = MrfParams(rng.normal(size=(6, 6)))
    sol = solve_lrp(m, LrpOptions(k=2, restarts=3, seed=20))
    state = rrr_ag(m, sol.X, 10.0, 1, chains=1, seed=21)

    # the chain starts at the drawn rounding sample and takes one reference
    # sweep from it; its best state counts that start
    sample_ss, anneal_ss = np.random.SeedSequence(21).spawn(2)
    starts, _ = rrr_map_sample(m, sol.X, 1, np.random.default_rng(sample_ss))
    rng_chain = np.random.default_rng(anneal_ss.spawn(1)[0])
    x, trace = reference_chain(m.A, [1.0], starts[0], rng_chain)
    assert np.array_equal(state.x, x)
    assert_scores_match(m.A, state.score_trace, trace)
    best = max(ExactScore(m.A)(starts[0]), trace[0])
    assert abs(state.best_score - best) <= score_tolerance(m.A)


def test_rrr_ag_rejects_bits_and_infeasible_rows():
    # the rounding sampler checks the domain and X for rrr_ag; one rule,
    # shared with RelaxedSolution, rejects a long row and a NaN row alike
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="rounding produces"):
        rrr_ag(MrfParams(np.eye(2), Domain.ZERO_ONE), X, 2.0, 3, chains=2, seed=0)
    m = MrfParams(np.eye(2))
    for bad in (2.0 * X, np.array([[1.0, 0.0], [np.nan, 0.0]])):
        with pytest.raises(ValueError, match="infeasible"):
            rrr_ag(m, bad, 2.0, 3, chains=2, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            rrr_map_sample(m, bad, 10, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            rrr_sample_blocks(m, bad, 10, seed=0)  # on the call, before a block
        with pytest.raises(ValueError, match="infeasible"):
            rrr_is(m, bad, 10, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            RelaxedSolution(bad, 0.0, 0, np.zeros(1), 0)


def test_rrr_ag_returns_best_chain():
    rng = np.random.default_rng(22)
    m = MrfParams(rng.normal(size=(8, 8)))
    sol = solve_lrp(m, LrpOptions(k=2, restarts=3, seed=23))
    chains = 5
    best = rrr_ag(m, sol.X, 5.0, 10, chains=chains, seed=24)

    # replay the documented seed derivation to recover the best state every
    # chain visits, its start included
    root = np.random.SeedSequence(24)
    sample_ss, anneal_ss = root.spawn(2)
    starts, _ = rrr_map_sample(m, sol.X, chains, np.random.default_rng(sample_ss))
    exact, visited = ExactScore(m.A), []
    for idx, chain_ss in enumerate(anneal_ss.spawn(chains)):
        x = starts[idx].copy()
        bests = [(exact(x), x.copy())]
        rng_i = np.random.default_rng(chain_ss)
        for t in _linear_temperatures(5.0, 10):
            reference_sweep(m.A, x, float(t), rng_i)
            bests.append((exact(x), x.copy()))
        visited.append(max(bests, key=lambda pair: pair[0]))
    winner = max(range(chains), key=lambda i: visited[i][0])
    assert abs(best.best_score - visited[winner][0]) <= score_tolerance(m.A)
    assert np.array_equal(best.best_x, visited[winner][1])
    assert best.best_score == score(m, best.best_x)


def test_rrr_ag_beats_components_often():
    wins = 0
    trials = 50
    for trial in range(trials):
        rbm = gen_hard_rbm(6, 4, pairs=0, seed=300 + trial)
        emb = embed(rbm).mrf
        sol = solve_lrp(emb, LrpOptions(k=2, restarts=4, seed=trial))

        rrr_best = rrr_map_sample(emb, sol.X, 8, seed=trial)[1].max()
        ag = annealed_gibbs(
            emb,
            10.0,
            40,
            (2 * np.random.default_rng(trial).integers(0, 2, 11) - 1).astype(np.int8),
            seed=trial,
        )
        combo = rrr_ag(emb, sol.X, 10.0, 5, chains=8, seed=trial)
        if combo.score_trace[-1] >= max(rrr_best, ag.score_trace[-1]) - 1e-9:
            wins += 1
    assert wins >= 0.6 * trials
