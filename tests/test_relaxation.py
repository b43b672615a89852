"""Block-coordinate ascent on the ball-constrained low-rank relaxation."""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relaxround import (
    LrpOptions,
    MrfParams,
    RbmParams,
    brute_force_map,
    embed,
    gen_hard_rbm,
    solve_lrp,
)
from relaxround import relaxation
from relaxround.models import Domain, _scan_spans
from relaxround.relaxation import estimate_lipschitz, project_rows

from chain_utils import CountingMatrix, reference_row_maximizer


def lrp_objective(A, X):
    """The relaxed objective tr(X' A X), the oracle the solver's own sums
    are checked against."""
    return float(np.sum(X * (A @ X)))


def reference_ascend(A, X, max_iters, rel_tol, step):
    """The per-restart fixed-step loop the batched solver must match: two
    products with A per step (gradient, then the new objective), one
    restart at a time. Returns (best_X, best_f, trace)."""
    f = float(np.sum(X * (A @ X)))
    trace = [f]
    best_X, best_f = X, f
    for _ in range(max_iters):
        G = 2.0 * (A @ X)
        X = project_rows(X + step * G)
        f = float(np.sum(X * (A @ X)))
        trace.append(f)
        if f > best_f:
            best_X, best_f = X, f
        if len(trace) > 5 and abs(trace[-1] - trace[-6]) < rel_tol * max(1.0, abs(f)):
            break
    return best_X, best_f, np.asarray(trace)


def reference_block_ascend(A, X, max_iters, rel_tol):
    """The per-restart block sweep the batched solver must match, one span
    of `_scan_spans` at a time, updated in place: a span without couplings
    among its sites (a run, or a single site) sets each row to its exact
    maximizer, g/|g| for a diagonal entry d >= 0 and -g/d clipped to the
    ball for d < 0; a coupled span takes a projected step of 1/L of its
    own block. The objective is recomputed in full after each sweep.
    Returns (best_X, best_f, trace)."""
    X = X.copy()
    f = lrp_objective(A, X)
    trace = [f]
    best_X, best_f = X.copy(), f
    for _ in range(max_iters):
        for start, stop, blocked in _scan_spans(A):
            S = slice(start, stop)
            d = A.diagonal()[S][:, None]
            if blocked or stop - start == 1:
                g = A[S] @ X - d * X[S]  # the field, the row's own entry left out
                norms = np.linalg.norm(g, axis=1, keepdims=True)
                safe = np.where(norms > 0, norms, 1.0)
                up = np.where(norms > 0, g / safe, X[S])
                down = project_rows(-g / np.where(d < 0, d, -1.0))
                X[S] = np.where(d >= 0, up, down)
            else:
                step = 1.0 / estimate_lipschitz(A[S, S])[0]
                X[S] = project_rows(X[S] + step * 2.0 * (A[S] @ X))
        f = lrp_objective(A, X)
        trace.append(f)
        if f > best_f:
            best_X, best_f = X.copy(), f
        if len(trace) > 5 and abs(trace[-1] - trace[-6]) < rel_tol * max(1.0, abs(f)):
            break
    return best_X, best_f, np.asarray(trace)


def _rbm01(m, p, seed):
    """A {0,1} RBM; its embedding keeps a nonzero diagonal."""
    rng = np.random.default_rng(seed)
    return RbmParams(rng.normal(size=(m, p)), rng.normal(size=m),
                     rng.normal(size=p), Domain.ZERO_ONE)


def _mixed(seed):
    """A 12-site matrix with the spans [0, 4) coupled, [4, 8) an uncoupled
    run and [8, 12) coupled, and a diagonal of both signs."""
    A = np.random.default_rng(seed).normal(size=(12, 12))
    A[4:8, 4:8] = np.diag(np.diag(A)[4:8])
    m = MrfParams(A)
    assert _scan_spans(m.A) == [(0, 4, False), (4, 8, True), (8, 12, False)]
    return m


def test_objective_identity_case():
    assert lrp_objective(np.eye(2), np.eye(2)) == 2.0


def test_objective_zero_matrix():
    assert lrp_objective(np.random.default_rng(0).normal(size=(3, 3)),
                         np.zeros((3, 2))) == 0.0


def test_objective_double_loop_oracle():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 6))
    A = (A + A.T) / 2
    X = rng.normal(size=(6, 3))
    want = 0.0
    for i in range(6):
        for j in range(6):
            want += A[i, j] * X[i] @ X[j]
    assert_allclose(lrp_objective(A, X), want, rtol=1e-12)


def test_project_rows_rescales_long_row():
    assert_allclose(project_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])


def test_project_rows_keeps_short_row():
    X = np.array([[0.1, 0.2]])
    assert np.array_equal(project_rows(X), X)


def test_project_rows_is_nearest_feasible_point():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 3)) * 2.0
    P = project_rows(X)
    assert np.linalg.norm(P, axis=1).max() <= 1.0 + 1e-12
    for _ in range(100):
        y = rng.normal(size=3)
        y *= rng.uniform() ** (1 / 3) / np.linalg.norm(y)  # random feasible row
        for i in range(5):
            assert np.linalg.norm(P[i] - X[i]) <= np.linalg.norm(y - X[i]) + 1e-12


def test_lipschitz_identity():
    assert_allclose(estimate_lipschitz(np.eye(3))[0], 2.02, rtol=1e-6)


def test_lipschitz_diagonal():
    assert_allclose(estimate_lipschitz(np.diag([3.0, 1.0]))[0], 6.06, rtol=1e-6)


def test_lipschitz_tracks_spectral_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.normal(size=(12, 12))
        A = (A + A.T) / 2
        top = np.abs(np.linalg.eigvalsh(A)).max()
        assert abs(estimate_lipschitz(A)[0] - 2.02 * top) <= 0.02 * 2.0 * top


def test_lipschitz_meets_ascent_contract():
    # planted hard instances, where truncated power iteration falls short of
    # 2 * ||A||_2 by a few percent: the estimate must still be at least half
    # of it, and power iteration never overshoots ||A||_2
    for seed in range(40):
        A = embed(gen_hard_rbm(30, 30, seed=seed)).mrf.A
        true = 2.0 * np.linalg.norm(A, 2)
        est, _ = estimate_lipschitz(A)
        assert 0.5 * true <= est <= 1.01 * true * (1 + 1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    step = 1e-5
    for _ in range(10):
        n, k = rng.integers(2, 7), rng.integers(1, 4)
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        X = rng.normal(size=(n, k)) * 0.5
        grad = 2.0 * A @ X
        for _ in range(5):  # a few random coordinates per pair
            i, j = rng.integers(n), rng.integers(k)
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += step
            Xm[i, j] -= step
            fd = (lrp_objective(A, Xp) - lrp_objective(A, Xm)) / (2 * step)
            assert abs(fd - grad[i, j]) <= 1e-5 * max(1.0, abs(grad[i, j]))


def test_solver_interior_optimum_negative_definite():
    m = MrfParams(np.diag([-1.0, -1.0]))
    sol = solve_lrp(m, LrpOptions(k=2, restarts=3, seed=0))
    assert abs(sol.objective) <= 1e-6
    assert np.linalg.norm(sol.X) <= 1e-3


def test_solver_reaches_analytic_optimum_2x2():
    # max tr(X'AX) for the single-coupling A is 2 cos(angle between rows),
    # confirmed by a grid search over unit-circle row angles
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = np.linspace(0, 2 * np.pi, 721)
    best_grid = max(
        lrp_objective(A, np.array([[np.cos(a), np.sin(a)], [np.cos(b), np.sin(b)]]))
        for a in grid
        for b in grid[:72]
    )
    assert best_grid <= 2.0 + 1e-9
    sol = solve_lrp(MrfParams(A), LrpOptions(k=2, restarts=5, seed=1))
    assert abs(sol.objective - 2.0) <= 1e-6


def test_solver_dominates_integer_optimum_psd(monkeypatch):
    rng = np.random.default_rng(5)
    B = rng.normal(size=(8, 8))
    m = MrfParams(B @ B.T)
    _, integer_best = brute_force_map(m)
    # the default stall tolerance of 1e-8 (relative) leaves ~1e-6 on an
    # objective of this size, so converge tighter than the 1e-6 margin
    monkeypatch.setattr(relaxation, "_REL_TOL", 1e-10)
    sol = solve_lrp(m, LrpOptions(k=8, restarts=10, seed=2))
    assert sol.objective >= integer_best - 1e-6


def test_solver_dominance_random_instances_full_width(monkeypatch):
    monkeypatch.setattr(relaxation, "_REL_TOL", 1e-10)
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(4, 11))
        A = rng.normal(size=(n, n))
        m = MrfParams(A)
        _, integer_best = brute_force_map(m)
        sol = solve_lrp(m, LrpOptions(k=n, restarts=20, seed=trial))
        assert sol.objective >= integer_best - 1e-6


def test_solver_k1_logged_not_asserted(caplog):
    # width 1 is the box QP; local optima are expected, so dominance
    # failures at k=1 are only reported
    rng = np.random.default_rng(7)
    A = rng.normal(size=(8, 8))
    m = MrfParams(A)
    _, integer_best = brute_force_map(m)
    sol = solve_lrp(m, LrpOptions(k=1, restarts=20, seed=3))
    if sol.objective < integer_best - 1e-6:
        logging.getLogger(__name__).info(
            "k=1 relaxation below integer optimum: %g < %g",
            sol.objective, integer_best,
        )


def test_solution_feasible_and_consistent():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(9, 9))
    m = MrfParams(A)
    sol = solve_lrp(m, LrpOptions(k=3, restarts=4, seed=4))
    assert np.linalg.norm(sol.X, axis=1).max() <= 1.0 + 1e-9
    assert_allclose(sol.objective, lrp_objective(m.A, sol.X), rtol=1e-9)


def test_fixed_step_trace_is_monotone(monkeypatch):
    # every span update maximizes the objective over its rows (exact row
    # updates) or does not decrease it (a step of 1/L with the estimate at
    # least L/2), so sweeps never decrease it, up to rounding; the {0,1}
    # embedding has a nonzero diagonal, and the dense MRF is one coupled span
    instances = [embed(gen_hard_rbm(30, 30, seed=seed)).mrf for seed in range(10)]
    instances += [
        embed(gen_hard_rbm(30, 20, pairs=0, seed=seed)).mrf for seed in range(3)
    ]
    instances += [embed(_rbm01(12, 9, seed)).mrf for seed in range(3)]
    instances.append(MrfParams(np.random.default_rng(9).normal(size=(20, 20))))
    assert (instances[-2].A.diagonal() != 0).any()
    monkeypatch.setattr(relaxation, "_MAX_ITERS", 500)
    for seed, m in enumerate(instances):
        sol = solve_lrp(m, LrpOptions(k=2, seed=seed))
        diffs = np.diff(sol.trace)
        assert (diffs >= -1e-12 * np.maximum(1.0, np.abs(sol.trace[1:]))).all()


def test_row_maximizer_matches_grid_oracle():
    # each row's update against a grid search over the unit ball of
    # d |x|^2 + 2 g.x, in one and two dimensions
    radii = np.linspace(0.0, 1.0, 401)
    angles = np.linspace(0.0, 2 * np.pi, 1441)
    circle = np.stack([np.cos(angles), np.sin(angles)], -1)
    disc = (radii[:, None, None] * circle).reshape(-1, 2)
    segment = np.linspace(-1.0, 1.0, 4001)[:, None]
    x0 = np.array([0.6, -0.8])  # a unit start row, the one kept when g = 0
    cases = [
        (0.7, [1.2, -0.5]), (0.0, [0.3, 0.4]), (-0.5, [1.2, 0.9]),
        (-2.0, [0.3, -0.5]), (-2.0, [0.0, 0.0]), (0.0, [0.0, 0.0]),
        (0.7, [0.0, 0.0]),
    ]
    for k, grid in ((1, segment), (2, disc)):
        d = np.array([c[0] for c in cases])
        G = np.array([c[1][:k] for c in cases])[:, None, :]
        X = np.tile(x0[:k] / np.linalg.norm(x0[:k]), (len(cases), 1, 1))
        out = relaxation._row_maximizer(G, d[:, None, None], X)
        assert out.shape == X.shape
        for (di, gi), row, x in zip(cases, out[:, 0], X[:, 0]):
            gi = np.asarray(gi[:k])
            value = di * row @ row + 2.0 * gi @ row
            best = (di * np.einsum("gk,gk->g", grid, grid) + 2.0 * grid @ gi).max()
            assert np.linalg.norm(row) <= 1.0 + 1e-12
            assert best - 1e-12 <= value <= best + 1e-4, (k, di, gi)
            if not gi.any() and di >= 0:
                assert np.array_equal(row, x)


def test_row_maximizer_bit_equal_to_norm_form_below_width_8():
    # the column sum of squares against np.linalg.norm's reduction, on
    # fields of many scales, d < 0, d = 0 and d > 0, and g = 0 rows (kept
    # where d >= 0, sent to 0 where d < 0)
    rng = np.random.default_rng(22)
    kept_rows = 0
    for k in range(1, 8):
        for b, R in ((300, 8), (7, 1), (1, 3)):
            G = rng.standard_normal((b, R, k)) * np.exp(rng.uniform(-8, 8, (b, R, 1)))
            G[rng.random((b, R)) < 0.2] = 0.0
            d = rng.choice([-1e3, -2.0, -0.5, 0.0, 0.0, 0.7], size=(b, 1, 1))
            X = project_rows(rng.standard_normal((b, R, k)))
            want = reference_row_maximizer(G, d, X)
            got = relaxation._row_maximizer(G.copy(), d, X)
            assert got.tobytes() == want.tobytes(), (k, b, R)
            kept = ~G.any(axis=-1) & (d[..., 0] >= 0)
            assert np.array_equal(got[kept], X[kept])
            kept_rows += int(kept.sum())
    assert kept_rows > 0


def test_batched_restarts_match_reference_loop():
    # every restart's final objective matches the one-restart-at-a-time
    # block sweep; the stacked products round differently, so not bit for bit
    instances = [
        embed(gen_hard_rbm(30, 20, pairs=0)).mrf,
        embed(gen_hard_rbm(30, 30)).mrf,
        embed(gen_hard_rbm(300, 200, pairs=0)).mrf,
    ]
    assert instances[-1].n == 501
    for seed, m in enumerate(instances):
        A = m.A
        starts = [
            relaxation._init_rows_in_ball(m.n, 2, np.random.default_rng(child))
            for child in np.random.SeedSequence(seed).spawn(4)
        ]
        best_X, best_f, _, _, _ = relaxation._ascend(A, np.stack(starts, axis=1))
        for r, X0 in enumerate(starts):
            _, want_f, _ = reference_block_ascend(A, X0, 10_000, 1e-8)
            assert_allclose(best_f[r], want_f, rtol=1e-9)
            assert_allclose(lrp_objective(A, best_X[r]), best_f[r], rtol=1e-12)


def test_dense_restarts_match_fixed_step_reference():
    # a dense MRF is one coupled span: every restart follows the fixed-step
    # projected gradient loop, one product per step
    rng = np.random.default_rng(16)
    for n in (9, 40):
        A = MrfParams(rng.normal(size=(n, n))).A
        assert [span[:2] for span in _scan_spans(A)] == [(0, n)]
        starts = [
            relaxation._init_rows_in_ball(n, 3, np.random.default_rng(child))
            for child in np.random.SeedSequence(n).spawn(4)
        ]
        _, best_f, _, _, _ = relaxation._ascend(A, np.stack(starts, axis=1))
        step = 1.0 / estimate_lipschitz(A)[0]
        for r, X0 in enumerate(starts):
            _, want_f, _ = reference_ascend(A, X0, 10_000, 1e-8, step)
            assert_allclose(best_f[r], want_f, rtol=1e-9)


def test_mixed_spans_match_reference_block_sweep():
    # coupled spans take fixed steps of their own 1/L between exact run
    # updates; the trace stays monotone
    for seed in range(3):
        m = _mixed(seed)
        starts = [
            relaxation._init_rows_in_ball(12, 2, np.random.default_rng(child))
            for child in np.random.SeedSequence(seed).spawn(3)
        ]
        _, best_f, traces, _, _ = relaxation._ascend(m.A, np.stack(starts, axis=1))
        for r, X0 in enumerate(starts):
            _, want_f, _ = reference_block_ascend(m.A, X0, 10_000, 1e-8)
            assert_allclose(best_f[r], want_f, rtol=1e-9)
            trace = np.asarray(traces[r])
            assert (np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[1:]))).all()


def test_matvecs_counts_every_product(monkeypatch):
    # sol.matvecs against the products counted as they happen, the power
    # iterations' included: a b x c block of A times w columns is
    # b*c*w / n^2 products, rounded up once
    def counted_solve(m, opts):
        object.__setattr__(m, "A", m.A.view(CountingMatrix))
        CountingMatrix.read = 0
        sol = solve_lrp(m, opts)
        return sol, CountingMatrix.read

    rng = np.random.default_rng(14)
    m = MrfParams(rng.normal(size=(12, 12)))
    opts = LrpOptions(k=3, restarts=5, seed=10)
    sol, read = counted_solve(m, opts)
    _, lipschitz_matvecs = estimate_lipschitz(np.asarray(m.A))
    assert 1 <= lipschitz_matvecs <= 50
    solver_matvecs = opts.k * (opts.restarts + sol.iterations)
    assert read == (lipschitz_matvecs + solver_matvecs) * 12 * 12
    assert sol.matvecs == lipschitz_matvecs + solver_matvecs

    # Lipschitz estimates of the coupled spans only, each product with a
    # b x b block counted as b^2 / n^2
    m = _mixed(1)
    blocks = []

    def recorded_lipschitz(A):
        blocks.append(A.shape)
        return estimate_lipschitz(A)

    monkeypatch.setattr(relaxation, "estimate_lipschitz", recorded_lipschitz)
    sol, read = counted_solve(m, opts)
    assert blocks == [(4, 4), (4, 4)]
    assert sol.matvecs == -(-read // 144)

    # every restart cut at _MAX_ITERS, none left by its stall test
    with monkeypatch.context() as patch:
        patch.setattr(relaxation, "_MAX_ITERS", 4)
        sol, read = counted_solve(_mixed(2), opts)
    assert sol.iterations == 4 * 5
    assert sol.matvecs == -(-read // 144)

    def no_lipschitz(A):
        raise AssertionError("estimate_lipschitz ran on an uncoupled span")

    # RBM embeddings read their off-diagonal blocks only; the {0,1} one
    # keeps a nonzero diagonal, which takes no product
    monkeypatch.setattr(relaxation, "estimate_lipschitz", no_lipschitz)
    uncoupled = (gen_hard_rbm(30, 20, pairs=0, seed=4), _rbm01(7, 5, 3))
    for m in (embed(rbm).mrf for rbm in uncoupled):
        sol, read = counted_solve(m, opts)
        assert 0 < read < opts.k * (opts.restarts + sol.iterations) * m.n**2
        assert sol.matvecs == -(-read // m.n**2)


def test_max_iters_warns_once_per_solve(caplog, monkeypatch):
    rng = np.random.default_rng(15)
    m = MrfParams(rng.normal(size=(8, 8)))
    monkeypatch.setattr(relaxation, "_MAX_ITERS", 3)
    with caplog.at_level(logging.WARNING, logger="relaxround.relaxation"):
        sol = solve_lrp(m, LrpOptions(k=2, restarts=4, seed=11))
    assert sol.iterations == 12
    assert len(caplog.records) == 1
    assert "max_iters=3 in 4 of 4" in caplog.records[0].getMessage()


def test_solver_deterministic():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(7, 7))
    m = MrfParams(A)
    opts = LrpOptions(k=2, restarts=4, seed=7)
    s1 = solve_lrp(m, opts)
    s2 = solve_lrp(m, opts)
    assert np.array_equal(s1.X, s2.X)
    assert s1.objective == s2.objective
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.trace, s2.trace)


def test_iterations_counts_all_restarts():
    rng = np.random.default_rng(12)
    m = MrfParams(rng.normal(size=(6, 6)))
    one = solve_lrp(m, LrpOptions(k=2, restarts=1, seed=8))
    many = solve_lrp(m, LrpOptions(k=2, restarts=6, seed=8))
    assert many.iterations > one.iterations
    assert len(many.trace) - 1 <= many.iterations


def test_trace_starts_at_initial_objective():
    rng = np.random.default_rng(13)
    m = MrfParams(rng.normal(size=(5, 5)))
    sol = solve_lrp(m, LrpOptions(k=2, restarts=1, seed=9))
    assert len(sol.trace) >= 2
    assert sol.trace[-1] == sol.objective


def test_option_validation():
    with pytest.raises(ValueError):
        LrpOptions(k=0)
    with pytest.raises(ValueError):
        LrpOptions(restarts=0)
    m = MrfParams(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        solve_lrp(m, LrpOptions(k=3))
    with pytest.raises(ValueError):
        solve_lrp(MrfParams(np.zeros((2, 2)), Domain.ZERO_ONE), LrpOptions(k=2))


def test_relaxation_converges_on_default_hard_instance(caplog):
    # the gen command's default hard instance (couplings 5000, biases 500),
    # embedded n = 33: no restart should run out of iterations
    m = embed(gen_hard_rbm(20, 12, seed=3)).mrf
    opts = LrpOptions(k=2, restarts=8, seed=1)
    with caplog.at_level(logging.WARNING, logger="relaxround.relaxation"):
        sol = solve_lrp(m, opts)
    assert not caplog.records
    assert sol.iterations < opts.restarts * relaxation._MAX_ITERS
