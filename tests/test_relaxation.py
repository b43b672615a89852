"""Projected gradient ascent on the ball-constrained low-rank relaxation."""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relaxround import (
    LrpOptions,
    MrfParams,
    brute_force_map,
    estimate_lipschitz,
    gen_hard_rbm,
    gen_random_rbm,
    lrp_objective,
    project_rows,
    rbm_to_mrf,
    solve_lrp,
)
from relaxround import relaxation
from relaxround.models import Domain


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


def test_objective_shape_errors():
    with pytest.raises(ValueError):
        lrp_objective(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lrp_objective(np.zeros((2, 2)), np.zeros((3, 2)))


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
        A = rbm_to_mrf(gen_hard_rbm(30, 30, seed=seed)).A
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


def test_solver_dominates_integer_optimum_psd():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(8, 8))
    m = MrfParams(B @ B.T)
    _, integer_best = brute_force_map(m)
    # the default stall tolerance of 1e-8 (relative) leaves ~1e-6 on an
    # objective of this size, so converge tighter than the 1e-6 margin
    sol = solve_lrp(m, LrpOptions(k=8, restarts=10, seed=2, rel_tol=1e-10))
    assert sol.objective >= integer_best - 1e-6


def test_solver_dominance_random_instances_full_width():
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(4, 11))
        A = rng.normal(size=(n, n))
        m = MrfParams(A)
        _, integer_best = brute_force_map(m)
        sol = solve_lrp(m, LrpOptions(k=n, restarts=20, seed=trial, rel_tol=1e-10))
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


def test_fixed_step_trace_is_monotone():
    # the step 1/L with the estimate at least L/2 never decreases the
    # objective, up to rounding
    for seed in range(10):
        m = rbm_to_mrf(gen_hard_rbm(30, 30, seed=seed))
        sol = solve_lrp(m, LrpOptions(k=2, max_iters=500, seed=seed))
        diffs = np.diff(sol.trace)
        assert (diffs >= -1e-12 * np.maximum(1.0, np.abs(sol.trace[1:]))).all()


def test_batched_restarts_match_reference_loop():
    # every restart's final objective matches the one-restart-at-a-time
    # loop; the stacked product rounds differently, so not bit for bit
    instances = [
        rbm_to_mrf(gen_random_rbm(30, 20)),
        rbm_to_mrf(gen_hard_rbm(30, 30)),
        rbm_to_mrf(gen_random_rbm(300, 200)),
    ]
    assert instances[-1].n == 501
    for seed, m in enumerate(instances):
        A = m.A
        step = 1.0 / estimate_lipschitz(A)[0]
        starts = [
            relaxation._init_rows_in_ball(m.n, 2, np.random.default_rng(child))
            for child in np.random.SeedSequence(seed).spawn(4)
        ]
        best_X, best_f, _, _ = relaxation._ascend(
            A, np.stack(starts, axis=1), 10_000, 1e-8, step
        )
        for r, X0 in enumerate(starts):
            _, want_f, _ = reference_ascend(A, X0, 10_000, 1e-8, step)
            assert_allclose(best_f[r], want_f, rtol=1e-9)
            assert_allclose(lrp_objective(A, best_X[r]), best_f[r], rtol=1e-12)


def test_matvecs_counts_every_product():
    rng = np.random.default_rng(14)
    m = MrfParams(rng.normal(size=(12, 12)))
    opts = LrpOptions(k=3, restarts=5, seed=10)
    sol = solve_lrp(m, opts)
    power = sol.matvecs - opts.k * (opts.restarts + sol.iterations)
    assert 1 <= power <= 50
    _, lipschitz_matvecs = estimate_lipschitz(m.A)
    assert power == lipschitz_matvecs


def test_max_iters_warns_once_per_solve(caplog):
    rng = np.random.default_rng(15)
    m = MrfParams(rng.normal(size=(8, 8)))
    with caplog.at_level(logging.WARNING, logger="relaxround.relaxation"):
        sol = solve_lrp(m, LrpOptions(k=2, max_iters=3, restarts=4, seed=11))
    assert sol.iterations == 12
    assert len(caplog.records) == 1
    assert "4 of 4" in caplog.records[0].getMessage()


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
        LrpOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        LrpOptions(restarts=0)
    with pytest.raises(ValueError):
        LrpOptions(max_iters=0)
    m = MrfParams(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        solve_lrp(m, LrpOptions(k=3))
    with pytest.raises(ValueError):
        solve_lrp(MrfParams(np.zeros((2, 2)), Domain.ZERO_ONE), LrpOptions(k=2))
