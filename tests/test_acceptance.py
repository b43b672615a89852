"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL verdict line with its runtime.

Statistical criteria run on fixed seeds so the whole suite is
deterministic; budgets and instance scales were chosen so every check
passes with a wide margin on a stock CPU.
"""

import json
import math
import time

import numpy as np
from scipy import stats

from chain_utils import (
    block_sweep,
    conditional_table,
    exact_distribution,
    run_fast_chain,
)
from relaxround import (
    Domain,
    LrpOptions,
    MrfParams,
    RbmParams,
    ais_logz,
    brute_force_map,
    build_px_k2,
    embed,
    enumerate_support_k2,
    exact_logz_mrf,
    exact_logz_rbm,
    gen_hard_rbm,
    px_query,
    rbm_score,
    rrr_is,
    rrr_low,
    rrr_map_sample,
    solve_lrp,
)
from relaxround import relaxation
from relaxround.cli import main as cli_main


def _verdict(capsys, num, name, t0, budget, ok, detail=""):
    elapsed = time.monotonic() - t0
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    tail = f", {detail}" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s{tail})")
    assert ok, f"criterion {num} failed: {detail}"
    assert in_budget, f"criterion {num} exceeded {budget:.0f}s budget: {elapsed:.1f}s"


def _corners(n, domain=Domain.PLUS_MINUS_ONE):
    lo = -1.0 if domain is Domain.PLUS_MINUS_ONE else 0.0
    grid = np.stack(np.meshgrid(*([np.array([lo, 1.0])] * n), indexing="ij"))
    return grid.reshape(n, -1).T


def test_criterion_01_exact_rbm_logz_oracle(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([100, seed])
        m = int(rng.integers(1, 6))
        p = int(rng.integers(1, 6))
        domain = Domain.PLUS_MINUS_ONE if seed % 2 == 0 else Domain.ZERO_ONE
        rbm = RbmParams(rng.normal(size=(m, p)), rng.normal(size=m),
                        rng.normal(size=p), domain)
        V = _corners(m, domain)
        H = _corners(p, domain)
        scores = V @ rbm.W @ H.T + (V @ rbm.a)[:, None] + (H @ rbm.b)[None, :]
        oracle = float(math.log(np.exp(scores - scores.max()).sum())
                       + scores.max())
        got = exact_logz_rbm(rbm)
        worst = max(worst, abs(got - oracle) / max(1.0, abs(oracle)))
    _verdict(capsys, 1, "exact RBM log Z vs full enumeration", t0, 10.0,
             worst <= 1e-9, f"max rel err {worst:.2e}")


def test_criterion_02_reduction_identities(capsys):
    # every (kind, domain) case through `embed`: at every native corner the
    # native score is the embedded corner's score plus the offset, and the
    # embedded corner (and its negation, with an auxiliary spin) decodes
    # back to the native corner
    t0 = time.monotonic()
    worst = 0.0
    decoded_ok = True
    for trial in range(100):
        rng = np.random.default_rng([200, trial])
        n = int(rng.integers(1, 7))
        A = rng.normal(size=(n, n))
        m = int(rng.integers(1, n)) if n > 1 else 1
        p = max(n - m, 1)
        W = rng.normal(size=(m, p))
        a = rng.normal(size=m)
        b = rng.normal(size=p)
        for domain in (Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE):
            for inst in (MrfParams(A, domain), RbmParams(W, a, b, domain)):
                emb = embed(inst)
                if isinstance(inst, MrfParams):
                    X = _corners(n, domain)
                    want = np.einsum("bi,ij,bj->b", X, A, X)
                    natives = [{"x": row} for row in X.astype(int).tolist()]
                else:
                    X = _corners(m + p, domain)
                    V, H = X[:, :m], X[:, m:]
                    want = np.einsum("bi,ij,bj->b", V, W, H) + V @ a + H @ b
                    natives = [{"v": row[:m], "h": row[m:]}
                               for row in X.astype(int).tolist()]
                T = X if domain is Domain.PLUS_MINUS_ONE else 2.0 * X - 1.0
                if emb.has_aux:
                    T = np.hstack([np.ones((T.shape[0], 1)), T])
                got = np.einsum("bi,ij,bj->b", T, emb.mrf.A, T) + emb.offset
                worst = max(worst, np.abs(got - want).max())
                corners = T.astype(np.int8)
                for x, native in zip(corners, natives):
                    decoded_ok &= emb.to_native(x) == native
                    if emb.has_aux:
                        decoded_ok &= emb.to_native(-x) == native
    _verdict(capsys, 2, "reduction corner identities", t0, 5.0,
             worst <= 1e-12 and decoded_ok,
             f"max abs err {worst:.2e}, decoded {decoded_ok}")


def _chi_square_ok(observed, probs, total, alpha=0.01):
    expected = {pat: p * total for pat, p in probs.items()}
    keep = {pat for pat, e in expected.items() if e >= 5.0}
    stat = sum((observed.get(pat, 0) - expected[pat]) ** 2 / expected[pat]
               for pat in keep)
    pooled = sum(e for pat, e in expected.items() if pat not in keep)
    if pooled > 0.0:
        seen = sum(o for pat, o in observed.items() if pat not in keep)
        stat += (seen - pooled) ** 2 / pooled
        bins = len(keep) + 1
    else:
        bins = len(keep)
    return stat <= stats.chi2.ppf(1.0 - alpha, bins - 1)


def test_criterion_03_rounding_distribution_exactness(capsys):
    t0 = time.monotonic()
    draws = 10**5
    ok = True
    detail = ""
    for trial in range(50):
        rng = np.random.default_rng([3000, trial])
        n = int(rng.integers(2, 11))
        X = rng.normal(size=(n, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        dist = build_px_k2(X)
        support = enumerate_support_k2(dist)
        probs = {tuple(int(t) for t in pat): p for pat, p in support}

        total = sum(probs.values())
        if abs(total - 1.0) > 1e-12:
            ok, detail = False, f"trial {trial}: support sums to {total!r}"
            break
        if any(abs(px_query(dist, np.array(pat, dtype=float)) - p) > 1e-12
               for pat, p in probs.items()):
            ok, detail = False, f"trial {trial}: px_query mismatch"
            break

        params = MrfParams(np.zeros((n, n)))
        samples, _ = rrr_map_sample(params, X, draws, seed=int(rng.integers(2**31)))
        pats, counts = np.unique(samples, axis=0, return_counts=True)
        observed = {tuple(int(t) for t in row): int(c)
                    for row, c in zip(pats, counts)}
        if set(observed) - set(probs):
            ok, detail = False, f"trial {trial}: sample outside support"
            break
        if not _chi_square_ok(observed, probs, draws):
            ok, detail = False, f"trial {trial}: chi-square reject"
            break
    _verdict(capsys, 3, "width-2 rounding distribution exactness", t0, 30.0,
             ok, detail or "50 trials, chi-square 99%")


def test_criterion_04_two_over_pi_guarantee(capsys):
    t0 = time.monotonic()
    worst = math.inf
    ok = True
    for trial in range(20):
        rng = np.random.default_rng([400, trial])
        n = int(rng.integers(4, 31))
        B = rng.normal(size=(n, n))
        params = MrfParams(B @ B.T / n)
        sol = solve_lrp(params, LrpOptions(k=2, restarts=8, seed=4000 + trial))
        norms = np.linalg.norm(sol.X, axis=1)
        if norms.min() < 1.0 - 1e-9:
            ok = False
            break
        X = sol.X / norms[:, None]
        expectation = sum(
            p * float(pat @ params.A @ pat)
            for pat, p in enumerate_support_k2(build_px_k2(X)))
        relaxed = float(np.trace(X.T @ params.A @ X))
        worst = min(worst, expectation - (2.0 / math.pi) * relaxed)
    _verdict(capsys, 4, "rounded expectation >= (2/pi) relaxed value", t0,
             10.0, ok and worst >= -1e-9, f"min margin {worst:.3e}")


def test_criterion_05_relaxation_dominates_brute_force(capsys, monkeypatch):
    t0 = time.monotonic()
    monkeypatch.setattr(relaxation, "_REL_TOL", 1e-10)
    worst = math.inf
    for trial in range(20):
        rng = np.random.default_rng([500, trial])
        n = int(rng.integers(3, 11))
        A = rng.normal(size=(n, n))
        params = MrfParams(0.5 * (A + A.T))
        _, best = brute_force_map(params)
        sol = solve_lrp(params, LrpOptions(k=n, restarts=20, seed=5000 + trial))
        worst = min(worst, sol.objective - best)
    _verdict(capsys, 5, "full-width relaxation >= integer optimum", t0, 60.0,
             worst >= -1e-6, f"min margin {worst:.3e}")


def test_criterion_06_gibbs_stationarity(capsys):
    t0 = time.monotonic()
    worst = 0.0
    cases = [(3, 0.5, 600, 601), (5, 0.4, 601, 602), (6, 0.35, 602, 603),
             (8, 0.3, 604, 605), (10, 0.3, 610, 611)]
    for n, scale, seed_a, seed_b in cases:
        rng = np.random.default_rng(seed_a)
        A = scale * rng.normal(size=(n, n))
        params = MrfParams(0.5 * (A + A.T))
        table = conditional_table(params)
        counts = run_fast_chain(table, n, 10**6, np.random.default_rng(seed_b))
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - exact_distribution(params)).sum()
        worst = max(worst, tv)
    _verdict(capsys, 6, "single-site chain total variation after 1e6 sweeps",
             t0, 120.0, worst <= 0.02, f"max TV {worst:.4f}")


def test_criterion_07_ais_accuracy(capsys):
    t0 = time.monotonic()
    hits = 0
    worst = 0.0
    for seed in range(20):
        rbm = gen_hard_rbm(8, 6, pairs=0, seed=700 + seed)
        exact = exact_logz_rbm(rbm)
        rep = ais_logz(rbm, num_temps=1000, num_runs=100, seed=7000 + seed)
        err = abs(rep.log_z - exact)
        worst = max(worst, err)
        hits += err <= 0.2
    _verdict(capsys, 7, "annealed importance sampling within 0.2 nat", t0,
             120.0, hits >= 18, f"{hits}/20 hits, max err {worst:.3f}")


def test_criterion_08_hard_instance_separation(capsys):
    t0 = time.monotonic()
    m = p = 10
    rbm = gen_hard_rbm(m, p, pairs=3, couple=50.0, bias=5.0, seed=88)
    prob = embed(rbm)
    emb = prob.mrf
    x_map, map_score = brute_force_map(emb)
    x_map = prob.canonical(x_map)
    v_map = x_map[1:1 + m].astype(float)
    h_map = x_map[1 + m:].astype(float)
    vis, hid = np.where(rbm.W == 50.0)

    sweeps, chains = 400, 8
    temps_full = np.linspace(10.0, 1.0, sweeps)
    temps_chain = np.linspace(10.0, 1.0, sweeps // chains)

    def anneal_best(v, h, temps, rng):
        best = rbm_score(rbm, v, h)
        for t in temps:
            block_sweep(rbm, v, h, t, rng)
            best = max(best, rbm_score(rbm, v, h))
        return best

    ag, combo, trap = [], [], []
    for seed in range(20):
        rng = np.random.default_rng([8800, seed])
        ag.append(anneal_best(rng.choice([-1.0, 1.0], size=m),
                              rng.choice([-1.0, 1.0], size=p),
                              temps_full, rng))

        sol = solve_lrp(emb, LrpOptions(k=2, restarts=4, seed=8810 + seed))
        starts, _ = rrr_map_sample(emb, sol.X, chains, seed=8820 + seed)
        crng = np.random.default_rng([8830, seed])
        bests = []
        for idx in range(chains):
            x = prob.canonical(starts[idx]).astype(float)
            bests.append(anneal_best(x[1:1 + m], x[1 + m:], temps_chain, crng))
        combo.append(max(bests))

        vt, ht = v_map.copy(), h_map.copy()
        vt[vis] = -1.0
        ht[hid] = -1.0
        trap.append(anneal_best(vt, ht, temps_full,
                                np.random.default_rng([8840, seed])))

    ag, combo, trap = map(np.asarray, (ag, combo, trap))
    ordered = np.median(combo) >= np.median(ag)
    trap_fail = float((trap < map_score - 1e-6).mean())
    combo_close = float((combo >= 0.99 * map_score).mean())
    ok = ordered and trap_fail >= 0.8 and combo_close >= 0.5
    _verdict(capsys, 8, "planted hard pairs separate warm-start annealing",
             t0, 300.0, ok,
             f"medians {np.median(combo):.1f}>={np.median(ag):.1f}, "
             f"trap fails {trap_fail:.0%}, warm within 1% {combo_close:.0%}")


def test_criterion_09_lower_bound_properties(capsys):
    t0 = time.monotonic()
    ok = True
    detail = ""
    for trial in range(10):
        rng = np.random.default_rng([900, trial])
        n = int(rng.integers(2, 11))
        A = rng.normal(size=(n, n))
        params = MrfParams(0.5 * (A + A.T))
        exact = exact_logz_mrf(params)
        sol = solve_lrp(params, LrpOptions(k=2, restarts=4, seed=9000 + trial))
        samples, _ = rrr_map_sample(params, sol.X, 500, seed=9100 + trial)
        if rrr_low(params, [samples]).log_z > exact + 1e-9:
            ok, detail = False, f"trial {trial}: sampled bound above exact"
            break
        support = rrr_is(params, sol.X, 1, 0).details["log_z_exact_support"]
        if support > exact + 1e-9:
            ok, detail = False, f"trial {trial}: support bound above exact"
            break
    if ok:
        single = MrfParams(np.array([[0.7]]))
        X1 = np.array([[1.0, 0.0]])
        support = rrr_is(single, X1, 1, 0).details["log_z_exact_support"]
        gap = abs(support - exact_logz_mrf(single))
        ok = gap <= 1e-9
        detail = f"full-support equality gap {gap:.2e}"
    _verdict(capsys, 9, "importance bounds never exceed exact log Z", t0,
             10.0, ok, detail)


def test_criterion_10_seeded_reports_reproduce(capsys, tmp_path):
    t0 = time.monotonic()
    inst = tmp_path / "inst.json"
    assert cli_main(["gen", "--kind", "random", "--m", "6", "--p", "5",
                     "--seed", "12", "--out", str(inst)]) == 0
    identical = True
    for cmd, flags in [
        ("map", ["--methods", "rrr,ag,rrr-ag,brute"]),
        ("logz", ["--methods", "exact,ais,rrr-low,rrr-is", "--samples",
                  "2000", "--num-temps", "100", "--num-runs", "20"]),
    ]:
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{cmd}{run}.json"
            code = cli_main([cmd, "--instance", str(inst), "--seed", "77",
                             "--out", str(out)] + flags)
            assert code == 0
            outs.append(out.read_bytes())
        identical = identical and outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["seed"] == 77
    _verdict(capsys, 10, "seeded commands yield byte-identical reports", t0,
             60.0, identical)
