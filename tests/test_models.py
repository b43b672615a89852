"""Model core: scores, the {-1,+1} embedding, brute force, generators, IO."""

import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relaxround import (
    CapExceededError,
    Domain,
    Embedding,
    InstanceFormatError,
    MrfParams,
    RbmParams,
    brute_force_map,
    check_assignment,
    dumps_instance,
    embed,
    gen_hard_rbm,
    iter_corner_blocks,
    load_instance,
    loads_instance,
    rbm_score,
    score,
    score_batch,
)
from relaxround import models
from relaxround.instances import write_atomic


def corners(n, domain=Domain.PLUS_MINUS_ONE):
    vals = (-1.0, 1.0) if domain is Domain.PLUS_MINUS_ONE else (0.0, 1.0)
    for tup in itertools.product(vals, repeat=n):
        yield np.array(tup)


def naive_score(A, x):
    # independent double-loop oracle
    total = 0.0
    n = len(x)
    for i in range(n):
        for j in range(n):
            total += A[i][j] * x[i] * x[j]
    return total


# ---------------------------------------------------------------- score


def test_score_diagonal_only():
    m = MrfParams(np.eye(2))
    assert score(m, np.array([1, -1])) == 2.0


def test_score_single_coupling_counted_twice():
    m = MrfParams(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert score(m, np.array([1, 1])) == 2.0


def test_score_matches_double_loop():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 6))
    A = (A + A.T) / 2
    m = MrfParams(A)
    x = rng.choice([-1.0, 1.0], size=6)
    assert_allclose(score(m, x), naive_score(A, x), rtol=1e-12)


def test_score_sign_flip_invariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        A = rng.normal(size=(7, 7))
        m = MrfParams(A)
        x = rng.choice([-1, 1], size=7)
        assert_allclose(score(m, x), score(m, -x), rtol=1e-12)


def test_score_batch_matches_score():
    rng = np.random.default_rng(13)
    m = MrfParams(rng.normal(size=(8, 8)))
    X = rng.choice([-1, 1], size=(25, 8)).astype(np.int8)
    got = score_batch(m, X)
    want = [score(m, row) for row in X]
    assert_allclose(got, want, rtol=1e-12)


def test_symmetrization_preserves_quadratic_form():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(5, 5))  # deliberately asymmetric
    m = MrfParams(A)
    assert_allclose(m.A, m.A.T)
    x = rng.choice([-1.0, 1.0], size=5)
    assert_allclose(score(m, x), naive_score(A, x), rtol=1e-12)


def test_check_assignment_rejects_bad_values():
    with pytest.raises(ValueError):
        check_assignment([1, 2], 2, Domain.PLUS_MINUS_ONE)
    with pytest.raises(ValueError):
        check_assignment([0, 1], 2, Domain.PLUS_MINUS_ONE)
    with pytest.raises(ValueError):
        check_assignment([1, -1], 2, Domain.ZERO_ONE)
    with pytest.raises(ValueError):
        check_assignment([1, 1, 1], 2, Domain.PLUS_MINUS_ONE)


# ------------------------------------------------------------- rbm score


def test_rbm_score_zero_params():
    m = RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(3))
    assert rbm_score(m, [1, -1], [1, 1, -1]) == 0.0


def test_rbm_score_single_coupling():
    m = RbmParams(np.array([[1.0]]), np.zeros(1), np.zeros(1))
    assert rbm_score(m, [1], [-1]) == -1.0


def test_rbm_score_matches_embedding_exhaustively():
    rng = np.random.default_rng(21)
    rbm = RbmParams(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3))
    emb = embed(rbm).mrf
    for v in corners(3):
        for h in corners(3):
            x = np.concatenate([[1.0], v, h])
            assert_allclose(rbm_score(rbm, v, h), score(emb, x), rtol=1e-12)


# ------------------------------------------------------------- embedding


def test_embed_zero_rbm():
    emb = embed(RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2)))
    assert emb.has_aux and emb.offset == 0.0
    assert emb.mrf.n == 5
    assert np.all(emb.mrf.A == 0.0)


def test_embed_rbm_single_weight():
    emb = embed(RbmParams(np.array([[1.0]]), np.zeros(1), np.zeros(1))).mrf
    want = np.zeros((3, 3))
    want[1, 2] = want[2, 1] = 0.5
    assert_allclose(emb.A, want)
    for v in (-1.0, 1.0):
        for h in (-1.0, 1.0):
            x = np.array([1.0, v, h])
            assert_allclose(score(emb, x), v * h, rtol=1e-12)


def test_embed_rbm_score_equivalence_m2_p2():
    rng = np.random.default_rng(22)
    rbm = RbmParams(rng.normal(size=(2, 2)), rng.normal(size=2), rng.normal(size=2))
    emb = embed(rbm).mrf
    checked = 0
    for v in corners(2):
        for h in corners(2):
            x = np.concatenate([[1.0], v, h])
            assert_allclose(rbm_score(rbm, v, h), score(emb, x), rtol=1e-12)
            checked += 1
    assert checked == 16


def test_embed_rbm_biases_fill_the_auxiliary_row():
    # W = 0: the whole score is linear and sits in row and column 0 as a/2, b/2
    emb = embed(RbmParams(np.zeros((1, 1)), np.array([1.0]), np.array([-2.0]))).mrf
    assert_allclose(emb.A, [[0.0, 0.5, -1.0], [0.5, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    for v in (-1.0, 1.0):
        for h in (-1.0, 1.0):
            assert_allclose(score(emb, np.array([1.0, v, h])), v - 2.0 * h)


def test_embed_rbm_zero_biases_leave_the_auxiliary_row_zero():
    W = np.random.default_rng(33).normal(size=(3, 2))
    emb = embed(RbmParams(W, np.zeros(3), np.zeros(2))).mrf
    assert np.all(emb.A[0] == 0.0) and np.all(emb.A[:, 0] == 0.0)
    assert np.array_equal(emb.A[1:4, 4:], W / 2.0)
    assert np.array_equal(emb.A[4:, 1:4], W.T / 2.0)


def test_embed_zero_one_mrf_zero():
    emb = embed(MrfParams(np.zeros((3, 3)), Domain.ZERO_ONE))
    assert emb.has_aux and emb.offset == 0.0
    assert emb.mrf.n == 4
    assert np.all(emb.mrf.A == 0.0)


def test_embed_zero_one_two_cycle_closed_form():
    # x = (t + 1)/2: couplings A/4, linear term (A'1 + A1)/4 = (0.5, 0.5) as
    # the auxiliary row 0.25, offset 1'A1/4 = 0.5
    m01 = MrfParams(np.array([[0.0, 1.0], [1.0, 0.0]]), Domain.ZERO_ONE)
    emb = embed(m01)
    assert_allclose(emb.mrf.A, np.full((3, 3), 0.25) - np.diag([0.25] * 3))
    assert emb.offset == 0.5
    for bits in corners(2, Domain.ZERO_ONE):
        x = np.concatenate([[1.0], 2 * bits - 1])
        assert_allclose(score(m01, bits), score(emb.mrf, x) + emb.offset, atol=1e-12)


def test_embed_zero_one_rbm_biases_on_bits():
    # W = 0, a = 1, b = 2: the native score is v + 2h on bits
    rbm = RbmParams(np.zeros((1, 1)), np.array([1.0]), np.array([2.0]), Domain.ZERO_ONE)
    emb = embed(rbm)
    for v in (0.0, 1.0):
        for h in (0.0, 1.0):
            x = np.array([1.0, 2 * v - 1, 2 * h - 1])
            assert score(emb.mrf, x) + emb.offset == v + 2.0 * h


def test_embed_zero_one_mrf_corner_identity_up_to_n6():
    # {0,1} score == embedded spin score + offset at every corner, n <= 6
    rng = np.random.default_rng(36)
    for n in range(1, 7):
        m01 = MrfParams(rng.normal(size=(n, n)), Domain.ZERO_ONE)
        emb = embed(m01)
        for bits in corners(n, Domain.ZERO_ONE):
            x = np.concatenate([[1.0], 2 * bits - 1])
            want = score(m01, bits)
            got = score(emb.mrf, x) + emb.offset
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_bits_to_hyp_random_corner_identity():
    # {0,1} MRF -> spins: 0/1 score == spin score + offset with t = 2u - 1
    rng = np.random.default_rng(31)
    A = rng.normal(size=(5, 5))
    m01 = MrfParams((A + A.T) / 2, Domain.ZERO_ONE)
    emb = embed(m01)
    for bits in corners(5, Domain.ZERO_ONE):
        x = np.concatenate([[1.0], 2 * bits - 1])
        want = score(m01, bits)
        got = score(emb.mrf, x) + emb.offset
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_fold_linear_hyp_random_corner_identity():
    # spin biases fold into the auxiliary row: x0 = +1 scores them exactly
    rng = np.random.default_rng(34)
    rbm = RbmParams(rng.normal(size=(2, 2)), rng.normal(size=2),
                    rng.normal(size=2))
    emb = embed(rbm)
    for x in corners(4):
        want = rbm_score(rbm, x[:2], x[2:])
        got = score(emb.mrf, np.concatenate([[1.0], x])) + emb.offset
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_fold_linear_bits_random_corner_identity():
    # {0,1} biases fold onto the bit diagonal (u_i^2 = u_i) before the spin map
    rng = np.random.default_rng(35)
    rbm = RbmParams(rng.normal(size=(2, 3)), rng.normal(size=2),
                    rng.normal(size=3), Domain.ZERO_ONE)
    emb = embed(rbm)
    for bits in corners(5, Domain.ZERO_ONE):
        want = rbm_score(rbm, bits[:2], bits[2:])
        got = score(emb.mrf, np.concatenate([[1.0], 2 * bits - 1])) + emb.offset
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_embed_canonical_leaves_input_untouched():
    emb = embed(RbmParams(np.zeros((1, 1)), np.zeros(1), np.zeros(1)))
    x = np.array([-1, 1, -1], dtype=np.int8)
    flipped = emb.canonical(x)
    assert list(flipped) == [1, -1, 1]
    assert list(x) == [-1, 1, -1]  # input untouched
    same = emb.canonical(np.array([1, -1, 1], dtype=np.int8))
    assert list(same) == [1, -1, 1]
    rows = np.array([[-1, 1, -1], [1, 1, -1]], dtype=np.int8)
    assert emb.canonical(rows).tolist() == [[1, -1, 1], [1, 1, -1]]
    assert rows.tolist() == [[-1, 1, -1], [1, 1, -1]]  # input untouched
    # without an auxiliary spin nothing is flipped
    assert list(embed(MrfParams(np.eye(3))).canonical(x)) == [-1, 1, -1]


def reference_embedding(inst):
    """(coupling matrix, offset) composed in four steps, each through its own
    model object: quadratic block, bias onto the {0,1} diagonal, bits to
    spins, auxiliary row. The library builds the same matrix in one pass."""
    pm1 = Domain.PLUS_MINUS_ONE
    if isinstance(inst, MrfParams):
        if inst.domain is pm1:
            return inst.A, 0.0
        A, linear = inst.A, None
    else:
        m, p = inst.m, inst.p
        if inst.domain is pm1:
            A = np.zeros((1 + m + p, 1 + m + p))
            A[0, 1:1 + m] = A[1:1 + m, 0] = inst.a / 2.0
            A[0, 1 + m:] = A[1 + m:, 0] = inst.b / 2.0
            A[1:1 + m, 1 + m:] = inst.W / 2.0
            A[1 + m:, 1:1 + m] = inst.W.T / 2.0
            return MrfParams(A).A, 0.0
        quad = np.zeros((m + p, m + p))
        quad[:m, m:] = inst.W / 2.0
        quad[m:, :m] = inst.W.T / 2.0
        quad = MrfParams(quad, Domain.ZERO_ONE).A
        bias = np.concatenate([inst.a, inst.b])
        A = MrfParams(quad + np.diag(bias), Domain.ZERO_ONE).A
    one = np.ones(A.shape[0])
    hyp = MrfParams(A / 4.0).A
    linear = (A.T @ one + A @ one) / 4.0
    offset = float(one @ A @ one) / 4.0
    aux = np.zeros((A.shape[0] + 1, A.shape[0] + 1))
    aux[0, 1:] = linear / 2.0
    aux[1:, 0] = linear / 2.0
    aux[1:, 1:] = hyp
    return MrfParams(aux).A, offset


def test_embed_matches_reference_composition_bit_for_bit():
    rng = np.random.default_rng(38)
    cases = [(kind, domain) for kind in ("mrf", "rbm")
             for domain in (Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE)]
    for trial in range(240):
        kind, domain = cases[trial % 4]
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        if kind == "mrf":
            n = int(rng.integers(1, 40))
            inst = MrfParams(scale * rng.normal(size=(n, n)), domain)
        else:
            m, p = (int(v) for v in rng.integers(1, 40, size=2))
            inst = RbmParams(scale * rng.normal(size=(m, p)),
                             scale * rng.normal(size=m),
                             scale * rng.normal(size=p), domain)
        want_A, want_offset = reference_embedding(inst)
        emb = embed(inst)
        assert emb.mrf.A.shape == want_A.shape
        assert emb.mrf.A.tobytes() == want_A.tobytes(), (trial, kind, domain)
        assert emb.offset == want_offset and type(emb.offset) is float
        assert emb.has_aux == (kind == "rbm" or domain is Domain.ZERO_ONE)


@pytest.mark.parametrize("kind", ["mrf", "rbm"])
@pytest.mark.parametrize("domain", [Domain.PLUS_MINUS_ONE, Domain.ZERO_ONE])
def test_embed_scores_and_decodes_every_native_corner(kind, domain):
    rng = np.random.default_rng(37)
    m, p = 3, 2
    if kind == "mrf":
        inst = MrfParams(rng.normal(size=(5, 5)), domain)
    else:
        inst = RbmParams(rng.normal(size=(m, p)), rng.normal(size=m),
                         rng.normal(size=p), domain)
    emb = embed(inst)
    assert isinstance(emb, Embedding)
    assert emb.mrf.domain is Domain.PLUS_MINUS_ONE
    assert emb.has_aux == (kind == "rbm" or domain is Domain.ZERO_ONE)
    for native in corners(5, domain):
        if kind == "mrf":
            want = score(inst, native)
            decoded = {"x": native.astype(int).tolist()}
        else:
            want = rbm_score(inst, native[:m], native[m:])
            decoded = {"v": native[:m].astype(int).tolist(),
                       "h": native[m:].astype(int).tolist()}
        t = native if domain is Domain.PLUS_MINUS_ONE else 2 * native - 1
        x = np.concatenate([[1.0], t]) if emb.has_aux else t
        assert abs(score(emb.mrf, x) + emb.offset - want) <= 1e-9
        assert emb.to_native(x.astype(np.int8)) == decoded
        if emb.has_aux:
            assert emb.to_native(-x.astype(np.int8)) == decoded


# ----------------------------------------------------------- brute force


def test_brute_force_tie_break_ferromagnet():
    x, value = brute_force_map(MrfParams(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert list(x) == [-1, -1]
    assert value == 2.0


def test_brute_force_tie_break_antiferromagnet():
    x, value = brute_force_map(MrfParams(np.array([[0.0, -1.0], [-1.0, 0.0]])))
    assert list(x) == [-1, 1]
    assert value == 2.0


def test_brute_force_dominates_random_assignments():
    rng = np.random.default_rng(41)
    m = MrfParams(rng.normal(size=(10, 10)))
    _, best = brute_force_map(m)
    X = rng.choice([-1, 1], size=(10_000, 10)).astype(np.int8)
    assert best >= score_batch(m, X).max() - 1e-12


def test_brute_force_zero_one_domain():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(6, 6))
    m = MrfParams(A, Domain.ZERO_ONE)
    x, value = brute_force_map(m)
    best = max(score(m, c) for c in corners(6, Domain.ZERO_ONE))
    assert_allclose(value, best, rtol=1e-12)
    assert_allclose(score(m, x), value, rtol=1e-12)


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_map(MrfParams(np.zeros((25, 25))))
    # the enumerator checks the cap itself, on its first block
    with pytest.raises(CapExceededError):
        next(iter_corner_blocks(25, Domain.PLUS_MINUS_ONE))


def test_iter_corner_blocks_orders_lexicographically():
    blocks = list(iter_corner_blocks(3, Domain.PLUS_MINUS_ONE))
    allc = np.vstack(blocks)
    assert allc.shape == (8, 3)
    # variable 0 is the most significant digit, -1 before +1
    want = [list(c) for c in itertools.product([-1.0, 1.0], repeat=3)]
    assert [list(r) for r in allc] == want


def test_iter_corner_blocks_chunking(monkeypatch):
    monkeypatch.setattr(models, "_CORNER_BLOCK", 8)
    blocks = list(iter_corner_blocks(5, Domain.ZERO_ONE))
    assert [len(b) for b in blocks] == [8, 8, 8, 8]
    assert np.vstack(blocks).sum() == 16 * 5 / 2 * 2  # half the entries are 1


# ------------------------------------------------------------ generators


def test_gen_hard_rbm_no_pairs_deterministic():
    r1 = gen_hard_rbm(6, 4, pairs=0, seed=5)
    r2 = gen_hard_rbm(6, 4, pairs=0, seed=5)
    assert np.array_equal(r1.W, r2.W)
    assert np.array_equal(r1.a, r2.a)
    assert np.array_equal(r1.b, r2.b)


def test_gen_hard_rbm_no_pairs_full_scale_shapes():
    r = gen_hard_rbm(784, 500, pairs=0, seed=1)
    assert r.W.shape == (784, 500)
    assert r.a.shape == (784,)
    assert r.b.shape == (500,)


def test_gen_hard_rbm_no_pairs_unit_gaussian_moments():
    parts = []
    for seed in range(7):  # one m=50,p=30 draw has 1580 entries; pool to 10^4
        r = gen_hard_rbm(50, 30, pairs=0, seed=seed)
        parts += [r.W.ravel(), r.a, r.b]
    pooled = np.concatenate(parts)
    n = pooled.size
    assert n >= 10_000
    assert abs(pooled.mean()) <= 5.0 / np.sqrt(n)
    assert abs(pooled.var() - 1.0) <= 0.1


def test_gen_hard_rbm_defaults_plant_three_pairs():
    r = gen_hard_rbm(20, 12, seed=3)
    assert int((r.W == 5000.0).sum()) == 3
    vis, hid = np.where(r.W == 5000.0)
    assert_allclose(r.a[vis], 500.0)
    assert_allclose(r.b[hid], 500.0)
    # planted rows/columns are distinct pairs
    assert len(set(vis)) == 3 and len(set(hid)) == 3


def test_gen_hard_rbm_no_pairs_matches_random():
    # pairs=0 is the plain Gaussian draw: W, a, b in that order
    rng = np.random.default_rng(9)
    hard = gen_hard_rbm(8, 5, pairs=0, seed=9)
    assert np.array_equal(hard.W, rng.standard_normal((8, 5)))
    assert np.array_equal(hard.a, rng.standard_normal(8))
    assert np.array_equal(hard.b, rng.standard_normal(5))


def test_gen_hard_rbm_planted_pairs_on_at_map():
    r = gen_hard_rbm(6, 6, pairs=2, couple=50.0, bias=5.0, seed=4)
    emb = embed(r)
    x, _ = brute_force_map(emb.mrf)
    x = emb.canonical(x)
    v, h = x[1:7], x[7:]
    vis, hid = np.where(r.W == 50.0)
    for i, j in zip(vis, hid):
        assert v[i] == 1 and h[j] == 1


def test_gen_hard_rbm_rejects_too_many_pairs():
    with pytest.raises(ValueError):
        gen_hard_rbm(4, 4, pairs=5)


# -------------------------------------------------------------- file IO


def test_instance_round_trip_mrf(tmp_path):
    rng = np.random.default_rng(51)
    m = MrfParams(rng.normal(size=(4, 4)), Domain.ZERO_ONE)
    path = tmp_path / "m.json"
    write_atomic(path, dumps_instance(m))
    back = load_instance(path)
    assert isinstance(back, MrfParams)
    assert back.domain is Domain.ZERO_ONE
    assert np.array_equal(back.A, m.A)  # 17 significant digits round-trips


def test_instance_round_trip_rbm(tmp_path):
    r = gen_hard_rbm(5, 3, pairs=0, seed=6)
    path = tmp_path / "r.json"
    write_atomic(path, dumps_instance(r))
    back = load_instance(path)
    assert isinstance(back, RbmParams)
    assert np.array_equal(back.W, r.W)
    assert np.array_equal(back.a, r.a)
    assert np.array_equal(back.b, r.b)


def test_instance_serialization_deterministic():
    r = gen_hard_rbm(4, 4, pairs=0, seed=7)
    assert dumps_instance(r) == dumps_instance(r)


def test_instance_file_bytes():
    # the header in kind, domain, sizes order, one matrix row per line, and
    # floats with 17 significant digits
    mrf = MrfParams(np.array([[0.1, -2.0], [-2.0, 3.0]]))
    assert dumps_instance(mrf) == (
        '{\n'
        '  "kind": "mrf",\n'
        '  "domain": "pm1",\n'
        '  "n": 2,\n'
        '  "A": [\n'
        '    [0.10000000000000001, -2],\n'
        '    [-2, 3]\n'
        '  ]\n'
        '}\n'
    )
    rbm = RbmParams(np.array([[0.5, -0.25]]), np.array([0.1]), np.array([0.0, 1e-20]),
                    Domain.ZERO_ONE)
    assert dumps_instance(rbm) == (
        '{\n'
        '  "kind": "rbm",\n'
        '  "domain": "01",\n'
        '  "m": 1,\n'
        '  "p": 2,\n'
        '  "W": [\n'
        '    [0.5, -0.25]\n'
        '  ],\n'
        '  "a": [0.10000000000000001],\n'
        '  "b": [0, 9.9999999999999995e-21]\n'
        '}\n'
    )


def test_reserialize_byte_identical(tmp_path):
    r = gen_hard_rbm(4, 2, pairs=0, seed=8)
    path = tmp_path / "x.json"
    write_atomic(path, dumps_instance(r))
    text = path.read_text()
    assert dumps_instance(load_instance(path)) == text


def test_loads_rejects_nan_token():
    with pytest.raises(InstanceFormatError):
        loads_instance('{"kind": "rbm", "domain": "pm1", "m": 1, "p": 1, '
                       '"W": [[NaN]], "a": [0], "b": [0]}')


def test_loads_rejects_infinity():
    with pytest.raises(InstanceFormatError):
        loads_instance('{"kind": "rbm", "domain": "pm1", "m": 1, "p": 1, '
                       '"W": [[Infinity]], "a": [0], "b": [0]}')
    with pytest.raises(InstanceFormatError):
        loads_instance('{"kind": "rbm", "domain": "pm1", "m": 1, "p": 1, '
                       '"W": [[1e999]], "a": [0], "b": [0]}')


def test_loads_rejects_malformed():
    with pytest.raises(InstanceFormatError):
        loads_instance("not json")
    with pytest.raises(InstanceFormatError):
        loads_instance('{"kind": "what", "domain": "pm1", "n": 1, "A": [[0]]}')
    with pytest.raises(InstanceFormatError):
        loads_instance('{"kind": "mrf", "domain": "pm1", "n": 2, "A": [[0]]}')
    with pytest.raises(InstanceFormatError):
        loads_instance('{"kind": "mrf", "domain": "spin", "n": 1, "A": [[0]]}')
    with pytest.raises(InstanceFormatError, match="missing field 'b'"):
        loads_instance('{"kind": "rbm", "domain": "pm1", "m": 2, "p": 1, '
                       '"W": [[1], [2]], "a": [0, 0]}')


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        MrfParams(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        RbmParams(np.array([[np.inf]]), np.zeros(1), np.zeros(1))


def test_params_reject_overflowing_sums():
    # finite entries whose absolute values sum past 2**500: (A + A.T)/2, the
    # scores or their squares could overflow
    big = 2.0**499
    with pytest.raises(ValueError, match="sum to inf, above"):
        MrfParams(np.array([[0.0, 1e308], [1e308, 0.0]]))
    with pytest.raises(ValueError, match="sum to inf, above"):
        RbmParams(np.array([[1e308], [1e308]]), np.zeros(2), np.zeros(1))
    # W alone is within the cap; the biases take the sum past it
    with pytest.raises(ValueError, match="above 2"):
        RbmParams(np.array([[big]]), np.array([big]), np.array([big / 2]))
    # at the cap, the embedding in either domain scores every corner finitely
    for domain in Domain:
        for inst in (MrfParams(np.array([[0.0, big], [big, -0.0]]), domain),
                     RbmParams(np.array([[big]]), np.array([-big / 2]),
                               np.array([big / 2]), domain)):
            emb = embed(inst)
            _, best = brute_force_map(emb.mrf)
            assert np.isfinite(best + emb.offset)
            assert np.isfinite(np.linalg.norm(emb.mrf.A))
