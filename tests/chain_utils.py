"""Chain helpers for the tests: the per-site reference kernel, exact
scores, a table-driven single-site chain for long stationarity runs, a
coupling matrix that counts the entries its products read, and the
reference form of the relaxation's row update.

For n small enough to enumerate, all 2^n conditional probabilities are
precomputed and the chain walks integer state codes, which makes million-
sweep runs cheap. State codes follow the corner enumeration convention:
variable 0 is the most significant bit, bit 1 means +1.
"""

import math

import numpy as np
from scipy.special import expit

from relaxround import Domain, MrfParams, iter_corner_blocks, score_batch
from relaxround.partition import _ais_runs


class CountingMatrix(np.ndarray):
    """A coupling matrix that tallies, for each product of one of its blocks
    with an array X (`block @ X`, `X @ block` or np.matmul), the entries of
    the block times the vectors of X it multiplies (one for a vector)."""

    read = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            left, right = inputs
            block, other, k = (left, right, 1) if isinstance(left, CountingMatrix) \
                else (right, left, 0)
            if block.size:
                CountingMatrix.read += block.size * (other.size // block.shape[k])
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def reference_row_maximizer(G, d, X):
    """The relaxation's exact row update in its np.linalg.norm form: each
    row g of G (fields along the last axis) goes to g / max(|g|, -d_i), and
    a row of X is kept where that is 0/0. `relaxation._row_maximizer` must
    match it bit for bit below width 8."""
    G = np.broadcast_to(G, X.shape)
    scale = np.maximum(np.linalg.norm(G, axis=-1, keepdims=True), -d)
    kept = scale == 0.0
    return np.where(kept, X, G / np.where(kept, 1.0, scale))


def block_sweep(params, v, h, T, rng):
    """One block sweep of AIS's kernel, in place, on a single RBM chain at
    temperature T: the float64 hidden units h given v, then the float64
    visible units v given the new h. It runs `partition._ais_runs` as one
    run on the flat grid beta = (1/T, 1/T), whose weight increment is 0."""
    _ais_runs(params, np.full(2, 1.0 / T), v[None], h[None], rng)


def reference_sweep(A, x, temperature, rng):
    """The per-site kernel: at each site the field A[i] @ x - A[i, i] * x[i],
    its logistic through scipy, and one scalar uniform. The library's sweep
    takes its fields from blocks of A, equal to these up to rounding, so a
    decision can differ only where a uniform lies within that rounding of
    its probability; the tests assert identical chains on their
    instances."""
    for i in range(x.shape[0]):
        field = A[i] @ x - A[i, i] * x[i]
        prob = expit(4.0 * field / temperature)
        x[i] = 1 if rng.random() < prob else -1


class ExactScore:
    """x -> x'Ax correctly rounded, for x in {-1,+1}^n: the terms A_ii and
    2 A_ij x_i x_j over the nonzero i < j, each exact, summed once by
    math.fsum. States already seen are looked up."""

    def __init__(self, A):
        i, j = np.nonzero(np.triu(A, 1))
        diagonal = np.arange(A.shape[0])
        self.i, self.j = np.r_[diagonal, i], np.r_[diagonal, j]
        self.terms = np.r_[np.diag(A), 2.0 * A[i, j]]
        self.seen = {}

    def __call__(self, x):
        x = np.asarray(x, dtype=np.int8)
        key = x.tobytes()
        if key not in self.seen:
            signs = x[self.i] * x[self.j]
            self.seen[key] = math.fsum(memoryview(self.terms * signs))
        return self.seen[key]


def score_tolerance(A) -> float:
    """The rounding bound that `gibbs._sweep` states for every score it
    returns: 4 n eps sum_ij |A_ij| from the exact x'Ax."""
    return 4 * A.shape[0] * np.finfo(float).eps * float(np.abs(A).sum())


def assert_scores_match(A, got, exact):
    """Library scores against exact ones, entry by entry, within the bound
    of `score_tolerance`."""
    assert len(got) == len(exact)
    gap = np.abs(np.subtract(got, exact)).max(initial=0.0)
    assert gap <= score_tolerance(A), gap


def reference_chain(A, temperatures, x0, rng):
    """One reference sweep per temperature from x0; returns the final state
    and the exact score x'Ax after each sweep."""
    exact = ExactScore(A)
    x = np.asarray(x0, dtype=np.int8).copy()
    trace = []
    for temperature in temperatures:
        reference_sweep(A, x, float(temperature), rng)
        trace.append(exact(x))
    return x, trace


def state_code(x) -> int:
    code = 0
    for value in np.asarray(x):
        code = (code << 1) | (1 if value > 0 else 0)
    return code


def conditional_table(params: MrfParams, temperature: float = 1.0) -> np.ndarray:
    """(2^n, n) matrix: entry [s, i] is P(x_i = +1 | rest) in state s."""
    corners = np.vstack(list(iter_corner_blocks(params.n, Domain.PLUS_MINUS_ONE)))
    fields = corners @ params.A - np.diag(params.A) * corners
    return expit(4.0 * fields / temperature)


def exact_distribution(params: MrfParams) -> np.ndarray:
    corners = np.vstack(list(iter_corner_blocks(params.n, Domain.PLUS_MINUS_ONE)))
    scores = score_batch(params, corners)
    w = np.exp(scores - scores.max())
    return w / w.sum()


def run_fast_chain(table, n, sweeps, rng, code0=0):
    """Systematic-scan chain over state codes; returns per-state visit
    counts recorded after each sweep.

    Draws rng.random((sweeps, n)) up front; the generator emits the same
    uniform sequence batched as it does one scalar at a time, so a chain
    seeded like a library chain follows the identical trajectory (asserted
    in the test suite).
    """
    uniforms = rng.random((sweeps, n))
    counts = np.zeros(len(table), dtype=np.int64)
    masks = [1 << (n - 1 - i) for i in range(n)]
    state = code0
    tab = table.tolist()  # python floats beat numpy scalar indexing here
    for t in range(sweeps):
        row = uniforms[t]
        for i in range(n):
            if row[i] < tab[state][i]:
                state |= masks[i]
            else:
                state &= ~masks[i]
        counts[state] += 1
    return counts


def fast_chain_trajectory(table, n, sweeps, rng, code0=0):
    """Like run_fast_chain but returns the state code after every sweep."""
    uniforms = rng.random((sweeps, n))
    masks = [1 << (n - 1 - i) for i in range(n)]
    state = code0
    out = []
    tab = table.tolist()
    for t in range(sweeps):
        row = uniforms[t]
        for i in range(n):
            if row[i] < tab[state][i]:
                state |= masks[i]
            else:
                state &= ~masks[i]
        out.append(state)
    return out
