"""Degenerate shapes and spectra for all four solvers: tiny, wide and tall
inputs with a single nonzero entry, rank 1, full rank, repeated singular
values, rank 0 plus a few sparse spikes, or distinct singular values that
cluster within 1e-9 relative of each other. A solve never raises, returns
finite arrays and a record per iteration, and whatever it reports as
converged is feasible to its ``eps1``. EALM, IALM and APG converge on every
recovery input; completion may end unconverged where gap truncation holds
the rank below the data's, at the latest before its penalty overflows."""

import numpy as np
import pytest

from lowrank.linalg import ObservedSet
from lowrank.mc import McConfig, solve_mc_ialm
from lowrank.rpca import MAX_ITER_DEFAULTS, RpcaConfig, solve_apg, solve_ealm, solve_ialm

SHAPES = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (8, 20), (20, 8)]
SPECTRA = ["single", "rank1", "full", "repeated", "sparse", "clustered"]
RPCA_SOLVERS = {"apg": solve_apg, "ealm": solve_ealm, "ialm": solve_ialm}
# (rows, cols, observed row-major linear indices)
MC_CASES = [(1, 1, [0]), (2, 3, [0, 2, 3, 5]), (3, 3, list(range(9))),
            (5, 4, [0, 1, 3, 5, 6, 8, 10, 11, 13, 14, 16, 19])]


def _matrix(m, n, spectrum):
    g = np.random.Generator(np.random.Philox(m * 100 + n))
    d = min(m, n)
    if spectrum == "single":
        D = np.zeros((m, n))
        D[m // 2, n // 2] = 3.0
        return D
    if spectrum == "rank1":
        return np.outer(g.standard_normal(m), g.standard_normal(n))
    if spectrum == "full":
        return g.standard_normal((m, n))
    if spectrum == "sparse":
        # no low-rank part: spikes on 5% of the entries, at least two of them
        D = np.zeros(m * n)
        spikes = g.permutation(m * n)[:min(m * n, max(2, round(0.05 * m * n)))]
        D[spikes] = g.uniform(-5.0, 5.0, spikes.size)
        return D.reshape(m, n)
    U = np.linalg.qr(g.standard_normal((m, d)))[0]
    V = np.linalg.qr(g.standard_normal((n, d)))[0]
    if spectrum == "clustered":
        # distinct values 1, 1 + 1e-10, ..., all within 1e-9 of each other
        return (U * (1.0 + 1e-10 * np.arange(d))) @ V.T
    # the top half of the values equal 2, the rest equal 1
    return (U * np.where(np.arange(d) < (d + 1) // 2, 2.0, 1.0)) @ V.T


def _assert_finite(*arrays):
    for X in arrays:
        assert X is None or np.isfinite(X).all()


@pytest.mark.parametrize("spectrum", SPECTRA)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", sorted(RPCA_SOLVERS))
def test_recovery_on_degenerate_inputs(name, shape, spectrum):
    D = _matrix(*shape, spectrum)
    cfg = RpcaConfig()
    res = RPCA_SOLVERS[name](D, cfg)
    _assert_finite(res.A, res.E, res.Y)
    assert len(res.trace) == res.iterations
    assert res.converged
    assert np.linalg.norm(D - res.A - res.E) / np.linalg.norm(D) < cfg.eps1


@pytest.mark.parametrize("spectrum", SPECTRA)
@pytest.mark.parametrize("case", MC_CASES, ids=lambda c: f"{c[0]}x{c[1]}-p{len(c[2])}")
def test_completion_on_degenerate_inputs(case, spectrum):
    m, n, linear = case
    omega = ObservedSet.from_linear(m, n, linear)
    values = _matrix(m, n, spectrum)[omega.row_idx, omega.col_idx]
    cfg = McConfig()
    res = solve_mc_ialm(omega, values, cfg)
    _assert_finite(res.A.compose(), res.E, res.Y)
    assert len(res.trace) == res.iterations
    if not values.any():
        assert res.converged and not res.A.compose().any()
    # E lives off the samples, so D - A - E is the residual on the samples
    elif res.converged:
        resid = values - res.A.values_at(omega)
        assert np.linalg.norm(resid) / np.linalg.norm(values) < cfg.eps1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [MC_CASES[1], MC_CASES[2]],
                         ids=lambda c: f"{c[0]}x{c[1]}-p{len(c[2])}")
def test_completion_stops_before_its_penalty_overflows(case):
    # gap truncation holds these full-rank inputs at rank 1, so the penalty
    # grows every sweep; the solve ends unconverged at the last finite mu
    # instead of warning and raising from an SVD of non-finite data
    m, n, linear = case
    omega = ObservedSet.from_linear(m, n, linear)
    values = _matrix(m, n, "full")[omega.row_idx, omega.col_idx]
    res = solve_mc_ialm(omega, values, McConfig(max_iter=1000))
    assert not res.converged and res.iterations < 1000
    assert len(res.trace) == res.iterations
    assert np.isfinite(res.trace[-1].mu)
    _assert_finite(res.A.compose())


@pytest.mark.parametrize("cfg", [McConfig(), McConfig(max_iter=None)], ids=["default", "none"])
def test_completion_stops_at_its_default_cap(cfg):
    # the same full-rank input, held at rank 1: at the default cap, 500 sweeps,
    # the penalty is still finite, so the cap alone ends the solve
    m, n, linear = MC_CASES[1]
    omega = ObservedSet.from_linear(m, n, linear)
    values = _matrix(m, n, "full")[omega.row_idx, omega.col_idx]
    res = solve_mc_ialm(omega, values, cfg)
    assert not res.converged and res.iterations == MAX_ITER_DEFAULTS["mc-ialm"] == 500
    assert np.isfinite(res.trace[-1].mu)
