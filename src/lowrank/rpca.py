"""Four solvers for the low-rank plus sparse decomposition program

    min ||A||_* + lam * ||E||_1   subject to   A + E = D:

dual-ascent iterative thresholding (``solve_it``), an accelerated proximal
gradient method with continuation (``solve_apg``), and exact / inexact
augmented Lagrange multiplier methods (``solve_ealm`` / ``solve_ialm``).
All four share one config, result and per-iteration trace model.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .linalg import as_matrix, shrink, spectral_norm, svt_triplets
from .problems import round_half_up

__all__ = [
    "RpcaConfig",
    "IterRecord",
    "Iterate",
    "SolveResult",
    "predict_rank",
    "t_next",
    "solve_it",
    "solve_apg",
    "solve_ealm",
    "solve_ialm",
]

# Entries at or below this magnitude count as zeros when reporting ||E||_0;
# soft thresholding produces exact zeros, so this is a safety margin only.
ZERO_TOL = 1e-12

MAX_ITER_DEFAULTS = {"it": 100_000, "apg": 1000, "ealm": 100, "ialm": 1000}
SV0_DEFAULTS = {"apg": 5, "ealm": 10, "ialm": 10}
# Iterative thresholding: tau = IT_TAU_FACTOR * ||D||_2, multiplier step IT_DELTA.
IT_TAU_FACTOR = 20.0
IT_DELTA = 1.0
# APG continuation: mu decays by APG_ETA per iteration down to APG_MU_BAR_FACTOR * mu0.
APG_ETA = 0.9
APG_MU_BAR_FACTOR = 1e-9


@dataclass
class RpcaConfig:
    """Solver parameters. ``None`` means "use the per-algorithm default",
    which for the ALM solvers follows the published tuning:

    * ``ialm``: mu0 = 1.25 / ||D||_2, rho = 1.6, eps1 = 1e-7, eps2 = 1e-5
    * ``ealm``: mu0 = 0.5 / ||sign(D)||_2, rho = 6, inner_tol = 1e-6
    * ``apg``:  mu0 = 0.99 * ||D||_2

    ``lam`` defaults to ``rows ** -0.5``. APG's eta and mu_bar and IT's tau
    and delta come from the module constants :data:`APG_ETA`,
    :data:`APG_MU_BAR_FACTOR`, :data:`IT_TAU_FACTOR` and :data:`IT_DELTA`.
    """

    lam: float | None = None
    mu0: float | None = None
    rho: float | None = None
    eps1: float = 1e-7
    eps2: float = 1e-5
    max_iter: int | None = None
    inner_tol: float = 1e-6
    keep_iterates: bool = False

    def __post_init__(self):
        for name in ("lam", "mu0", "eps1", "eps2", "max_iter", "inner_tol"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rho is not None and self.rho <= 1:
            raise ValueError("rho must exceed 1")

    def to_dict(self):
        return asdict(self)


@dataclass
class IterRecord:
    """One solver iteration: penalty value, scaled residuals, rank/support
    counts and the rank-prediction bookkeeping."""

    iter: int
    mu: float
    feas: float
    dual_est: float
    rank_a: int
    e_card: int
    sv_pred: int
    svp: int
    objective: float

    def to_dict(self):
        return asdict(self)


@dataclass
class Iterate:
    """Dense per-iteration snapshot, recorded only on request (desk scale)."""

    a: np.ndarray
    e: np.ndarray
    y: np.ndarray
    mu: float


@dataclass
class SolveResult:
    A: np.ndarray
    E: np.ndarray
    converged: bool
    iterations: int
    svd_count: int
    trace: list[IterRecord]
    algorithm: str
    Y: np.ndarray | None = None
    iterates: list[Iterate] | None = None

    @property
    def rank(self):
        return self.trace[-1].rank_a

    @property
    def e_card(self):
        return self.trace[-1].e_card

    @property
    def objective(self):
        return self.trace[-1].objective if self.trace else 0.0

    def report(self, config=None, a_star=None):
        """JSON-ready summary: config echo, counts, final residuals and the
        full trace; includes the relative recovery error when the ground
        truth is supplied."""
        return _report_v1(self, self.algorithm, {"rank": self.rank, "e_card": self.e_card},
                          config, a_star, lambda: self.A, self.Y)


def _report_v1(result, algorithm, counts, config, a_star, dense_a, Y=None):
    """The ``lowrank.solve.v1`` dict of a recovery or completion result.

    ``counts`` follow ``svd_count``. With ``a_star`` the dict gets the
    relative error ||A - a_star||_F / ||a_star||_F (||A||_F when ``a_star`` is
    zero), where ``dense_a()`` returns the dense iterate ``A``: a freshly
    materialized one is then a temporary that numpy subtracts in place, so
    the error costs one dense matrix, not two. A nonzero final multiplier
    ``Y`` adds its gauge values, with lam taken from ``config`` or
    rows ** -0.5.
    """
    last = result.trace[-1] if result.trace else None
    out = {
        "schema": "lowrank.solve.v1",
        "algorithm": algorithm,
        "converged": result.converged,
        "iterations": result.iterations,
        "svd_count": result.svd_count,
        **counts,
        "final": {
            "feas": last.feas if last else 0.0,
            "dual_est": last.dual_est if last else 0.0,
            "objective": last.objective if last else 0.0,
        },
        "trace": [r.to_dict() for r in result.trace],
    }
    if config is not None:
        out["config"] = config.to_dict()
    if Y is not None and Y.any():
        lam = config.lam if config is not None and config.lam is not None \
            else 1.0 / np.sqrt(Y.shape[0])
        out["final"]["spectral_y"] = spectral_norm(Y)
        out["final"]["linf_y_over_lambda"] = float(np.abs(Y).max() / lam)
    if a_star is not None:
        a_star = np.asarray(a_star)
        denom = np.linalg.norm(a_star)
        out["rel_error"] = float(np.linalg.norm(dense_a() - a_star) / denom) \
            if denom else float(np.linalg.norm(dense_a()))
    return out


def predict_rank(svp, sv, d):
    """Next dimension for the partial SVD: grow by one while the threshold
    count still fits, jump by 5% of the small dimension once it saturates."""
    if not (0 <= svp <= sv <= d):
        raise ValueError("expected 0 <= svp <= sv <= d")
    if svp < sv:
        return svp + 1
    return min(svp + round_half_up(0.05 * d), d)


def t_next(t):
    """The momentum weight after ``t``: (1 + sqrt(4 t^2 + 1)) / 2, from t_0 = 1."""
    return (1.0 + np.sqrt(4.0 * t * t + 1.0)) / 2.0


def _e_stats(E):
    """(||E||_1, count of entries above ZERO_TOL) from one pass of |E|."""
    abs_e = np.abs(E)
    return float(abs_e.sum()), int((abs_e > ZERO_TOL).sum())


def _zero_result(D, algorithm):
    Z = np.zeros_like(D)
    rec = IterRecord(iter=1, mu=0.0, feas=0.0, dual_est=0.0, rank_a=0,
                     e_card=0, sv_pred=0, svp=0, objective=0.0)
    return SolveResult(A=Z, E=Z.copy(), converged=True, iterations=1,
                       svd_count=0, trace=[rec], algorithm=algorithm, Y=Z.copy())


def _resolve_lam(cfg, D):
    return cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(D.shape[0])


def solve_it(D, cfg=None):
    """Dual-ascent iterative thresholding on the quadratically relaxed program.

    Each sweep applies singular value thresholding (threshold tau) and soft
    thresholding (threshold lam * tau) to the running multiplier, then takes
    a step of size :data:`IT_DELTA` along the constraint violation, with
    tau = :data:`IT_TAU_FACTOR` * ||D||_2 (step-size choice for this method
    is known to be difficult; it is included for completeness, not speed).
    Stops once the scaled feasibility residual drops below ``eps1``; hitting
    ``max_iter`` returns ``converged=False`` with the full trace.
    """
    cfg = cfg or RpcaConfig()
    D = as_matrix(D, "D")
    if not D.any():
        return _zero_result(D, "it")
    lam = _resolve_lam(cfg, D)
    dnorm = np.linalg.norm(D)
    tau = IT_TAU_FACTOR * spectral_norm(D)
    max_iter = cfg.max_iter or MAX_ITER_DEFAULTS["it"]
    d = min(D.shape)

    Y = np.zeros_like(D)
    E_prev = np.zeros_like(D)
    trace = []
    for k in range(1, max_iter + 1):
        kept, svp, _ = svt_triplets(Y, tau, d)
        A = kept.compose()
        E = shrink(Y, lam * tau)
        R = D - A - E
        Y = Y + IT_DELTA * R
        feas = float(np.linalg.norm(R) / dnorm)
        dual = float(np.linalg.norm(E - E_prev) / dnorm)
        e_l1, e_card = _e_stats(E)
        obj = float(kept.s.sum() + lam * e_l1)
        trace.append(IterRecord(k, tau, feas, dual, svp, e_card, d, svp, obj))
        E_prev = E
        converged = feas < cfg.eps1
        if converged:
            break
    return SolveResult(A, E, converged, k, k, trace, "it", Y=Y)


def solve_apg(D, cfg=None):
    """Accelerated proximal gradient with geometric continuation.

    Momentum points for both blocks share the weight (t_{k-1} - 1) / t_k;
    each iteration takes half-step gradient corrections, one SVT at
    mu_k / 2, one shrink at lam * mu_k / 2, then decays the smoothing
    parameter by :data:`APG_ETA` down to the floor
    :data:`APG_MU_BAR_FACTOR` * mu0.
    """
    cfg = cfg or RpcaConfig()
    D = as_matrix(D, "D")
    if not D.any():
        return _zero_result(D, "apg")
    lam = _resolve_lam(cfg, D)
    dnorm = np.linalg.norm(D)
    mu = cfg.mu0 if cfg.mu0 is not None else 0.99 * spectral_norm(D)
    mu_bar = APG_MU_BAR_FACTOR * mu
    max_iter = cfg.max_iter or MAX_ITER_DEFAULTS["apg"]
    d = min(D.shape)
    sv = min(SV0_DEFAULTS["apg"], d)

    A = A_prev = np.zeros_like(D)
    E = E_prev = np.zeros_like(D)
    t = t_prev = 1.0
    trace = []
    kept = None
    for k in range(1, max_iter + 1):
        coef = (t_prev - 1.0) / t
        YA = A + coef * (A - A_prev)
        YE = E + coef * (E - E_prev)
        half = 0.5 * (YA + YE - D)
        GA = YA - half
        kept, svp, s_raw = svt_triplets(GA, mu / 2.0, sv,
                                        v0=None if kept is None else kept.V)
        A_next = kept.compose()
        GE = YE - half
        E_next = shrink(GE, lam * mu / 2.0)
        mu_used = mu
        mu = max(APG_ETA * mu, mu_bar)

        feas = float(np.linalg.norm(D - A_next - E_next) / dnorm)
        dual = float(mu_used * np.linalg.norm(E_next - E) / dnorm)
        e_l1, e_card = _e_stats(E_next)
        obj = float(kept.s.sum() + lam * e_l1)
        sv_used = len(s_raw)
        trace.append(IterRecord(k, mu_used, feas, dual, svp, e_card, sv_used, svp, obj))
        A_prev, A, E_prev, E = A, A_next, E, E_next
        t_prev, t = t, t_next(t)
        sv = predict_rank(svp, sv_used, d)
        converged = feas < cfg.eps1
        if converged:
            break
    return SolveResult(A, E, converged, k, k, trace, "apg")


def solve_ealm(D, cfg=None):
    """Exact augmented Lagrange multiplier method.

    The multiplier starts at sign(D) scaled into the dual-feasible set. Each
    outer step solves the (A, E) subproblem to tolerance ``inner_tol`` by
    alternating SVT and shrinkage from the previous solution, then takes an
    exact multiplier step and grows the penalty by ``rho``. ``svd_count``
    sums all inner iterations.
    """
    cfg = cfg or RpcaConfig()
    D = as_matrix(D, "D")
    if not D.any():
        return _zero_result(D, "ealm")
    lam = _resolve_lam(cfg, D)
    dnorm = np.linalg.norm(D)
    sgn = np.sign(D)
    norm2 = spectral_norm(sgn)
    mu = cfg.mu0 if cfg.mu0 is not None else 0.5 / norm2
    rho = cfg.rho if cfg.rho is not None else 6.0
    max_outer = cfg.max_iter or MAX_ITER_DEFAULTS["ealm"]
    d = min(D.shape)
    sv = min(SV0_DEFAULTS["ealm"], d)

    # the dual gauge of sign(D), whose largest entry is 1
    Y = sgn / max(norm2, 1.0 / lam)
    A = np.zeros_like(D)
    E = np.zeros_like(D)
    trace = []
    iterates = [] if cfg.keep_iterates else None
    svd_count = 0
    kept = None
    for k in range(1, max_outer + 1):
        Aj, Ej = A, E
        while True:
            kept, svp, s_raw = svt_triplets(D - Ej + Y / mu, 1.0 / mu, sv,
                                            v0=None if kept is None else kept.V)
            svd_count += 1
            Aj1 = kept.compose()
            Ej1 = shrink(D - Aj1 + Y / mu, lam / mu)
            dA = np.linalg.norm(Aj1 - Aj) / dnorm
            dE = np.linalg.norm(Ej1 - Ej) / dnorm
            Aj, Ej = Aj1, Ej1
            sv = predict_rank(svp, len(s_raw), d)
            if dA < cfg.inner_tol and dE < cfg.inner_tol:
                break
        dual = float(mu * np.linalg.norm(Ej - E) / dnorm)
        A, E = Aj, Ej
        R = D - A - E
        Y = Y + mu * R
        feas = float(np.linalg.norm(R) / dnorm)
        e_l1, e_card = _e_stats(E)
        obj = float(kept.s.sum() + lam * e_l1)
        trace.append(IterRecord(k, mu, feas, dual, svp, e_card, sv, svp, obj))
        if iterates is not None:
            iterates.append(Iterate(A.copy(), E.copy(), Y.copy(), mu))
        converged = feas < cfg.eps1
        if converged:
            break
        sv = min(svp + round_half_up(0.1 * d), d)
        mu = rho * mu
    return SolveResult(A, E, converged, k, svd_count, trace, "ealm", Y=Y,
                       iterates=iterates)


def solve_ialm(D, cfg=None):
    """Inexact augmented Lagrange multiplier method (one alternating sweep
    per multiplier step).

    The sparse block moves first against the previous low-rank iterate, the
    low-rank block follows, then the multiplier takes a step of size mu_k
    along the residual. The penalty grows by ``rho`` exactly when
    mu_k * ||E_{k+1} - E_k||_F / ||D||_F falls below ``eps2``; the solve
    stops when that dual surrogate and the feasibility residual are both
    inside tolerance.
    """
    cfg = cfg or RpcaConfig()
    D = as_matrix(D, "D")
    if not D.any():
        return _zero_result(D, "ialm")
    lam = _resolve_lam(cfg, D)
    dnorm = np.linalg.norm(D)
    norm2 = spectral_norm(D)
    mu = cfg.mu0 if cfg.mu0 is not None else 1.25 / norm2
    rho = cfg.rho if cfg.rho is not None else 1.6
    max_iter = cfg.max_iter or MAX_ITER_DEFAULTS["ialm"]
    d = min(D.shape)
    sv = min(SV0_DEFAULTS["ialm"], d)

    # the dual gauge of D, built from the one ||D||_2 above
    Y = D / max(norm2, np.abs(D).max() / lam)
    A = np.zeros_like(D)
    E = np.zeros_like(D)
    trace = []
    iterates = [] if cfg.keep_iterates else None
    kept = None
    for k in range(1, max_iter + 1):
        E_next, A, Y, r_norm, kept, svp, s_raw = _ialm_sweep(
            D, A, Y, mu, lam, sv, None if kept is None else kept.V)
        feas = float(r_norm / dnorm)
        dual = float(mu * np.linalg.norm(E_next - E) / dnorm)
        e_l1, e_card = _e_stats(E_next)
        obj = float(kept.s.sum() + lam * e_l1)
        sv_used = len(s_raw)
        trace.append(IterRecord(k, mu, feas, dual, svp, e_card, sv_used, svp, obj))
        E = E_next
        if iterates is not None:
            iterates.append(Iterate(A.copy(), E.copy(), Y.copy(), mu))
        sv = predict_rank(svp, sv_used, d)
        converged = feas < cfg.eps1 and dual < cfg.eps2
        if dual < cfg.eps2:
            mu = rho * mu
        if converged:
            break
    return SolveResult(A, E, converged, k, k, trace, "ialm", Y=Y,
                       iterates=iterates)


def _ialm_sweep(D, A, Y, mu, lam, sv, v0=None):
    """One inexact-ALM sweep at penalty ``mu``: shrink E, threshold A (hint
    ``sv``, warm start ``v0``), step Y along R = D - A - E. Returns
    ``(E, A, Y, ||R||_F, kept, svp, s_raw)``; only the norm of R is returned,
    so no residual matrix outlives the sweep."""
    E = shrink(D - A + Y / mu, lam / mu)
    kept, svp, s_raw = svt_triplets(D - E + Y / mu, 1.0 / mu, sv, v0=v0)
    A = kept.compose()
    R = D - A - E
    return E, A, Y + mu * R, np.linalg.norm(R), kept, svp, s_raw
