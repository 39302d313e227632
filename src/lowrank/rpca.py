"""Four solvers for the low-rank plus sparse decomposition program

    min ||A||_* + lam * ||E||_1   subject to   A + E = D:

dual-ascent iterative thresholding (``solve_it``), an accelerated proximal
gradient method with continuation (``solve_apg``), and exact / inexact
augmented Lagrange multiplier methods (``solve_ealm`` / ``solve_ialm``).
All four share one config, result and trace model with the completion solver.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .linalg import as_matrix, shrink, spectral_norm, svt_triplets
from .problems import _default_lam, _rel_error, round_half_up

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
SV0_DEFAULTS = {"it": 5, "apg": 5, "ealm": 10, "ialm": 10, "mc-ialm": 5}
# Iterative thresholding: tau = IT_TAU_FACTOR * ||D||_2, multiplier step IT_DELTA.
IT_TAU_FACTOR = 20.0
IT_DELTA = 1.0
# EALM and IALM: mu0 = ALM_MU0_FACTOR / ||D||_2, which scales with D. IALM's mu
# grows by IALM_RHO when the dual surrogate < eps2.
ALM_MU0_FACTOR = 1.25
IALM_RHO = 1.6
# APG continuation: mu decays by APG_ETA per iteration down to APG_MU_BAR_FACTOR * mu0.
APG_ETA = 0.9
APG_MU_BAR_FACTOR = 1e-9
# EALM: the most inner sweeps an outer step takes. A capped step still takes its
# multiplier step, but only a step whose inner solve met inner_tol ends the solve.
EALM_MAX_INNER = 1000


@dataclass
class _Config:
    """What the recovery and completion configs share: the checks on their
    values, and the echo that goes into a report."""

    def __post_init__(self):
        for name in ("lam", "mu0", "rho", "eps1", "eps2", "inner_tol"):
            v, low = getattr(self, name, None), 1 if name == "rho" else 0
            if v is not None and not low < v < np.inf:
                raise ValueError(f"{name} must be finite and exceed {low}, got {v}")
        n = self.max_iter
        if n is not None and (isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1):
            raise ValueError(f"max_iter must be a positive int, got {n!r}")

    def to_dict(self):
        return asdict(self)


@dataclass
class RpcaConfig(_Config):
    """Solver parameters. ``None`` means "use the per-algorithm default",
    which for the ALM solvers follows the published tuning, except that EALM
    takes IALM's mu0 (the published 0.5 / ||sign(D)||_2 ignores the scale of D):

    * ``ialm``: mu0 = 1.25 / ||D||_2, rho = 1.6, eps1 = 1e-7, eps2 = 1e-5
    * ``ealm``: mu0 = 1.25 / ||D||_2, rho = 6, inner_tol = 1e-6
    * ``apg``:  mu0 = 0.99 * ||D||_2

    ``lam`` defaults to ``1/sqrt(rows)``. APG's eta and mu_bar and IT's tau
    and delta come from the module constants :data:`APG_ETA`,
    :data:`APG_MU_BAR_FACTOR`, :data:`IT_TAU_FACTOR` and :data:`IT_DELTA`.
    ``keep_iterates`` makes EALM and IALM keep one ``Iterate`` per outer step;
    IT and APG refuse it, having no ALM multiplier for the Lyapunov check.
    """

    lam: float | None = None
    mu0: float | None = None
    rho: float | None = None
    eps1: float = 1e-7
    eps2: float = 1e-5
    max_iter: int | None = None
    inner_tol: float = 1e-6
    keep_iterates: bool = False


@dataclass
class IterRecord:
    """One solver iteration: penalty value, scaled residuals, rank/support
    counts and the rank bookkeeping: ``sv_pred`` is the SVD dimension used (for
    EALM, by the last inner sweep), ``svp`` the count above the threshold."""

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
    """Per-iteration snapshot, on request: dense ``a``, ``e``, ``y`` (recovery),
    or a ``TruncatedSVD`` ``a``, no ``e`` and ``y`` on the samples (completion)."""

    a: np.ndarray
    e: np.ndarray | None
    y: np.ndarray
    mu: float


@dataclass
class SolveResult:
    """Any solver's outcome, with at least one trace record. Completion
    (``"mc-ialm"``) holds ``A`` as a ``TruncatedSVD`` (``A.s`` the thresholded
    singular values, ``A.compose()`` the dense matrix) and no ``E`` or ``Y``."""

    A: np.ndarray
    E: np.ndarray | None
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
        return self.trace[-1].objective

    def report(self, config=None, a_star=None):
        """The ``lowrank.solve.v1`` dict: config echo, counts (``e_card`` only
        with a dense ``E``), final residuals and the full trace. A nonzero
        final ``Y`` adds its gauge values, with lam from ``config`` or
        1/sqrt(rows); ``a_star`` adds the relative error of ``A``."""
        last = self.trace[-1]
        out = {
            "schema": "lowrank.solve.v1",
            "algorithm": self.algorithm,
            "converged": self.converged,
            "iterations": self.iterations,
            "svd_count": self.svd_count,
            "rank": self.rank,
            **({"e_card": self.e_card} if self.E is not None else {}),
            "final": {"feas": last.feas, "dual_est": last.dual_est, "objective": last.objective},
            "trace": [r.to_dict() for r in self.trace],
        }
        if config is not None:
            out["config"] = config.to_dict()
        Y = self.Y
        if Y is not None and Y.any():
            lam = config.lam if config is not None and config.lam is not None \
                else _default_lam(Y.shape[0])
            out["final"]["spectral_y"] = spectral_norm(Y)
            out["final"]["linf_y_over_lambda"] = float(np.abs(Y).max() / lam)
        if a_star is not None:
            out["rel_error"] = _rel_error(self.A, np.asarray(a_star))
        return out


def predict_rank(svp, sv, d, jump=None):
    """Next partial-SVD dimension, for recovery and completion: one more than
    the kept count while it is below ``sv``, else a jump (``None``: 5% of the
    small dimension), capped at ``d``."""
    if not (0 <= svp <= sv <= d):
        raise ValueError("expected 0 <= svp <= sv <= d")
    if svp < sv:
        return svp + 1
    return min(svp + (round_half_up(0.05 * d) if jump is None else jump), d)


def t_next(t):
    """The momentum weight after ``t``: (1 + sqrt(4 t^2 + 1)) / 2, from t_0 = 1."""
    return (1.0 + np.sqrt(4.0 * t * t + 1.0)) / 2.0


def _fro_norm(X, name):
    """||X||_F, the residuals' scale: ``ValueError`` unless X is zero or it
    is a positive finite double (else every stopping test reads NaN or 0)."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(X)
    if not 0.0 < norm < np.inf and X.any():
        raise ValueError(f"||{name}||_F is not a positive finite double at this scale "
                         f"(largest |entry| {np.abs(X).max():.3g}); rescale {name}")
    return norm


def _start(D, cfg, algorithm):
    """``(cfg, D, lam, ||D||_F, max_iter, min(m, n))`` with the defaults of
    ``algorithm``; ||D||_F is 0 only for a zero D. An empty D is a ``ValueError``,
    and so is ``keep_iterates`` for IT and APG, which have no ALM multiplier."""
    cfg = cfg or RpcaConfig()
    if cfg.keep_iterates and algorithm not in ("ealm", "ialm"):
        raise ValueError(f"{algorithm} cannot keep_iterates; EALM, IALM and completion can")
    D = as_matrix(D, "D")
    if not min(D.shape):
        raise ValueError(f"D must have positive dimensions, got shape {D.shape}")
    lam = cfg.lam if cfg.lam is not None else _default_lam(D.shape[0])
    return (cfg, D, lam, _fro_norm(D, "D"), cfg.max_iter or MAX_ITER_DEFAULTS[algorithm],
            min(D.shape))


def _record(k, mu, feas, dual, kept, svp, sv, E, lam):
    """The iteration's ``IterRecord``, with ||E||_1 and ||E||_0 from one pass of |E|."""
    abs_e = np.abs(E)
    obj = float(kept.s.sum() + lam * float(abs_e.sum()))
    return IterRecord(k, mu, feas, dual, svp, int((abs_e > ZERO_TOL).sum()), sv, svp, obj)


def _dual_start(X, norm2, lam):
    """The dual gauge X / max(||X||_2, ||X||_inf / lam), given ``norm2`` = ||X||_2."""
    return X / max(norm2, np.abs(X).max() / lam)


def _zero_result(D, algorithm):
    Z = np.zeros_like(D)
    rec = IterRecord(iter=1, mu=0.0, feas=0.0, dual_est=0.0, rank_a=0,
                     e_card=0, sv_pred=0, svp=0, objective=0.0)
    return SolveResult(A=Z, E=Z.copy(), converged=True, iterations=1,
                       svd_count=0, trace=[rec], algorithm=algorithm, Y=Z.copy())


def solve_it(D, cfg=None):
    """Dual-ascent iterative thresholding on the quadratically relaxed program.

    Each sweep applies singular value thresholding (threshold tau, with APG's
    predicted hint and warm start) and soft thresholding (threshold lam * tau)
    to the running multiplier, then takes a step of size :data:`IT_DELTA`
    along the constraint violation, with tau = :data:`IT_TAU_FACTOR` * ||D||_2
    (step-size choice for this method is known to be difficult; it is
    included for completeness, not speed).
    Stops once the scaled feasibility residual drops below ``eps1``; hitting
    ``max_iter`` returns ``converged=False`` with the full trace.
    """
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "it")
    if not dnorm:
        return _zero_result(D, "it")
    tau = IT_TAU_FACTOR * spectral_norm(D)
    sv = min(SV0_DEFAULTS["it"], d)

    Y = np.zeros_like(D)
    E_prev = np.zeros_like(D)
    trace = []
    kept = None
    for k in range(1, max_iter + 1):
        kept, svp, s_raw = svt_triplets(Y, tau, sv, v0=None if kept is None else kept.V)
        A = kept.compose()
        E = shrink(Y, lam * tau)
        R = D - A - E
        Y = Y + IT_DELTA * R
        feas = float(np.linalg.norm(R) / dnorm)
        dual = float(np.linalg.norm(E - E_prev) / dnorm)
        trace.append(_record(k, tau, feas, dual, kept, svp, len(s_raw), E, lam))
        E_prev = E
        sv = predict_rank(svp, len(s_raw), d)
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
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "apg")
    if not dnorm:
        return _zero_result(D, "apg")
    mu = cfg.mu0 if cfg.mu0 is not None else 0.99 * spectral_norm(D)
    mu_bar = APG_MU_BAR_FACTOR * mu
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
        sv_used = len(s_raw)
        trace.append(_record(k, mu_used, feas, dual, kept, svp, sv_used, E_next, lam))
        A_prev, A, E_prev, E = A, A_next, E, E_next
        t_prev, t = t, t_next(t)
        sv = predict_rank(svp, sv_used, d)
        converged = feas < cfg.eps1
        if converged:
            break
    return SolveResult(A, E, converged, k, k, trace, "apg")


def solve_ealm(D, cfg=None):
    """Exact augmented Lagrange multiplier method, run by :func:`_alm`.

    The multiplier starts at sign(D) scaled into the dual-feasible set, and
    the penalty at mu0 = :data:`ALM_MU0_FACTOR` / ||D||_2, as in IALM. Each
    outer step solves the (A, E) subproblem to tolerance ``inner_tol`` by
    alternating SVT and shrinkage from the previous solution, for at most
    :data:`EALM_MAX_INNER` sweeps, then takes an exact multiplier step; the
    penalty grows by ``rho`` after every step. Only a step whose inner solve
    met ``inner_tol`` can end the solve. ``svd_count`` sums all inner sweeps.
    """
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "ealm")
    if not dnorm:
        return _zero_result(D, "ealm")
    sgn = np.sign(D)
    Y = _dual_start(sgn, spectral_norm(sgn), lam)
    mu = cfg.mu0 if cfg.mu0 is not None else ALM_MU0_FACTOR / spectral_norm(D)
    rho = cfg.rho if cfg.rho is not None else 6.0
    A = E = np.zeros_like(D)
    kept = None
    svd_count = 0

    def step(k, mu, sv):
        nonlocal A, E, Y, kept, svd_count
        Aj, Ej = A, E
        for _ in range(EALM_MAX_INNER):
            kept, svp, s_raw = svt_triplets(D - Ej + Y / mu, 1.0 / mu, sv,
                                            v0=None if kept is None else kept.V)
            svd_count += 1
            Aj1 = kept.compose()
            Ej1 = shrink(D - Aj1 + Y / mu, lam / mu)
            inner_met = (np.linalg.norm(Aj1 - Aj) / dnorm < cfg.inner_tol
                         and np.linalg.norm(Ej1 - Ej) / dnorm < cfg.inner_tol)
            Aj, Ej = Aj1, Ej1
            if inner_met:
                break
            sv = predict_rank(svp, len(s_raw), d)
        dual = float(mu * np.linalg.norm(Ej - E) / dnorm)
        A, E = Aj, Ej
        R = D - A - E
        Y = Y + mu * R
        feas = float(np.linalg.norm(R) / dnorm)
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam)
        return rec, inner_met, True, lambda: Iterate(A, E, Y, mu)

    converged, trace, iterates = _alm(step, cfg, mu, rho, min(SV0_DEFAULTS["ealm"], d), d,
                                      max_iter)
    return SolveResult(A, E, converged, len(trace), svd_count, trace, "ealm", Y=Y,
                       iterates=iterates)


def solve_ialm(D, cfg=None):
    """Inexact augmented Lagrange multiplier method, run by :func:`_alm`: each
    sweep (:func:`_ialm_sweep`) shrinks E against the previous A, thresholds A,
    then steps the multiplier by mu_k along the residual. The dual surrogate
    mu_k * ||E_{k+1} - E_k||_F / ||D||_F below ``eps2`` grows the penalty by
    ``rho`` and meets the dual half of the stopping test.
    """
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "ialm")
    if not dnorm:
        return _zero_result(D, "ialm")
    norm2 = spectral_norm(D)
    mu = cfg.mu0 if cfg.mu0 is not None else ALM_MU0_FACTOR / norm2
    rho = cfg.rho if cfg.rho is not None else IALM_RHO
    Y = _dual_start(D, norm2, lam)
    A = np.zeros_like(D)
    E = np.zeros_like(D)
    kept = None

    def step(k, mu, sv):
        nonlocal A, E, Y, kept
        E_next, A, Y, r_norm, kept, svp, s_raw = _ialm_sweep(
            D, A, Y, mu, lam, sv, None if kept is None else kept.V)
        feas = float(r_norm / dnorm)
        dual = float(mu * np.linalg.norm(E_next - E) / dnorm)
        E = E_next
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam)
        return rec, dual < cfg.eps2, dual < cfg.eps2, lambda: Iterate(A, E, Y, mu)

    converged, trace, iterates = _alm(step, cfg, mu, rho, min(SV0_DEFAULTS["ialm"], d), d,
                                      max_iter)
    return SolveResult(A, E, converged, len(trace), len(trace), trace, "ialm", Y=Y,
                       iterates=iterates)


def _alm(step, cfg, mu, rho, sv, d, max_iter, jump=None):
    """The ALM loop of the exact, inexact and completion solvers. ``step(k, mu,
    sv)`` runs outer step k at penalty ``mu`` from an SVD of size ``sv`` and
    returns ``(record, dual_ok, grow, snapshot)``. The loop keeps the trace and,
    with ``cfg.keep_iterates``, the step's ``snapshot()`` (no copies: no solver
    changes an array it made), takes the next size from ``predict_rank`` with
    ``jump``, stops once ``record.feas < cfg.eps1`` and ``dual_ok``, and else
    grows mu by ``rho`` if ``grow``, ending unconverged where rho * mu is not a
    finite double. Returns ``(converged, trace, iterates)``."""
    trace = []
    iterates = [] if cfg.keep_iterates else None
    for k in range(1, max_iter + 1):
        rec, dual_ok, grow, snapshot = step(k, mu, sv)
        trace.append(rec)
        if iterates is not None:
            iterates.append(snapshot())
        sv = predict_rank(rec.rank_a, rec.sv_pred, d, jump)
        if rec.feas < cfg.eps1 and dual_ok:
            return True, trace, iterates
        if grow:
            with np.errstate(over="ignore"):
                mu = rho * mu
            if mu == np.inf:
                break
    return False, trace, iterates


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
