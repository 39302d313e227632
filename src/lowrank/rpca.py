"""Four solvers for the low-rank plus sparse decomposition program

    min ||A||_* + lam * ||E||_1   subject to   A + E = D:

dual-ascent iterative thresholding (``solve_it``), an accelerated proximal
gradient method with continuation (``solve_apg``), and exact / inexact
augmented Lagrange multiplier methods (``solve_ealm`` / ``solve_ialm``).
All four share one config, result and trace model, and one loop
(:func:`_loop`), with the completion solver.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .linalg import as_matrix, shrink, spectral_norm, svt_triplets
from .problems import _default_lam, _rel_error

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

MAX_ITER_DEFAULTS = {"it": 100_000, "apg": 1000, "ealm": 10_000, "ialm": 1000}
SV0_DEFAULTS = {"it": 5, "apg": 5, "ealm": 10, "ialm": 10, "mc-ialm": 5}
# predict_rank's step once the kept count fills the partial-SVD size just used.
SV_JUMP = 10
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
    ``max_iter`` counts SVTs, for every solver. ``keep_iterates`` makes EALM
    and IALM keep one ``Iterate`` per multiplier step; IT and APG refuse it,
    having no ALM multiplier for the Lyapunov check.
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
    """One solver iteration, one SVT: penalty value, scaled residuals,
    rank/support counts and the rank bookkeeping: ``sv_pred`` is the SVD
    dimension used (0: no SVD), ``svp`` the count above the threshold."""

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
    trace: list[IterRecord]
    algorithm: str
    Y: np.ndarray | None = None
    iterates: list[Iterate] | None = None

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def svd_count(self):
        return sum(1 for r in self.trace if r.sv_pred > 0)

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


def predict_rank(svp, sv, d):
    """Next partial-SVD dimension, for all five solvers: ``svp + 1`` while the
    kept count ``svp`` is below the size ``sv`` just used, else ``svp +``
    :data:`SV_JUMP`, capped at ``d``. Recovery's SVT doubles a saturated hint
    inside the call, so its count fills ``sv`` only at ``sv == d``, where
    either rule gives ``d``."""
    if not (0 <= svp <= sv <= d):
        raise ValueError("expected 0 <= svp <= sv <= d")
    if svp < sv:
        return svp + 1
    return min(svp + SV_JUMP, d)


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


def _record(k, mu, feas, dual, kept, svp, sv, E, lam, work=None):
    """The iteration's ``IterRecord``, with ||E||_1 and ||E||_0 from one pass of
    |E|, made into ``work`` when given."""
    abs_e = np.abs(E, out=work)
    obj = float(kept.s.sum() + lam * float(abs_e.sum()))
    return IterRecord(k, mu, feas, dual, svp, int((abs_e > ZERO_TOL).sum()), sv, svp, obj)


def _dual_start(X, norm2, lam):
    """The dual gauge X / max(||X||_2, ||X||_inf / lam), given ``norm2`` = ||X||_2."""
    return X / max(norm2, np.abs(X).max() / lam)


def _zero_result(D, algorithm):
    Z = np.zeros_like(D)
    rec = IterRecord(iter=1, mu=0.0, feas=0.0, dual_est=0.0, rank_a=0,
                     e_card=0, sv_pred=0, svp=0, objective=0.0)
    return SolveResult(Z, Z.copy(), True, [rec], algorithm, Y=Z.copy())


def solve_it(D, cfg=None):
    """Dual-ascent iterative thresholding on the quadratically relaxed program,
    run by :func:`_loop` at the fixed penalty tau = :data:`IT_TAU_FACTOR` * ||D||_2.

    Each sweep applies singular value thresholding (threshold tau, with APG's
    predicted hint and warm start) and soft thresholding (threshold lam * tau)
    to the running multiplier, then takes a step of size :data:`IT_DELTA`
    along the constraint violation (step-size choice for this method is known
    to be difficult; it is included for completeness, not speed).
    Stops once the scaled feasibility residual drops below ``eps1``; hitting
    ``max_iter`` returns ``converged=False`` with the full trace.
    """
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "it")
    if not dnorm:
        return _zero_result(D, "it")
    tau = IT_TAU_FACTOR * spectral_norm(D)
    A = E = Y = np.zeros_like(D)
    kept = None

    def step(k, tau, sv):
        nonlocal A, E, Y, kept
        kept, svp, s_raw = svt_triplets(Y, tau, sv, v0=None if kept is None else kept.V)
        A = kept.compose()
        E_next = shrink(Y, lam * tau)
        R = D - A - E_next
        Y = Y + IT_DELTA * R
        feas = float(np.linalg.norm(R) / dnorm)
        dual = float(np.linalg.norm(E_next - E) / dnorm)
        E = E_next
        return _record(k, tau, feas, dual, kept, svp, len(s_raw), E, lam), True, tau, None

    converged, trace, _ = _loop(step, cfg, tau, min(SV0_DEFAULTS["it"], d), d, max_iter)
    return SolveResult(A, E, converged, trace, "it", Y=Y)


def solve_apg(D, cfg=None):
    """Accelerated proximal gradient with geometric continuation, run by
    :func:`_loop`.

    Momentum points for both blocks share the weight (t_{k-1} - 1) / t_k;
    each iteration takes half-step gradient corrections, one SVT at
    mu_k / 2, one shrink at lam * mu_k / 2, then decays the smoothing
    parameter by :data:`APG_ETA` down to the floor
    :data:`APG_MU_BAR_FACTOR` * mu0. Stops on feasibility alone.
    """
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "apg")
    if not dnorm:
        return _zero_result(D, "apg")
    mu = cfg.mu0 if cfg.mu0 is not None else 0.99 * spectral_norm(D)
    mu_bar = APG_MU_BAR_FACTOR * mu
    A = A_prev = E = E_prev = np.zeros_like(D)
    t = t_prev = 1.0
    kept = None

    def step(k, mu, sv):
        nonlocal A, A_prev, E, E_prev, t, t_prev, kept
        coef = (t_prev - 1.0) / t
        YA = A + coef * (A - A_prev)
        YE = E + coef * (E - E_prev)
        half = 0.5 * (YA + YE - D)
        kept, svp, s_raw = svt_triplets(YA - half, mu / 2.0, sv,
                                        v0=None if kept is None else kept.V)
        A_prev, A = A, kept.compose()
        E_prev, E = E, shrink(YE - half, lam * mu / 2.0)
        t_prev, t = t, t_next(t)
        feas = float(np.linalg.norm(D - A - E) / dnorm)
        dual = float(mu * np.linalg.norm(E - E_prev) / dnorm)
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam)
        return rec, True, max(APG_ETA * mu, mu_bar), None

    converged, trace, _ = _loop(step, cfg, mu, min(SV0_DEFAULTS["apg"], d), d, max_iter)
    return SolveResult(A, E, converged, trace, "apg")


def solve_ealm(D, cfg=None):
    """Exact augmented Lagrange multiplier method, run by :func:`_loop`.

    The multiplier starts at sign(D) scaled into the dual-feasible set, and
    the penalty at mu0 = :data:`ALM_MU0_FACTOR` / ||D||_2, as in IALM. Each
    step is one sweep from the last A and E: SVT of D - E + Y / mu at 1 / mu,
    then shrinkage at lam / mu. A sweep that moves A and E by less than
    ``inner_tol`` * ||D||_F has solved the subproblem: it alone takes the exact
    multiplier step, grows the penalty by ``rho`` and can end the solve.
    ``dual_est`` measures E against E_k, the E of the last multiplier step.
    """
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "ealm")
    if not dnorm:
        return _zero_result(D, "ealm")
    sgn = np.sign(D)
    Y = _dual_start(sgn, spectral_norm(sgn), lam)
    mu = cfg.mu0 if cfg.mu0 is not None else ALM_MU0_FACTOR / spectral_norm(D)
    rho = cfg.rho if cfg.rho is not None else 6.0
    A = E = E_k = np.zeros_like(D)
    kept = None

    def step(k, mu, sv):
        nonlocal A, E, E_k, Y, kept
        kept, svp, s_raw = svt_triplets(D - E + Y / mu, 1.0 / mu, sv,
                                        v0=None if kept is None else kept.V)
        A_next = kept.compose()
        E_next = shrink(D - A_next + Y / mu, lam / mu)
        solved = (np.linalg.norm(A_next - A) / dnorm < cfg.inner_tol
                  and np.linalg.norm(E_next - E) / dnorm < cfg.inner_tol)
        A, E = A_next, E_next
        R = D - A - E
        feas = float(np.linalg.norm(R) / dnorm)
        dual = float(mu * np.linalg.norm(E - E_k) / dnorm)
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam)
        if not solved:
            return rec, False, mu, None
        Y, E_k = Y + mu * R, E
        return rec, True, _grow(mu, rho), lambda: Iterate(A, E, Y, mu)

    converged, trace, iterates = _loop(step, cfg, mu, min(SV0_DEFAULTS["ealm"], d), d, max_iter)
    return SolveResult(A, E, converged, trace, "ealm", Y=Y, iterates=iterates)


def solve_ialm(D, cfg=None):
    """Inexact augmented Lagrange multiplier method, run by :func:`_loop`: each
    sweep (:func:`_ialm_sweep`) shrinks E against the previous A, thresholds A,
    then steps the multiplier by mu_k along the residual. The dual surrogate
    mu_k * ||E_{k+1} - E_k||_F / ||D||_F below ``eps2`` grows the penalty by
    ``rho`` and meets the dual half of the stopping test. Besides D and the
    SVT's own workspace, the solve runs in four dense arrays: A, E and Y,
    updated in place, and one work matrix; kept iterates are copies.
    """
    cfg, D, lam, dnorm, max_iter, d = _start(D, cfg, "ialm")
    if not dnorm:
        return _zero_result(D, "ialm")
    norm2 = spectral_norm(D)
    mu = cfg.mu0 if cfg.mu0 is not None else ALM_MU0_FACTOR / norm2
    rho = cfg.rho if cfg.rho is not None else IALM_RHO
    Y = _dual_start(D, norm2, lam)
    A, E, T = np.zeros(D.shape), np.zeros(D.shape), np.empty(D.shape)
    kept = None

    def step(k, mu, sv):
        nonlocal A, E, kept
        A, E, de_norm, r_norm, kept, svp, s_raw = _ialm_sweep(
            D, A, E, Y, T, mu, lam, sv, None if kept is None else kept.V)
        feas = float(r_norm / dnorm)
        dual = float(mu * de_norm / dnorm)
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam, work=T)
        ok = dual < cfg.eps2
        return (rec, ok, _grow(mu, rho) if ok else mu,
                lambda: Iterate(A.copy(), E.copy(), Y.copy(), mu))

    converged, trace, iterates = _loop(step, cfg, mu, min(SV0_DEFAULTS["ialm"], d), d, max_iter)
    return SolveResult(A, E, converged, trace, "ialm", Y=Y, iterates=iterates)


def _loop(step, cfg, mu, sv, d, max_iter):
    """The loop of all five solvers. ``step(k, mu, sv)`` runs step k, one SVT,
    at penalty ``mu`` (IT's tau) from an SVD of size ``sv`` and returns ``(record,
    dual_ok, mu_next, snapshot)``: the step owns its penalty schedule. The loop
    keeps the trace and, with ``cfg.keep_iterates``, ``snapshot()`` where it is
    not None (called before the next step, so a solver that updates its arrays
    in place, as IALM does, snapshots copies of them), takes the next
    size from ``predict_rank``, stops once ``record.feas < cfg.eps1`` and
    ``dual_ok``, and else goes on at ``mu_next``, ending unconverged where
    that is not a finite double. Returns ``(converged, trace, iterates)``."""
    trace = []
    iterates = [] if cfg.keep_iterates else None
    for k in range(1, max_iter + 1):
        rec, dual_ok, mu, snapshot = step(k, mu, sv)
        trace.append(rec)
        if iterates is not None and snapshot is not None:
            iterates.append(snapshot())
        sv = predict_rank(rec.rank_a, rec.sv_pred, d)
        if rec.feas < cfg.eps1 and dual_ok:
            return True, trace, iterates
        if not mu < np.inf:
            break
    return False, trace, iterates


def _grow(mu, rho):
    """The ALM penalty step rho * mu, inf where it overflows (which ends the solve)."""
    with np.errstate(over="ignore"):
        return rho * mu


def _ialm_sweep(D, A, E, Y, T, mu, lam, sv, v0):
    """One inexact-ALM sweep at penalty ``mu``, in place over the dense arrays
    A, E, Y and the work matrix T: shrink E against A, threshold A (hint
    ``sv``, warm start ``v0``), step Y along R = D - A - E. It allocates no
    full-size array of its own; each value is formed in the order
    ``shrink(D - A + Y / mu)``, ``D - E + Y / mu`` and ``Y + mu * R`` would
    form it, so the bits are theirs. Returns ``(A, E, ||E - E_prev||_F,
    ||R||_F, kept, svp, s_raw)``: the new E lands in the old A's array and the
    new A in the old E's, so the caller takes both back; Y is updated where it
    is and T holds no result."""
    np.subtract(D, A, out=T)
    T += np.divide(Y, mu, out=A)
    shrink(T, lam / mu, out=A)
    de_norm = np.linalg.norm(np.subtract(A, E, out=T))
    A, E = E, A
    np.subtract(D, E, out=T)
    T += np.divide(Y, mu, out=A)
    kept, svp, s_raw = svt_triplets(T, 1.0 / mu, sv, v0=v0)
    kept.compose(out=A)
    np.subtract(D, A, out=T)
    T -= E
    r_norm = np.linalg.norm(T)
    T *= mu
    Y += T
    return A, E, de_norm, r_norm, kept, svp, s_raw
