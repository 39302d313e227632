"""Three solvers for the low-rank plus sparse decomposition program

    min ||A||_* + lam * ||E||_1   subject to   A + E = D:

an accelerated proximal gradient method with continuation (``solve_apg``),
and exact / inexact augmented Lagrange multiplier methods (``solve_ealm`` /
``solve_ialm``). All three share one config, result and trace model, and one
loop (:func:`_loop`), with the completion solver; both ALM methods run one
sweep (:func:`_sweep`)."""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace

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
    "solve_apg",
    "solve_ealm",
    "solve_ialm",
]

# Entries at or below this magnitude count as zeros when reporting ||E||_0;
# soft thresholding produces exact zeros, so this is a safety margin only.
ZERO_TOL = 1e-12

MAX_ITER_DEFAULTS = {"apg": 1000, "ealm": 10_000, "ialm": 1000, "mc-ialm": 500}
SV0_DEFAULTS = {"apg": 5, "ealm": 10, "ialm": 10, "mc-ialm": 5}
# predict_rank's step once the kept count fills the partial-SVD size just used.
SV_JUMP = 10
# EALM and IALM: mu0 = ALM_MU0_FACTOR / ||D||_2, which scales with D. IALM's mu
# grows by IALM_RHO when the dual surrogate < eps2.
ALM_MU0_FACTOR = 1.25
IALM_RHO = 1.6
# APG continuation: mu decays by APG_ETA per iteration down to APG_MU_BAR_FACTOR * mu0.
APG_ETA = 0.9
APG_MU_BAR_FACTOR = 1e-9
# The solvers with a multiplier of the program.
_ALM = ("ealm", "ialm")


@dataclass
class _Config:
    """What the recovery and completion configs share: the checks on their
    values, and the echo that goes into a report."""

    def __post_init__(self):
        for name, v in vars(self).items():
            # None means "the default" where there is one; a tolerance has none
            if name in ("max_iter", "keep_iterates") or v is None and name in ("lam", "mu0", "rho"):
                continue
            low = 1 if name == "rho" else 0
            if v is None or not low < v < np.inf:
                raise ValueError(f"{name} must be finite and exceed {low}, got {v}")
        n = self.max_iter
        if n is not None and (isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1):
            raise ValueError(f"max_iter must be a positive int, got {n!r}")
        if not isinstance(self.keep_iterates, (bool, np.bool_)):
            raise ValueError(f"keep_iterates must be a bool, got {self.keep_iterates!r}")

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

    ``lam`` defaults to ``1/sqrt(rows)``. APG's eta and mu_bar come from the
    module constants :data:`APG_ETA` and :data:`APG_MU_BAR_FACTOR`.
    ``max_iter`` counts SVTs, for every solver. ``keep_iterates`` makes EALM
    and IALM keep one ``Iterate`` per multiplier step; APG refuses it, having
    no ALM multiplier for the Lyapunov check. A solver ignores the fields it
    does not read: EALM never reads ``eps2``, and APG reads neither ``rho``
    nor ``eps2``.
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
    """Any solver's outcome, with at least one trace record, EALM's or IALM's
    multiplier ``Y``, and the ``config`` the solve ran, with the ``lam`` (a
    recovery solve's), ``mu0`` and ``rho`` it took in place of the defaults (a
    zero D resolves ``lam`` alone). Completion (``"mc-ialm"``) holds ``A`` as
    a ``TruncatedSVD`` (``A.s`` the thresholded singular values,
    ``A.compose()`` the dense matrix), no ``E`` or ``Y``, and an ``McConfig``."""

    A: np.ndarray
    E: np.ndarray | None
    converged: bool
    trace: list[IterRecord]
    algorithm: str
    Y: np.ndarray | None = None
    iterates: list[Iterate] | None = None
    config: _Config | None = None

    @property
    def lam(self):
        """The sparsity weight of a recovery solve; None for completion."""
        return getattr(self.config, "lam", None)

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
        """The ``lowrank.solve.v1`` dict: config echo (``config``, else the
        result's own), counts (``e_card`` only with a dense ``E``), final
        residuals and the full trace. A nonzero final ``Y`` adds its gauge
        values against the solve's ``lam``; ``a_star`` adds the relative error
        of ``A``."""
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
        config = config if config is not None else self.config
        if config is not None:
            out["config"] = config.to_dict()
        Y = self.Y
        if Y is not None and Y.any():
            out["final"]["spectral_y"] = spectral_norm(Y)
            out["final"]["linf_y_over_lambda"] = float(np.abs(Y).max() / self.lam)
        if a_star is not None:
            out["rel_error"] = _rel_error(self.A, np.asarray(a_star))
        return out


def predict_rank(svp, sv, d):
    """Next partial-SVD dimension, for all four solvers: ``svp + 1`` while the
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
    """``(cfg, D, lam, ||D||_F, min(m, n))``, ``cfg`` with ``lam`` resolved;
    ||D||_F is 0 only for a zero D. An empty D is a ``ValueError``, and so is
    ``keep_iterates`` for APG, which has no ALM multiplier."""
    cfg = cfg or RpcaConfig()
    if cfg.keep_iterates and algorithm not in _ALM:
        raise ValueError(f"{algorithm} cannot keep_iterates; EALM, IALM and completion can")
    D = as_matrix(D, "D")
    if not min(D.shape):
        raise ValueError(f"D must have positive dimensions, got shape {D.shape}")
    lam = cfg.lam if cfg.lam is not None else _default_lam(D.shape[0])
    return replace(cfg, lam=lam), D, lam, _fro_norm(D, "D"), min(D.shape)


def _record(k, mu, feas, dual, kept, svp, sv, E, lam, work=None):
    """The iteration's ``IterRecord``, with ||E||_1 and ||E||_0 from one pass of
    |E|, made into ``work`` when given."""
    abs_e = np.abs(E, out=work)
    obj = float(kept.s.sum() + lam * float(abs_e.sum()))
    return IterRecord(k, mu, feas, dual, svp, int(np.count_nonzero(abs_e > ZERO_TOL)), sv, svp, obj)


def _dual_start(X, norm2, lam):
    """The dual gauge X / max(||X||_2, ||X||_inf / lam), given ``norm2`` = ||X||_2."""
    return X / max(norm2, np.abs(X).max() / lam)


def _zero_result(D, algorithm, cfg):
    Z = np.zeros_like(D)
    rec = IterRecord(iter=1, mu=0.0, feas=0.0, dual_est=0.0, rank_a=0,
                     e_card=0, sv_pred=0, svp=0, objective=0.0)
    Y = Z.copy() if algorithm in _ALM else None
    return SolveResult(Z, Z.copy(), True, [rec], algorithm, Y=Y, config=cfg)


def solve_apg(D, cfg=None):
    """Accelerated proximal gradient with geometric continuation, run by
    :func:`_loop`.

    Momentum points for both blocks share the weight (t_{k-1} - 1) / t_k;
    each iteration takes half-step gradient corrections, one SVT at
    mu_k / 2, one shrink at lam * mu_k / 2, then decays the smoothing
    parameter by :data:`APG_ETA` down to the floor
    :data:`APG_MU_BAR_FACTOR` * mu0. Stops on feasibility alone.
    """
    cfg, D, lam, dnorm, d = _start(D, cfg, "apg")
    if not dnorm:
        return _zero_result(D, "apg", cfg)
    mu = mu0 = cfg.mu0 if cfg.mu0 is not None else 0.99 * spectral_norm(D)
    mu_bar = APG_MU_BAR_FACTOR * mu
    A, A_prev, E, E_prev = (np.zeros(D.shape) for _ in range(4))
    YA, YE, T = (np.empty(D.shape) for _ in range(3))
    t = t_prev = 1.0
    block = None

    def step(k, mu, sv):
        # in place over seven arrays, each value formed in the order of the
        # formulas YA = A + coef * (A - A_prev), half = 0.5 * (YA + YE - D),
        # YA - half and YE - half, so the bits are theirs; T holds no result
        nonlocal A, A_prev, E, E_prev, YA, YE, T, t, t_prev, block
        coef = (t_prev - 1.0) / t
        np.add(A, np.multiply(np.subtract(A, A_prev, out=YA), coef, out=YA), out=YA)
        np.add(E, np.multiply(np.subtract(E, E_prev, out=YE), coef, out=YE), out=YE)
        np.add(YA, YE, out=T)
        T -= D
        T *= 0.5
        YA -= T
        kept, svp, s_raw, block = svt_triplets(YA, mu / 2.0, sv, v0=block)
        A_prev, A = A, kept.compose(out=A_prev)
        YE -= T
        E_prev, E = E, shrink(YE, lam * mu / 2.0, out=E_prev)
        t_prev, t = t, t_next(t)
        np.subtract(D, A, out=T)
        T -= E
        feas = float(np.linalg.norm(T) / dnorm)
        dual = float(mu * np.linalg.norm(np.subtract(E, E_prev, out=T)) / dnorm)
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam, work=T)
        return rec, True, max(APG_ETA * mu, mu_bar), None

    converged, trace, _ = _loop(step, cfg, mu, d, "apg")
    return SolveResult(A, E, converged, trace, "apg", config=replace(cfg, mu0=mu0))


def solve_ealm(D, cfg=None):
    """Exact augmented Lagrange multiplier method, run by :func:`_loop`.

    The multiplier starts at sign(D) scaled into the dual-feasible set, and
    the penalty at mu0 = :data:`ALM_MU0_FACTOR` / ||D||_2, as in IALM. Each
    step is IALM's sweep (:func:`_sweep`) from the last A and E. A sweep that
    moves A and E by less than ``inner_tol`` * ||D||_F has solved the
    subproblem: it alone takes the exact multiplier step, grows the penalty by
    ``rho`` and can end the solve. ``dual_est`` measures E against E_k, the E
    of the last multiplier step.
    """
    cfg, D, lam, dnorm, d = _start(D, cfg, "ealm")
    if not dnorm:
        return _zero_result(D, "ealm", cfg)
    Y = np.sign(D)
    Y = _dual_start(Y, spectral_norm(Y), lam)  # and sign(D) is freed
    mu = mu0 = cfg.mu0 if cfg.mu0 is not None else ALM_MU0_FACTOR / spectral_norm(D)
    rho = cfg.rho if cfg.rho is not None else 6.0
    A, E, E_k = (np.zeros(D.shape) for _ in range(3))
    T, X = np.empty(D.shape), np.empty(D.shape)
    block = None

    def step(k, mu, sv):
        # the new E lands in the spare X, so the old A survives for ||dA||;
        # then R = D - A - E and, on a solved sweep, Y + mu * R, in that order
        nonlocal A, E, X, Y, T, block
        kept, svp, s_raw, block, de_norm = _sweep(D, A, E, X, Y, T, mu, lam, sv, block)
        A, E, X = E, X, A
        solved = max(np.linalg.norm(np.subtract(A, X, out=T)), de_norm) / dnorm < cfg.inner_tol
        np.subtract(D, A, out=T)
        T -= E
        feas = float(np.linalg.norm(T) / dnorm)
        dual = float(mu * np.linalg.norm(np.subtract(E, E_k, out=X)) / dnorm)
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam, work=X)
        if not solved:
            return rec, False, mu, None
        Y += np.multiply(T, mu, out=T)
        np.copyto(E_k, E)
        return rec, True, _grow(mu, rho), lambda: Iterate(A.copy(), E.copy(), Y.copy(), mu)

    converged, trace, iterates = _loop(step, cfg, mu, d, "ealm")
    return SolveResult(A, E, converged, trace, "ealm", Y=Y, iterates=iterates,
                       config=replace(cfg, mu0=mu0, rho=rho))


def solve_ialm(D, cfg=None):
    """Inexact augmented Lagrange multiplier method, run by :func:`_loop`: each
    sweep (:func:`_sweep`) shrinks E against the previous A and thresholds A,
    then steps the multiplier by mu_k along the residual. The dual surrogate
    mu_k * ||E_{k+1} - E_k||_F / ||D||_F below ``eps2`` grows the penalty by
    ``rho`` and meets the dual half of the stopping test. Besides D and the
    SVT's own workspace, the solve runs in four dense arrays: A, E and Y,
    updated in place, and one work matrix; kept iterates are copies.
    """
    cfg, D, lam, dnorm, d = _start(D, cfg, "ialm")
    if not dnorm:
        return _zero_result(D, "ialm", cfg)
    norm2 = spectral_norm(D)
    mu = mu0 = cfg.mu0 if cfg.mu0 is not None else ALM_MU0_FACTOR / norm2
    rho = cfg.rho if cfg.rho is not None else IALM_RHO
    Y = _dual_start(D, norm2, lam)
    A, E, T = np.zeros(D.shape), np.zeros(D.shape), np.empty(D.shape)
    block = None

    def step(k, mu, sv):
        # the sweep in place, then R = D - A - E and Y + mu * R formed in
        # that order, so the bits are theirs; T holds no result
        nonlocal A, E, Y, T, block
        kept, svp, s_raw, block, de_norm = _sweep(D, A, E, A, Y, T, mu, lam, sv, block)
        A, E = E, A
        np.subtract(D, A, out=T)
        T -= E
        r_norm = np.linalg.norm(T)
        T *= mu
        Y += T
        feas = float(r_norm / dnorm)
        dual = float(mu * de_norm / dnorm)
        rec = _record(k, mu, feas, dual, kept, svp, len(s_raw), E, lam, work=T)
        ok = dual < cfg.eps2
        return (rec, ok, _grow(mu, rho) if ok else mu,
                lambda: Iterate(A.copy(), E.copy(), Y.copy(), mu))

    converged, trace, iterates = _loop(step, cfg, mu, d, "ialm")
    return SolveResult(A, E, converged, trace, "ialm", Y=Y, iterates=iterates,
                       config=replace(cfg, mu0=mu0, rho=rho))


def _sweep(D, A, E, W, Y, T, mu, lam, sv, block):
    """One alternating sweep of EALM and IALM, in place with ``T`` as workspace:
    E' = shrink(D - A + Y / mu) at lam / mu into ``W`` (which may be ``A``,
    read first), then A' = SVT(D - E' + Y / mu) at 1 / mu into E's array, each
    value formed in the order of those formulas, so the bits are theirs.
    Returns the SVT's ``(kept, svp, s_raw, block)`` and ||E' - E||_F."""
    np.subtract(D, A, out=T)
    T += np.divide(Y, mu, out=W)
    shrink(T, lam / mu, out=W)
    de_norm = np.linalg.norm(np.subtract(W, E, out=T))
    np.subtract(D, W, out=T)
    T += np.divide(Y, mu, out=E)
    kept, svp, s_raw, block = svt_triplets(T, 1.0 / mu, sv, v0=block)
    kept.compose(out=E)
    return kept, svp, s_raw, block, de_norm


def _loop(step, cfg, mu, d, algorithm):
    """The loop of all four solvers, which owns the run: it starts at the SVD
    size ``SV0_DEFAULTS[algorithm]``, at most ``d`` = min(m, n), and takes at
    most ``cfg.max_iter`` steps, or ``MAX_ITER_DEFAULTS[algorithm]`` for None.
    ``step(k, mu, sv)`` runs step k, one SVT, at penalty ``mu`` from an SVD
    of size ``sv`` and returns ``(record, dual_ok, mu_next, snapshot)``: the
    step owns its penalty schedule. The loop keeps the trace and, with
    ``cfg.keep_iterates``, ``snapshot()`` where it is not None (called before
    the next step, so a solver that updates its arrays in place, as EALM and
    IALM do, snapshots copies of them), takes the next size from
    ``predict_rank``, stops once ``record.feas < cfg.eps1`` and ``dual_ok``,
    and else goes on at ``mu_next``, ending unconverged where that is not a
    finite double. Returns ``(converged, trace, iterates)``."""
    trace = []
    iterates = [] if cfg.keep_iterates else None
    sv = min(SV0_DEFAULTS[algorithm], d)
    for k in range(1, (cfg.max_iter or MAX_ITER_DEFAULTS[algorithm]) + 1):
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
