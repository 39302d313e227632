"""Low-rank plus sparse matrix recovery and matrix completion.

Solvers for the convex program min ||A||_* + lam ||E||_1 s.t. A + E = D
(iterative thresholding, accelerated proximal gradient, exact and inexact
augmented Lagrange multiplier methods), an inexact-ALM matrix completion
solver with factored iterates, deterministic synthetic instance generation,
convergence diagnostics and a CLI benchmark harness.

Events worth a user's attention, such as a matrix-free operator densified for
a full SVD, go to the ``lowrank`` logger, which has a ``NullHandler``.
"""

import logging

from .linalg import (
    ObservedSet,
    SparsePlusLowRank,
    TruncatedSVD,
    shrink,
    truncated_svd,
)
from .problems import McInstance, RpcaInstance, gen_mc, gen_rpca
from .rpca import (
    IterRecord,
    RpcaConfig,
    SolveResult,
    predict_rank,
    solve_apg,
    solve_ealm,
    solve_ialm,
    solve_it,
)
from .mc import (
    FactoredMatrix,
    McConfig,
    rho_from_density,
    solve_mc_ialm,
)
from .diagnostics import divergence_demo, lyapunov_increases, lyapunov_trace

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ObservedSet",
    "SparsePlusLowRank",
    "TruncatedSVD",
    "shrink",
    "truncated_svd",
    "McInstance",
    "RpcaInstance",
    "gen_mc",
    "gen_rpca",
    "IterRecord",
    "RpcaConfig",
    "SolveResult",
    "predict_rank",
    "solve_apg",
    "solve_ealm",
    "solve_ialm",
    "solve_it",
    "FactoredMatrix",
    "McConfig",
    "rho_from_density",
    "solve_mc_ialm",
    "divergence_demo",
    "lyapunov_increases",
    "lyapunov_trace",
]
