"""The package's public surface, pinned: a name added to or dropped from
``lowrank.__all__`` or a config dataclass must show up here."""

import dataclasses

import lowrank
from lowrank import McConfig, RpcaConfig

PUBLIC = [
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


def test_public_names():
    assert lowrank.__all__ == PUBLIC
    for name in lowrank.__all__:
        assert getattr(lowrank, name) is not None


def test_config_fields():
    assert [f.name for f in dataclasses.fields(RpcaConfig)] == [
        "lam", "mu0", "rho", "eps1", "eps2", "max_iter", "inner_tol", "keep_iterates"]
    assert [f.name for f in dataclasses.fields(McConfig)] == [
        "mu0", "rho", "eps1", "eps2", "max_iter", "keep_iterates"]
