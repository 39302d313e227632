import json

import numpy as np
import pytest

from lowrank import io as mio
from lowrank.cli import main
from lowrank.linalg import ObservedSet
from lowrank.problems import gen_rpca


def run(*argv):
    return main(list(argv))


def test_gen_rpca_writes_instance(tmp_path):
    out = tmp_path / "inst"
    assert run("gen", "--kind", "rpca", "--m", "24", "--r", "2",
               "--frac", "0.05", "--seed", "7", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["m"] == 24 and manifest["r"] == 2 and manifest["e_card"] == 29
    D = mio.read_dense_csv(out / "d.csv")
    A = mio.read_dense_csv(out / "a_star.csv")
    E = mio.read_dense_csv(out / "e_star.csv")
    assert np.array_equal(D, A + E)


def test_gen_manifest_lambda_is_the_solvers(tmp_path):
    # at m = 22, m ** -0.5 and 1 / sqrt(m) differ in the last bit
    assert 22 ** -0.5 != 1.0 / np.sqrt(22)
    out = tmp_path / "inst"
    assert run("gen", "--kind", "rpca", "--m", "22", "--r", "2",
               "--seed", "1", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["lambda"] == 1.0 / np.sqrt(22) == gen_rpca(22, 2, 0.05, 1).lam
    out = tmp_path / "mc"
    assert run("gen", "--kind", "mc", "--m", "22", "--r", "2", "--p", "100",
               "--seed", "1", "--out", str(out)) == 0
    assert "lambda" not in json.loads((out / "manifest.json").read_text())


def test_gen_mc_writes_observed(tmp_path):
    out = tmp_path / "inst"
    assert run("gen", "--kind", "mc", "--m", "30", "--r", "2",
               "--p-ratio", "4", "--seed", "3", "--out", str(out)) == 0
    omega, vals = mio.read_observed(out / "observed.mtx")
    manifest = json.loads((out / "manifest.json").read_text())
    assert omega.size == manifest["p"] == 4 * 2 * (60 - 2)


def test_solve_rpca_roundtrip(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "30", "--r", "2",
        "--frac", "0.05", "--seed", "11", "--out", str(out))
    trace = tmp_path / "trace.json"
    a_out = tmp_path / "a.csv"
    code = run("solve-rpca", "--alg", "ialm", "--input", str(out / "d.csv"),
               "--truth", str(out / "a_star.csv"), "--trace", str(trace),
               "--output-a", str(a_out))
    assert code == 0
    rep = json.loads(trace.read_text())
    assert rep["algorithm"] == "ialm" and rep["converged"]
    assert rep["rel_error"] < 1e-4
    assert len(rep["trace"]) == rep["iterations"]
    # written solution reads back bit-identical to a fresh solve
    from lowrank.rpca import solve_ialm

    res = solve_ialm(mio.read_dense_csv(out / "d.csv"))
    assert np.array_equal(mio.read_dense_csv(a_out), res.A)


def test_solve_rpca_zero_matrix_exits_zero(tmp_path):
    z = tmp_path / "zero.csv"
    mio.write_dense_csv(z, np.zeros((6, 6)))
    a_out = tmp_path / "a.csv"
    assert run("solve-rpca", "--alg", "ialm", "--input", str(z),
               "--output-a", str(a_out)) == 0
    assert not mio.read_dense_csv(a_out).any()


def test_solve_rpca_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "2",
        "--frac", "0.05", "--seed", "5", "--out", str(out))
    assert run("solve-rpca", "--alg", "ialm", "--input", str(out / "d.csv"),
               "--max-iter", "2") == 1


def test_solve_rpca_nan_tolerance_exits_two(tmp_path, capsys):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "2",
        "--frac", "0.05", "--seed", "5", "--out", str(out))
    assert run("solve-rpca", "--alg", "ialm", "--input", str(out / "d.csv"),
               "--eps1", "nan") == 2
    assert "eps1" in capsys.readouterr().err


def test_check_verdict_on_solve_trace(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "30", "--r", "2",
        "--frac", "0.05", "--seed", "11", "--out", str(out))
    trace = tmp_path / "trace.json"
    run("solve-rpca", "--alg", "ialm", "--input", str(out / "d.csv"),
        "--trace", str(trace))
    verdict = tmp_path / "verdict.json"
    assert run("check", "--trace", str(trace),
               "--manifest", str(out / "manifest.json"),
               "--out", str(verdict)) == 0
    v = json.loads(verdict.read_text())
    assert v["ok"]
    assert any(c["invariant"] == "mu_adaptive_rule" and c["status"] == "pass"
               for c in v["checks"])


def test_solve_rpca_wrong_shaped_truth_exits_two(tmp_path, capsys):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "2",
        "--frac", "0.05", "--seed", "5", "--out", str(out))
    row = tmp_path / "row.csv"
    mio.write_dense_csv(row, mio.read_dense_csv(out / "a_star.csv")[:1])
    assert run("solve-rpca", "--alg", "ialm", "--input", str(out / "d.csv"),
               "--truth", str(row)) == 2
    err = capsys.readouterr().err
    assert "(1, 20)" in err and "(20, 20)" in err


@pytest.mark.parametrize("report, field", [
    ([1, 2], "JSON objects"),
    ({"trace": [{"mu": 1}]}, "'trace[0].feas'"),
    ({"trace": "x"}, "'trace'"),
    ({"trace": [{"feas": True, "dual_est": 0, "mu": 1, "rank_a": 0}]}, "'trace[0].feas'"),
    ({"config": {"eps1": False}}, "'config.eps1'"),
    ({"final": {"spectral_y": 0.5, "linf_y_over_lambda": True}},
     "'final.linf_y_over_lambda'"),
])
def test_check_malformed_report_exits_two(tmp_path, capsys, report, field):
    # a report the checks cannot read is bad input (2), not a failed check (1)
    trace = tmp_path / "bad.json"
    trace.write_text(json.dumps(report))
    assert run("check", "--trace", str(trace)) == 2
    assert field in capsys.readouterr().err


def test_solve_mc_and_dense_output(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "mc", "--m", "30", "--r", "2",
        "--p-ratio", "5", "--seed", "3", "--out", str(out))
    dense = tmp_path / "ahat.csv"
    code = run("solve-mc", "--input", str(out / "observed.mtx"),
               "--truth", str(out / "a_star.csv"), "--dense-output", str(dense))
    assert code == 0
    A = mio.read_dense_csv(dense)
    A_star = mio.read_dense_csv(out / "a_star.csv")
    assert np.linalg.norm(A - A_star) / np.linalg.norm(A_star) < 1e-4


def test_solve_mc_rejects_lambda(tmp_path):
    # completion has no sparsity weight, so the flag is a usage error
    out = tmp_path / "inst"
    run("gen", "--kind", "mc", "--m", "30", "--r", "2",
        "--p-ratio", "5", "--seed", "3", "--out", str(out))
    assert run("solve-mc", "--input", str(out / "observed.mtx"),
               "--lambda", "0.1") == 2


def test_solve_mc_empty_observation_exits_two(tmp_path):
    empty = ObservedSet(4, 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    path = tmp_path / "empty.mtx"
    mio.write_coordinate_mm(path, empty, np.empty(0))
    assert run("solve-mc", "--input", str(path)) == 2


def test_solve_mc_symmetric_file_exits_two(tmp_path, capsys):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 3\n1 1 4.0\n2 1 5.0\n3 3 1.0\n")
    assert run("solve-mc", "--input", str(path)) == 2
    assert "only general" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("solve-mc", "%%MatrixMarket matrix coordinate real general\n3 3\n1 1 4.0\n"),
    ("solve-mc", "%%MatrixMarket matrix coordinate real general\n"),
    ("solve-mc", "%%MatrixMarket matrix coordinate real general\n3 3 1\n1.5 1 1.0\n"),
    ("solve-rpca", "%%MatrixMarket matrix array real general\n2\n1.0\n2.0\n"),
], ids=["two-token-size-line", "ends-after-banner", "fractional-index", "array-one-token"])
def test_malformed_matrix_market_exits_two(tmp_path, capsys, command, text):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    argv = [command, "--input", str(path)] + (["--alg", "ialm"] if command == "solve-rpca" else [])
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("error")
def test_solve_rpca_empty_file_exits_two(tmp_path, capsys):
    # the reader refuses the file itself, and numpy's no-data warning stays
    # inside it
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert run("solve-rpca", "--alg", "ialm", "--input", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_bench_table1_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--table", "1", "--scale", "40", "--algs", "ialm",
               "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# lowrank-bench-v1"
    assert lines[1] == ("m,algorithm,rel_error,rank,e_card,svd_count,"
                       "wall_time_seconds,converged")
    cells = lines[2].split(",")
    assert cells[0] == "40" and cells[1] == "ialm"
    assert int(cells[3]) == 2
    assert cells[-1] == "true"


def test_bench_table3_mc_columns(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--table", "3", "--scale", "60", "--seed", "1",
               "--rank-frac", "0.034", "--p-ratio", "6", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert "iter" in lines[1].split(",")
    assert lines[2].split(",")[3] == "2"


def test_bench_rows_sorted_deterministically(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--table", "1", "--scale", "30",
               "--algs", "ialm,ealm", "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    algs = [l.split(",")[1] for l in lines[2:]]
    assert algs == sorted(algs)


def test_unknown_flag_exits_two():
    assert run("solve-rpca", "--alg", "ialm", "--no-such-flag") == 2
    assert run("bogus-subcommand") == 2


def test_missing_input_exits_two(tmp_path):
    assert run("solve-rpca", "--alg", "ialm",
               "--input", str(tmp_path / "nope.csv")) == 2


def test_config_file_supplies_flags(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "1",
        "--frac", "0.05", "--seed", "3", "--out", str(out))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-iter": 2}))
    # config file caps the iterations, so the solve cannot converge
    assert run("--config", str(cfg), "solve-rpca", "--alg", "ialm",
               "--input", str(out / "d.csv")) == 1


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    out = tmp_path / "inst"
    run("gen", "--kind", "mc", "--m", "30", "--r", "2",
        "--p-ratio", "5", "--seed", "3", "--out", str(out))
    cfg = tmp_path / "cfg.json"
    # a key without a solve-mc flag, and a typo of max-iter
    cfg.write_text(json.dumps({"lambda": 0.1, "max_iters": 2}))
    assert run("--config", str(cfg), "solve-mc", "--input", str(out / "observed.mtx")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "lambda" in err and "max-iters" in err
    cfg.write_text(json.dumps([2]))
    assert run("--config", str(cfg), "solve-mc", "--input", str(out / "observed.mtx")) == 2
    # top-level namespace entries are not flags of the subcommand
    for key in ("command", "config"):
        cfg.write_text(json.dumps({key: "solve-rpca"}))
        assert run("--config", str(cfg), "solve-mc",
                   "--input", str(out / "observed.mtx")) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("entries, message", [
    ({"max_iter": 2.5}, "argument --max-iter: invalid int value"),
    ({"mu0": "abc"}, "argument --mu0: invalid float value"),
    ({"alg": "nope"}, "argument --alg: invalid choice"),
    ({"trace": None}, "expected a string or a number for trace"),
    ({"eps1": [1e-7]}, "expected a string or a number for eps1"),
], ids=["float-for-int", "not-a-number", "bad-choice", "null", "list"])
def test_config_values_parsed_like_flags(tmp_path, capsys, entries, message):
    # a config value goes through the flag's type and choices, and one with
    # no flag spelling (null, lists) is refused instead of taken as a string
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "1",
        "--frac", "0.05", "--seed", "3", "--out", str(out))
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alg": "ialm", **entries}))
    assert run("--config", str(cfg), "solve-rpca", "--input", str(out / "d.csv")) == 2
    assert message in capsys.readouterr().err


def test_config_file_supplies_required_flags_and_explicit_flags_win(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "1",
        "--frac", "0.05", "--seed", "3", "--out", str(out))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alg": "ialm", "input": str(out / "d.csv"), "max_iter": 2}))
    assert run("--config", str(cfg), "solve-rpca") == 1
    trace = tmp_path / "trace.json"
    assert run("--config", str(cfg), "solve-rpca", "--max-iter", "100",
               "--trace", str(trace)) == 0
    assert json.loads(trace.read_text())["config"]["max_iter"] == 100


def test_flags_must_be_spelled_in_full(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "1",
        "--frac", "0.05", "--seed", "3", "--out", str(out))
    assert run("solve-rpca", "--alg", "ialm", "--inp", str(out / "d.csv")) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max": 2}))
    assert run("--config", str(cfg), "solve-rpca", "--alg", "ialm",
               "--input", str(out / "d.csv")) == 2


def test_config_file_takes_flag_names_not_dests(tmp_path, capsys):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "1",
        "--frac", "0.05", "--seed", "3", "--out", str(out))
    cfg = tmp_path / "cfg.json"
    # --lambda stores into `lam`, but `lam` is not a flag
    cfg.write_text(json.dumps({"lam": 0.3}))
    assert run("--config", str(cfg), "solve-rpca", "--alg", "ialm",
               "--input", str(out / "d.csv")) == 2
    assert "lam" in capsys.readouterr().err


def test_config_file_lambda_alias_for_solve_rpca(tmp_path):
    out = tmp_path / "inst"
    run("gen", "--kind", "rpca", "--m", "20", "--r", "1",
        "--frac", "0.05", "--seed", "3", "--out", str(out))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 0.3, "max_iter": 2}))
    trace = tmp_path / "trace.json"
    assert run("--config", str(cfg), "solve-rpca", "--alg", "ialm",
               "--input", str(out / "d.csv"), "--trace", str(trace)) == 1
    rep = json.loads(trace.read_text())
    assert rep["config"]["lam"] == 0.3 and rep["iterations"] == 2
