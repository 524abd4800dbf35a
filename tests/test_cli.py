import hashlib
import json

import numpy as np
import pytest

from haflab import cli
from haflab import kernels as kn
from haflab.matfun import write_matrix_text


def run(*argv, capsys=None):
    code = cli.main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


@pytest.fixture()
def swap_matrix(tmp_path):
    path = tmp_path / "swap.txt"
    write_matrix_text(path, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    return str(path)


def test_matfun_haf(swap_matrix, capsys):
    code, out = run("matfun", "haf", swap_matrix, capsys=capsys)
    assert code == 0
    assert out.out.strip() == "1 0"


def test_matfun_algorithms_agree(swap_matrix, capsys, tmp_path):
    rng = np.random.default_rng(1)
    from haflab.matfun import random_symmetric
    path = tmp_path / "c.txt"
    write_matrix_text(path, random_symmetric(8, rng))
    code1, out1 = run("matfun", "haf", str(path), "--algo", "enum", capsys=capsys)
    code2, out2 = run("matfun", "haf", str(path), "--algo", "dp", capsys=capsys)
    assert code1 == code2 == 0
    assert out1.out == out2.out


def test_matfun_alphadet_matches_det(capsys, tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "b.txt"
    write_matrix_text(path, rng.standard_normal((3, 3)) + 0j)
    _, out_det = run("matfun", "det", str(path), capsys=capsys)
    _, out_ad = run("matfun", "alphadet", str(path), "--alpha", "-1", capsys=capsys)
    det = [float(t) for t in out_det.out.split()]
    ad = [float(t) for t in out_ad.out.split()]
    assert det == pytest.approx(ad, abs=1e-10)


def test_matfun_bad_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1,0 2,0\n")
    code, out = run("matfun", "haf", str(bad), capsys=capsys)
    assert code == 2
    assert "error" in out.err


def test_cox_sample_empty_replicates(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": 0, "cells": 2,
                               "model": {"builtin": "real-gauss",
                                         "params": {"n_centers": 1}}}))
    code, _ = run("cox", "sample", "--config", str(cfg),
                  "--out", str(tmp_path / "run"), capsys=capsys)
    assert code == 0
    assert (tmp_path / "run" / "patterns.csv").read_text() == "replicate,cell_index,count\n"


def test_cox_sample_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": 40, "cells": 3, "seed": 9,
                               "model": {"builtin": "proper-fourier",
                                         "params": {"n_freq": 1}}}))
    digests = []
    for sub in ("a", "b"):
        code, _ = run("cox", "sample", "--config", str(cfg),
                      "--out", str(tmp_path / sub), capsys=capsys)
        assert code == 0
        blob = (tmp_path / sub / "patterns.csv").read_bytes()
        blob += (tmp_path / sub / "summary.json").read_bytes()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


_MODEL_RUN = {"cells": 8, "orders": [2, 3], "model": {"builtin": "proper-fourier"}}
_PROFILE_RUN = {"cells": 4, "orders": [2], "profile": {
    "lambda": [[1.0, 0.0], [0.5, -0.5], [0.0, 2.0], [1.5, 0.25]]}}

# sha256 of every file a seed-77 run writes, recorded with the per-replicate
# factorization and per-line CSV writer that preceded the cached factor and
# chunked writes; 255, 256 and 257 replicates straddle one 256-replicate chunk.
# Field values are printed to 17 digits, so a numpy/LAPACK build that rounds
# the factorization differently changes them (recorded with numpy 2.4 on
# OpenBLAS 0.3.31, x86-64).
_GOLDEN = [
    ("cox", _MODEL_RUN, 500, {
        "moments.jsonl": "5dd76980417050ff544054f3a887be1af784d5420f5a299336924c850b0fba57",
        "patterns.csv": "4308f8c3ede7cfb0866af97036d99d4100bfbb872840a03aed4891293d7b4ee5",
        "summary.json": "291469a12e2f1159e6fd2b85f7a7f5bf00b68616f830e53441a7f40b945f8330"}),
    ("cox", _MODEL_RUN, 255, {
        "moments.jsonl": "c42633206223074911d2cdf360b57a99c91d16df5eb6684ef91a80a037dab31f",
        "patterns.csv": "2cd6c7223052c2c24d8bdf45e91bdca78b126d7b174ff8526b9cd366f782d1b3",
        "summary.json": "62c9c448c0e7ab0045fcb745da95738f01b647cf8847ad9dd748a5e5c1d8120e"}),
    ("cox", _MODEL_RUN, 256, {
        "moments.jsonl": "184410e367351c21e0865fd03031ef4200bfbf20b4dc16c3dd093babbb0e0c46",
        "patterns.csv": "55f44a46f7dc40b73a324be7be63457d4c056aeec4cbc9778b249f1a7bb972e7",
        "summary.json": "ab6aa83d8bf16e1adfcb48cca4d8968833369d5a40b74ea7f84b63708896420e"}),
    ("cox", _MODEL_RUN, 257, {
        "moments.jsonl": "7e9227faf6185f3afe552d4e72b1e0fb94d058474a2b39336f161d94c8196a1a",
        "patterns.csv": "81eabc5340a2996b1eac2931681c3c5df0927df991a0f3ac242a2f5f7b619146",
        "summary.json": "a3fe0ccbb2a399521d3b9ddbaeb6ba24bcef08a7c4afbf7fc5528ad692242379"}),
    ("cox", _PROFILE_RUN, 255, {
        "moments.jsonl": "c97554bb5abb1739cbee189ce7e4e88ecb98caf0ac98c2fb2d5466521f8ca15a",
        "patterns.csv": "f6a1a71796c97cb8315e450c48071beeb05462a5378965cf4f0557f47544d4d9",
        "summary.json": "dd6299b3a66ec2e627611a9b8c28b056634e3a6c0750eb51e4379dcf6ca66a1a"}),
    ("cox", _PROFILE_RUN, 256, {
        "moments.jsonl": "9c53699dc3c36233963b0faa8a35e7293a8424e74db71ed56f5f521dd12811b1",
        "patterns.csv": "f6edbda51af4535598e36cb0b508e26198996c286aa37b8c87c115621019fc99",
        "summary.json": "188b0b07ba96a03e5ded71285aef32be2e83254ad5ee1e4a3160675c632287f5"}),
    ("cox", _PROFILE_RUN, 257, {
        "moments.jsonl": "2d800c1dca593711338f552e2b45a63c571e0823eecb200ffd04fc421391f0f0",
        "patterns.csv": "0b1d6159ec73d457de0caa4ad27c1bac7721605bd8119ead9a22f33a348d1013",
        "summary.json": "b4a3f9ad62057257fce07ea8e815fef680218c6975cfad19d009b2b020c86e32"}),
    ("field", _MODEL_RUN, 500, {
        "field.csv": "6aa403d8bdecce93b7e086340b6e794609ef24871758e8e7395d62e71d86cf52",
        "summary.json": "0062ca381c3e9b5bab5015d3caaa17c837334c7a9bd1154dd17605291314cb15"}),
    ("field", _MODEL_RUN, 255, {
        "field.csv": "f378d5d78ecba8c57ced7d621b3d334c1f7201ae4e79338bf58e1bace979159a",
        "summary.json": "56c4b58f27abe55ca0066ce57e8f349973bb90d31311621135f2887d45429988"}),
    ("field", _MODEL_RUN, 256, {
        "field.csv": "5d6e5af46ca1d3af5b2e5972ad117d8b69665ad56f368e3c1fea3e00ca34458c",
        "summary.json": "04c6d371c635f9b4a04f60e896e5b7c47864d4c1dbf322e71a2d440592126ebf"}),
    ("field", _MODEL_RUN, 257, {
        "field.csv": "de9000a93500335dd609b63536dddf61fbbbb84f76649904870674d8a6027b67",
        "summary.json": "7ba2211df37b760566466aa3371cc3e8f74a3fa92b1adb545c0d50f00797ac48"}),
]


@pytest.mark.parametrize("kind, doc, replicates, digests", _GOLDEN, ids=[
    f"{kind}-{'profile' if 'profile' in doc else 'model'}-{reps}"
    for kind, doc, reps, _ in _GOLDEN])
def test_sample_outputs_match_golden_digests(tmp_path, capsys, kind, doc,
                                             replicates, digests):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, replicates=replicates)))
    code, _ = run(kind, "sample", "--config", str(cfg), "--seed", "77",
                  "--out", str(tmp_path / "run"), capsys=capsys)
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "run").iterdir()}
    assert written == digests


def test_sample_refuses_overwrite_without_force(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": 2, "cells": 2,
                               "model": {"builtin": "real-gauss",
                                         "params": {"n_centers": 1}}}))
    out_dir = str(tmp_path / "run")
    code, _ = run("cox", "sample", "--config", str(cfg), "--out", out_dir,
                  capsys=capsys)
    assert code == 0
    code, out = run("cox", "sample", "--config", str(cfg), "--out", out_dir,
                    capsys=capsys)
    assert code == 2 and "--force" in out.err
    code, _ = run("cox", "sample", "--config", str(cfg), "--out", out_dir,
                  "--force", capsys=capsys)
    assert code == 0


def test_cox_sample_bad_model_params_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"builtin": "real-gauss",
                                         "params": {"lengthscale": [0.2]}}}))
    code, out = run("cox", "sample", "--config", str(cfg),
                    "--out", str(tmp_path / "run"), capsys=capsys)
    assert code == 2
    assert out.err == "error: model parameter 'lengthscale' must be a number, got [0.2]\n"


def test_cox_sample_with_deterministic_profile(tmp_path, capsys):
    # unit intensity amplitude on the unit window: mean total count is 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "replicates": 10_000, "cells": 4, "seed": 77,
        "boxes": [[0, 1, 2, 3]],
        "orders": [2],
        "profile": {"lambda": [[1.0, 0.0]] * 4}}))
    code, _ = run("cox", "sample", "--config", str(cfg),
                  "--out", str(tmp_path / "p"), capsys=capsys)
    assert code == 0
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    box = summary["boxes"][0]
    assert abs(box["mean"] - 1.0) < 4 * box["std_error"]
    lines = [json.loads(l) for l in
             (tmp_path / "p" / "moments.jsonl").read_text().splitlines()]
    assert all({"label", "value", "std_error", "n_samples"} <= set(rec)
               for rec in lines)
    # second-order falling factorial of a unit-mean Poisson count is 1
    fact2 = lines[1]
    assert abs(fact2["value"] - 1.0) < 4 * fact2["std_error"]


def test_field_sample_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": 30, "cells": 2, "seed": 4,
                               "model": {"builtin": "alpha-beta-demo",
                                         "params": {"d_half": 1}}}))
    code, _ = run("field", "sample", "--config", str(cfg),
                  "--out", str(tmp_path / "f"), capsys=capsys)
    assert code == 0
    summary = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert summary["kind"] == "field"
    assert len(summary["k1_diagonal"]) == 2
    assert "config_sha256" in summary
    header = (tmp_path / "f" / "field.csv").read_text().splitlines()[0]
    assert header == "replicate,cell_index,re,im"


def test_verify_small_battery(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "cells": 3, "truncation": 6, "mc_samples": 20000,
        "replicates": 20000, "max_order": 2, "seed": 2024,
        "models": [{"builtin": "proper-fourier", "params": {"n_freq": 1}}]}))
    report = tmp_path / "report.jsonl"
    code, out = run("verify", "--config", str(cfg), "--out", str(report),
                    capsys=capsys)
    assert code == 0
    assert "checks passed" in out.out
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert "config_sha256" in lines[0]
    assert all("passed" in rec for rec in lines[1:])
    assert all(rec["passed"] for rec in lines[1:])
    # append-by-default: a second run grows the file
    n = len(lines)
    code, _ = run("verify", "--config", str(cfg), "--out", str(report),
                  capsys=capsys)
    assert len(report.read_text().splitlines()) == 2 * n


def test_verify_default_battery_has_61_checks(capsys):
    # the default battery is what the verify benchmark workload runs
    code, out = run("verify", capsys=capsys)
    lines = out.out.splitlines()
    assert code == 0
    assert len(lines) == 62
    assert all(line.startswith("PASS ") for line in lines[:61])
    assert lines[-1] == "61/61 checks passed"


def test_verify_corrupted_model_exit_2(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    doc = {"grid": {"window": [0.0, 1.0], "cells": 1}, "feature_dim": 1,
           "L1": [[[1.0, 0.0]]], "L2": [[[2.0, 0.0]]]}
    model_path.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"path": str(model_path)}}))
    code, out = run("verify", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert "gram-match" in out.err


def test_verify_zero_model_config(tmp_path, capsys):
    model_path = tmp_path / "zero.json"
    grid = kn.Grid.regular(0.0, 1.0, 3)
    z = np.zeros((2, 3))
    kn.save_model(model_path, kn.field_model(grid, z, z))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cells": 3, "mc_samples": 2000,
                               "replicates": 2000,
                               "model": {"path": str(model_path)}}))
    code, out = run("verify", "--config", str(cfg), capsys=capsys)
    assert code == 0, out.out


@pytest.fixture()
def three_cell_model(tmp_path):
    path = tmp_path / "m3.json"
    kn.save_model(path, kn.builtin_model("real-gauss", kn.Grid.regular(0.0, 1.0, 3)))
    return str(path)


@pytest.mark.parametrize("grid", [{"cells": 7, "window": [0, 5]}, {"cells": 7},
                                  {"cells": 3, "window": [0, 2]}])
@pytest.mark.parametrize("command", [["verify"], ["cox", "sample"]])
def test_path_model_must_match_config_grid(tmp_path, capsys, three_cell_model,
                                           grid, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(grid, model={"path": three_cell_model})))
    out_dir = tmp_path / "run"
    code, out = run(*command, "--config", str(cfg), "--out", str(out_dir),
                    capsys=capsys)
    assert code == 2 and out.out == ""
    lo, hi = map(float, grid.get("window", [0, 1]))
    assert out.err == (f"error: {three_cell_model}: model grid [0.0, 1.0] in 3 cells differs "
                       f"from the config grid [{lo}, {hi}] in {grid['cells']} cells\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("doc", [
    {"window": [0, 1e20], "cells": 2},
    {"window": [0, 1e20], "cells": 2, "profile": {"lambda": [[1.0, 0.0]] * 2}},
])
def test_cox_sample_oversized_rate_exit_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, replicates=3)))
    code, out = run("cox", "sample", "--config", str(cfg),
                    "--out", str(tmp_path / "run"), capsys=capsys)
    assert code == 2
    assert out.err.startswith("error: largest Poisson rate ")
    assert out.err.endswith(" cannot be sampled: lam value too large\n")
    assert len(out.err.splitlines()) == 1


def test_verify_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, out = run("verify", "--config", str(cfg), capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("doc, message", [
    ({"cells": "abc"}, "'cells' must be an integer"),
    ({"window": [0.0]}, "'window' must be a [lo, hi] pair"),
    ({"models": [1]}, "'models' must be a list of objects"),
    ({"models": [{"foo": 1}]}, "needs a 'builtin' name or a 'path'"),
    ({"window": [1.0, 0.0]}, "'window' must have finite ends with lo < hi, got [1.0, 0.0]"),
    ({"boxes": [[0], [1]]}, "verify chooses its own boxes"),
    ({"profile": {"lambda": [[1.0, 0.0]] * 3}}, "verify draws its own Poisson"),
    ({"models": [{"builtin": "proper-fourier", "params": {"n_freq": "x"}}]},
     "model parameter 'n_freq' must be a number"),
    ({"models": [{"builtin": "proper-fourier", "params": "x"}]},
     "parameters for 'proper-fourier' must be an object"),
    ({"models": [{"builtin": "proper-fourier", "params": {"n_freq": 0}}]},
     "model parameter 'n_freq' must be at least 1"),
    ({"models": [{"builtin": "proper-fourier", "params": {"n_freq": -2}}]},
     "model parameter 'n_freq' must be at least 1"),
    ({"models": [{"builtin": "real-gauss", "params": {"n_centers": 0}}]},
     "model parameter 'n_centers' must be at least 1"),
    ({"models": [{"builtin": "alpha-beta-demo", "params": {"d_half": -1}}]},
     "model parameter 'd_half' must be at least 1"),
    ({"models": [{"builtin": "proper-fourier", "params": {"lengthscale": 0}}]},
     "'lengthscale' must be finite and positive"),
    ({"models": [{"builtin": "real-gauss", "params": {"lengthscale": -0.5}}]},
     "'lengthscale' must be finite and positive"),
    ({"models": [{"builtin": "alpha-beta-demo", "params": {"lengthscale": 1e400}}]},
     "'lengthscale' must be finite and positive"),
    ({"seed": -1}, "'seed' must be at least 0, got -1"),
    ({"mc_samples": -5}, "'mc_samples' must be at least 1, got -5"),
    ({"mc_samples": 0}, "'mc_samples' must be at least 1, got 0"),
    ({"max_order": -1}, "'max_order' must be at least 1, got -1"),
    ({"max_order": 0}, "'max_order' must be at least 1, got 0"),
    ({"orders": [-3]}, "each 'orders' entry must be at least 1, got -3"),
    ({"orders": [2, 0]}, "each 'orders' entry must be at least 1, got 0"),
    ({"replicates": -1}, "'replicates' must be at least 0, got -1"),
    ({"window": [0, 1e400]}, "'window' must have finite ends with lo < hi, got [0.0, inf]"),
    ({"window": [-1e400, 0]}, "'window' must have finite ends with lo < hi, got [-inf, 0.0]"),
    ({"window": [2.0, 2.0]}, "'window' must have finite ends with lo < hi, got [2.0, 2.0]"),
    ({"window": [0, 1e20], "cells": 2}, "largest Poisson rate"),
    ({"cells": 1}, "verify needs at least 2 cells for moment order 2, got 'cells' 1"),
    ({"cells": 2, "max_order": 3},
     "verify needs at least 3 cells for moment order 3, got 'cells' 2"),
])
def test_verify_malformed_config_exit_2(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out = run("verify", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert out.err.startswith("error: ") and message in out.err
    assert len(out.err.splitlines()) == 1


@pytest.mark.parametrize("doc", [
    {"window": [0, 1e150], "cells": 4},
    {"window": [0, 1e308], "cells": 2},
])
def test_verify_huge_window_exit_2_without_traceback(tmp_path, capsys, doc):
    # The growth bound (2 * intensity)^n overflows a float here; numpy warns
    # of overflow and invalid values in the field arithmetic on the way.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with pytest.warns(RuntimeWarning):
        code, out = run("verify", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert out.err.startswith("error: ")
    assert len(out.err.splitlines()) == 1


def test_verify_negative_seed_flag_exit_2(capsys):
    code, out = run("verify", "--seed", "-1", capsys=capsys)
    assert code == 2
    assert out.err == "error: 'seed' must be at least 0, got -1\n"


@pytest.mark.parametrize("doc, flags, message", [
    ({"orders": [0]}, [], "each 'orders' entry must be at least 1, got 0"),
    ({}, ["--seed", "-1"], "'seed' must be at least 0, got -1"),
    ({"boxes": [[0], [7]]}, [], "cell index 7 is out of range 0..1"),
    ({"boxes": [[0], [7]], "replicates": 0}, [], "cell index 7 is out of range 0..1"),
    ({"boxes": [[0, 1], [1]]}, [], "boxes 0 and 1 overlap"),
])
def test_cox_sample_out_of_range_config_writes_nothing(tmp_path, capsys, doc,
                                                      flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"replicates": 3, "cells": 2}, **doc)))
    out_dir = tmp_path / "run"
    code, out = run("cox", "sample", "--config", str(cfg), "--out", str(out_dir),
                    *flags, capsys=capsys)
    assert code == 2
    assert out.err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("flags, message", [
    (["--reps", "0"], "--reps must be at least 1, got 0"),
    (["--sizes", "a"], "--sizes must be comma-separated integers, got 'a'"),
    (["--sizes", "4,-2"], "each --sizes entry must be at least 0, got -2"),
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
])
def test_bench_bad_input_exit_2(capsys, flags, message):
    code, out = run("bench", *flags, capsys=capsys)
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_bench_command(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, out = run("bench", "--sizes", "4,6", "--reps", "2",
                    "--out", str(out_path), capsys=capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "algorithm,size,repetitions,median_seconds"
    assert len(lines) == 5


def test_bench_times_each_algorithm_up_to_its_cap(capsys):
    # 20 is above the enumeration cap (16) but within the dp cap (24)
    code, out = run("bench", "--sizes", "20", "--reps", "1", capsys=capsys)
    assert code == 0
    lines = out.out.splitlines()
    assert lines[0] == "algorithm,size,repetitions,median_seconds"
    assert len(lines) == 2 and lines[1].startswith("dp,20,1,")
    code, out = run("bench", "--sizes", "26", "--reps", "1", capsys=capsys)
    assert code == 2
    assert "dimension 26 exceeds limit 24" in out.err
