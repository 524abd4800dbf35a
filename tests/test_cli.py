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
    ({"window": [1.0, 0.0]}, "cell volumes must be positive"),
    ({"boxes": [[0], [1]]}, "verify chooses its own boxes"),
])
def test_verify_malformed_config_exit_2(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out = run("verify", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert out.err.startswith("error: ") and message in out.err
    assert len(out.err.splitlines()) == 1


def test_bench_command(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, out = run("bench", "--sizes", "4,6", "--reps", "2",
                    "--out", str(out_path), capsys=capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "algorithm,size,repetitions,median_seconds"
    assert len(lines) == 5
