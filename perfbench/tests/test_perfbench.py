"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workload  # noqa: E402
from run import END_TO_END  # noqa: E402


@pytest.fixture(scope="module")
def hl():
    return workload.import_haflab(ROOT)


# ---------------------------------------------------------------------------
# Tail percentile rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_eleven_samples(n):
    assert workload.tail([float(i) for i in range(n)]) is None


def test_tail_at_eleven_samples_is_the_minimum():
    assert workload.tail([float(i) for i in range(11, 0, -1)]) == (1.0, 100.0 / 11, 10)


def test_tail_of_one_hundred_samples_is_p90():
    assert workload.tail(list(range(1, 101))) == (90, 90.0, 10)


def test_tail_counts_only_samples_strictly_above():
    values = [1.0] * 5 + [float(v) for v in range(2, 12)]   # 15 samples
    assert workload.tail(values) == (1.0, 100.0 * 5 / 15, 10)
    assert workload.tail([3.0] * 40) is None


# ---------------------------------------------------------------------------
# Self time on a synthetic span tree
# ---------------------------------------------------------------------------


def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_times_subtract_the_union_of_children():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("cli.main", 1.0, 9.0, 0),
        _span("sampling.sample_cox", 2.0, 5.0, 1),
        _span("sampling.sample_field", 2.5, 4.0, 2),
        _span("sampling.sample_field", 3.5, 4.5, 2),   # overlaps its sibling
        _span("fock.rho", 6.0, 9.5, 1),                # runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 1.0, 1.5, 1.0, 3.5])
    totals = spans.aggregate(tree)
    assert totals["sampling.sample_field"] == {"calls": 2, "self_s": pytest.approx(2.5)}
    assert totals["sampling"]["self_s"] == pytest.approx(3.5)
    assert totals["cli"]["self_s"] == pytest.approx(2.0)
    assert "op" in totals and "op" not in spans.LAYERS


# ---------------------------------------------------------------------------
# Rebinding reaches cross-module references and is undone
# ---------------------------------------------------------------------------


def test_recorder_rebinds_cross_module_names(hl):
    original = hl.sampling.hafnian_dp
    rec = spans.Recorder()
    rec.install()
    try:
        assert hl.sampling.hafnian_dp is hl.matfun.hafnian_dp is not original
        assert hl.cli.run_battery is hl.verify.run_battery
        assert hl.cli.run_battery.__wrapped__.__module__ == "haflab.verify"
        grid = hl.kernels.Grid.regular(0.0, 1.0, 4)
        model = hl.kernels.builtin_model("real-gauss", grid)
        rec.enabled = True
        hl.sampling.quadrature_haf_moment(model, [[0, 1], [2, 3]])
        rec.enabled = False
    finally:
        rec.uninstall()
    assert hl.sampling.hafnian_dp is original
    totals = spans.aggregate(rec.spans)
    assert totals["matfun.hafnian_dp"]["calls"] == 4
    assert totals["kernels.block_kernel"]["calls"] == 4
    assert rec.counters["sampling.quadrature_tuples"] == 4


# ---------------------------------------------------------------------------
# Tiny-size smoke runs with the correctness checks on
# ---------------------------------------------------------------------------

TINY = {
    "cox-sample": lambda hl, work: workload.CoxSample(hl, work, cells=4, replicates=50),
    "verify": lambda hl, work: workload.Verify(
        hl, work, checks=22,
        config={"cells": 2, "truncation": 4, "mc_samples": 2000, "replicates": 2000,
                "max_order": 1, "models": [{"builtin": "real-gauss",
                                            "params": {"n_centers": 1}}]}),
    "exact-moments": lambda hl, work: workload.ExactMoments(
        hl, work, cells=8, box=2, order=3, perm_dim=4),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_checked_and_traced(hl, tmp_path, name):
    wl = TINY[name](hl, str(tmp_path))
    rec = spans.Recorder()
    for index in range(2):
        assert not workload.run_op(wl, 7, index)[1]
        rec.install()
        try:
            assert not workload.run_op(wl, 7, index, rec)[1]
        finally:
            rec.uninstall()
    totals = spans.aggregate(rec.spans)
    assert wl.sanity(totals, 2) == []
    values = workload.per_layer(totals, rec.counters, 2, 0.0, 0.0)
    assert set(values) == set(workload.per_layer_units())
    assert values["cli.bytes_written"] > 0
    assert rec.dump(str(tmp_path / "spans.jsonl")) == len(rec.spans)


def test_check_catches_a_wrong_quadrature(hl, tmp_path):
    wl = TINY["exact-moments"](hl, str(tmp_path))
    inp = wl.prepare(workload.op_seed(7, 0), 0)
    model, quad, rc, text = wl.run(inp)
    assert wl.check(inp, (model, quad, rc, text)) == []
    assert wl.check(inp, (model, quad * (1 + 1e-8), rc, text))
    assert wl.sanity({"matfun.hafnian_dp": {"calls": 8}}, 1)


def test_check_catches_a_wrong_cox_row(hl, tmp_path):
    wl = TINY["cox-sample"](hl, str(tmp_path))
    inp = wl.prepare(workload.op_seed(7, 0), 0)
    output = wl.run(inp)
    assert wl.check(inp, output) == []
    path = os.path.join(inp.out, "patterns.csv")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines(keepends=True)
    picked = random.Random(inp.seed).sample(range(wl.replicates), 1)[0]
    line = 1 + picked * wl.model.grid.n_cells
    r, m, count = lines[line].split(",")
    lines[line] = f"{r},{m},{int(count) + 1}\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    assert wl.check(inp, output)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines[:-1])
    assert wl.check(inp, output) == [f"patterns.csv has {len(lines) - 2} rows"]


def test_op_seeds_are_fixed_by_the_benchmark_seed():
    assert workload.op_seed(3, 5) == workload.op_seed(3, 5)
    assert len({workload.op_seed(s, i) for s in range(4) for i in range(50)}) == 200


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line
# ---------------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workload.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workload.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "verify", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
