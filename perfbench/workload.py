"""One benchmark workload, run in its own process.

Usage (normally started by ``run.py``)::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC [--setup-only]

The process imports haflab from ``src/`` under the current directory,
runs a closed loop with one client (the next op starts when the previous
one returns) for ``--seconds`` and at least MIN_OPS ops, checks every
op's output right after it outside the op's timer, and prints one JSON
object as its last stdout line.  Only the ops are timed: throughput is
the work of the ops that passed over the summed op wall times.  Op ``i``
gets the seed ``op_seed(seed, i)``, so a benchmark seed fixes every input
and every pass/fail outcome; only timings vary.

``--trace 1`` runs every op twice with the same input: untraced, then
with the layer functions rebound to span recorders (see ``spans.py``).
Per-layer metrics come from the traced runs; the ratio of the two wall
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from bisect import bisect_right
from types import SimpleNamespace

import spans

TAIL_ABOVE = 10                  # samples that must lie above the tail value
MIN_OPS = TAIL_ABOVE + 1         # fewest ops for which the tail exists
RUNS_DIR = ".perfbench_runs"     # records, span dumps and scratch outputs
REL_TOL = 1e-10
FEATURE_HALF = 3                 # alpha/beta rows of the exact-moments model


def op_seed(seed: int, index: int) -> int:
    """63-bit seed of op ``index`` under benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def tail(values) -> tuple[float, float, int] | None:
    """Highest nearest-rank percentile with at least TAIL_ABOVE samples
    strictly above it: ``(value, percentile, samples_above)``, or None if
    no sample qualifies."""
    xs = sorted(values)
    n = len(xs)
    for k in range(n - 1, -1, -1):
        at_or_below = bisect_right(xs, xs[k])
        if n - at_or_below >= TAIL_ABOVE:
            return xs[k], 100.0 * at_or_below / n, n - at_or_below
    return None


def import_haflab(root: str) -> SimpleNamespace:
    """Import the layers from ``root/src``; refuse any other copy."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import haflab
    from haflab import cli, fock, kernels, matfun, sampling, verify
    if not os.path.abspath(haflab.__file__).startswith(src + os.sep):
        raise ImportError(f"haflab imported from {haflab.__file__}, not {src}")
    return SimpleNamespace(np=numpy, scipy=scipy, haflab=haflab, cli=cli, fock=fock,
                           kernels=kernels, matfun=matfun, sampling=sampling,
                           verify=verify)


def _cli(hl, argv: list[str]) -> tuple[int, str]:
    """Call ``haflab.cli.main`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = hl.cli.main(argv)
    return rc, buf.getvalue()


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Workloads.  Each has prepare(seed, index) -> input, run(input) -> output,
# check(input, output) -> list of problems, units (work per op) counted in
# work_unit, bytes_written(input, output), cleanup(input) and
# sanity(totals, n_ops) -> list of wrong call counts in a traced run.
# ---------------------------------------------------------------------------


class CoxSample:
    """``haflab cox sample``: proper-fourier builtin, per-replicate draws
    and CSV writing."""

    work_unit = "replicates"

    def __init__(self, hl, work: str, cells: int = 8, replicates: int = 2000):
        self.hl, self.work, self.units = hl, work, replicates
        self.replicates = replicates
        self.config = os.path.join(work, "cox.json")
        with open(self.config, "w", encoding="ascii") as fh:
            json.dump({"cells": cells, "replicates": replicates,
                       "model": {"builtin": "proper-fourier"}}, fh)
        grid = hl.kernels.Grid.regular(0.0, 1.0, cells)
        self.model = hl.kernels.builtin_model("proper-fourier", grid)

    def prepare(self, seed: int, index: int):
        return SimpleNamespace(seed=seed, out=os.path.join(self.work, f"cox-{index}"))

    def run(self, inp):
        return _cli(self.hl, ["cox", "sample", "--config", self.config,
                              "--seed", str(inp.seed), "--out", inp.out])

    def check(self, inp, output) -> list[str]:
        rc, _ = output
        if rc != 0:
            return [f"exit code {rc}"]
        np, sp = self.hl.np, self.hl.sampling
        cells = self.model.grid.n_cells
        picks = random.Random(inp.seed).sample(range(self.replicates),
                                               min(3, self.replicates))
        # Stream the file and keep only the picked rows, so that the check
        # holds less memory than the op and peak_rss_mb stays the op's.
        kept = {r: [] for r in picks}
        rows = 0
        with open(os.path.join(inp.out, "patterns.csv"), encoding="ascii") as fh:
            if fh.readline() != "replicate,cell_index,count\n":
                return ["patterns.csv header"]
            for line in fh:
                r, m, count = (int(x) for x in line.split(","))
                if (r, m) != divmod(rows, cells):
                    return [f"patterns.csv line {rows + 2} is ({r}, {m})"]
                if r in kept:
                    kept[r].append(count)
                rows += 1
        if rows != self.replicates * cells:
            return [f"patterns.csv has {rows} rows"]
        problems = []
        for r in picks:
            want = sp.sample_cox(self.model, sp.replicate_rng(inp.seed, r))
            if not np.array_equal(kept[r], want):
                problems.append(f"replicate {r}: {kept[r]} != {want}")
        with open(os.path.join(inp.out, "summary.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        if summary.get("seed") != inp.seed or summary.get("replicates") != self.replicates:
            problems.append("summary.json seed or replicates")
        with open(os.path.join(inp.out, "moments.jsonl"), encoding="ascii") as fh:
            if not all("value" in json.loads(line) for line in fh):
                problems.append("moments.jsonl record without a value")
        return problems

    def bytes_written(self, inp, output) -> int:
        files = sum(os.path.getsize(os.path.join(inp.out, f)) for f in os.listdir(inp.out))
        return files + len(output[1])

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp.out, ignore_errors=True)

    def sanity(self, totals, n_ops: int) -> list[str]:
        want = n_ops * self.replicates
        return [f"{name}.calls = {calls(totals, name)}, expected {want}"
                for name in ("sampling.replicate_rng", "sampling.sample_cox")
                if calls(totals, name) != want]


class Verify:
    """``haflab verify`` with the default battery (61 checks).

    Every op runs the battery as a user does, at its default seed: its
    Monte Carlo checks are 4-sigma z-tests, and at the command's default
    1000 replicates about 1 seed in 100 fails one of them, so per-op seeds
    would make ops fail at random and failure counts incomparable between
    commits.  The op seed is unused here.
    """

    work_unit = "checks"

    def __init__(self, hl, work: str, config: dict | None = None, checks: int = 61):
        self.hl, self.work, self.units = hl, work, checks
        self.args = []
        if config is not None:
            path = os.path.join(work, "verify.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(config, fh)
            self.args = ["--config", path]

    def prepare(self, seed: int, index: int):
        return None

    def run(self, inp):
        return _cli(self.hl, ["verify"] + self.args)

    def check(self, inp, output) -> list[str]:
        rc, text = output
        lines = text.splitlines()
        want = f"{self.units}/{self.units} checks passed"
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not lines or lines[-1] != want:
            failed = [line for line in lines if line.startswith("FAIL")]
            problems.append(f"expected {want!r}, got {lines[-1:]!r}; {failed}")
        return problems

    def bytes_written(self, inp, output) -> int:
        return len(output[1])

    def cleanup(self, inp) -> None:
        pass

    def sanity(self, totals, n_ops: int) -> list[str]:
        return [] if calls(totals, "fock.create") > 0 else ["fock.create.calls = 0"]


class ExactMoments:
    """Order-4 hafnian quadrature over four disjoint boxes of a seeded
    alpha/beta model, then ``haflab matfun haf --algo dp`` on the
    permanental embedding of a seeded square matrix."""

    work_unit = "hafnians"

    def __init__(self, hl, work: str, cells: int = 24, box: int = 6, order: int = 4,
                 perm_dim: int = 10):
        self.hl, self.work = hl, work
        self.box, self.order, self.perm_dim = box, order, perm_dim
        self.tuples = box ** order
        self.units = self.tuples + 1
        self.grid = hl.kernels.Grid.regular(0.0, 1.0, cells)

    def prepare(self, seed: int, index: int):
        np = self.hl.np
        rng = np.random.default_rng(seed)
        cells = self.grid.n_cells

        def cnormal(shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

        alpha = cnormal((FEATURE_HALF, cells)) / math.sqrt(FEATURE_HALF)
        beta = cnormal((FEATURE_HALF, cells)) / math.sqrt(FEATURE_HALF)
        perm = rng.permutation(cells)
        boxes = [sorted(int(c) for c in perm[k * self.box:(k + 1) * self.box])
                 for k in range(self.order)]
        b = cnormal((self.perm_dim, self.perm_dim))
        big = np.zeros((2 * self.perm_dim, 2 * self.perm_dim), dtype=complex)
        big[0::2, 1::2] = b
        big[1::2, 0::2] = b.T
        path = os.path.join(self.work, f"embed-{index}.txt")
        self.hl.matfun.write_matrix_text(path, big)
        return SimpleNamespace(alpha=alpha, beta=beta, boxes=boxes, b=b, path=path)

    def run(self, inp):
        model = self.hl.kernels.from_alpha_beta(inp.alpha, inp.beta, self.grid)
        quad = self.hl.sampling.quadrature_haf_moment(model, inp.boxes)
        rc, text = _cli(self.hl, ["matfun", "haf", "--algo", "dp", inp.path])
        return model, quad.value, rc, text

    def check(self, inp, output) -> list[str]:
        model, quad, rc, text = output
        if rc != 0:
            return [f"exit code {rc}"]
        mf, kn = self.hl.matfun, self.hl.kernels
        problems = []
        vols = model.grid.volumes
        enum = 0j
        for combo in itertools.product(*inp.boxes):
            enum += mf.hafnian_enum(kn.block_kernel(model, combo)) * math.prod(vols[list(combo)])
        if _rel(quad, enum) > REL_TOL:
            problems.append(f"quadrature {quad!r} vs enum route {enum!r}")
        re, im = (float(x) for x in text.split())
        perm = mf.permanent(inp.b)
        if _rel(complex(re, im), perm) > REL_TOL:
            problems.append(f"cli hafnian {re} {im} vs permanent {perm!r}")
        return problems

    def bytes_written(self, inp, output) -> int:
        return len(output[3])

    def cleanup(self, inp) -> None:
        os.remove(inp.path)

    def sanity(self, totals, n_ops: int) -> list[str]:
        want = {"matfun.hafnian_dp": n_ops * (self.tuples + 1),
                "kernels.block_kernel": n_ops * self.tuples}
        return [f"{name}.calls = {calls(totals, name)}, expected {n}"
                for name, n in want.items() if calls(totals, name) != n]


WORKLOADS = {"cox-sample": CoxSample, "verify": Verify, "exact-moments": ExactMoments}


def calls(totals, name: str) -> int:
    return int(totals.get(name, {}).get("calls", 0))


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced pass (names match BENCHMARK.json)
# ---------------------------------------------------------------------------

CALLS_AND_SELF = (
    "sampling.augmented_covariance",
    "fock.FockBasis", "fock.create", "fock.annihilate", "fock.ladder_pair",
    "fock.rho", "fock.wick", "fock.theta", "fock.b_field", "fock.quasifree_T",
    "matfun.hafnian_dp", "kernels.block_kernel",
    "matfun.hafnian_enum", "matfun.permanent", "matfun.alpha_det",
    "matfun.read_matrix_text",
    "kernels.builtin_model", "kernels.field_model", "kernels.validate_features",
)
SELF_ONLY = ("sampling.sample_field", "sampling.sample_cox", "sampling.replicate_rng",
             "sampling.quadrature_haf_moment", "verify.run_battery")
COUNTS = {"cli.bytes_written": "B/op", "fock.basis_states": "states/op",
          "sampling.quadrature_tuples": "tuples/op", "verify.checks": "checks/op",
          "verify.checks_failed": "checks/op"}
RATIOS = ("sampling.factor_builds_per_draw", "fock.ladder_builds_per_expectation",
          "trace_overhead_frac", "failed_frac")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s/op"
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s/op"
    units.update(COUNTS)
    for name in RATIOS:
        units[name] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(totals, counters, n_ops: int, overhead: float, failed_frac: float) -> dict:
    def get(name, field):
        return totals.get(name, {}).get(field, 0) / n_ops

    values = {}
    for name in per_layer_units():
        head, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = get(head, field)
        elif name in COUNTS:
            values[name] = counters.get(name, 0.0) / n_ops
    values["sampling.factor_builds_per_draw"] = _ratio(
        calls(totals, "sampling.augmented_covariance"),
        calls(totals, "sampling.sample_field") + calls(totals, "sampling.field_moment_mc"))
    values["fock.ladder_builds_per_expectation"] = _ratio(
        calls(totals, "fock.create") + calls(totals, "fock.annihilate"),
        calls(totals, "fock.theta") + calls(totals, "fock.quasifree_T")
        + calls(totals, "fock.moment"))
    values["trace_overhead_frac"] = overhead
    values["failed_frac"] = failed_frac
    return values


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_op(wl, seed: int, index: int, recorder=None) -> tuple[float, bool, float]:
    """Prepare, time and check op ``index``: ``(wall, failed, started)``,
    where ``started`` is the monotonic time at which the op began."""
    inp = wl.prepare(op_seed(seed, index), index)
    run = wl.run if recorder is None else recorder.span("op", wl.run)
    if recorder is not None:
        recorder.op, recorder.enabled = index, True
    output, problems = None, []
    started = time.monotonic()
    start = time.perf_counter()
    try:
        output = run(inp)
    except Exception:                      # an op that raises counts as failed
        problems = [traceback.format_exc()]
    wall = time.perf_counter() - start
    if recorder is not None:
        recorder.enabled = False
    if not problems:
        try:
            problems = wl.check(inp, output)
            if recorder is not None:
                recorder.counters["cli.bytes_written"] += wl.bytes_written(inp, output)
        except Exception:
            problems = [traceback.format_exc()]
    if problems:
        print(f"op {index} failed: {problems}", file=sys.stderr)
    wl.cleanup(inp)
    return wall, bool(problems), started


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hl = import_haflab(os.getcwd())
    work = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](hl, work)
        if args.setup_only:
            inp = wl.prepare(op_seed(args.seed, 0), 0)
            setup_s = time.monotonic() - args.t0
            wl.cleanup(inp)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(wl, args) if not args.trace else traced(wl, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = peak_rss_mb()
    result["versions"] = {"numpy": hl.np.__version__, "scipy": hl.scipy.__version__,
                          "haflab": hl.haflab.__version__}
    print(json.dumps(result))
    return 0


def measure(wl, args) -> dict:
    """Ops 0, 1, ... until ``--seconds`` have passed and MIN_OPS ops ran."""
    walls, failures, first_op_at = [], 0, None
    begin = time.monotonic()
    while len(walls) < MIN_OPS or time.monotonic() - begin < args.seconds:
        wall, failed, started = run_op(wl, args.seed, len(walls))
        walls.append(wall)
        failures += failed
        if first_op_at is None:
            first_op_at = started
    found = tail(walls)
    if found is None:
        raise RuntimeError(f"no tail percentile in {len(walls)} op timings")
    tail_s, tail_pct, above = found
    return {"ops": len(walls), "failed": failures, "setup_s": first_op_at - args.t0,
            "wall_p50_s": statistics.median(walls),
            "wall_tail_s": tail_s, "tail_percentile": tail_pct, "tail_samples_above": above,
            "throughput": (len(walls) - failures) * wl.units / sum(walls),
            "work_units_per_op": wl.units, "work_unit": wl.work_unit, "walls_s": walls}


def traced(wl, args) -> dict:
    """Each op runs untraced, then traced with the same input, so that
    the tracing overhead is measured pair by pair."""
    recorder = spans.Recorder()
    plain, walls, failures, wrapped = [], [], 0, 0
    begin = time.monotonic()
    while len(walls) < 2 or time.monotonic() - begin < args.seconds:
        wall, failed, _ = run_op(wl, args.seed, len(walls))
        plain.append(wall)
        failures += failed
        wrapped = recorder.install()
        try:
            wall, failed, _ = run_op(wl, args.seed, len(walls), recorder)
        finally:
            recorder.uninstall()
        walls.append(wall)
        failures += failed
    n = len(walls)
    totals = spans.aggregate(recorder.spans)
    dump_path = os.path.join(RUNS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    written = recorder.dump(dump_path)
    problems = wl.sanity(totals, n)
    if written != len(recorder.spans):
        problems.append(f"{written} spans written, {len(recorder.spans)} recorded")
    for p in problems:
        print(f"trace sanity: {p}", file=sys.stderr)
    op_wall = sum(walls) / n
    shares = {layer: totals.get(layer, {}).get("self_s", 0.0) / n / op_wall
              for layer in spans.LAYERS}
    return {"ops": 2 * n, "failed": failures, "sanity": problems,
            "functions_wrapped": wrapped, "spans": len(recorder.spans),
            "span_dump": dump_path, "traced_op_wall_s": op_wall, "layer_share": shares,
            "per_layer": per_layer(totals, recorder.counters, n,
                                   sum(walls) / sum(plain) - 1.0, failures / (2 * n))}


if __name__ == "__main__":
    sys.exit(main())
