"""haflab benchmark: one workload per invocation.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload {cox-sample,verify,exact-moments} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics (``wall_p50_s``,
``wall_tail_s``, ``throughput``, ``setup_s``, ``peak_rss_mb``); ``--trace
1`` prints the per-layer metrics of a traced run.  Each workload runs in a
fresh process (``workload.py``) that starts no other process; ``setup_s``
is the median over several fresh processes of the time from process
start to the first op.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run environment and every metric with its unit, and
the same record is saved under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workload import RUNS_DIR, WORKLOADS, per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3          # fresh processes timed to the first op, besides the measured one
BLAS_THREADS = 1          # the ops use matrices of dimension <= 48
DEADLINE_S = 170.0        # every child is killed after this, counted from start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_p50_s": "s", "wall_tail_s": "s", "throughput": "units/s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def git_sha(root: str) -> str:
    """Commit of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child(args, env: dict, started: float, *extra: str) -> dict:
    """Run one workload process to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "haflab", "__init__.py")):
        print(f"error: no haflab sources under {root}/src", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    os.makedirs(os.path.join(root, RUNS_DIR), exist_ok=True)

    try:
        if args.trace:
            result = child(args, env, started)
        else:
            setups = [child(args, env, started, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = child(args, env, started)
            setups.append(result["setup_s"])
            result["setup_s"] = statistics.median(setups)
            result["setup_samples_s"] = setups
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = result["failed"] == 0 and not result.get("sanity")
    env_record = {
        "python": platform.python_version(), **result["versions"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "git_sha": git_sha(root), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops": result["ops"],
    }
    record = {"env": env_record, "result": result, "metrics": metrics}
    path = os.path.join(root, RUNS_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("env " + json.dumps(env_record, sort_keys=True))
    if not args.trace:
        print(f"tail p{result['tail_percentile']:.1f} over {result['ops']} ops "
              f"({result['tail_samples_above']} above); throughput in "
              f"{result['work_unit']}/s (ops that passed); setup samples {result['setup_samples_s']}")
        print(f"failed_frac {result['failed'] / result['ops']} ratio")
    else:
        print(f"spans {result['spans']} over {result['ops'] // 2} traced ops; shares "
              + json.dumps({k: round(v, 4) for k, v in result["layer_share"].items()}))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["ops"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
