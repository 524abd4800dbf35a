"""Batch command-line front end.

Commands: ``haflab matfun {haf|perm|det|alphadet}``, ``haflab field
sample``, ``haflab cox sample``, ``haflab verify``, ``haflab bench``.
Every command is deterministic given (config, seed); reports embed the
config hash and the seed.  Exit codes: 0 all checks pass, 1 check
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels as kn
from . import matfun as mf
from . import sampling as sp
from .errors import ConfigError, HaflabError
from .verify import run_battery


def _instance(*types):
    return lambda x: isinstance(x, types) and not isinstance(x, bool)


def _list_of(test):
    return lambda x: isinstance(x, list) and all(test(item) for item in x)


_whole, _number = _instance(int), _instance(int, float)


def _check_ranges(*checks) -> None:
    """Raise a ConfigError for the first (what, value, low) with value < low."""
    for what, value, low in checks:
        if value < low:
            raise ConfigError(f"{what} must be at least {low}, got {value}")


@dataclass
class ExperimentConfig:
    seed: int = 2024
    window: tuple = (0.0, 1.0)
    cells: int = 3
    replicates: int = 1000
    truncation: int = 6
    mc_samples: int = 40_000
    max_order: int = 2
    boxes: list | None = None
    orders: list | None = None
    model: dict | None = None
    models: list | None = None
    profile: dict | None = None
    out: str | None = None

    # The JSON type each field takes; null is accepted where the default is None.
    _FIELDS = {
        "seed": ("an integer", _whole),
        "window": ("a [lo, hi] pair of numbers",
                   lambda x: _list_of(_number)(x) and len(x) == 2),
        "cells": ("an integer", _whole),
        "replicates": ("an integer", _whole),
        "truncation": ("an integer", _whole),
        "mc_samples": ("an integer", _whole),
        "max_order": ("an integer", _whole),
        "boxes": ("a list of integer lists", _list_of(_list_of(_whole))),
        "orders": ("a list of integers", _list_of(_whole)),
        "model": ("an object", _instance(dict)),
        "models": ("a list of objects", _list_of(_instance(dict))),
        "profile": ("an object", _instance(dict)),
        "out": ("a string", _instance(str)),
    }

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "ExperimentConfig":
        doc = {}
        if path is not None:
            try:
                with open(path, "r", encoding="ascii") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            unknown = set(doc) - set(cls._FIELDS)
            if unknown:
                raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        doc.update({k: v for k, v in overrides.items() if v is not None})
        for name, value in doc.items():
            kind, test = cls._FIELDS[name]
            if not (test(value) or (value is None and getattr(cls, name) is None)):
                raise ConfigError(f"config field '{name}' must be {kind}")
        cfg = cls(**doc)
        lo, hi = cfg.window
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigError(f"config field 'window' must have finite ends with lo < hi, "
                              f"got {[float(lo), float(hi)]}")
        _check_ranges(("'replicates'", cfg.replicates, 0), ("'seed'", cfg.seed, 0),
                      ("'mc_samples'", cfg.mc_samples, 1), ("'max_order'", cfg.max_order, 1),
                      ("each 'orders' entry", min(cfg.orders or [1]), 1))
        return cfg

    def sha256(self) -> str:
        doc = asdict(self)
        doc.pop("out", None)   # the destination is not part of the experiment
        blob = json.dumps(doc, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()

    def grid(self) -> kn.Grid:
        return kn.Grid.regular(float(self.window[0]), float(self.window[1]),
                               int(self.cells))

    def resolve_model(self) -> kn.GaussianFieldModel:
        return kn.model_entry(self.model or {"builtin": "proper-fourier"}, self.grid())[1]

    def resolve_profile(self) -> kn.IntensityProfile:
        """Deterministic intensity amplitudes, one [re, im] pair per cell."""
        try:
            lam = np.array([complex(p[0], p[1]) for p in self.profile["lambda"]])
        except (KeyError, TypeError, IndexError) as exc:
            raise ConfigError(
                "profile needs a 'lambda' list of [re, im] pairs") from exc
        return kn.IntensityProfile(self.grid(), lam)

    def disjoint_boxes(self, n_cells: int) -> list[list[int]]:
        if self.boxes is not None:
            boxes = [kn.cell_set(b, n_cells).tolist() for b in self.boxes]
            kn.check_disjoint(boxes)
            return boxes
        return [[i for i in range(n_cells) if i % 2 == 0],
                [i for i in range(n_cells) if i % 2 == 1]]


def _open_new(path: str, force: bool):
    if os.path.exists(path) and not force:
        raise ConfigError(f"{path} exists; pass --force to overwrite")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="ascii", newline="\n")


# ---------------------------------------------------------------------------
# matfun subcommands
# ---------------------------------------------------------------------------


def _format_complex(z: complex) -> str:
    return f"{z.real:.12g} {z.imag:.12g}"


def cmd_matfun(args) -> int:
    matrix = mf.read_matrix_text(args.file)
    if args.op == "haf":
        fn = mf.hafnian_enum if args.algo == "enum" else mf.hafnian_dp
        value = fn(matrix)
    elif args.op == "perm":
        value = mf.permanent(matrix)
    elif args.op == "det":
        value = mf.determinant(matrix)
    else:
        value = mf.alpha_det(matrix, args.alpha)
    print(_format_complex(value))
    return 0


# ---------------------------------------------------------------------------
# sampling commands
# ---------------------------------------------------------------------------


def _summary_payload(cfg: ExperimentConfig, kind: str, extra: dict) -> str:
    payload = {"kind": kind, "seed": cfg.seed, "replicates": cfg.replicates,
               "config_sha256": cfg.sha256()}
    payload.update(extra)
    return json.dumps(payload, sort_keys=True, default=float) + "\n"


# File name, header, line template and dtype of each sampling dump, which
# is written in chunks of 256 replicates (larger chunks raise peak memory).
_DUMPS = {"cox": ("patterns.csv", "replicate,cell_index,count\n", "{},{},{}\n", int),
          "field": ("field.csv", "replicate,cell_index,re,im\n",
                    "{},{},{:.17g},{:.17g}\n", complex)}
_CSV_CHUNK = 256


def _csv_lines(template: str, start: int, block: np.ndarray) -> str:
    """CSV lines `replicate,cell_index,value...` for a block of replicates
    numbered from `start`; a complex value fills a re and an im column."""
    values = [block.real, block.imag] if np.iscomplexobj(block) else [block]
    table = np.empty(block.shape + (2 + len(values),), dtype=object)
    table[..., 0] = np.arange(start, start + len(block))[:, None]
    table[..., 1] = np.arange(block.shape[1])
    table[..., 2:] = np.stack(values, axis=-1)
    return (template * block.size).format(*table.ravel().tolist())


def cmd_sample(args, kind: str) -> int:
    cfg = ExperimentConfig.load(args.config, {"seed": args.seed, "out": args.out})
    if cfg.out is None:
        raise ConfigError("an output directory is required (--out or config 'out')")
    # a deterministic intensity profile turns `cox sample` into plain
    # Poisson sampling; `field sample` always needs a model
    if kind == "cox" and cfg.profile is not None:
        profile = cfg.resolve_profile()
        m_cells = profile.grid.n_cells
        draw = lambda rng: sp.sample_poisson(profile, rng)
    else:
        model = cfg.resolve_model()
        m_cells = model.grid.n_cells
        sampler = sp.sample_cox if kind == "cox" else sp.sample_field
        draw = lambda rng: sampler(model, rng)
    boxes = cfg.disjoint_boxes(m_cells)
    os.makedirs(cfg.out, exist_ok=True)

    name, header, template, dtype = _DUMPS[kind]
    rows = np.zeros((cfg.replicates, m_cells), dtype=dtype)
    with _open_new(os.path.join(cfg.out, name), args.force) as fh:
        fh.write(header)
        for start in range(0, cfg.replicates, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, cfg.replicates)
            for r in range(start, stop):
                rows[r] = draw(sp.replicate_rng(cfg.seed, r))
            fh.write(_csv_lines(template, start, rows[start:stop]))

    if kind == "cox":
        per_box = []
        reports = []
        for box in boxes:
            if cfg.replicates:
                rep = sp.empirical_product_moment(rows, [box])
                per_box.append({"cells": box, "mean": rep.value,
                                "std_error": rep.std_error})
                reports.append(rep)
                for order in cfg.orders or []:
                    reports.append(sp.empirical_factorial_moment(rows, box,
                                                                 int(order)))
            else:
                per_box.append({"cells": box, "mean": None, "std_error": None})
        extra = {"boxes": per_box}
        with _open_new(os.path.join(cfg.out, "moments.jsonl"), args.force) as fh:
            for rep in reports:
                fh.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")
    else:
        mean_sq = (np.abs(rows) ** 2).mean(axis=0) if cfg.replicates else None
        extra = {"mean_abs_square": None if mean_sq is None else mean_sq.tolist(),
                 "k1_diagonal": model.k1.diagonal().real.tolist()}
    with _open_new(os.path.join(cfg.out, "summary.json"), args.force) as fh:
        fh.write(_summary_payload(cfg, kind, extra))
    return 0


# ---------------------------------------------------------------------------
# verify and bench
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = ExperimentConfig.load(args.config, {"seed": args.seed, "out": args.out})
    if cfg.boxes is not None:
        raise ConfigError("verify chooses its own boxes; remove 'boxes' from the config")
    if cfg.profile is not None:
        raise ConfigError("verify draws its own Poisson intensities; "
                          "remove 'profile' from the config")
    results = run_battery(cfg)

    lines = [json.dumps({"config_sha256": cfg.sha256(), "seed": cfg.seed},
                        sort_keys=True)]
    lines += [json.dumps(r.to_dict(), sort_keys=True) for r in results]
    if cfg.out is not None:
        os.makedirs(os.path.dirname(os.path.abspath(cfg.out)), exist_ok=True)
        mode = "w" if args.force else "a"
        with open(cfg.out, mode, encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    for r in results:
        detail = f"{r.kind}={r.statistic:.3e}" if r.statistic is not None else (r.error or "")
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} {detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else []
    except ValueError as exc:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from exc
    _check_ranges(("--reps", args.reps, 1), ("--seed", args.seed or 0, 0),
                  ("each --sizes entry", min(sizes, default=0), 0))
    rows = mf.bench_hafnian(sizes, args.reps, seed=args.seed or 0)
    header = "algorithm,size,repetitions,median_seconds"
    body = [f"{r.algorithm},{r.size},{r.repetitions},{r.median_seconds:.6e}"
            for r in rows]
    print(header)
    for line in body:
        print(line)
    if args.out is not None:
        with _open_new(args.out, args.force) as fh:
            fh.write("\n".join([header] + body) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="64-bit root seed")
    parser.add_argument("--config", default=None, help="experiment config JSON")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="haflab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mat = sub.add_parser("matfun", help="exact matrix functions")
    p_mat.add_argument("op", choices=["haf", "perm", "det", "alphadet"])
    p_mat.add_argument("file", help="matrix in the plain-text format")
    p_mat.add_argument("--algo", choices=["enum", "dp"], default="dp",
                       help="hafnian algorithm")
    p_mat.add_argument("--alpha", type=float, default=1.0,
                       help="weight for alphadet")

    for name in ("field", "cox"):
        p = sub.add_parser(name, help=f"{name} process sampling")
        p_sub = p.add_subparsers(dest="action", required=True)
        p_s = p_sub.add_parser("sample", help="dump replicate draws")
        _add_common(p_s)

    p_ver = sub.add_parser("verify", help="run the identity battery")
    _add_common(p_ver)

    p_bench = sub.add_parser("bench", help="time both hafnian algorithms")
    _add_common(p_bench)
    p_bench.add_argument("--sizes", default="8,12",
                         help="comma-separated even dimensions")
    p_bench.add_argument("--reps", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "matfun":
            return cmd_matfun(args)
        if args.command in ("field", "cox"):
            return cmd_sample(args, args.command)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bench":
            return cmd_bench(args)
        raise ConfigError(f"unknown command {args.command}")
    except HaflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
