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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import kernels as kn
from . import matfun as mf
from . import sampling as sp
from .errors import ConfigError, HaflabError
from .kernels import _finite_pair, _float, _instance, _known, _number, _whole
from .verify import run_battery


def _list_of(test):
    return lambda x: isinstance(x, list) and all(test(item) for item in x)


def _typed(default, kind: str, test):
    """A config field and the JSON type it takes, `kind` naming `test`;
    null is accepted where the default is None."""
    return field(default=default, metadata={"kind": kind, "test": test})


def _check_ranges(*checks) -> None:
    """Raise a ConfigError for the first (what, value, low) with value < low."""
    for what, value, low in checks:
        if value < low:
            raise ConfigError(f"{what} must be at least {low}, got {value}")


@dataclass
class ExperimentConfig:
    seed: int = _typed(2024, "an integer", _whole)
    window: tuple = _typed((0.0, 1.0), "a [lo, hi] pair of numbers",
                           lambda x: _list_of(_number)(x) and len(x) == 2)
    cells: int = _typed(3, "an integer", _whole)
    replicates: int = _typed(1000, "an integer", _whole)
    truncation: int = _typed(6, "an integer", _whole)
    mc_samples: int = _typed(40_000, "an integer", _whole)
    max_order: int = _typed(2, "an integer", _whole)
    boxes: list | None = _typed(None, "a list of integer lists", _list_of(_list_of(_whole)))
    orders: list | None = _typed(None, "a list of integers", _list_of(_whole))
    model: dict | None = _typed(None, "an object", _instance(dict))
    models: list | None = _typed(None, "a list of objects", _list_of(_instance(dict)))
    profile: dict | None = _typed(None, "an object", _instance(dict))

    @classmethod
    def load(cls, path: str | None, seed: int | None = None) -> "ExperimentConfig":
        """The config at `path` (else the defaults), its seed replaced by `seed` if given."""
        doc, typed = {}, {f.name: f for f in fields(cls)}
        if path is not None:
            try:
                with open(path, "r", encoding="ascii") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            if not isinstance(doc, dict):
                raise ConfigError(f"config {path} must be a JSON object")
            _known(doc, typed, "unknown config fields")
        if seed is not None:
            doc["seed"] = seed
        for name, value in doc.items():
            meta = typed[name].metadata
            if not (meta["test"](value) or (value is None and typed[name].default is None)):
                raise ConfigError(f"config field '{name}' must be {meta['kind']}")
        cfg = cls(**doc)
        lo, hi = map(_float, cfg.window)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigError(f"config field 'window' must have finite ends with lo < hi, "
                              f"got {[lo, hi]}")
        _check_ranges(("'replicates'", cfg.replicates, 0), ("'seed'", cfg.seed, 0),
                      ("'truncation'", cfg.truncation, 0),
                      ("'mc_samples'", cfg.mc_samples, 1), ("'max_order'", cfg.max_order, 1),
                      ("each 'orders' entry", min(cfg.orders or [1]), 1))
        return cfg

    def sha256(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()

    def grid(self) -> kn.Grid:
        return kn.Grid.regular(float(self.window[0]), float(self.window[1]),
                               int(self.cells))

    def resolve_model(self) -> kn.GaussianFieldModel:
        return kn.model_entry(self.model or {"builtin": "proper-fourier"}, self.grid())[1]

    def resolve_profile(self) -> kn.GaussianFieldModel:
        """The model with no features and a mean of one [re, im] pair per cell."""
        _known(self.profile, ["lambda"], "unknown profile keys")
        try:
            lam = np.array([complex(*_finite_pair(p, "each profile 'lambda' entry"))
                            for p in self.profile["lambda"]])
        except (KeyError, TypeError) as exc:
            raise ConfigError("profile needs a 'lambda' list of [re, im] pairs") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return kn.intensity_profile(self.grid(), lam)

    def disjoint_boxes(self, n_cells: int) -> list[list[int]]:
        if self.boxes is not None:
            boxes = [kn.cell_set(b, n_cells).tolist() for b in self.boxes]
            kn.check_disjoint(boxes)
            return boxes
        return [[i for i in range(n_cells) if i % 2 == 0],
                [i for i in range(n_cells) if i % 2 == 1]]


@contextmanager
def _naming(what: str):
    """Add `what`, the input behind the numbers, to the message of a
    floating-point overflow or invalid value raised in the block."""
    try:
        yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} ({what})") from exc


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
    for flag, op in (("algo", "haf"), ("alpha", "alphadet")):
        if getattr(args, flag) is not None and args.op != op:
            raise ConfigError(f"--{flag} applies only to matfun {op}, not {args.op}")
    matrix = mf.read_matrix_text(args.file)
    if args.op == "haf":
        fn = mf.hafnian_enum if args.algo == "enum" else mf.hafnian_dp
        value = fn(matrix)
    elif args.op == "perm":
        value = mf.permanent(matrix)
    elif args.op == "det":
        value = mf.determinant(matrix)
    else:
        value = mf.alpha_det(matrix, 1.0 if args.alpha is None else args.alpha)
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


def cmd_sample(args, cfg: ExperimentConfig) -> int:
    kind = args.command
    if args.out is None:
        raise ConfigError("an output directory is required (--out)")
    if cfg.models is not None:
        raise ConfigError(f"{kind} sample draws one model; name it in 'model' "
                          "and remove 'models' from the config")
    unread = [f.name for f in fields(cfg) if f.name in ("truncation", "mc_samples", "max_order")
              and getattr(cfg, f.name) != f.default]
    if unread:
        raise ConfigError(f"{kind} sample does not read {unread}; remove them from the config")
    # a profile is a model with no features, whose Cox counts are plain Poisson
    if kind == "field" and cfg.profile is not None:
        raise ConfigError("field sample draws a Gaussian field; remove 'profile' from the config")
    if cfg.profile is not None and cfg.model is not None:
        raise ConfigError("cox sample draws from 'profile' or from 'model', not both; "
                          "remove one from the config")
    model = cfg.resolve_profile() if cfg.profile is not None else cfg.resolve_model()
    sampler = sp.sample_cox if kind == "cox" else sp.sample_field
    boxes = cfg.disjoint_boxes(model.grid.n_cells)
    kn.check_size(cfg.replicates, model.grid.n_cells)
    os.makedirs(args.out, exist_ok=True)

    name, header, template, dtype = _DUMPS[kind]
    rows = np.zeros((cfg.replicates, model.grid.n_cells), dtype=dtype)
    with _open_new(os.path.join(args.out, name), args.force) as fh:
        fh.write(header)
        for start in range(0, cfg.replicates, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, cfg.replicates)
            for r in range(start, stop):
                rows[r] = sampler(model, sp.replicate_rng(cfg.seed, r))
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
        with _open_new(os.path.join(args.out, "moments.jsonl"), args.force) as fh:
            for rep in reports:
                fh.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")
    else:
        mean_sq = (np.abs(rows) ** 2).mean(axis=0) if cfg.replicates else None
        extra = {"mean_abs_square": None if mean_sq is None else mean_sq.tolist(),
                 "k1_diagonal": model.k1.diagonal().real.tolist()}
    with _open_new(os.path.join(args.out, "summary.json"), args.force) as fh:
        fh.write(_summary_payload(cfg, kind, extra))
    return 0


# ---------------------------------------------------------------------------
# verify and bench
# ---------------------------------------------------------------------------


def cmd_verify(args, cfg: ExperimentConfig) -> int:
    results = run_battery(cfg)
    if args.out is not None:   # the records are built only to be written
        lines = [json.dumps({"config_sha256": cfg.sha256(), "seed": cfg.seed},
                            sort_keys=True)]
        lines += [json.dumps(r.to_dict(), sort_keys=True) for r in results]
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        mode = "w" if args.force else "a"
        with open(args.out, mode, encoding="ascii", newline="\n") as fh:
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
    _check_ranges(("--reps", args.reps, 1), ("--seed", args.seed, 0),
                  ("each --sizes entry", min(sizes, default=0), 0))
    rows = mf.bench_hafnian(sizes, args.reps, seed=args.seed)
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


def _add_common(parser: argparse.ArgumentParser, config: bool = True) -> None:
    """--seed (else the config's, or 0 without --config), --config, --out and --force."""
    parser.add_argument("--seed", type=int, default=None if config else 0, help="64-bit root seed")
    if config:
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
    p_mat.add_argument("--algo", choices=["enum", "dp"], default=None,
                       help="hafnian algorithm, haf only (default dp)")
    p_mat.add_argument("--alpha", type=float, default=None,
                       help="cycle weight, alphadet only (default 1)")

    for name in ("field", "cox"):
        p = sub.add_parser(name, help=f"{name} process sampling")
        p_sub = p.add_subparsers(dest="action", required=True)
        p_s = p_sub.add_parser("sample", help="dump replicate draws")
        _add_common(p_s)

    p_ver = sub.add_parser("verify", help="run the identity battery")
    _add_common(p_ver)

    p_bench = sub.add_parser("bench", help="time both hafnian algorithms")
    _add_common(p_bench, config=False)
    p_bench.add_argument("--sizes", default="8,12",
                         help="comma-separated even dimensions")
    p_bench.add_argument("--reps", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Overflow or an invalid value (as on a huge window), or an array too large
    # to allocate, stops the command with one error line and no traceback.
    try:
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "matfun":
                with _naming(f"matrix file {args.file}"):
                    return cmd_matfun(args)
            if args.command == "bench":
                return cmd_bench(args)
            cfg = ExperimentConfig.load(args.config, args.seed)
            with _naming(f"config field 'window' is {list(cfg.window)}"):
                return (cmd_verify if args.command == "verify" else cmd_sample)(args, cfg)
    except (HaflabError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
