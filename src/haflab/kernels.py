"""Gridded window, feature maps, and the derived correlation kernels.

A field model is specified by two feature matrices ``l1``, ``l2`` (one
column per grid cell).  The covariance Gram matrix is
``k1[m, m'] = sum_j l1[j, m] * conj(l1[j, m'])`` and the pseudo-covariance
is ``k2[m, m'] = sum_j l1[j, m] * l2[j, m']`` (no conjugation).  Inner
products are linear in the first argument throughout; the involution on
feature space is componentwise complex conjugation in the standard basis.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, DimensionError, ModelError, PreconditionError


def _instance(*types):
    return lambda x: isinstance(x, types) and not isinstance(x, bool)


# The one integer and one number rule of cell indices, model parameters and
# config fields: Python or numpy, never a bool (numpy's bool_ is neither).
_whole = _instance(int, np.integer)
_number = _instance(int, float, np.integer, np.floating)


@dataclass(frozen=True, eq=False)
class Grid:
    """A window of the line cut into cells, held as its read-only cell
    edges; the ends, the cell count, the midpoints and the lengths are
    derived from them once, read-only."""

    edges: np.ndarray   # (M + 1,) strictly increasing and finite
    lo: float = field(init=False)
    hi: float = field(init=False)
    n_cells: int = field(init=False)
    centers: np.ndarray = field(init=False)   # (M,) midpoints
    volumes: np.ndarray = field(init=False)   # (M,) lengths

    def __post_init__(self):
        edges = np.array(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise DimensionError(f"need a flat array of at least two cell edges, "
                                 f"got shape {edges.shape}")
        volumes = np.diff(edges)
        if not (np.isfinite(edges).all() and (volumes > 0).all()):
            raise DimensionError("cell edges must be finite and strictly increasing")
        centers = 0.5 * (edges[:-1] + edges[1:])
        for name, value in (("edges", _read_only(edges)), ("lo", float(edges[0])),
                            ("hi", float(edges[-1])), ("n_cells", volumes.size),
                            ("centers", _read_only(centers)), ("volumes", _read_only(volumes))):
            object.__setattr__(self, name, value)

    @classmethod
    def regular(cls, lo: float, hi: float, cells: int) -> "Grid":
        """Equal-length cells over the window [lo, hi]."""
        if cells < 1:   # np.linspace would raise a bare ValueError on a negative count
            raise DimensionError("need at least one cell")
        check_size(cells + 1)
        return cls(np.linspace(lo, hi, cells + 1))


@dataclass(frozen=True, eq=False)
class GaussianFieldModel:
    """Grid, read-only feature maps and a read-only mean (zeros by default);
    the kernels and the augmented covariance are derived from the features
    on first read and cached on the model, read-only."""

    grid: Grid
    l1: np.ndarray   # (d, M) feature columns
    l2: np.ndarray   # (d, M)
    mean: np.ndarray | None = None   # (M,) complex, zeros if None
    displaced: bool = field(init=False)   # the mean is nonzero

    def __post_init__(self):
        a, b = _feature_pair(np.array(self.l1, complex), np.array(self.l2, complex))
        if a.shape[1] != self.grid.n_cells:
            raise DimensionError(
                f"feature matrices have {a.shape[1]} columns for {self.grid.n_cells} cells")
        mean = np.array(np.zeros(self.grid.n_cells) if self.mean is None else self.mean, complex)
        if mean.shape != (self.grid.n_cells,):
            raise DimensionError("need one intensity value per cell")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ModelError("feature values must be finite")
        if not np.all(np.isfinite(mean)):
            raise ModelError("intensity values must be finite")
        for name, value in (("l1", a), ("l2", b), ("mean", mean)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "displaced", bool(mean.any()))

    @property
    def feature_dim(self) -> int:
        return self.l1.shape[0]

    @functools.cached_property
    def k1(self) -> np.ndarray:
        """(M, M) covariance Gram, symmetrized to be exactly Hermitian
        (commutative float addition makes the identity bitwise)."""
        g1 = self.l1.T @ self.l1.conj()
        return _read_only((g1 + g1.conj().T) / 2)

    @functools.cached_property
    def k2(self) -> np.ndarray:
        """(M, M) pseudo-covariance Gram, symmetrized to be exactly symmetric."""
        g2 = self.l1.T @ self.l2
        return _read_only((g2 + g2.T) / 2)

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """Block kernel of all cells at once (rows 2m, 2m+1 belong to cell
        m); every `block_kernel` is a gather from it."""
        if self.displaced:
            raise ModelError("block kernels need a zero-mean field; this model has a mean")
        out = np.empty((2 * self.grid.n_cells,) * 2, dtype=complex)
        out[0::2, 0::2] = self.k2
        out[0::2, 1::2] = self.k1
        out[1::2, 0::2] = self.k1.conj()
        out[1::2, 1::2] = self.k2.conj()
        return _read_only(out)

    @functools.cached_property
    def augmented(self) -> tuple[np.ndarray, np.ndarray]:
        """Real covariance of (Re G, Im G) and its symmetric factor
        (negative eigenvalues clipped), from one eigh that also serves the
        PSD check; a model failing it caches nothing, so every read raises.

        Blocks: E[XX^T] = Re(k1+k2)/2, E[YY^T] = Re(k1-k2)/2,
        E[XY^T] = (Im k2 - Im k1)/2, E[YX^T] = (Im k2 + Im k1)/2.
        """
        k1, k2 = self.k1, self.k2
        cov = 0.5 * np.block([[k1.real + k2.real, k2.imag - k1.imag],
                              [k2.imag + k1.imag, k1.real - k2.real]])
        w, v = np.linalg.eigh(cov)
        floor = -1e-8 * float(np.max(np.abs(w), initial=0.0))
        if w.min(initial=0.0) < floor:
            raise ModelError(
                f"augmented covariance has eigenvalue {w.min():.3e}; kernel pair inconsistent")
        return _read_only(cov), _read_only(v * np.sqrt(np.clip(w, 0.0, None))[None, :])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FeatureViolation:
    kind: str          # "pseudo-symmetry" or "gram-match"
    m: int
    m2: int
    residual: float

    def __str__(self):
        return f"{self.kind} at cells ({self.m}, {self.m2}): residual {self.residual:.3e}"


def _feature_pair(l1, l2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(l1, dtype=complex)
    b = np.asarray(l2, dtype=complex)
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionError(
            f"feature matrices must share a (d, M) shape, got {a.shape} vs {b.shape}")
    return a, b


def validate_features(l1, l2) -> list[FeatureViolation]:
    """Check the two admissibility conditions on a feature-map pair.

    Returns an empty list iff, for every pair of cells, the bilinear form
    ``sum_j l1[j,m] l2[j,m']`` is symmetric in (m, m') and the two Gram
    matrices built from l1 and from l2 agree.  The tolerance scales with
    the squared feature norm.
    """
    a, b = _feature_pair(l1, l2)
    peak = max(float(np.max(np.sum(np.abs(a) ** 2, axis=0), initial=0.0)),
               float(np.max(np.sum(np.abs(b) ** 2, axis=0), initial=0.0)))
    tol = 1e-10 * (1.0 + peak)
    cross = a.T @ b                 # bilinear, no conjugation
    # (m, m2, condition) residuals by np.hypot, as abs of one complex scalar is
    # (np.abs over an array can differ in the last bit)
    d = np.stack([cross - cross.T, a.T @ a.conj() - b.T @ b.conj()], axis=-1)
    resid = np.hypot(d.real, d.imag)
    bad = (resid > tol) & np.triu(np.ones(cross.shape, dtype=bool))[..., None]
    return [FeatureViolation(("pseudo-symmetry", "gram-match")[k], m, m2, resid[m, m2, k])
            for m, m2, k in np.argwhere(bad).tolist()]


def field_model(grid: Grid, l1, l2) -> GaussianFieldModel:
    """The model of a feature pair, refused with its violation list unless
    both admissibility conditions hold."""
    model = GaussianFieldModel(grid, l1, l2)
    bad = validate_features(model.l1, model.l2)
    if bad:
        raise ModelError("invalid feature pair: " + "; ".join(map(str, bad)))
    return model


def from_alpha_beta(alpha, beta, grid: Grid) -> GaussianFieldModel:
    """Mixed construction: stack (alpha+beta)/2 and (alpha-beta)/2.

    The resulting kernels close to k1 = (<a,a'> + <b,b'>)/2 and
    k2 = (a.a' - b.b')/2; alpha = beta recovers a proper field and
    beta = 0 with alpha = sqrt(2) L the fully correlated one.  The pair is
    admissible by construction, so it is not validated.
    """
    a, b = _feature_pair(alpha, beta)
    return GaussianFieldModel(grid, np.vstack([a + b, a - b]) / 2, np.vstack([a - b, a + b]) / 2)


def intensity_profile(grid: Grid, lam) -> GaussianFieldModel:
    """Deterministic complex intensity amplitude per cell (rate |lam|^2):
    the model with no features and mean `lam`."""
    empty = np.zeros((0, grid.n_cells), dtype=complex)
    return GaussianFieldModel(grid, empty, empty, mean=lam)


def _cell_list(cells, n_cells: int) -> list[int]:
    # Checked one by one in Python: numpy would turn a bool beside an int
    # into that int, and on a few indices its reductions cost more.
    items = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    for c in items:
        if not _whole(c):
            raise DimensionError(f"cell indices must be integers: {c!r} is not an integer")
        if not 0 <= c < n_cells:
            raise DimensionError(f"cell index {c} is out of range 0..{n_cells - 1}")
    return items


def cell_indices(cells, n_cells: int) -> np.ndarray:
    """Cell indices as an ``intp`` array, in order and with repeats kept.

    The one rule every layer reads: `cells` is a flat collection (list,
    tuple, array, range, set) of Python or numpy integers in
    ``0..n_cells-1``, possibly empty.  A float, bool or string index, or
    one out of range, raises `DimensionError`; none is truncated or wrapped.
    """
    return np.array(_cell_list(cells, n_cells), dtype=np.intp)


def cell_set(cells, n_cells: int) -> np.ndarray:
    """`cell_indices` as a set: sorted, each cell once."""
    # Not np.unique: on numpy 2.4 its first call raises peak memory by 1.7 MB.
    return np.array(sorted(set(_cell_list(cells, n_cells))), dtype=np.intp)


def check_size(*shape: int) -> None:
    """Raise `CapacityError` if complex values of `shape` take more bytes than
    numpy's index type (Py_ssize_t) holds: there numpy raises a bare
    ValueError, not a MemoryError."""
    if math.prod(shape) * 16 > sys.maxsize:
        raise CapacityError(f"an array of shape {shape} is past numpy's size limit")


def check_disjoint(cell_sets) -> None:
    """Raise `PreconditionError` if two of the cell sets share a cell."""
    owner: dict[int, int] = {}
    for j, cells in enumerate(cell_sets):
        for c in cells:
            if owner.setdefault(c, j) != j:
                raise PreconditionError(f"boxes {owner[c]} and {j} overlap")


def block_kernel(model: GaussianFieldModel, points) -> np.ndarray:
    """2n x 2n correlation kernel for a tuple of cell indices.

    Rows 2i, 2i+1 belong to point i; the (i, j) block is
    [[k2(xi,xj), k1(xi,xj)], [conj k1(xi,xj), conj k2(xi,xj)]].
    Global symmetry is exact because k1 is exactly Hermitian and k2
    exactly symmetric.  Repeated indices are allowed; the result is a
    fresh writable array.
    """
    pts = _cell_list(points, model.grid.n_cells)
    if not pts:
        raise DimensionError("need at least one cell index")
    # Rows 2p, 2p+1 of every point, then the same columns: two takes cost
    # less than one 2-D fancy index on these few points.
    idx = np.array([k for p in pts for k in (2 * p, 2 * p + 1)], dtype=np.intp)
    return model.kernel.take(idx, 0).take(idx, 1)


def intensity_integral(model: GaussianFieldModel, cells) -> float:
    """Quadrature of E|G|^2, squared feature norm plus squared mean, over a cell set."""
    idx = cell_set(cells, model.grid.n_cells)
    norms = np.sum(np.abs(model.l1[:, idx]) ** 2, axis=0) + np.abs(model.mean[idx]) ** 2
    return float(np.dot(model.grid.volumes[idx], norms))


# ---------------------------------------------------------------------------
# Builtin models
# ---------------------------------------------------------------------------


def _se_fourier_features(x: np.ndarray, n_freq: int, lengthscale: float,
                         scale: float) -> np.ndarray:
    # Midpoint quadrature of the squared-exponential spectral density:
    # K(x,y) ~ sum_j S(w_j) dw exp(i w_j (x - y)).
    w_max = 3.0 / lengthscale
    dw = 2.0 * w_max / n_freq
    freqs = -w_max + dw * (np.arange(n_freq) + 0.5)
    dens = scale ** 2 * lengthscale / np.sqrt(2 * np.pi) * np.exp(
        -0.5 * (lengthscale * freqs) ** 2)
    return np.sqrt(dens * dw)[:, None] * np.exp(1j * np.outer(freqs, x))


#: Per builtin model: the key and default of its feature count, and its
#: default lengthscale as a fraction of the window.
_BUILTINS = {"proper-fourier": ("n_freq", 3, 0.35),
             "real-gauss": ("n_centers", 3, 0.22),
             "alpha-beta-demo": ("d_half", 2, 0.45)}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_model(name: str, grid: Grid, params: dict | None = None) -> GaussianFieldModel:
    """Named demonstration models, validated on construction.

    - "proper-fourier": circularly symmetric field (k2 = 0), features are
      Fourier modes of a squared-exponential covariance.
    - "real-gauss": real-valued field (k1 = k2 real symmetric), Gaussian
      bump features.
    - "alpha-beta-demo": mixed field with complex k1 and nonzero k2.

    Each takes its feature count (an integer >= 1), a finite positive
    "lengthscale" and a finite "scale"; a bool or a string is no number.
    """
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"parameters for {name!r} must be an object")
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin model {name!r}")
    params = params or {}
    x = grid.centers
    span = grid.hi - grid.lo
    key, default, fraction = _BUILTINS[name]
    _known(params, [key, "lengthscale", "scale"], f"unknown parameters for {name!r}")
    count = _param(params, key, default, whole=True)
    if count < 1:
        raise ConfigError(f"model parameter {key!r} must be at least 1, got {count}")
    check_size(count, grid.n_cells)
    ell = _param(params, "lengthscale", fraction * span)
    if not (np.isfinite(ell) and ell > 0):
        raise ConfigError(f"model parameter 'lengthscale' must be finite and positive, got {ell}")
    scale = _param(params, "scale", 1.0)
    if not np.isfinite(scale):
        raise ConfigError(f"model parameter 'scale' must be finite, got {scale}")

    if name == "proper-fourier":
        base = _se_fourier_features(x, count, ell, scale)
        zero = np.zeros_like(base)
        return field_model(grid, np.vstack([base, zero]), np.vstack([zero, base]))

    locs = grid.lo + span * (np.arange(count) + 0.5) / count
    bumps = np.exp(-0.5 * ((x[None, :] - locs[:, None]) / ell) ** 2)
    if name == "real-gauss":
        return field_model(grid, scale * bumps, scale * bumps)
    # Winding phases decorrelate the kernel across the window; keeping
    # |alpha| = |beta| pointwise caps the self-moment growth.
    waves = np.exp(2j * np.pi * (np.arange(1, count + 1)[:, None]
                                 * (x[None, :] - grid.lo) / span))
    return from_alpha_beta(scale * waves * bumps, scale * bumps, grid)


def model_entry(entry: dict, grid: Grid) -> tuple[str, GaussianFieldModel]:
    """Resolve a config model entry, ``{"path": ...}`` or ``{"builtin":
    name, "params": {...}}`` on `grid`, to its name and model."""
    if "path" not in entry and "builtin" not in entry:
        raise ConfigError("model entry needs a 'builtin' name or a 'path'")
    keys = ["path"] if "path" in entry else ["builtin", "params"]
    _known(entry, keys, f"keys a {keys[0]!r} model entry does not read")
    if "builtin" in entry:
        return entry["builtin"], builtin_model(entry["builtin"], grid, entry.get("params"))
    model = load_model(entry["path"])
    if not np.array_equal(model.grid.edges, grid.edges):
        raise ConfigError(f"{entry['path']}: model grid {_describe(model.grid)} "
                          f"differs from the config grid {_describe(grid)}")
    return entry["path"], model


def _describe(grid: Grid) -> str:
    return f"[{grid.lo!r}, {grid.hi!r}] in {grid.n_cells} cells"


def _known(doc: dict, keys, what: str) -> None:
    """Raise a ConfigError naming, after `what`, the keys of `doc` not in `keys`."""
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"{what}: {sorted(unknown)}")


def _param(params: dict, key: str, default, whole: bool = False):
    """Read a model parameter: an int if `whole`, else a float (a Python int
    past the float range reads as infinite, as 1e400 does in JSON)."""
    value = params.get(key, default)
    if not _number(value):
        raise ConfigError(f"model parameter {key!r} must be a number, got {value!r}")
    if whole and not _whole(value):
        raise ConfigError(f"model parameter {key!r} must be an integer, got {value!r}")
    return int(value) if whole else _float(value)


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite_pair(p, what: str) -> tuple[float, float]:
    """`p` as two floats, if it is a list of exactly two finite numbers,
    neither a bool: an [re, im] pair or a [lo, hi] window; else a
    ValueError naming `what`."""
    if isinstance(p, list) and len(p) == 2 and all(map(_number, p)):
        pair = _float(p[0]), _float(p[1])
        if math.isfinite(pair[0]) and math.isfinite(pair[1]):
            return pair
    raise ValueError(f"{what} must be a pair of finite numbers, got {p!r}")


# ---------------------------------------------------------------------------
# Model files: JSON with complex matrices as arrays of [re, im] pairs.
# ---------------------------------------------------------------------------


def _encode_complex(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _decode_complex(rows, key: str) -> np.ndarray:
    try:
        return np.array([[complex(*_finite_pair(p, f"each {key} entry")) for p in row]
                         for row in rows], dtype=complex)
    except TypeError as exc:
        raise ValueError(f"{key} must be a list of rows of [re, im] pairs") from exc


def save_model(path, model: GaussianFieldModel) -> None:
    """Write `model` as a model file, which holds a regular grid by its
    window and cell count; a mean or an uneven grid is refused first."""
    grid = model.grid
    if not np.array_equal(grid.edges, Grid.regular(grid.lo, grid.hi, grid.n_cells).edges):
        raise ConfigError("model files hold regular grids only")
    if model.displaced:
        raise ConfigError("model files hold zero-mean fields only; this model has a mean")
    doc = {
        "grid": {"window": [grid.lo, grid.hi],
                 "cells": grid.n_cells},
        "feature_dim": model.feature_dim,
        "L1": _encode_complex(model.l1),
        "L2": _encode_complex(model.l2),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> GaussianFieldModel:
    """Load and validate a model file; each error names the file, and an
    invalid feature pair is rejected with its violation list."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON: {exc}") from exc
    try:
        window, cells, d = doc["grid"]["window"], doc["grid"]["cells"], doc["feature_dim"]
        l1, l2 = _decode_complex(doc["L1"], "L1"), _decode_complex(doc["L2"], "L2")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: missing or malformed field: {exc}") from exc
    try:
        for key, value in (("grid.cells", cells), ("feature_dim", d)):
            if not _whole(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if d == 0:   # `[]` holds no row length: no feature rows on the file's cells
            l1, l2 = (a.reshape(0, max(cells, 0)) if a.shape == (0,) else a for a in (l1, l2))
        if l1.shape != (d, cells):
            raise ValueError(f"L1 has shape {l1.shape}, expected ({d}, {cells})")
        return field_model(Grid.regular(*_finite_pair(window, "grid.window"), cells), l1, l2)
    except (ValueError, ModelError, DimensionError) as exc:
        raise ModelError(f"{path}: {exc}") from exc
