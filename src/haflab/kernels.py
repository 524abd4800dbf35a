"""Gridded window, feature maps, and the derived correlation kernels.

A field model is specified by two feature matrices ``l1``, ``l2`` (one
column per grid cell).  The covariance Gram matrix is
``k1[m, m'] = sum_j l1[j, m] * conj(l1[j, m'])`` and the pseudo-covariance
is ``k2[m, m'] = sum_j l1[j, m] * l2[j, m']`` (no conjugation).  Inner
products are linear in the first argument throughout; the involution on
feature space is componentwise complex conjugation in the standard basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ModelError, PreconditionError


@dataclass(frozen=True, eq=False)
class Grid:
    """Axis-aligned window split into cells with centers and volumes."""

    lo: np.ndarray
    hi: np.ndarray
    centers: np.ndarray   # (M, D)
    volumes: np.ndarray   # (M,)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim == 1:
            centers = centers[:, None]
        volumes = np.asarray(self.volumes, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "volumes", volumes)
        if centers.shape[0] != volumes.shape[0] or centers.shape[0] < 1:
            raise DimensionError("need one center and one volume per cell")
        if np.any(volumes <= 0):
            raise DimensionError("cell volumes must be positive")
        window = float(np.prod(hi - lo))
        total = float(volumes.sum())
        if abs(total - window) > 1e-12 * max(1.0, abs(window)):
            raise DimensionError(
                f"cell volumes sum to {total}, window volume is {window}")
        if len({tuple(c) for c in centers}) != centers.shape[0]:
            raise DimensionError("cell centers must be pairwise distinct")

    @classmethod
    def regular(cls, lo: float, hi: float, cells: int) -> "Grid":
        """Equal-volume subdivision of a one-dimensional window."""
        if cells < 1:
            raise DimensionError("need at least one cell")
        edges = np.linspace(lo, hi, cells + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return cls(np.array([lo]), np.array([hi]),
                   centers[:, None], np.diff(edges))

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianFieldModel:
    """Grid plus feature maps and their derived Gram kernels."""

    grid: Grid
    l1: np.ndarray   # (d, M) feature columns
    l2: np.ndarray   # (d, M)
    k1: np.ndarray   # (M, M) Hermitian covariance Gram
    k2: np.ndarray   # (M, M) symmetric pseudo-covariance Gram

    @property
    def feature_dim(self) -> int:
        return self.l1.shape[0]


@dataclass(frozen=True, eq=False)
class IntensityProfile:
    """Deterministic complex intensity amplitude per cell (rate |lam|^2)."""

    grid: Grid
    lam: np.ndarray   # (M,)

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=complex)
        object.__setattr__(self, "lam", lam)
        if lam.shape != (self.grid.n_cells,):
            raise DimensionError("need one intensity value per cell")
        if not np.all(np.isfinite(lam)):
            raise ModelError("intensity values must be finite")


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


def validate_features(l1, l2, *, tol: float | None = None) -> list[FeatureViolation]:
    """Check the two admissibility conditions on a feature-map pair.

    Returns an empty list iff, for every pair of cells, the bilinear form
    ``sum_j l1[j,m] l2[j,m']`` is symmetric in (m, m') and the two Gram
    matrices built from l1 and from l2 agree.  The default tolerance
    scales with the squared feature norm.
    """
    a, b = _feature_pair(l1, l2)
    if tol is None:
        peak = max(float(np.max(np.sum(np.abs(a) ** 2, axis=0), initial=0.0)),
                   float(np.max(np.sum(np.abs(b) ** 2, axis=0), initial=0.0)))
        tol = 1e-10 * (1.0 + peak)
    cross = a.T @ b                 # bilinear, no conjugation
    gram1 = a.T @ a.conj()
    gram2 = b.T @ b.conj()
    out: list[FeatureViolation] = []
    m_cells = a.shape[1]
    for m in range(m_cells):
        for m2 in range(m, m_cells):
            r_sym = abs(cross[m, m2] - cross[m2, m])
            if r_sym > tol:
                out.append(FeatureViolation("pseudo-symmetry", m, m2, r_sym))
            r_gram = abs(gram1[m, m2] - gram2[m, m2])
            if r_gram > tol:
                out.append(FeatureViolation("gram-match", m, m2, r_gram))
    return out


def field_model(grid: Grid, l1, l2, *, validate: bool = True) -> GaussianFieldModel:
    """Build a model from feature matrices, deriving both Gram kernels.

    The covariance is symmetrized to be exactly Hermitian and the
    pseudo-covariance to be exactly symmetric (commutative float addition
    makes both identities bitwise).
    """
    a, b = _feature_pair(l1, l2)
    if a.shape[1] != grid.n_cells:
        raise DimensionError(
            f"feature matrices have {a.shape[1]} columns for {grid.n_cells} cells")
    if validate:
        bad = validate_features(a, b)
        if bad:
            raise ModelError("invalid feature pair: " + "; ".join(map(str, bad)))
    g1 = a.T @ a.conj()
    g2 = a.T @ b
    k1 = (g1 + g1.conj().T) / 2
    k2 = (g2 + g2.T) / 2
    return GaussianFieldModel(grid, a, b, k1, k2)


def from_alpha_beta(alpha, beta, grid: Grid) -> GaussianFieldModel:
    """Mixed construction: stack (alpha+beta)/2 and (alpha-beta)/2.

    The resulting kernels close to k1 = (<a,a'> + <b,b'>)/2 and
    k2 = (a.a' - b.b')/2; alpha = beta recovers a proper field and
    beta = 0 with alpha = sqrt(2) L the fully correlated one.
    """
    a, b = _feature_pair(alpha, beta)
    plus = (a + b) / 2
    minus = (a - b) / 2
    l1 = np.vstack([plus, minus])
    l2 = np.vstack([minus, plus])
    return field_model(grid, l1, l2, validate=False)


def _interleaved(model: GaussianFieldModel) -> np.ndarray:
    # Block kernel of all cells at once (rows 2m, 2m+1 belong to cell m),
    # built once and cached read-only on the model: it is frozen and k1, k2
    # are never written.  Every block_kernel is a gather from it.
    cached = vars(model).get("_interleaved")
    if cached is not None:
        return cached
    m_cells = model.grid.n_cells
    out = np.empty((2 * m_cells, 2 * m_cells), dtype=complex)
    out[0::2, 0::2] = model.k2
    out[0::2, 1::2] = model.k1
    out[1::2, 0::2] = model.k1.conj()
    out[1::2, 1::2] = model.k2.conj()
    out.flags.writeable = False
    vars(model)["_interleaved"] = out
    return out


def cell_indices(cells, n_cells: int) -> np.ndarray:
    """Cell indices as an ``intp`` array, in order and with repeats kept.

    The one rule every layer reads: `cells` is a flat collection (list,
    tuple, array, range, set) of Python or numpy integers in
    ``0..n_cells-1``, possibly empty.  A float, bool or string index, or
    one out of range, raises `DimensionError`; none is truncated or wrapped.
    """
    # Checked one by one in Python: numpy would turn a bool beside an int
    # into that int, and on a few indices its reductions cost more.
    items = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    for c in items:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise DimensionError(f"cell indices must be integers: {c!r} is not an integer")
        if not 0 <= c < n_cells:
            raise DimensionError(f"cell index {c} is out of range 0..{n_cells - 1}")
    return np.array(items, dtype=np.intp)


def cell_set(cells, n_cells: int) -> np.ndarray:
    """`cell_indices` as a set: sorted, each cell once."""
    # Not np.unique: on numpy 2.4 its first call raises peak memory by 1.7 MB.
    return np.array(sorted(set(cell_indices(cells, n_cells).tolist())), dtype=np.intp)


def check_disjoint(cell_sets) -> None:
    """Raise `PreconditionError` if two of the cell sets share a cell."""
    owner: dict[int, int] = {}
    for j, cells in enumerate(cell_sets):
        for c in cells:
            if owner.setdefault(c, j) != j:
                raise PreconditionError(f"boxes {owner[c]} and {j} overlap")


_PAIR = np.array([0, 1])


def block_kernel(model: GaussianFieldModel, points) -> np.ndarray:
    """2n x 2n correlation kernel for a tuple of cell indices.

    Rows 2i, 2i+1 belong to point i; the (i, j) block is
    [[k2(xi,xj), k1(xi,xj)], [conj k1(xi,xj), conj k2(xi,xj)]].
    Global symmetry is exact because k1 is exactly Hermitian and k2
    exactly symmetric.  Repeated indices are allowed; the result is a
    fresh writable array.
    """
    pts = cell_indices(points, model.grid.n_cells)
    if pts.size == 0:
        raise DimensionError("need at least one cell index")
    idx = (2 * pts[:, None] + _PAIR).ravel()
    return _interleaved(model)[idx[:, None], idx]


def intensity_integral(model: GaussianFieldModel, cells) -> float:
    """Quadrature of the squared feature norm over a cell set."""
    idx = cell_set(cells, model.grid.n_cells)
    norms = np.sum(np.abs(model.l1[:, idx]) ** 2, axis=0)
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


def builtin_model(name: str, grid: Grid, params: dict | None = None) -> GaussianFieldModel:
    """Named demonstration models, validated on construction.

    - "proper-fourier": circularly symmetric field (k2 = 0), features are
      Fourier modes of a squared-exponential covariance.
    - "real-gauss": real-valued field (k1 = k2 real symmetric), Gaussian
      bump features.
    - "alpha-beta-demo": mixed field with complex k1 and nonzero k2.
    """
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"parameters for {name!r} must be an object")
    params = dict(params or {})
    x = grid.centers[:, 0]
    span = float(grid.hi[0] - grid.lo[0])

    if name == "proper-fourier":
        n_freq = _count(params, "n_freq", 3)
        ell = _lengthscale(params, 0.35 * span)
        scale = _param(params, "scale", float, 1.0)
        _reject_extras(name, params)
        base = _se_fourier_features(x, n_freq, ell, scale)
        zero = np.zeros_like(base)
        l1 = np.vstack([base, zero])
        l2 = np.vstack([zero, base])
        return field_model(grid, l1, l2)

    if name == "real-gauss":
        n_centers = _count(params, "n_centers", 3)
        ell = _lengthscale(params, 0.22 * span)
        scale = _param(params, "scale", float, 1.0)
        _reject_extras(name, params)
        locs = grid.lo[0] + span * (np.arange(n_centers) + 0.5) / n_centers
        feats = scale * np.exp(-0.5 * ((x[None, :] - locs[:, None]) / ell) ** 2)
        return field_model(grid, feats, feats)

    if name == "alpha-beta-demo":
        d_half = _count(params, "d_half", 2)
        ell = _lengthscale(params, 0.45 * span)
        scale = _param(params, "scale", float, 1.0)
        _reject_extras(name, params)
        locs = grid.lo[0] + span * (np.arange(d_half) + 0.5) / d_half
        bumps = np.exp(-0.5 * ((x[None, :] - locs[:, None]) / ell) ** 2)
        # Winding phases decorrelate the kernel across the window; keeping
        # |alpha| = |beta| pointwise caps the self-moment growth.
        waves = np.exp(2j * np.pi * (np.arange(1, d_half + 1)[:, None]
                                     * (x[None, :] - grid.lo[0]) / span))
        alpha = scale * waves * bumps
        beta = scale * bumps
        return from_alpha_beta(alpha, beta, grid)

    raise ConfigError(f"unknown builtin model {name!r}")


BUILTIN_NAMES = ("proper-fourier", "real-gauss", "alpha-beta-demo")


def model_entry(entry: dict, grid: Grid) -> tuple[str, GaussianFieldModel]:
    """Resolve a config model entry, ``{"path": ...}`` or ``{"builtin":
    name, "params": {...}}`` on `grid`, to its name and model."""
    if "path" in entry:
        model = load_model(entry["path"])
        if (model.grid.n_cells != grid.n_cells or model.grid.lo[0] != grid.lo[0]
                or model.grid.hi[0] != grid.hi[0]):
            raise ConfigError(f"{entry['path']}: model grid {_describe(model.grid)} "
                              f"differs from the config grid {_describe(grid)}")
        return entry["path"], model
    if "builtin" in entry:
        return entry["builtin"], builtin_model(entry["builtin"], grid, entry.get("params"))
    raise ConfigError("model entry needs a 'builtin' name or a 'path'")


def _describe(grid: Grid) -> str:
    return f"[{float(grid.lo[0])!r}, {float(grid.hi[0])!r}] in {grid.n_cells} cells"


def _param(params: dict, key: str, convert, default):
    value = params.pop(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"model parameter {key!r} must be a number, got {value!r}") from exc


def _count(params: dict, key: str, default: int) -> int:
    value = _param(params, key, int, default)
    if value < 1:
        raise ConfigError(f"model parameter {key!r} must be at least 1, got {value}")
    return value


def _lengthscale(params: dict, default: float) -> float:
    value = _param(params, "lengthscale", float, default)
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"model parameter 'lengthscale' must be finite and positive, got {value}")
    return value


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise ConfigError(f"unknown parameters for {name!r}: {sorted(params)}")


# ---------------------------------------------------------------------------
# Model files: JSON with complex matrices as arrays of [re, im] pairs.
# ---------------------------------------------------------------------------


def _encode_complex(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _decode_complex(rows) -> np.ndarray:
    try:
        return np.array([[complex(p[0], p[1]) for p in row] for row in rows],
                        dtype=complex)
    except (TypeError, IndexError) as exc:
        raise ModelError("complex matrices must be arrays of [re, im] pairs") from exc


def save_model(path, model: GaussianFieldModel) -> None:
    grid = model.grid
    if grid.centers.shape[1] != 1:
        raise ConfigError("model files support one-dimensional grids only")
    doc = {
        "grid": {"window": [float(grid.lo[0]), float(grid.hi[0])],
                 "cells": grid.n_cells},
        "feature_dim": model.feature_dim,
        "L1": _encode_complex(model.l1),
        "L2": _encode_complex(model.l2),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> GaussianFieldModel:
    """Load and validate a model file; invalid feature pairs are rejected
    with the violation list in the error message."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON: {exc}") from exc
    try:
        window = doc["grid"]["window"]
        cells = int(doc["grid"]["cells"])
        d = int(doc["feature_dim"])
        l1 = _decode_complex(doc["L1"])
        l2 = _decode_complex(doc["L2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: missing or malformed field: {exc}") from exc
    grid = Grid.regular(float(window[0]), float(window[1]), cells)
    if l1.shape != (d, cells):
        raise ModelError(
            f"{path}: L1 has shape {l1.shape}, expected ({d}, {cells})")
    try:
        return field_model(grid, l1, l2)
    except (ModelError, DimensionError) as exc:
        raise ModelError(f"{path}: {exc}") from exc
