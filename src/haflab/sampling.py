"""Samplers and moment estimators for the gridded field and point processes.

The complex field is drawn through the real 2M-dimensional augmented
covariance of (Re G, Im G); the doubly stochastic counts are Poisson with
conditional rate |G(x_m)|^2 vol_m per cell.  Every estimator reports a
batch-based standard error; exact quadrature values carry none.

Randomness: every entry point takes a 64-bit seed (or a Generator).
Replicate-level streams are derived with ``replicate_rng``, a counter-style
split (SeedSequence spawn keys), so replicates are independent and safe to
generate in parallel.  Batch samplers draw from one stream with a fixed
reduction order, so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError, ModelError, PreconditionError
from .kernels import (GaussianFieldModel, IntensityProfile, block_kernel, cell_indices,
                      cell_set, check_disjoint)
from .matfun import hafnian_dp


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-replicate stream derived from one root seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MomentReport:
    """Named moment value; std_error is present iff the value is a Monte
    Carlo estimate."""

    label: str
    value: complex | float
    std_error: float | None = None
    n_samples: int | None = None

    def to_dict(self) -> dict:
        val = self.value
        if isinstance(val, complex):
            val = [val.real, val.imag]
        out = {"label": self.label, "value": val}
        if self.std_error is not None:
            out["std_error"] = self.std_error
        if self.n_samples is not None:
            out["n_samples"] = self.n_samples
        return out


def _batch_stats(values: np.ndarray, batches: int) -> tuple[float, float]:
    # Distribution-free standard error from near-equal batch means.
    nb = min(batches, values.size)
    if nb < 2:
        return float(np.mean(values)), 0.0
    means = np.array([chunk.mean() for chunk in np.array_split(values, nb)])
    return float(values.mean()), float(means.std(ddof=1) / np.sqrt(nb))


# ---------------------------------------------------------------------------
# Field sampling
# ---------------------------------------------------------------------------


def _augmented(model: GaussianFieldModel) -> tuple[np.ndarray, np.ndarray]:
    # Covariance and symmetric factor (negative eigenvalues clipped) from one
    # eigh, cached on the model: it is frozen and k1, k2 are never written.
    # A model failing the PSD check caches nothing, so every call raises.
    cached = vars(model).get("_augmented")
    if cached is not None:
        return cached
    k1, k2 = model.k1, model.k2
    xx = 0.5 * (k1.real + k2.real)
    yy = 0.5 * (k1.real - k2.real)
    xy = 0.5 * (k2.imag - k1.imag)
    yx = 0.5 * (k2.imag + k1.imag)
    cov = np.block([[xx, xy], [yx, yy]])
    w, v = np.linalg.eigh(cov)
    floor = -1e-8 * float(np.max(np.abs(w), initial=0.0))
    if w.min(initial=0.0) < floor:
        raise ModelError(
            f"augmented covariance has eigenvalue {w.min():.3e}; kernel pair inconsistent")
    factor = v * np.sqrt(np.clip(w, 0.0, None))[None, :]
    cov.flags.writeable = factor.flags.writeable = False
    vars(model)["_augmented"] = cov, factor
    return cov, factor


def augmented_covariance(model: GaussianFieldModel) -> np.ndarray:
    """Real covariance of (Re G(x_1..x_M), Im G(x_1..x_M)), as a copy of
    the matrix cached on the model.

    Blocks: E[XX^T] = Re(k1+k2)/2, E[YY^T] = Re(k1-k2)/2,
    E[XY^T] = (Im k2 - Im k1)/2, E[YX^T] = (Im k2 + Im k1)/2.
    """
    return _augmented(model)[0].copy()


def sample_field(model: GaussianFieldModel, seed, size: int | None = None) -> np.ndarray:
    """Draw the complex field on the grid; shape (M,) or (size, M)."""
    rng = _as_rng(seed)
    factor = _augmented(model)[1]
    m = model.grid.n_cells
    n = 1 if size is None else int(size)
    z = rng.standard_normal((n, 2 * m)) @ factor.T
    g = z[:, :m] + 1j * z[:, m:]
    return g[0] if size is None else g


# ---------------------------------------------------------------------------
# Point-pattern sampling (counts per cell)
# ---------------------------------------------------------------------------


def _poisson(rng: np.random.Generator, rate: np.ndarray, size=None) -> np.ndarray:
    # numpy rejects a NaN rate and any rate above about 9.2e18 (inf included).
    try:
        return rng.poisson(rate, size=size)
    except ValueError as exc:
        raise CapacityError(f"largest Poisson rate {float(np.max(rate)):.6g} "
                            f"cannot be sampled: {exc}") from exc


def sample_poisson(profile: IntensityProfile, seed, size: int | None = None) -> np.ndarray:
    """Independent counts[m] ~ Poisson(|lam_m|^2 vol_m)."""
    rng = _as_rng(seed)
    rate = np.abs(profile.lam) ** 2 * profile.grid.volumes
    shape = rate.shape if size is None else (int(size), rate.size)
    return _poisson(rng, rate, shape)


def sample_cox(model: GaussianFieldModel, seed, size: int | None = None) -> np.ndarray:
    """Doubly stochastic counts: draw the field, then conditionally
    independent Poisson counts with rate |G(x_m)|^2 vol_m."""
    rng = _as_rng(seed)
    g = sample_field(model, rng, size=size if size is not None else 1)
    rate = np.abs(g) ** 2 * model.grid.volumes[None, :]
    counts = _poisson(rng, rate)
    return counts[0] if size is None else counts


def box_counts(patterns: np.ndarray, box) -> np.ndarray:
    """Total count inside a cell set, per pattern."""
    pats = np.atleast_2d(np.asarray(patterns))
    return pats[:, cell_set(box, pats.shape[1])].sum(axis=1)


# ---------------------------------------------------------------------------
# Moment estimators and the exact quadrature they are checked against
# ---------------------------------------------------------------------------


def field_moment_mc(model: GaussianFieldModel, points, n_samples: int, seed,
                    batches: int = 100) -> MomentReport:
    """Monte Carlo mean of prod_i |G(x_{m_i})|^2 over the given points."""
    pts = cell_indices(points, model.grid.n_cells)
    if pts.size < 1 or pts.size > 4:
        raise PreconditionError("between 1 and 4 points (estimator variance grows fast)")
    rng = _as_rng(seed)
    factor = _augmented(model)[1]
    m = model.grid.n_cells
    values = np.empty(n_samples)
    # Draw in the batch-sized chunks that _batch_stats averages: bounded memory.
    for chunk in np.array_split(values, max(1, min(batches, n_samples))):
        z = rng.standard_normal((chunk.size, 2 * m)) @ factor.T
        g = z[:, :m] + 1j * z[:, m:]
        chunk[:] = np.prod(np.abs(g[:, pts]) ** 2, axis=1)
    value, se = _batch_stats(values, batches)
    label = "E prod |G|^2 at " + ",".join(map(str, pts.tolist()))
    return MomentReport(label, value, se, n_samples)


def quadrature_haf_moment(model: GaussianFieldModel, boxes, *,
                          allow_repeats: bool = False,
                          tuple_limit: int = 200_000,
                          max_order: int = 4) -> MomentReport:
    """Exact discrete value sum over cell tuples of haf(block kernel)
    times the product of cell volumes.

    For pairwise disjoint boxes this is the product moment
    E[gamma(D_1) ... gamma(D_n)] of the doubly stochastic counts, and n!
    times the order-n correlation measure of the box product.  Pass
    ``allow_repeats=True`` for the correlation-measure semantics on
    overlapping or repeated boxes (used by factorial moments and the
    growth bound).
    """
    cells = [cell_set(box, model.grid.n_cells).tolist() for box in boxes]
    n = len(cells)
    if n < 1 or n > max_order:
        raise PreconditionError(f"between 1 and {max_order} boxes")
    if not allow_repeats:
        check_disjoint(cells)
    n_tuples = int(np.prod([len(c) for c in cells]))
    if n_tuples > tuple_limit:
        raise CapacityError(f"{n_tuples} cell tuples exceed limit {tuple_limit}")
    # Volume weight of every tuple, in product() order: the same
    # left-to-right products np.prod forms, one outer product per box.
    vols = model.grid.volumes
    weights = vols[cells[0]]
    for box in cells[1:]:
        weights = np.multiply.outer(weights, vols[box])
    total = 0.0 + 0.0j
    for combo, weight in zip(product(*cells), weights.ravel()):
        total += hafnian_dp(block_kernel(model, combo)) * weight
    label = "haf quadrature over " + "x".join(map(str, cells))
    return MomentReport(label, float(total.real), None, None)


def empirical_product_moment(patterns, boxes, batches: int = 100) -> MomentReport:
    """Sample mean and standard error of prod_i gamma(D_i) over patterns."""
    pats = np.atleast_2d(np.asarray(patterns))
    if pats.size == 0 or pats.shape[0] == 0:
        raise PreconditionError("need at least one pattern")
    cells = [cell_set(box, pats.shape[1]).tolist() for box in boxes]
    check_disjoint(cells)
    values = np.ones(pats.shape[0], dtype=float)
    for box in cells:
        values *= box_counts(pats, box)
    mean, se = _batch_stats(values, batches)
    label = "empirical prod gamma over " + "x".join(map(str, cells))
    return MomentReport(label, mean, se, pats.shape[0])


def empirical_factorial_moment(patterns, box, n: int, batches: int = 100) -> MomentReport:
    """Sample mean of the falling factorial gamma(D)(gamma(D)-1)...(gamma(D)-n+1)."""
    if n < 1:
        raise PreconditionError("order must be >= 1")
    pats = np.atleast_2d(np.asarray(patterns))
    if pats.shape[0] == 0:
        raise PreconditionError("need at least one pattern")
    t = box_counts(pats, box).astype(float)
    values = np.ones_like(t)
    for k in range(n):
        values *= t - k
    mean, se = _batch_stats(values, batches)
    return MomentReport(f"empirical falling factorial order {n}", mean, se, pats.shape[0])
