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

from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .errors import CapacityError, PreconditionError
from .kernels import (GaussianFieldModel, block_kernel, cell_indices, cell_set,
                      check_disjoint, check_size)
from .matfun import hafnian_dp


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-replicate stream derived from one root seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@dataclass(frozen=True)
class MomentReport:
    """Named moment value; std_error is present iff the value is a Monte
    Carlo estimate."""

    label: str
    value: complex | float
    std_error: float | None = None
    n_samples: int | None = None

    def to_dict(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if v is not None}
        if isinstance(self.value, complex):
            out["value"] = [self.value.real, self.value.imag]
        return out


#: Batches behind every Monte Carlo standard error.
BATCHES = 100
#: Samples ``field_moment_mc`` draws at a time: bounded memory.
FIELD_CHUNK = 4096
#: Most cell tuples, and most boxes, the hafnian quadrature takes.
QUADRATURE_TUPLE_LIMIT = 200_000
QUADRATURE_MAX_ORDER = 4


def _batch_stats(values: np.ndarray) -> tuple[float, float]:
    # Distribution-free standard error from near-equal batch means.
    nb = min(BATCHES, values.size)
    if nb < 2:
        return float(np.mean(values)), 0.0
    # np.array_split's batches: the first size % nb are one sample longer
    q, r = divmod(values.size, nb)
    cut = r * (q + 1)
    means = np.concatenate([values[:cut].reshape(r, q + 1).mean(axis=1),
                            values[cut:].reshape(nb - r, q).mean(axis=1)])
    return float(values.mean()), float(means.std(ddof=1) / np.sqrt(nb))


def _mc_report(label: str, values: np.ndarray) -> MomentReport:
    """A Monte Carlo estimate: the mean of `values`, one per sample, and its batch error."""
    return MomentReport(label, *_batch_stats(values), values.size)


# ---------------------------------------------------------------------------
# Field sampling
# ---------------------------------------------------------------------------


def sample_field(model: GaussianFieldModel, seed, size: int | None = None) -> np.ndarray:
    """Draw the complex field on the grid; shape (M,) or (size, M).  With no
    features it is a fresh copy of the mean, and no normals are drawn."""
    rng = np.random.default_rng(seed)
    m = model.grid.n_cells
    n = 1 if size is None else int(size)
    check_size(n, m)
    if model.feature_dim == 0:
        g = np.tile(model.mean, (n, 1))
    else:
        z = rng.standard_normal((n, 2 * m)) @ model.augmented[1].T
        g = z[:, :m] + 1j * z[:, m:]
        if model.displaced:   # in place: a third (size, M) array raises peak memory
            g += model.mean
    return g[0] if size is None else g


# ---------------------------------------------------------------------------
# Point-pattern sampling (counts per cell)
# ---------------------------------------------------------------------------


def _poisson(rng: np.random.Generator, rate: np.ndarray) -> np.ndarray:
    # numpy rejects a NaN rate and any rate above about 9.2e18 (inf included).
    try:
        return rng.poisson(rate)
    except ValueError as exc:
        raise CapacityError(f"largest Poisson rate {float(np.max(rate)):.6g} "
                            f"cannot be sampled: {exc}") from exc


def sample_cox(model: GaussianFieldModel, seed, size: int | None = None) -> np.ndarray:
    """Doubly stochastic counts: draw the field, then conditionally
    independent Poisson counts with rate |G(x_m)|^2 vol_m."""
    rng = np.random.default_rng(seed)
    g = sample_field(model, rng, size=size)
    return _poisson(rng, np.abs(g) ** 2 * model.grid.volumes)


def box_counts(patterns: np.ndarray, box) -> np.ndarray:
    """Total count inside a cell set, per pattern."""
    pats = np.atleast_2d(np.asarray(patterns))
    return pats[:, cell_set(box, pats.shape[1])].sum(axis=1)


# ---------------------------------------------------------------------------
# Moment estimators and the exact quadrature they are checked against
# ---------------------------------------------------------------------------


def _moment_points(points, n_cells: int) -> tuple[np.ndarray, str]:
    pts = cell_indices(points, n_cells)
    if pts.size < 1 or pts.size > 4:
        raise PreconditionError("between 1 and 4 points (estimator variance grows fast)")
    return pts, "E prod |G|^2 at " + ",".join(map(str, pts.tolist()))


def _moment_values(draws: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # one product per row: a sample's value never depends on the other rows
    return np.prod(np.abs(draws[:, pts]) ** 2, axis=1)


def field_moment_from_draws(draws, points) -> MomentReport:
    """Mean of prod_i |G(x_{m_i})|^2 over the rows of `draws`, a
    (n_samples, M) array of field samples such as ``sample_field`` returns,
    with the same batch standard error as ``field_moment_mc``."""
    draws = np.atleast_2d(draws)
    pts, label = _moment_points(points, draws.shape[1])
    return _mc_report(label, _moment_values(draws, pts))


def field_moment_mc(model: GaussianFieldModel, points, n_samples: int, seed) -> MomentReport:
    """Monte Carlo mean of prod_i |G(x_{m_i})|^2 over the given points,
    drawn in chunks of FIELD_CHUNK samples: ``field_moment_from_draws`` of
    one ``sample_field(model, seed, size=n_samples)`` draw, bit for bit."""
    pts, label = _moment_points(points, model.grid.n_cells)
    rng = np.random.default_rng(seed)
    values = np.empty(n_samples)
    for start in range(0, n_samples, FIELD_CHUNK):
        chunk = values[start:start + FIELD_CHUNK]
        chunk[:] = _moment_values(sample_field(model, rng, size=chunk.size), pts)
    return _mc_report(label, values)


def quadrature_haf_moment(model: GaussianFieldModel, boxes, *,
                          allow_repeats: bool = False) -> MomentReport:
    """Exact discrete value sum over cell tuples of haf(block kernel)
    times the product of cell volumes.

    For pairwise disjoint boxes this is the product moment
    E[gamma(D_1) ... gamma(D_n)] of the doubly stochastic counts, and n!
    times the order-n correlation measure of the box product.  Pass
    ``allow_repeats=True`` for the correlation-measure semantics on
    overlapping or repeated boxes.
    """
    cells = [cell_set(box, model.grid.n_cells).tolist() for box in boxes]
    n = len(cells)
    if n < 1 or n > QUADRATURE_MAX_ORDER:
        raise PreconditionError(f"between 1 and {QUADRATURE_MAX_ORDER} boxes")
    if not allow_repeats:
        check_disjoint(cells)
    n_tuples = int(np.prod([len(c) for c in cells]))
    if n_tuples > QUADRATURE_TUPLE_LIMIT:
        raise CapacityError(f"{n_tuples} cell tuples exceed limit {QUADRATURE_TUPLE_LIMIT}")
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


def _patterns(patterns) -> np.ndarray:
    """Count patterns, one per row: at least one row, every entry a whole number >= 0."""
    pats = np.atleast_2d(np.asarray(patterns))
    if pats.shape[0] == 0:
        raise PreconditionError("need at least one pattern")
    whole = pats.dtype.kind in "iu" or (
        pats.dtype.kind == "f" and np.all(np.isfinite(pats) & (pats == np.floor(pats))))
    if not (whole and np.all(pats >= 0)):
        raise PreconditionError("pattern entries must be counts: whole numbers >= 0")
    return pats


def empirical_product_moment(patterns, boxes) -> MomentReport:
    """Sample mean and standard error of prod_i gamma(D_i) over patterns."""
    pats = _patterns(patterns)
    cells = [cell_set(box, pats.shape[1]).tolist() for box in boxes]
    check_disjoint(cells)
    values = np.ones(pats.shape[0], dtype=float)
    for box in cells:
        values *= box_counts(pats, box)
    return _mc_report("empirical prod gamma over " + "x".join(map(str, cells)), values)


def empirical_factorial_moment(patterns, box, n: int) -> MomentReport:
    """Sample mean of the falling factorial gamma(D)(gamma(D)-1)...(gamma(D)-n+1)."""
    if n < 1:
        raise PreconditionError("order must be >= 1")
    t = box_counts(_patterns(patterns), box).astype(float)
    values, k = np.ones_like(t), 0
    while k < n and values.any():   # a row is 0 from k = its count on: stop once all are
        values *= t - k
        k += 1
    return _mc_report(f"empirical falling factorial order {n}", values)
