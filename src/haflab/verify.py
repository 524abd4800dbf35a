"""Identity battery behind ``haflab verify``.

Each identity is one public function that takes its inputs and returns
the gap between two routes to the same number; the battery and the
acceptance tests both call these, each with its own draws and tolerances.

The battery is a table of checks, each a name and a thunk returning its
residual (or Monte Carlo z-score), tolerance and pass flag.  One runner
makes one record per entry, and an error a thunk raises fills its record
alone; an input several checks read fails on each line that reads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import fock as fk
from . import kernels as kn
from . import matfun as mf
from . import sampling as sp
from .errors import CapacityError, ConfigError, HaflabError

if TYPE_CHECKING:
    from .cli import ExperimentConfig

# Models the battery runs when the config names neither `models` nor `model`.
DEFAULT_MODELS = (
    {"builtin": "proper-fourier", "params": {"n_freq": 1}},
    {"builtin": "real-gauss", "params": {"n_centers": 2}},
    {"builtin": "alpha-beta-demo", "params": {"d_half": 1}},
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    statistic: float | None = None
    tolerance: float | None = None
    kind: str = "residual"       # "residual" or "z-score"
    error: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _rel(value, reference, floor: float = 1e-300) -> float:
    return abs(value - reference) / max(floor, abs(reference))


def hafnian_gap(c) -> float:
    """Relative gap between the enumeration and the dp hafnian of `c`."""
    return _rel(mf.hafnian_enum(c), mf.hafnian_dp(c))


def alpha_det_gaps(b) -> tuple[float, float]:
    """Relative gaps of `alpha_det` at alpha = 1 from the permanent and at
    alpha = -1 from the determinant of `b`."""
    return (_rel(mf.alpha_det(b, 1.0), mf.permanent(b)),
            _rel(mf.alpha_det(b, -1.0), mf.determinant(b)))


def permanental_embedding_gap(kern) -> float:
    """Relative gap between haf([[0, K], [K^T, 0]]) (interleaved) and perm(K)."""
    n = kern.shape[0]
    big = np.zeros((2 * n, 2 * n), dtype=complex)
    big[0::2, 1::2] = kern
    big[1::2, 0::2] = kern.T
    return _rel(mf.hafnian_dp(big), mf.permanent(kern))


def two_permanental_gap(sym) -> float:
    """Relative gap between haf(sym (x) ones(2, 2)) and alpha_det(sym, 2)."""
    return _rel(mf.hafnian_dp(np.kron(sym, np.ones((2, 2)))), mf.alpha_det(sym, 2.0))


def theta_gap(basis: fk.FockBasis, source, boxes) -> float:
    """Relative gap between n! theta from the vacuum and the hafnian
    quadrature of the n-box product moment."""
    th = fk.theta(basis, source, boxes)
    quad = sp.quadrature_haf_moment(source, boxes).value
    return _rel(math.factorial(len(boxes)) * th, quad, 1e-12)


def poisson_theta_gap(basis: fk.FockBasis, profile: kn.GaussianFieldModel, boxes) -> float:
    """Relative gap between n! theta of a deterministic intensity (a model
    with no features) and its closed form, the product of the box rates."""
    closed = math.prod(kn.intensity_integral(profile, box) for box in boxes)
    return _rel(math.factorial(len(boxes)) * fk.theta(basis, profile, boxes), closed)


def rho_commutation_defect(r1: fk.FockOperator, r2: fk.FockOperator) -> float:
    """Largest entry of the commutator of two densities on the margin-4 domain over
    the larger largest entry of its two products, each formed on those columns only."""
    idx = r1.basis.safe_indices(4)
    ab, ba = r1.mat @ r2.mat[:, idx], r2.mat @ r1.mat[:, idx]
    return float(abs(ab - ba).max() / max(1e-300, abs(ab).max(), abs(ba).max()))


def quasifree_pairing_gap(basis: fk.FockBasis, source, hs) -> float:
    """Relative gap between T_k and the hafnian of the two-point matrix, whose
    upper triangle holds T2(h_a, h_b) for a < b, for an even number k of `hs`."""
    tk = fk.quasifree_T(basis, source, hs)
    t2 = np.zeros((len(hs), len(hs)), dtype=complex)
    for a, b in zip(*np.triu_indices(len(hs), 1)):
        t2[a, b] = fk.quasifree_T(basis, source, [hs[a], hs[b]])
    return _rel(tk, mf.hafnian_dp(t2))


def growth_bound(model: kn.GaussianFieldModel, box, n: int) -> float:
    """(2n-1)!! L^n, L = `intensity_integral(model, box)`: the bound on
    n! theta([box]*n) = E[L_G^n], L_G = sum_m vol_m |G_m|^2 over the box.
    Isserlis gives E[X^2n] = (2n-1)!! (E X^2)^n for a real Gaussian X (less
    with a mean); Minkowski in L^n over |G_m|^2 = X_m^2 + Y_m^2, then over
    the cells, gives ||L_G||_n <= ((2n-1)!!)^(1/n) L.  A real field on one
    cell attains it; at n = 1 it is the identity E[L_G] = L."""
    intensity = np.float64(kn.intensity_integral(model, box))
    try:
        with np.errstate(over="raise"):
            return math.prod(range(1, 2 * n, 2)) * intensity ** n
    except FloatingPointError as exc:
        raise CapacityError(f"growth bound (2n-1)!! * intensity^{n} overflows a float") from exc


def growth_ratio(basis: fk.FockBasis, model: kn.GaussianFieldModel, box, n: int) -> float:
    """n! theta of `box` repeated n times over its `growth_bound`."""
    grow = math.factorial(n) * fk.theta(basis, model, [box] * n).real
    bound = growth_bound(model, box, n)
    return grow / bound if bound > 0 else (0.0 if grow <= 0 else math.inf)


# A check's outcome is CheckResult's fields after the name: passed, statistic, tolerance[, kind].
def _residual(value: float, tol: float) -> tuple:
    return bool(value <= tol), float(value), tol


def _zscore(value: float, target: float, se: float, z_max: float = 4.0) -> tuple:
    z = abs(value - target) / se if se > 0 else (0.0 if value == target else math.inf)
    return bool(z <= z_max), float(z), z_max, "z-score"


def _run(name: str, thunk) -> CheckResult:
    """One check's record: the outcome of `thunk()`, or the HaflabError or
    MemoryError it raised, the latter a capacity failure."""
    try:
        return CheckResult(name, *thunk())
    except (CapacityError, MemoryError) as exc:
        return CheckResult(name, False, error=f"capacity: {exc}")
    except HaflabError as exc:
        return CheckResult(name, False, error=str(exc))


def _shared(compute):
    """An input several checks read: computed on first read, its error re-raised on
    each, kept without the frames of the failed compute, which may hold its arrays."""
    memo = []

    def read():
        if not memo:
            try:
                memo.append(compute())
            except (HaflabError, MemoryError) as exc:
                memo.append(exc.with_traceback(None))
        if isinstance(memo[0], Exception):
            raise memo[0]
        return memo[0]
    return read


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _matfun_table(rng: np.random.Generator) -> list:
    def worst_gaps():
        haf = perm = det = emb = two = 0.0
        for _ in range(20):
            haf = max(haf, hafnian_gap(mf.random_symmetric(int(rng.integers(2, 6)) * 2, rng)))
        for _ in range(10):
            n = int(rng.integers(2, 7))
            gaps = alpha_det_gaps(_complex_normal(rng, (n, n)))
            perm, det = max(perm, gaps[0]), max(det, gaps[1])
        for _ in range(5):
            n = int(rng.integers(2, 5))
            emb = max(emb, permanental_embedding_gap(_complex_normal(rng, (n, n))))
        for _ in range(5):
            n = int(rng.integers(2, 5))
            sym = rng.standard_normal((n, n))
            two = max(two, two_permanental_gap((sym + sym.T) / 2))
        return haf, perm, det, emb, two
    gaps = _shared(worst_gaps)
    return [(f"matfun/{name}", lambda i=i: _residual(gaps()[i], 1e-10)) for i, name in enumerate((
        "hafnian-oracle-equivalence", "alpha-det-is-permanent", "alpha-det-is-determinant",
        "permanental-embedding", "two-permanental-embedding"))]


def _asymmetry(a: np.ndarray) -> float:
    return float(np.abs(a - a.T).max())


def _field_table(tag: str, model: kn.GaussianFieldModel, cfg: ExperimentConfig,
                 max_order: int, rng: np.random.Generator) -> list:
    m_cells = model.grid.n_cells
    # One field draw serves the covariance entry and every moment order.
    draws = _shared(lambda: sp.sample_field(model, rng, size=cfg.mc_samples))

    def field_covariance():
        g = draws()
        prods = g.T[0] * np.conj(g.T[m_cells - 1])
        se = max(prods.real.std(), prods.imag.std()) / math.sqrt(cfg.mc_samples)
        return _zscore(float(np.abs(prods.mean() - model.k1[0, m_cells - 1])), 0.0, float(se))

    def moment_vs_hafnian(n):
        pts = [(2 * j) % m_cells for j in range(n)]
        rep = sp.field_moment_from_draws(draws(), pts)
        return _zscore(rep.value, mf.hafnian_dp(kn.block_kernel(model, pts)).real, rep.std_error)
    return [
        (f"kernels/feature-conditions[{tag}]",
         lambda: _residual(len(kn.validate_features(model.l1, model.l2)), 0.0)),
        (f"kernels/k1-psd[{tag}]", lambda: _residual(
            max(0.0, -float(np.linalg.eigvalsh(model.k1).min())),
            1e-10 * max(1.0, float(np.abs(model.k1).max())))),
        (f"kernels/k2-symmetry[{tag}]", lambda: _residual(_asymmetry(model.k2), 1e-10)),
        (f"sampling/augmented-symmetry[{tag}]",
         lambda: _residual(_asymmetry(model.augmented[0]), 1e-12)),
        (f"sampling/field-covariance-mc[{tag}]", field_covariance),
        *((f"sampling/moment-vs-hafnian[{tag},n={n}]", functools.partial(moment_vs_hafnian, n))
          for n in range(1, max_order + 1)),
    ]


def _process_table(tag: str, model: kn.GaussianFieldModel, cfg: ExperimentConfig,
                   max_order: int, fock_orders, rng: np.random.Generator, fock_basis) -> list:
    m_cells = model.grid.n_cells
    boxes2 = cfg.disjoint_boxes(m_cells)
    basis = fock_basis(m_cells, model.feature_dim)
    # overlapping boxes: both contain cell 0
    r1 = _shared(lambda: fk.rho(basis(), model, {*boxes2[0], 0}))
    r2 = _shared(lambda: fk.rho(basis(), model, {*boxes2[1], 0}))
    hs = _shared(lambda: [_complex_normal(rng, m_cells) for _ in range(4)])

    def cox_product_moment():
        emp = sp.empirical_product_moment(sp.sample_cox(model, rng, size=cfg.replicates), boxes2)
        quad = sp.quadrature_haf_moment(model, boxes2)
        return _zscore(emp.value, quad.value, emp.std_error)

    def theta_vs_quadrature(n):
        boxes = [[j] for j in range(n)] if n > 1 else [list(range(m_cells))]
        return _residual(theta_gap(basis(), model, boxes), 1e-9)

    def growth(n):
        ratio = growth_ratio(basis(), model, list(range(m_cells)), n)
        return bool(ratio <= 1 + 1e-12), float(ratio), 1.0
    return [
        (f"sampling/cox-product-moment[{tag}]", cox_product_moment),
        *((f"fock/theta-vs-quadrature[{tag},n={n}]", functools.partial(theta_vs_quadrature, n))
          for n in range(1, max_order + 1)),
        (f"fock/rho-commutation[{tag}]",
         lambda: _residual(rho_commutation_defect(r1(), r2()), 1e-10)),
        (f"fock/rho-hermiticity[{tag}]", lambda: _residual(fk.hermiticity_defect(r1(), 2), 1e-13)),
        *((f"fock/quasifree-T{k}[{tag}]",   # odd centered k-point functions vanish
           lambda k=k: _residual(abs(fk.quasifree_T(basis(), model, hs()[:k])), 1e-10))
          for k in (1, 3)),
        (f"fock/quasifree-T4-pairing[{tag}]",
         lambda: _residual(quasifree_pairing_gap(basis(), model, hs()), 1e-9)),
        *((f"fock/growth-bound[{tag},n={n}]", functools.partial(growth, n))
          for n in fock_orders),
    ]


def _poisson_table(cfg: ExperimentConfig, fock_orders, rng: np.random.Generator,
                   fock_basis) -> list:
    cells = max(2, cfg.cells)
    profile = _shared(lambda: kn.intensity_profile(
        kn.Grid.regular(*cfg.window, cells), _complex_normal(rng, cells)))

    def mean_count():
        emp = sp.empirical_product_moment(sp.sample_cox(profile(), rng, size=cfg.replicates),
                                          [list(range(cells))])
        return _zscore(emp.value, kn.intensity_integral(profile(), range(cells)), emp.std_error)

    def theta_closed_form():
        basis = fock_basis(cells, 0)()
        worst = max(poisson_theta_gap(basis, profile(), [[j % cells] for j in range(n)])
                    for n in fock_orders)
        return _residual(worst, 1e-10)
    return [("poisson/mean-count-mc", mean_count),
            ("poisson/theta-closed-form", theta_closed_form)]


def run_battery(cfg: ExperimentConfig) -> list[CheckResult]:
    """Run every identity check at the scale `cfg` sets: `orders` or
    `max_order` bounds the moment order, and the models are `models` or
    `model`, else DEFAULT_MODELS, on `cfg.grid()`."""
    if cfg.boxes is not None:
        raise ConfigError("verify chooses its own boxes; remove 'boxes' from the config")
    if cfg.profile is not None:
        raise ConfigError("verify draws its own Poisson intensities; "
                          "remove 'profile' from the config")
    if cfg.orders == []:
        raise ConfigError("verify needs at least one order, got 'orders' []")
    if cfg.orders is not None and cfg.max_order != type(cfg).max_order:   # the field's default
        raise ConfigError("verify reads 'orders' or 'max_order', not both; "
                          "remove one from the config")
    max_order = max(cfg.orders) if cfg.orders else cfg.max_order
    if cfg.cells < max_order:   # the order-n theta check takes one cell per box
        raise ConfigError(f"verify needs at least {max_order} cells for moment order "
                          f"{max_order}, got 'cells' {cfg.cells}")
    if cfg.models == []:
        raise ConfigError("verify needs at least one model, got 'models' []")
    if cfg.models is not None and cfg.model is not None:
        raise ConfigError("verify runs 'models' or 'model', not both; "
                          "remove one from the config")
    if cfg.replicates < 1:   # the Cox and Poisson checks average over the replicates
        raise ConfigError(f"verify needs at least 1 replicate, got 'replicates' {cfg.replicates}")
    # growth and Poisson closed-form orders: 1 always, so a small truncation fails them
    fock_orders = range(1, max(1, min(3, cfg.truncation // 2)) + 1)
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    entries = (cfg.models if cfg.models is not None
               else [cfg.model] if cfg.model is not None else DEFAULT_MODELS)
    models = [kn.model_entry(entry, grid) for entry in entries]

    @functools.cache   # one basis per shape, built (or refused) when a check first reads it
    def fock_basis(n_grid: int, n_feature: int):
        return _shared(lambda: fk.FockBasis(n_grid, n_feature, cfg.truncation))

    # The tables in run order, each built after the one before has run and
    # dropped after it, so a model's field draw is freed before its Cox and Fock checks.
    def tables():
        yield _matfun_table(rng)
        for tag, model in models:
            yield _field_table(tag, model, cfg, max_order, rng)
            yield _process_table(tag, model, cfg, max_order, fock_orders, rng, fock_basis)
        yield _poisson_table(cfg, fock_orders, rng, fock_basis)
    return [_run(name, thunk) for table in tables() for name, thunk in table]
