"""Identity battery behind ``haflab verify``.

Each identity is one public function that takes its inputs and returns
the gap between two routes to the same number; the battery and the
acceptance tests both call these, each with its own draws and tolerances.
Each check produces one record with a residual (or a z-score for Monte
Carlo comparisons), its tolerance, and a pass flag.  Capacity errors in a
single check are reported in its record without aborting the battery.
"""

from __future__ import annotations

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


def _residual(name: str, value: float, tol: float) -> CheckResult:
    return CheckResult(name, bool(value <= tol), float(value), tol, "residual")


def _zscore(name: str, value: float, target: float, se: float,
            z_max: float = 4.0) -> CheckResult:
    z = abs(value - target) / se if se > 0 else (0.0 if value == target else math.inf)
    return CheckResult(name, bool(z <= z_max), float(z), z_max, "z-score")


def _guard(name: str, fn) -> CheckResult:
    try:
        return fn()
    except CapacityError as exc:
        return CheckResult(name, False, error=f"capacity: {exc}")
    except HaflabError as exc:
        return CheckResult(name, False, error=str(exc))


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


def poisson_theta_gap(basis: fk.FockBasis, profile: kn.IntensityProfile, boxes) -> float:
    """Gap between theta of a deterministic intensity and its closed form,
    the product of the box rates over n!."""
    rate = np.abs(profile.lam) ** 2 * profile.grid.volumes
    closed = np.prod([rate[kn.cell_set(b, rate.size)].sum() for b in boxes])
    return abs(fk.theta(basis, profile, boxes) - closed / math.factorial(len(boxes)))


def rho_defects(basis: fk.FockBasis, source, box1, box2) -> tuple[float, float]:
    """Largest entry of [rho(box1), rho(box2)] on the margin-4 domain, and
    the hermiticity defect of rho(box1) on the margin-2 block."""
    r1, r2 = fk.rho(basis, source, box1), fk.rho(basis, source, box2)
    return (fk.max_abs_on_domain(fk.commutator(r1, r2), 4),
            fk.hermiticity_defect(r1, 2))


def quasifree_gaps(basis: fk.FockBasis, source, hs) -> tuple[float, float, float]:
    """|T1|, |T3| and the gap between T4 and its pair-partition sum, for
    four test functions `hs`."""
    t = lambda *fs: fk.quasifree_T(basis, source, fs)
    odd = abs(t(*hs[:1])), abs(t(*hs[:3]))
    h0, h1, h2, h3 = hs
    pairs = t(h0, h1) * t(h2, h3) + t(h0, h2) * t(h1, h3) + t(h0, h3) * t(h1, h2)
    return odd + (abs(t(*hs) - pairs),)


def growth_ratio(basis: fk.FockBasis, model: kn.GaussianFieldModel, box, n: int) -> float:
    """n! theta of `box` repeated n times over its bound (2 * intensity)^n."""
    grow = math.factorial(n) * fk.theta(basis, model, [box] * n).real
    try:
        bound = (2.0 * kn.intensity_integral(model, box)) ** n
    except OverflowError as exc:
        raise CapacityError(f"growth bound (2 * intensity)^{n} overflows a float") from exc
    return grow / bound if bound > 0 else (0.0 if grow <= 0 else math.inf)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _matfun_checks(rng: np.random.Generator) -> list[CheckResult]:
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
    return [_residual("matfun/hafnian-oracle-equivalence", haf, 1e-10),
            _residual("matfun/alpha-det-is-permanent", perm, 1e-10),
            _residual("matfun/alpha-det-is-determinant", det, 1e-10),
            _residual("matfun/permanental-embedding", emb, 1e-10),
            _residual("matfun/two-permanental-embedding", two, 1e-10)]


def _model_checks(tag: str, model: kn.GaussianFieldModel, cfg: ExperimentConfig,
                  max_order: int, rng: np.random.Generator) -> list[CheckResult]:
    out = []
    m_cells = model.grid.n_cells
    boxes2 = cfg.disjoint_boxes(m_cells)

    viol = kn.validate_features(model.l1, model.l2)
    out.append(CheckResult(f"kernels/feature-conditions[{tag}]", not viol,
                           float(len(viol)), 0.0))
    eigs = np.linalg.eigvalsh(model.k1)
    out.append(_residual(f"kernels/k1-psd[{tag}]", max(0.0, -float(eigs.min())),
                         1e-10 * max(1.0, float(np.abs(model.k1).max()))))
    out.append(_residual(f"kernels/k2-symmetry[{tag}]",
                         float(np.abs(model.k2 - model.k2.T).max()), 1e-10))

    def psd_check():
        cov = sp.augmented_covariance(model)
        return _residual(f"sampling/augmented-symmetry[{tag}]",
                         float(np.abs(cov - cov.T).max()), 1e-12)
    out.append(_guard(f"sampling/augmented-symmetry[{tag}]", psd_check))

    # Monte Carlo: empirical covariance entry, moment vs hafnian, Cox moment
    def cov_mc():
        draws = sp.sample_field(model, rng, size=cfg.mc_samples)
        prods = draws[:, 0] * np.conj(draws[:, m_cells - 1])
        se = max(prods.real.std(), prods.imag.std()) / math.sqrt(cfg.mc_samples)
        return _zscore(f"sampling/field-covariance-mc[{tag}]",
                       float(np.abs(prods.mean() - model.k1[0, m_cells - 1])),
                       0.0, float(se))
    out.append(_guard(f"sampling/field-covariance-mc[{tag}]", cov_mc))

    for n in range(1, max_order + 1):
        pts = [(2 * j) % m_cells for j in range(n)]

        def haf_mc(n=n, pts=pts):
            rep = sp.field_moment_mc(model, pts, cfg.mc_samples, rng)
            exact = mf.hafnian_dp(kn.block_kernel(model, pts)).real
            return _zscore(f"sampling/moment-vs-hafnian[{tag},n={n}]",
                           rep.value, exact, rep.std_error)
        out.append(_guard(f"sampling/moment-vs-hafnian[{tag},n={n}]", haf_mc))

    def cox_mc():
        pats = sp.sample_cox(model, rng, size=cfg.replicates)
        emp = sp.empirical_product_moment(pats, boxes2)
        quad = sp.quadrature_haf_moment(model, boxes2)
        return _zscore(f"sampling/cox-product-moment[{tag}]",
                       emp.value, quad.value, emp.std_error)
    out.append(_guard(f"sampling/cox-product-moment[{tag}]", cox_mc))

    # Exact identities in the truncated representation
    def fock_checks():
        res = []
        basis = fk.FockBasis(m_cells, model.feature_dim, cfg.truncation)
        for n in range(1, max_order + 1):
            boxes = [[j] for j in range(n)] if n > 1 else [list(range(m_cells))]
            res.append(_residual(f"fock/theta-vs-quadrature[{tag},n={n}]",
                                 theta_gap(basis, model, boxes), 1e-9))
        # overlapping boxes: both contain cell 0
        comm, herm = rho_defects(basis, model, set(boxes2[0]) | {0},
                                 set(boxes2[1]) | {0})
        res.append(_residual(f"fock/rho-commutation[{tag}]", comm, 1e-10))
        res.append(_residual(f"fock/rho-hermiticity[{tag}]", herm, 1e-13))
        t1, t3, pairing = quasifree_gaps(
            basis, model, [_complex_normal(rng, m_cells) for _ in range(4)])
        res.append(_residual(f"fock/quasifree-T1[{tag}]", t1, 1e-10))
        res.append(_residual(f"fock/quasifree-T3[{tag}]", t3, 1e-10))
        res.append(_residual(f"fock/quasifree-T4-pairing[{tag}]", pairing, 1e-9))
        box = list(range(m_cells))
        for n in range(1, min(3, cfg.truncation // 2) + 1):
            ratio = growth_ratio(basis, model, box, n)
            res.append(CheckResult(f"fock/growth-bound[{tag},n={n}]",
                                   bool(ratio <= 1 + 1e-12), float(ratio), 1.0))
        return res

    try:
        out.extend(fock_checks())
    except CapacityError as exc:
        out.append(CheckResult(f"fock/identities[{tag}]", False,
                               error=f"capacity: {exc}"))
    return out


def _poisson_checks(cfg: ExperimentConfig, rng: np.random.Generator) -> list[CheckResult]:
    grid = kn.Grid.regular(*cfg.window, max(2, cfg.cells))
    profile = kn.IntensityProfile(grid, _complex_normal(rng, grid.n_cells))
    rate = np.abs(profile.lam) ** 2 * grid.volumes

    pats = sp.sample_poisson(profile, rng, size=cfg.replicates)
    emp = sp.empirical_product_moment(pats, [list(range(grid.n_cells))])
    mean_count = _zscore("poisson/mean-count-mc", emp.value, float(rate.sum()),
                         emp.std_error)

    def theta_closed():
        basis = fk.FockBasis(grid.n_cells, 0, cfg.truncation)
        worst = max((poisson_theta_gap(basis, profile, [[j % grid.n_cells] for j in range(n)])
                     for n in range(1, min(3, cfg.truncation // 2) + 1)), default=0.0)
        return _residual("poisson/theta-closed-form", worst, 1e-10)
    return [mean_count, _guard("poisson/theta-closed-form", theta_closed)]


def run_battery(cfg: ExperimentConfig) -> list[CheckResult]:
    """Run every identity check at the scale `cfg` sets: `orders` (else
    `max_order`) bounds the moment order, and the models are `models`,
    else `model`, else DEFAULT_MODELS, on `cfg.grid()`."""
    max_order = max(cfg.orders) if cfg.orders else cfg.max_order
    if cfg.cells < max_order:   # the order-n theta check takes one cell per box
        raise ConfigError(f"verify needs at least {max_order} cells for moment order "
                          f"{max_order}, got 'cells' {cfg.cells}")
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    entries = (cfg.models if cfg.models is not None
               else [cfg.model] if cfg.model is not None else DEFAULT_MODELS)
    models = [kn.model_entry(entry, grid) for entry in entries]
    results = _matfun_checks(rng)
    for tag, model in models:
        results.extend(_model_checks(tag, model, cfg, max_order, rng))
    results.extend(_poisson_checks(cfg, rng))
    return results
