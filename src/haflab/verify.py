"""Identity battery behind ``haflab verify``.

Each check produces one record with a residual (or a z-score for Monte
Carlo comparisons), its tolerance, and a pass flag.  Capacity errors in a
single check are reported in its record without aborting the battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock as fk
from . import kernels as kn
from . import matfun as mf
from . import sampling as sp
from .errors import CapacityError, ConfigError, HaflabError


@dataclass
class CheckResult:
    name: str
    passed: bool
    statistic: float | None = None
    tolerance: float | None = None
    kind: str = "residual"       # "residual" or "z-score"
    error: str | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "kind": self.kind}
        if self.statistic is not None:
            out["statistic"] = self.statistic
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class BatterySettings:
    """Desk-scale knobs for the battery; all overridable from the config."""

    seed: int = 2024
    window: tuple = (0.0, 1.0)
    cells: int = 3
    truncation: int = 6
    mc_samples: int = 40_000
    replicates: int = 40_000
    max_order: int = 2
    models: list = field(default_factory=lambda: [
        {"builtin": "proper-fourier", "params": {"n_freq": 1}},
        {"builtin": "real-gauss", "params": {"n_centers": 2}},
        {"builtin": "alpha-beta-demo", "params": {"d_half": 1}},
    ])


def _resolve_model(entry: dict, grid: kn.Grid) -> tuple[str, kn.GaussianFieldModel]:
    if "path" in entry:
        return entry["path"], kn.load_model(entry["path"])
    if "builtin" in entry:
        name = entry["builtin"]
        return name, kn.builtin_model(name, grid, entry.get("params"))
    raise ConfigError("model entry needs a 'builtin' name or a 'path'")


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


def _matfun_checks(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    worst = 0.0
    for k in range(20):
        dim = int(rng.integers(2, 6)) * 2
        c = mf.random_symmetric(dim, rng)
        a, b = mf.hafnian_enum(c), mf.hafnian_dp(c)
        worst = max(worst, abs(a - b) / max(1e-300, abs(b)))
    out.append(_residual("matfun/hafnian-oracle-equivalence", worst, 1e-10))

    worst_p = worst_d = 0.0
    for k in range(10):
        n = int(rng.integers(2, 7))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst_p = max(worst_p, abs(mf.alpha_det(b, 1.0) - mf.permanent(b))
                      / abs(mf.permanent(b)))
        worst_d = max(worst_d, abs(mf.alpha_det(b, -1.0) - mf.determinant(b))
                      / max(1e-300, abs(mf.determinant(b))))
    out.append(_residual("matfun/alpha-det-is-permanent", worst_p, 1e-10))
    out.append(_residual("matfun/alpha-det-is-determinant", worst_d, 1e-10))

    worst_e = 0.0
    for k in range(5):
        n = int(rng.integers(2, 5))
        kern = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        big = np.zeros((2 * n, 2 * n), dtype=complex)
        big[0::2, 1::2] = kern
        big[1::2, 0::2] = kern.T
        worst_e = max(worst_e, abs(mf.hafnian_dp(big) - mf.permanent(kern))
                      / abs(mf.permanent(kern)))
    out.append(_residual("matfun/permanental-embedding", worst_e, 1e-10))

    worst_2 = 0.0
    for k in range(5):
        n = int(rng.integers(2, 5))
        sym = rng.standard_normal((n, n))
        sym = (sym + sym.T) / 2
        big = np.kron(sym, np.ones((2, 2)))
        worst_2 = max(worst_2, abs(mf.hafnian_dp(big) - mf.alpha_det(sym, 2.0))
                      / abs(mf.alpha_det(sym, 2.0)))
    out.append(_residual("matfun/two-permanental-embedding", worst_2, 1e-10))
    return out


def _model_checks(tag: str, model: kn.GaussianFieldModel, cfg: BatterySettings,
                  rng: np.random.Generator) -> list[CheckResult]:
    out = []
    grid = model.grid
    m_cells = grid.n_cells
    boxes2 = [[i for i in range(m_cells) if i % 2 == 0],
              [i for i in range(m_cells) if i % 2 == 1]]

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

    for n in range(1, cfg.max_order + 1):
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
        for n in range(1, cfg.max_order + 1):
            boxes = [[j] for j in range(n)] if n > 1 else [list(range(m_cells))]
            th = fk.theta(basis, model, boxes)
            quad = sp.quadrature_haf_moment(model, boxes).value
            rel = abs(math.factorial(n) * th - quad) / max(1e-12, abs(quad))
            res.append(_residual(f"fock/theta-vs-quadrature[{tag},n={n}]", rel, 1e-9))
        # overlapping boxes: both contain cell 0
        r1 = fk.rho(basis, model, set(boxes2[0]) | {0})
        r2 = fk.rho(basis, model, set(boxes2[1]) | {0})
        res.append(_residual(f"fock/rho-commutation[{tag}]",
                             fk.max_abs_on_domain(fk.commutator(r1, r2), 4), 1e-10))
        res.append(_residual(f"fock/rho-hermiticity[{tag}]",
                             fk.hermiticity_defect(r1, 2), 1e-13))
        hs = [rng.standard_normal(m_cells) + 1j * rng.standard_normal(m_cells)
              for _ in range(4)]
        res.append(_residual(f"fock/quasifree-T1[{tag}]",
                             abs(fk.quasifree_T(basis, model, hs[:1])), 1e-10))
        res.append(_residual(f"fock/quasifree-T3[{tag}]",
                             abs(fk.quasifree_T(basis, model, hs[:3])), 1e-10))
        t2 = lambda a, b: fk.quasifree_T(basis, model, [a, b])
        pairs = (t2(hs[0], hs[1]) * t2(hs[2], hs[3])
                 + t2(hs[0], hs[2]) * t2(hs[1], hs[3])
                 + t2(hs[0], hs[3]) * t2(hs[1], hs[2]))
        res.append(_residual(f"fock/quasifree-T4-pairing[{tag}]",
                             abs(fk.quasifree_T(basis, model, hs) - pairs), 1e-9))
        box = list(range(m_cells))
        for n in range(1, min(3, cfg.truncation // 2) + 1):
            grow = math.factorial(n) * fk.theta(basis, model, [box] * n).real
            bound = (2.0 * kn.intensity_integral(model, box)) ** n
            ratio = grow / bound if bound > 0 else (0.0 if grow <= 0 else math.inf)
            res.append(CheckResult(f"fock/growth-bound[{tag},n={n}]",
                                   bool(ratio <= 1 + 1e-12), float(ratio), 1.0))
        return res

    try:
        out.extend(fock_checks())
    except CapacityError as exc:
        out.append(CheckResult(f"fock/identities[{tag}]", False,
                               error=f"capacity: {exc}"))
    return out


def _poisson_checks(cfg: BatterySettings, rng: np.random.Generator) -> list[CheckResult]:
    out = []
    grid = kn.Grid.regular(*cfg.window, max(2, cfg.cells))
    lam = (rng.standard_normal(grid.n_cells) + 1j * rng.standard_normal(grid.n_cells))
    profile = kn.IntensityProfile(grid, lam)
    rate = np.abs(lam) ** 2 * grid.volumes

    pats = sp.sample_poisson(profile, rng, size=cfg.replicates)
    emp = sp.empirical_product_moment(pats, [list(range(grid.n_cells))])
    out.append(_zscore("poisson/mean-count-mc", emp.value, float(rate.sum()),
                       emp.std_error))

    def theta_closed():
        basis = fk.FockBasis(grid.n_cells, 0, cfg.truncation)
        worst = 0.0
        for n in range(1, min(3, cfg.truncation // 2) + 1):
            boxes = [[j % grid.n_cells] for j in range(n)]
            th = fk.theta(basis, profile, boxes)
            expect = np.prod([rate[list(b)].sum() for b in boxes]) / math.factorial(n)
            worst = max(worst, abs(th - expect))
        return _residual("poisson/theta-closed-form", worst, 1e-10)
    out.append(_guard("poisson/theta-closed-form", theta_closed))
    return out


def run_battery(cfg: BatterySettings) -> list[CheckResult]:
    """Run every identity check at the configured desk scale."""
    rng = np.random.default_rng(cfg.seed)
    grid = kn.Grid.regular(*cfg.window, cfg.cells)
    models = [_resolve_model(entry, grid) for entry in cfg.models]
    results = _matfun_checks(rng)
    for tag, model in models:
        results.extend(_model_checks(tag, model, cfg, rng))
    results.extend(_poisson_checks(cfg, rng))
    return results
