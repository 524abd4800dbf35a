"""The identity functions shared by ``haflab verify`` and the acceptance
tests must see a wrong route: scaling one route by 1 + EPS (or adding a
defect of size EPS) has to move the reported gap by that much, so a
function that always returned 0 would fail here."""

import numpy as np
import pytest

from haflab import fock as fk
from haflab import kernels as kn
from haflab import matfun as mf
from haflab import verify as vf
from haflab.errors import CapacityError

EPS = 1e-6


def scaled(monkeypatch, module, name, factor=1 + EPS, when=lambda *args: True):
    """Replace module.name by the original times `factor` on calls where
    `when(*args)` holds."""
    original = getattr(module, name)

    def patched(*args, **kwargs):
        value = original(*args, **kwargs)
        return value * factor if when(*args) else value
    monkeypatch.setattr(module, name, patched)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture()
def model():
    return kn.builtin_model("alpha-beta-demo", kn.Grid.regular(0.0, 1.0, 4),
                            {"d_half": 1})


@pytest.fixture()
def basis(model):
    return fk.FockBasis(4, model.feature_dim, 6)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_hafnian_gap_sees_a_scaled_route(monkeypatch, rng):
    c = mf.random_symmetric(8, rng)
    assert vf.hafnian_gap(c) < 1e-12
    scaled(monkeypatch, mf, "hafnian_enum")
    assert vf.hafnian_gap(c) == pytest.approx(EPS, rel=1e-4)


@pytest.mark.parametrize("route, index", [("permanent", 0), ("determinant", 1)])
def test_alpha_det_gaps_see_a_scaled_route(monkeypatch, rng, route, index):
    b = complex_normal(rng, (4, 4))
    assert max(vf.alpha_det_gaps(b)) < 1e-12
    scaled(monkeypatch, mf, route)
    gaps = vf.alpha_det_gaps(b)
    assert gaps[index] == pytest.approx(EPS, rel=1e-4)
    assert gaps[1 - index] < 1e-12


def test_permanental_embedding_gap_sees_a_scaled_route(monkeypatch, rng):
    kern = complex_normal(rng, (3, 3))
    assert vf.permanental_embedding_gap(kern) < 1e-12
    scaled(monkeypatch, mf, "hafnian_dp")
    assert vf.permanental_embedding_gap(kern) == pytest.approx(EPS, rel=1e-4)


def test_two_permanental_gap_sees_a_scaled_route(monkeypatch, rng):
    sym = rng.standard_normal((3, 3))
    sym = (sym + sym.T) / 2
    assert vf.two_permanental_gap(sym) < 1e-12
    scaled(monkeypatch, mf, "alpha_det")
    assert vf.two_permanental_gap(sym) == pytest.approx(EPS, rel=1e-4)


def test_theta_gap_sees_a_scaled_route(monkeypatch, model, basis):
    boxes = [[0, 1], [2, 3]]
    assert vf.theta_gap(basis, model, boxes) < 1e-12
    scaled(monkeypatch, fk, "theta")
    assert vf.theta_gap(basis, model, boxes) == pytest.approx(EPS, rel=1e-4)


def test_poisson_theta_gap_sees_a_scaled_route(monkeypatch):
    grid = kn.Grid.regular(0.0, 1.0, 4)
    profile = kn.intensity_profile(grid, [1.0, 0.5 + 0.5j, -0.75j, 0.3 - 0.2j])
    basis = fk.FockBasis(4, 0, 6)
    boxes = [[0, 1], [1, 2]]
    theta = fk.theta(basis, profile, boxes)
    assert vf.poisson_theta_gap(basis, profile, boxes) < 1e-15
    scaled(monkeypatch, fk, "theta")
    assert vf.poisson_theta_gap(basis, profile, boxes) == pytest.approx(
        EPS * abs(theta), rel=1e-4)


def test_rho_defects_see_a_commutator_defect(monkeypatch, model, basis):
    assert max(vf.rho_defects(basis, model, [0, 1], [1, 2])) < 1e-10
    original = fk.commutator
    monkeypatch.setattr(fk, "commutator",
                        lambda a, b: original(a, b) + EPS * fk.identity(a.basis))
    comm, herm = vf.rho_defects(basis, model, [0, 1], [1, 2])
    assert comm == pytest.approx(EPS, rel=1e-6)
    assert herm < 1e-13


def test_rho_defects_see_a_non_hermitian_density(monkeypatch, model, basis):
    # an anti-Hermitian i EPS on the diagonal leaves the commutator alone
    original = fk.rho
    monkeypatch.setattr(fk, "rho", lambda b, source, cells: (
        original(b, source, cells) + 1j * EPS * fk.identity(b)))
    comm, herm = vf.rho_defects(basis, model, [0, 1], [1, 2])
    assert herm == pytest.approx(2 * EPS, rel=1e-9)
    assert comm < 1e-10


def test_quasifree_gaps_see_wrong_odd_and_pairing_routes(monkeypatch, model, basis, rng):
    hs = [complex_normal(rng, 4) for _ in range(4)]
    assert max(vf.quasifree_gaps(basis, model, hs)) < 1e-12
    t4 = fk.quasifree_T(basis, model, hs)
    scaled(monkeypatch, fk, "quasifree_T", when=lambda b, s, fs: len(fs) == 4)
    t1, t3, pairing = vf.quasifree_gaps(basis, model, hs)
    assert pairing == pytest.approx(EPS * abs(t4), rel=1e-4)
    assert max(t1, t3) < 1e-12

    original = fk.quasifree_T
    monkeypatch.setattr(fk, "quasifree_T", lambda b, s, fs: (
        original(b, s, fs) + (EPS if len(fs) % 2 else 0.0)))
    t1, t3, _ = vf.quasifree_gaps(basis, model, hs)
    assert t1 == pytest.approx(EPS, rel=1e-9)
    assert t3 == pytest.approx(EPS, rel=1e-9)


def test_growth_ratio_sees_a_scaled_route(monkeypatch, model, basis):
    box = [0, 1, 2, 3]
    before = vf.growth_ratio(basis, model, box, 2)
    assert 0.0 < before <= 1.0
    scaled(monkeypatch, fk, "theta")
    assert vf.growth_ratio(basis, model, box, 2) / before - 1 == pytest.approx(
        EPS, rel=1e-6)


def test_growth_bound_is_attained_by_a_real_field_on_one_cell():
    # A real field on one cell has E[X^2n] = (2n-1)!! Lambda^n exactly; the
    # bound (2 Lambda)^n it replaces gave 15/8 = 1.875 at n = 3.
    model = kn.builtin_model("real-gauss", kn.Grid.regular(0.0, 1.0, 1))
    basis = fk.FockBasis(1, model.feature_dim, 6)
    for n in (1, 2, 3):
        assert vf.growth_ratio(basis, model, [0], n) == pytest.approx(1.0, rel=1e-12)


def test_growth_bound_overflow_is_a_capacity_error():
    grid = kn.Grid.regular(0.0, 1.0, 2)
    model = kn.field_model(grid, [[1e100, 1e100]], [[1e100, 1e100]])
    assert vf.growth_bound(model, [0, 1], 1) == pytest.approx(1e200)
    with pytest.raises(CapacityError, match="overflows a float"):
        vf.growth_bound(model, [0, 1], 2)
    # Lambda^3 is finite here, but 5!! Lambda^3 is not
    big = kn.field_model(grid, [[2.35e51, 2.35e51]], [[2.35e51, 2.35e51]])
    with pytest.raises(CapacityError, match="overflows a float"):
        vf.growth_bound(big, [0, 1], 3)
