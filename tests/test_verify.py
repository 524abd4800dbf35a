"""The identity functions shared by ``haflab verify`` and the acceptance
tests must see a wrong route: scaling one route by 1 + EPS (or adding a
defect of size EPS) has to move the reported gap by that much, so a
function that always returned 0 would fail here."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse as sp_sparse

from haflab import cli
from haflab import fock as fk
from haflab import kernels as kn
from haflab import matfun as mf
from haflab import sampling as sp
from haflab import verify as vf
from haflab.errors import CapacityError, ConfigError, ModelError

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
    assert vf.poisson_theta_gap(basis, profile, boxes) < 1e-15
    scaled(monkeypatch, fk, "theta")
    assert vf.poisson_theta_gap(basis, profile, boxes) == pytest.approx(EPS, rel=1e-4)


def test_rho_defects_see_a_commutator_defect(model, basis):
    r1, r2 = fk.rho(basis, model, [0, 1]), fk.rho(basis, model, [1, 2])
    safe = basis.safe_indices(4)
    d1, d2 = r1.mat.toarray(), r2.mat.toarray()
    scale = max(np.abs(d1 @ d2[:, safe]).max(), np.abs(d2 @ d1[:, safe]).max())
    assert vf.rho_commutation_defect(r1, r2) < 1e-10
    # EPS times the vacuum projector P: [P, r2] on the domain has, as its
    # largest entry, the largest off-vacuum entry of r2's vacuum column
    vacuum = sp_sparse.csr_matrix(([1.0 + 0j], ([0], [0])), shape=(basis.size,) * 2)
    r1 = r1 + EPS * fk.FockOperator(basis, vacuum)
    column = np.abs((r2.mat @ basis.vacuum())[1:]).max()
    assert vf.rho_commutation_defect(r1, r2) == pytest.approx(EPS * column / scale, rel=1e-4)
    assert fk.hermiticity_defect(r1, 2) < 1e-13


def test_rho_defects_see_a_non_hermitian_density(model, basis):
    # an anti-Hermitian i EPS on the diagonal leaves the commutator alone
    r1, r2 = fk.rho(basis, model, [0, 1]), fk.rho(basis, model, [1, 2])
    assert fk.hermiticity_defect(r1, 2) < 1e-13
    r1 = r1 + 1j * EPS * fk.identity(basis)
    assert fk.hermiticity_defect(r1, 2) == pytest.approx(2 * EPS, rel=1e-9)
    assert vf.rho_commutation_defect(r1, r2) < 1e-10


def test_quasifree_gaps_see_wrong_odd_and_pairing_routes(monkeypatch, model, basis, rng):
    hs = [complex_normal(rng, 4) for _ in range(4)]
    odd = lambda: [abs(fk.quasifree_T(basis, model, hs[:k])) for k in (1, 3)]
    assert max(odd()) < 1e-12
    assert vf.quasifree_pairing_gap(basis, model, hs) < 1e-12
    # a wrong T4, then a wrong T2 inside the hafnian (each product of two
    # T2 values moves by 2 EPS)
    for k, shift in ((4, EPS), (2, 2 * EPS)):
        scaled(monkeypatch, fk, "quasifree_T", when=lambda b, s, fs: len(fs) == k)
        assert vf.quasifree_pairing_gap(basis, model, hs) == pytest.approx(shift, rel=1e-4)
        assert max(odd()) < 1e-12
        monkeypatch.undo()

    original = fk.quasifree_T
    monkeypatch.setattr(fk, "quasifree_T", lambda b, s, fs: (
        original(b, s, fs) + (EPS if len(fs) % 2 else 0.0)))
    assert odd() == pytest.approx([EPS, EPS], rel=1e-9)


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


def test_moment_checks_share_one_draw_and_keep_their_power(monkeypatch):
    # Every moment order reads the covariance check's draw, so the orders'
    # errors are correlated, but each z-test is unchanged: shifting the
    # estimate by DELTA * value moves z by DELTA * value / SE, either way.
    cfg = cli.ExperimentConfig()
    draws, reports = [], {}
    sample_field, estimate = sp.sample_field, sp.field_moment_from_draws

    def counted(model, seed, size=None):
        if size == cfg.mc_samples:
            draws.append(model)
        return sample_field(model, seed, size)

    def shifted(delta):
        def patched(g, pts):
            rep = estimate(g, pts)
            reports.setdefault(delta, []).append(rep)
            return dataclasses.replace(rep, value=rep.value * (1 + delta))
        return patched

    DELTA = 0.25
    monkeypatch.setattr(sp, "sample_field", counted)
    z = {}
    for delta in (0.0, DELTA, -DELTA):
        monkeypatch.setattr(sp, "field_moment_from_draws", shifted(delta))
        lines = [r for r in vf.run_battery(cfg)
                 if r.name.startswith("sampling/moment-vs-hafnian")]
        z[delta] = [r.statistic for r in lines]
        assert all(r.passed for r in lines) == (delta == 0.0)
    assert len(draws) == 3 * len(vf.DEFAULT_MODELS)   # one per model per run
    assert len(z[0.0]) == 2 * len(vf.DEFAULT_MODELS)
    for i, rep in enumerate(reports[0.0]):
        assert reports[DELTA][i] == reports[-DELTA][i] == rep
        shift = DELTA * rep.value / rep.std_error
        assert shift > z[0.0][i] + 4.0   # both shifted estimates fail the test
        assert z[DELTA][i] + z[-DELTA][i] == pytest.approx(2 * shift, rel=1e-9)
        assert abs(z[DELTA][i] - z[-DELTA][i]) == pytest.approx(2 * z[0.0][i], rel=1e-6)


def test_a_failed_field_draw_is_recorded_on_each_of_its_checks(monkeypatch):
    sample_field = sp.sample_field

    def broken(model, seed, size=None):
        if model.feature_dim:   # the Poisson profile still draws
            raise ModelError("augmented covariance is broken")
        return sample_field(model, seed, size)
    monkeypatch.setattr(sp, "sample_field", broken)
    cfg = cli.ExperimentConfig()
    results = {r.name: r for r in vf.run_battery(cfg)}
    assert len(results) == 61
    for entry in vf.DEFAULT_MODELS:
        tag = entry["builtin"]
        names = [f"sampling/field-covariance-mc[{tag}]", f"sampling/cox-product-moment[{tag}]"]
        names += [f"sampling/moment-vs-hafnian[{tag},n={n}]" for n in (1, 2)]
        for name in names:
            assert not results[name].passed
            assert results[name].error == "augmented covariance is broken"
    assert sum(r.passed for r in results.values()) == 61 - 4 * len(vf.DEFAULT_MODELS)


def test_battery_builds_one_fock_basis_per_shape(monkeypatch):
    shapes = []
    original = fk.FockBasis

    def counted(n_grid, n_feature, truncation):
        shapes.append((n_grid, n_feature, truncation))
        return original(n_grid, n_feature, truncation)
    monkeypatch.setattr(fk, "FockBasis", counted)
    assert all(r.passed for r in vf.run_battery(cli.ExperimentConfig()))
    # the three default models share (3, 2, 6); the Poisson profile has no features
    assert shapes == [(3, 2, 6), (3, 0, 6)]


def test_default_battery_names_are_unique():
    names = [r.name for r in vf.run_battery(cli.ExperimentConfig())]
    assert len(names) == len(set(names)) == 61


def test_each_fock_check_has_its_own_record_below_its_truncation():
    # Each Fock line records its own outcome, a pass or its own capacity
    # error.  Truncation 1 fits T1 alone.  Truncation 3 fits theta and the
    # growth bound at n = 1, the margin-2 hermiticity block, T1 and T3, but
    # not the margin-4 commutation domain, T4 or theta at n = 2.  The growth
    # lines and the Poisson closed form always try order 1, so truncation 1
    # keeps each model's growth-bound[n=1] line and fails it, like the
    # Poisson line, with a capacity error.
    rows = {1: (55, 33, ["quasifree-T1[{}]"]),
            3: (55, 46, ["theta-vs-quadrature[{},n=1]", "growth-bound[{},n=1]",
                         "rho-hermiticity[{}]", "quasifree-T1[{}]", "quasifree-T3[{}]"])}
    for truncation, (lines, passing, fock_passing) in rows.items():
        results = vf.run_battery(cli.ExperimentConfig(truncation=truncation))
        by_name = {r.name: r for r in results}
        assert len(results) == len(by_name) == lines
        assert sum(r.passed for r in results) == passing
        assert not any(name.startswith("fock/identities") for name in by_name)
        for entry in vf.DEFAULT_MODELS:
            tag = entry["builtin"]
            fock = [r for r in results if r.name.startswith("fock/")
                    and (f"[{tag}]" in r.name or f"[{tag}," in r.name)]
            assert {r.name for r in fock if r.passed} == {
                "fock/" + name.format(tag) for name in fock_passing}
            assert all(r.error.startswith("capacity: ") for r in fock if not r.passed)
            # the margin-4 commutation domain is empty: a capacity error, not a pass
            assert by_name[f"fock/rho-commutation[{tag}]"].error.startswith("capacity: ")
        poisson = by_name["poisson/theta-closed-form"]
        assert poisson.passed == (truncation == 3)
        if truncation == 1:
            need = "capacity: truncation 1 too small for order 1 (need >= 2)"
            assert poisson.error == need
            assert all(by_name[f"fock/growth-bound[{entry['builtin']},n=1]"].error == need
                       for entry in vf.DEFAULT_MODELS)


def test_an_unsampled_poisson_rate_fails_only_the_lines_that_draw_counts():
    results = vf.run_battery(cli.ExperimentConfig(window=(0.0, 3e19)))
    assert len(results) == 61
    drawing = [r for r in results if r.name == "poisson/mean-count-mc"
               or r.name.startswith("sampling/cox-product-moment[")]
    assert len(drawing) == 4
    for r in drawing:
        assert not r.passed
        assert r.error.startswith("capacity: largest Poisson rate ")


@pytest.mark.parametrize("fields, message", [
    ({"boxes": [[0, 1, 2]]}, "verify does not read ['boxes']; remove them from the config"),
    ({"boxes": [[1], [2]]}, "verify does not read ['boxes']; remove them from the config"),
    ({"profile": {"lambda": [[1.0, 0.0]] * 3}},
     "verify does not read ['profile']; remove them from the config"),
    ({"model": {"builtin": "real-gauss"}, "models": [{"builtin": "proper-fourier"}]},
     "verify runs 'models' or 'model', not both; remove one from the config"),
    ({"orders": [1], "max_order": 3},
     "verify does not read ['orders']; remove them from the config"),
    ({"orders": []}, "verify does not read ['orders']; remove them from the config"),
])
def test_run_battery_refuses_the_fields_it_would_ignore(fields, message):
    # in process, with no CLI in front: a field the battery does not read is an error
    with pytest.raises(ConfigError) as info:
        vf.run_battery(cli.ExperimentConfig(**fields))
    assert str(info.value) == message


def test_run_battery_refuses_an_order_past_its_moment_routes():
    # the quadrature and the field-moment estimator stop at order 4, so no
    # seed or truncation could pass an order-5 line; order 4 still runs
    with pytest.raises(ConfigError) as info:
        vf.run_battery(cli.ExperimentConfig(max_order=5, cells=5))
    assert str(info.value) == "verify runs moment orders up to 4, got 'max_order' 5"
    results = vf.run_battery(cli.ExperimentConfig(max_order=4, cells=4, truncation=8))
    assert len(results) == 73 and all(r.passed for r in results)


def test_run_battery_refuses_a_model_name_given_twice(tmp_path):
    # each model's lines carry its name alone, so two entries of one name
    # would print lines and records that cannot be told apart
    path = str(tmp_path / "model.json")
    kn.save_model(path, kn.builtin_model("real-gauss", cli.ExperimentConfig().grid()))
    for entries, name in [
            ([{"builtin": "proper-fourier", "params": {"n_freq": 1}},
              {"builtin": "proper-fourier", "params": {"n_freq": 2}}], "proper-fourier"),
            ([{"path": path}, {"builtin": "real-gauss"}, {"path": path}], path)]:
        with pytest.raises(ConfigError) as info:
            vf.run_battery(cli.ExperimentConfig(models=entries))
        assert str(info.value) == f"verify names each model once, got {name!r} more than once"


def test_an_unindexable_fock_basis_fails_only_the_fock_lines():
    # comb(5 + 10**30, 5) states cannot be indexed: the basis is refused by the
    # size rule at once, and each line that reads a basis records that refusal
    results = vf.run_battery(cli.ExperimentConfig(truncation=10 ** 30))
    assert len(results) == 61
    failed = [r for r in results if not r.passed]
    assert len(failed) == 31
    assert all(r.error.startswith("capacity: ") and "past numpy's size limit" in r.error
               for r in failed)


def test_a_fock_basis_past_free_memory_fails_only_the_fock_lines(monkeypatch, capsys):
    # an allocation failure while the sectors are built is a capacity error
    # on each line that reads the basis, and each shape is tried once
    tried = []

    def build(self, n, truncation):
        tried.append((self.n_grid, self.n_feature, truncation))
        raise MemoryError("Unable to allocate 164. MiB")
    monkeypatch.setattr(fk.FockBasis, "_build", build)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert out.err == "" and len(lines) == 62 and lines[-1] == "30/61 checks passed"
    failed = [line.split(maxsplit=2)[1:] for line in lines if line.startswith("FAIL ")]
    assert len(failed) == 31
    for name, detail in failed:
        poisson = name == "poisson/theta-closed-form"
        assert poisson or name.startswith("fock/")
        states = math.comb(3 + 6, 3) if poisson else math.comb(5 + 6, 5)
        assert detail == f"capacity: a Fock basis of {states} states does not fit in memory"
    assert tried == [(3, 2, 6), (3, 0, 6)]


def test_a_memory_error_in_a_check_fails_only_its_lines(monkeypatch, capsys):
    # past free memory after the basis is built: each line that reads the failed
    # density records a capacity error, and each model's density is tried once
    calls = []

    def rho(basis, source, cells):
        calls.append(source)
        raise MemoryError("Unable to allocate 658. MiB")
    monkeypatch.setattr(fk, "rho", rho)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert out.err == "" and len(lines) == 62 and lines[-1] == "55/61 checks passed"
    failed = [line.split(maxsplit=2)[1:] for line in lines if line.startswith("FAIL ")]
    assert sorted(name for name, _ in failed) == sorted(
        f"fock/{check}[{entry['builtin']}]" for entry in vf.DEFAULT_MODELS
        for check in ("rho-commutation", "rho-hermiticity"))
    assert all(detail == "capacity: Unable to allocate 658. MiB" for _, detail in failed)
    assert len(calls) == len(vf.DEFAULT_MODELS) == len(set(map(id, calls)))


def test_orders_set_the_battery_order():
    # the battery checks every order up to 'max_order'
    results = vf.run_battery(cli.ExperimentConfig(max_order=3))
    assert len(results) == 67 and all(r.passed for r in results)
