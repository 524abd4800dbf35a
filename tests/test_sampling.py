import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from haflab import kernels as kn
from haflab import sampling as sp
from haflab import verify as vf
from haflab.errors import CapacityError, DimensionError, ModelError, PreconditionError
from haflab.matfun import hafnian_dp

GRID = kn.Grid.regular(0.0, 1.0, 5)
MODELS = {name: kn.builtin_model(name, GRID) for name in kn.BUILTIN_NAMES}


def batch_stats_reference(values):
    """The loop form of ``sampling._batch_stats``: one mean per
    ``np.array_split`` batch."""
    nb = min(sp.BATCHES, values.size)
    if nb < 2:
        return float(np.mean(values)), 0.0
    means = np.array([chunk.mean() for chunk in np.array_split(values, nb)])
    return float(values.mean()), float(means.std(ddof=1) / np.sqrt(nb))


def entrywise_z(draws_product, exact):
    se = draws_product.std(ddof=1) / np.sqrt(draws_product.size)
    if se == 0:
        return 0.0 if np.isclose(abs(draws_product.mean() - exact), 0) else np.inf
    return abs(draws_product.mean() - exact) / se


# ---------------------------------------------------------------------------
# augmented covariance
# ---------------------------------------------------------------------------


def test_augmented_proper_real_k1_is_block_diagonal():
    # circularly symmetric field with a real covariance: both blocks K1/2
    l = np.array([[1.0, 0.5, 0.2, 0.1, 0.3], [0.2, 0.8, 0.5, 0.3, 0.1]])
    zero = np.zeros_like(l)
    model = kn.field_model(GRID, np.vstack([l, zero]), np.vstack([zero, l]))
    cov = model.augmented[0]
    m = GRID.n_cells
    assert np.allclose(cov[:m, :m], model.k1.real / 2, atol=1e-14)
    assert np.allclose(cov[m:, m:], model.k1.real / 2, atol=1e-14)
    assert np.abs(cov[:m, m:]).max() <= 1e-14


def test_augmented_real_structured_field_is_purely_real():
    model = MODELS["real-gauss"]
    cov = model.augmented[0]
    m = GRID.n_cells
    assert np.allclose(cov[:m, :m], model.k1.real, atol=1e-14)
    assert np.abs(cov[m:, m:]).max() <= 1e-14
    assert np.abs(cov[:m, m:]).max() <= 1e-14


def test_augmented_single_cell_unit_variance():
    grid = kn.Grid.regular(0.0, 1.0, 1)
    model = kn.field_model(grid, [[1.0], [0.0]], [[0.0], [1.0]])
    cov = model.augmented[0]
    assert np.allclose(cov, np.diag([0.5, 0.5]), atol=1e-14)


def test_augmented_symmetric_and_psd():
    for model in MODELS.values():
        cov = model.augmented[0]
        assert np.abs(cov - cov.T).max() <= 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-8 * max(1, np.abs(cov).max())


def test_augmented_rejects_inconsistent_pair():
    # features whose kernels no field can have: |k2| = 3 > k1 = 1
    grid = kn.Grid.regular(0.0, 1.0, 2)
    broken = kn.GaussianFieldModel(grid, [[1, 1]], [[3, 3]])
    for _ in range(3):   # a failed check is not cached: every call raises
        with pytest.raises(ModelError):
            broken.augmented
        with pytest.raises(ModelError):
            sp.sample_field(broken, 0)


def test_augmented_factorized_once_per_model(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(sp.np.linalg, "eigh", counted)
    for name in kn.BUILTIN_NAMES:
        model = kn.builtin_model(name, GRID)
        for seed in range(3):
            model.augmented
            sp.sample_field(model, seed)
            sp.sample_field(model, seed, size=4)
            sp.sample_cox(model, seed)
            sp.field_moment_mc(model, [0, 2], 50, seed)
    assert calls == [(2 * GRID.n_cells, 2 * GRID.n_cells)] * len(kn.BUILTIN_NAMES)


# ---------------------------------------------------------------------------
# field sampling
# ---------------------------------------------------------------------------


def test_zero_model_yields_zero_field():
    z = np.zeros((2, 5))
    model = kn.field_model(GRID, z, z)
    assert np.abs(sp.sample_field(model, 1, size=10)).max() == 0.0


def test_sample_field_seeded_determinism():
    model = MODELS["alpha-beta-demo"]
    a = sp.sample_field(model, 123, size=7)
    b = sp.sample_field(model, 123, size=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sp.sample_field(model, 124, size=7))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_empirical_covariance_and_pseudo_covariance(name):
    model = MODELS[name]
    g = sp.sample_field(model, 77, size=100_000)
    for (a, b) in [(0, 0), (0, 3), (2, 4)]:
        prod_cov = g[:, a] * np.conj(g[:, b])
        prod_pse = g[:, a] * g[:, b]
        for part in (np.real, np.imag):
            assert entrywise_z(part(prod_cov), part(model.k1[a, b])) < 4
            assert entrywise_z(part(prod_pse), part(model.k2[a, b])) < 4


# ---------------------------------------------------------------------------
# point patterns
# ---------------------------------------------------------------------------


def test_poisson_zero_intensity():
    profile = kn.intensity_profile(GRID, np.zeros(5))
    assert sp.sample_cox(profile, 1, size=20).max() == 0


@pytest.mark.parametrize("size", [None, 7])
def test_cox_on_a_profile_is_the_plain_poisson_draw(size):
    lam = np.array([1.0, 2.0, 0.5 + 0.5j, 1j, 0.0])
    shape = (GRID.n_cells,) if size is None else (size, GRID.n_cells)
    expected = np.random.default_rng(11).poisson(np.abs(lam) ** 2 * GRID.volumes, shape)
    counts = sp.sample_cox(kn.intensity_profile(GRID, lam), 11, size=size)
    assert counts.shape == shape and np.array_equal(counts, expected)


def test_field_of_a_profile_is_its_mean_and_draws_nothing():
    lam = np.array([1.0, 2.0, 0.5 + 0.5j, 1j, 0.0])
    profile = kn.intensity_profile(GRID, lam)
    rng = np.random.default_rng(3)
    g = sp.sample_field(profile, rng, size=4)
    assert np.array_equal(g, np.tile(lam, (4, 1)))
    g[0, 0] = 7.0   # a fresh array, not the model's mean
    assert profile.mean[0] == 1.0
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_field_draw_adds_the_mean():
    model = MODELS["alpha-beta-demo"]
    mean = np.linspace(-1.0, 1.0, GRID.n_cells) * (1 + 2j)
    displaced = dataclasses.replace(model, mean=mean)
    shift = sp.sample_field(displaced, 5, size=3) - sp.sample_field(model, 5, size=3)
    assert np.allclose(shift, mean, rtol=0.0, atol=1e-14)


def test_quadrature_refuses_a_mean():
    displaced = dataclasses.replace(MODELS["real-gauss"], mean=np.ones(GRID.n_cells))
    with pytest.raises(ModelError, match="zero-mean"):
        sp.quadrature_haf_moment(displaced, [[0], [1]])


def test_poisson_mean_and_equidispersion():
    lam = np.array([1.0, 2.0, 0.5 + 0.5j, 1j, 0.0])
    profile = kn.intensity_profile(GRID, lam)
    pats = sp.sample_cox(profile, 8, size=100_000)
    rate = np.abs(lam) ** 2 * GRID.volumes
    totals = pats.sum(axis=1).astype(float)
    assert entrywise_z(totals, rate.sum()) < 4
    # equidispersion of a single box count
    t = sp.box_counts(pats, [0, 1]).astype(float)
    var = t.var(ddof=1)
    mean = t.mean()
    se = np.abs(t - t.mean()).std() / np.sqrt(t.size) * 3  # crude but safe
    assert abs(var - mean) < 4 * max(se, 1e-3)


def test_cox_zero_model_empty():
    z = np.zeros((1, 5))
    model = kn.field_model(GRID, z, z)
    assert sp.sample_cox(model, 2, size=10).max() == 0


def test_cox_mean_count_matches_intensity():
    model = MODELS["proper-fourier"]
    pats = sp.sample_cox(model, 21, size=100_000)
    box = [0, 1, 2]
    expected = float(np.dot(GRID.volumes[box], model.k1.diagonal().real[box]))
    assert entrywise_z(sp.box_counts(pats, box).astype(float), expected) < 4


def test_cox_pattern_determinism():
    model = MODELS["real-gauss"]
    assert np.array_equal(sp.sample_cox(model, 5, size=9),
                          sp.sample_cox(model, 5, size=9))


@pytest.mark.parametrize("model", [MODELS["alpha-beta-demo"],
                                   kn.intensity_profile(GRID, np.array([1.0, 2.0, 1j, 0.5, 0.0]))])
def test_cox_without_size_is_the_first_row_of_size_one(model):
    one = sp.sample_cox(model, 13)
    assert one.shape == (GRID.n_cells,)
    assert one.tobytes() == sp.sample_cox(model, 13, size=1)[0].tobytes()


# ---------------------------------------------------------------------------
# moments: Monte Carlo vs exact quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("pts", [[1], [0, 3], [0, 2, 4]])
def test_field_moment_mc_matches_hafnian(name, pts):
    model = MODELS[name]
    rep = sp.field_moment_mc(model, pts, 200_000, seed=31)
    exact = hafnian_dp(kn.block_kernel(model, pts)).real
    assert abs(rep.value - exact) < 4 * rep.std_error
    assert rep.n_samples == 200_000


@pytest.mark.parametrize("n", [1, 7, 99, 250, 4097, 40_000])
def test_field_moment_mc_is_one_draw_bitwise(n):
    # chunked draws read the generator stream in order, and each sample's
    # row of the matrix product is computed on its own
    for name, model in MODELS.items():
        pts = [0, 2, 3]
        rep = sp.field_moment_mc(model, pts, n, seed=77)
        g = sp.sample_field(model, np.random.default_rng(77), size=n)
        values = np.prod(np.abs(g[:, pts]) ** 2, axis=1)
        assert (rep.value, rep.std_error) == batch_stats_reference(values), name
        # the estimator verify runs on its one shared draw
        assert sp.field_moment_from_draws(g, pts) == rep, name


@pytest.mark.parametrize("size", [1, 2, 99, 100, 101, 1001, 40_000])
def test_batch_stats_match_array_split_bitwise(size):
    values = np.random.default_rng(size).exponential(size=size)
    assert sp._batch_stats(values) == batch_stats_reference(values)


def test_field_moment_rejects_large_order():
    with pytest.raises(PreconditionError):
        sp.field_moment_mc(MODELS["real-gauss"], [0, 1, 2, 3, 4], 10, seed=0)
    with pytest.raises(PreconditionError):
        sp.field_moment_from_draws(np.ones((10, 5)), [0, 1, 2, 3, 4])


def test_quadrature_single_box_is_intensity():
    model = MODELS["alpha-beta-demo"]
    box = [0, 2, 3]
    rep = sp.quadrature_haf_moment(model, [box])
    expected = float(np.dot(GRID.volumes[box], model.k1.diagonal().real[box]))
    assert rep.value == pytest.approx(expected, rel=1e-12)
    assert rep.std_error is None


def test_quadrature_zero_model():
    z = np.zeros((1, 5))
    model = kn.field_model(GRID, z, z)
    assert sp.quadrature_haf_moment(model, [[0], [1]]).value == 0.0


def test_quadrature_orthogonal_columns_factorize():
    # independent cells: off-diagonal kernel entries vanish, so only the
    # self-pairing term survives per point
    feats = np.eye(5) * np.array([1.0, 1.5, 0.5, 2.0, 1.0])
    model = kn.field_model(GRID, feats, feats)
    rep = sp.quadrature_haf_moment(model, [[1], [3]])
    expected = (model.k1[1, 1].real * GRID.volumes[1]
                * model.k1[3, 3].real * GRID.volumes[3])
    assert rep.value == pytest.approx(expected, rel=1e-12)


def test_quadrature_brute_force_oracle():
    # independent oracle: enumerate the tuples by hand
    from itertools import product as iproduct
    model = MODELS["alpha-beta-demo"]
    boxes = [[0, 1], [2, 4]]
    total = 0.0
    for combo in iproduct(*boxes):
        pts = list(combo)
        total += (hafnian_dp(kn.block_kernel(model, pts)).real
                  * np.prod(GRID.volumes[pts]))
    assert sp.quadrature_haf_moment(model, boxes).value == pytest.approx(total)


def uneven_grid(m_cells, seed):
    rng = np.random.default_rng(seed)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, m_cells - 1)), [1.0]])
    return kn.Grid(edges)


def per_tuple_quadrature(model, boxes):
    # One hafnian per tuple times np.prod of its cell volumes, in the
    # order quadrature_haf_moment sums them (each box sorted).
    vols = model.grid.volumes
    total = 0.0 + 0.0j
    for combo in product(*[sorted(b) for b in boxes]):
        pts = np.asarray(combo)
        total += hafnian_dp(kn.block_kernel(model, pts)) * np.prod(vols[pts])
    return float(total.real)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_quadrature_matches_per_tuple_reference_bitwise(name):
    grid = uneven_grid(8, 5)
    assert np.ptp(grid.volumes) > 0.05
    model = kn.builtin_model(name, grid)
    disjoint = [[[5, 1, 3]],
                [[0, 6], [7, 2, 4]],
                [[1, 0], [5], [7, 3, 2]],
                [[7, 0], [2, 1], [4, 3], [6, 5]]]
    for boxes in disjoint:
        rep = sp.quadrature_haf_moment(model, boxes)
        assert rep.value == per_tuple_quadrature(model, boxes)
    repeats = [[[0, 3], [3, 1]],
               [[4, 6], [4, 6], [6]],
               [[2, 5, 7]] * 4,
               [[1, 2], [2, 3], [3, 1], [1]]]
    for boxes in repeats:
        rep = sp.quadrature_haf_moment(model, boxes, allow_repeats=True)
        assert rep.value == per_tuple_quadrature(model, boxes)


def test_non_integer_cell_indices_are_rejected():
    model = MODELS["real-gauss"]
    for boxes in ([[0.5], [2.9]], [[1.0]], [[0, "1"]], [[True]]):
        with pytest.raises(DimensionError, match="is not an integer"):
            sp.quadrature_haf_moment(model, boxes)
        with pytest.raises(DimensionError, match="is not an integer"):
            sp.empirical_product_moment(np.ones((4, 5), dtype=int), boxes)
    # numpy integers are integers
    rep = sp.quadrature_haf_moment(model, [np.array([0, 2]), [np.int64(1)]])
    assert rep.value == sp.quadrature_haf_moment(model, [[0, 2], [1]]).value


def test_quadrature_preconditions():
    model = MODELS["real-gauss"]
    with pytest.raises(PreconditionError):
        sp.quadrature_haf_moment(model, [[0, 1], [1, 2]])
    sp.quadrature_haf_moment(model, [[0, 1], [1, 2]], allow_repeats=True)
    wide = kn.builtin_model("real-gauss", kn.Grid.regular(0.0, 1.0, 22))
    with pytest.raises(CapacityError):   # 22^4 = 234 256 tuples, over the 200 000 cap
        sp.quadrature_haf_moment(wide, [range(22)] * 4, allow_repeats=True)
    with pytest.raises(PreconditionError):
        sp.quadrature_haf_moment(model, [[0]] * 5, allow_repeats=True)


def test_empirical_product_moment_cases():
    empty = np.zeros((40, 5), dtype=int)
    rep = sp.empirical_product_moment(empty, [[0], [1]])
    assert rep.value == 0.0 and rep.std_error == 0.0
    with pytest.raises(PreconditionError):
        sp.empirical_product_moment(np.zeros((0, 5)), [[0]])
    with pytest.raises(PreconditionError):
        sp.empirical_product_moment(empty, [[0, 1], [1]])


@pytest.mark.parametrize("entry", [-1, -0.5, 0.5, float("nan"), float("inf"), True, 1j])
def test_count_estimators_refuse_entries_that_are_not_counts(entry):
    pats = np.array([[2, 0, 1], [1, 1, 0]], dtype=np.asarray(entry).dtype)
    pats[1, 2] = entry
    with pytest.raises(PreconditionError, match="must be counts"):
        sp.empirical_product_moment(pats, [[2]])
    with pytest.raises(PreconditionError, match="must be counts"):
        sp.empirical_factorial_moment(pats, [2], 3)


def test_factorial_moment_refuses_order_0():
    with pytest.raises(PreconditionError, match="order must be >= 1"):
        sp.empirical_factorial_moment(np.ones((4, 3), dtype=int), [0], 0)


def test_count_estimators_take_whole_float_counts():
    ints = np.array([[2, 0, 1], [1, 3, 0]])
    assert (sp.empirical_factorial_moment(ints.astype(float), [0, 1], 2)
            == sp.empirical_factorial_moment(ints, [0, 1], 2))


def test_empirical_poisson_window_mean():
    profile = kn.intensity_profile(GRID, np.ones(5))
    pats = sp.sample_cox(profile, 17, size=50_000)
    rep = sp.empirical_product_moment(pats, [list(range(5))])
    assert abs(rep.value - 1.0) < 4 * rep.std_error


def test_cox_product_moment_vs_quadrature():
    for model in MODELS.values():
        pats = sp.sample_cox(model, 19, size=60_000)
        boxes = [[0, 1], [3, 4]]
        emp = sp.empirical_product_moment(pats, boxes)
        quad = sp.quadrature_haf_moment(model, boxes)
        assert abs(emp.value - quad.value) < 4 * emp.std_error


def test_factorial_moment_poisson_closed_form():
    lam = np.full(5, 1.2)
    profile = kn.intensity_profile(GRID, lam)
    pats = sp.sample_cox(profile, 23, size=120_000)
    box = [0, 1, 2]
    rep = sp.empirical_factorial_moment(pats, box, 2)
    mass = float(np.sum(np.abs(lam[box]) ** 2 * GRID.volumes[box]))
    assert abs(rep.value - mass ** 2) < 4 * rep.std_error
    rep1 = sp.empirical_factorial_moment(pats, box, 1)
    assert rep1.value == pytest.approx(sp.box_counts(pats, box).mean())


def test_factorial_moment_past_every_count_is_zero_at_once():
    pats = np.array([[0, 2, 1], [3, 0, 1], [1, 0, 0]])   # box counts 3, 4, 1
    rep = sp.empirical_factorial_moment(pats, [0, 1, 2], 10 ** 12)
    assert rep.value == 0.0 and rep.std_error == 0.0 and rep.n_samples == 3
    assert rep.label == "empirical falling factorial order 1000000000000"
    values = {n: sp.empirical_factorial_moment(pats, [0, 1, 2], n).value for n in range(1, 7)}
    assert values == {1: 8 / 3, 2: (6 + 12) / 3, 3: (6 + 24) / 3, 4: 24 / 3, 5: 0.0, 6: 0.0}


def test_factorial_moment_of_zero_counts_is_positive_zero():
    rep = sp.empirical_factorial_moment(np.zeros((40, 5), dtype=int), [0, 1], 2)
    assert rep.value == 0.0 and math.copysign(1.0, rep.value) == 1.0


def test_factorial_moment_cox_vs_full_square_quadrature():
    model = MODELS["real-gauss"]
    pats = sp.sample_cox(model, 29, size=60_000)
    box = [0, 1, 2]
    rep = sp.empirical_factorial_moment(pats, box, 2)
    quad = sp.quadrature_haf_moment(model, [box, box], allow_repeats=True)
    assert abs(rep.value - quad.value) < 4 * rep.std_error


def test_growth_bound_all_models():
    box = list(range(GRID.n_cells))
    for model in MODELS.values():
        for n in (1, 2, 3):
            quad = sp.quadrature_haf_moment(model, [box] * n,
                                            allow_repeats=True).value
            assert quad <= vf.growth_bound(model, box, n) * (1 + 1e-12)


def test_proper_field_permanent_reduction():
    from itertools import product as iproduct
    from haflab.matfun import permanent
    model = MODELS["proper-fourier"]
    boxes = [[0, 1], [2], [3, 4]]
    via_perm = 0.0
    for combo in iproduct(*boxes):
        pts = list(combo)
        via_perm += (permanent(model.k1[np.ix_(pts, pts)]).real
                     * np.prod(GRID.volumes[pts]))
    via_haf = sp.quadrature_haf_moment(model, boxes).value
    assert abs(via_haf - via_perm) <= 1e-10 * abs(via_perm)


def test_real_field_two_permanent_reduction():
    from haflab.matfun import alpha_det
    model = MODELS["real-gauss"]
    for pts in ([0], [0, 2], [1, 3, 4]):
        haf = hafnian_dp(kn.block_kernel(model, pts)).real
        det2 = alpha_det(model.k1[np.ix_(pts, pts)].real, 2.0).real
        assert abs(haf - det2) <= 1e-10 * abs(det2)


def test_replicate_streams_are_stable_and_distinct():
    a0 = sp.replicate_rng(9, 0).standard_normal(4)
    a0_again = sp.replicate_rng(9, 0).standard_normal(4)
    a1 = sp.replicate_rng(9, 1).standard_normal(4)
    assert np.array_equal(a0, a0_again)
    assert not np.array_equal(a0, a1)


def test_moment_report_serialization():
    rep = sp.MomentReport("x", 1.5, 0.1, 100)
    assert rep.to_dict() == {"label": "x", "value": 1.5, "std_error": 0.1,
                             "n_samples": 100}
    exact = sp.MomentReport("y", 2.0 + 1j)
    assert exact.to_dict() == {"label": "y", "value": [2.0, 1.0]}
