import numpy as np
import pytest

from haflab import kernels as kn
from haflab.errors import ConfigError, DimensionError, ModelError
from haflab.matfun import hafnian_dp, permanent

GRID = kn.Grid.regular(0.0, 1.0, 5)


def rand_features(d, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_regular_grid_partitions_window():
    g = kn.Grid.regular(-1.0, 3.0, 8)
    assert g.n_cells == 8
    assert g.volumes.sum() == pytest.approx(4.0, abs=1e-14)
    assert len({tuple(c) for c in g.centers}) == 8


def test_grid_rejects_bad_volumes():
    with pytest.raises(DimensionError):
        kn.Grid(np.array([0.0]), np.array([1.0]),
                np.array([[0.25], [0.75]]), np.array([0.5, 0.25]))
    with pytest.raises(DimensionError):
        kn.Grid(np.array([0.0]), np.array([1.0]),
                np.array([[0.5], [0.5]]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# feature validation
# ---------------------------------------------------------------------------


def test_equal_features_always_valid():
    l = rand_features(3, 5, 1)
    assert kn.validate_features(l, l) == []


def test_orthogonal_copies_are_valid():
    l = rand_features(3, 5, 2)
    zero = np.zeros_like(l)
    assert kn.validate_features(np.vstack([l, zero]), np.vstack([zero, l])) == []


def test_norm_mismatch_is_reported():
    bad = kn.validate_features(np.array([[1.0]]), np.array([[2.0]]))
    assert len(bad) == 1
    assert bad[0].kind == "gram-match"
    assert bad[0].residual == pytest.approx(3.0)


def test_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        kn.validate_features(np.ones((2, 3)), np.ones((3, 2)))


def test_field_model_rejects_invalid_pair():
    with pytest.raises(ModelError):
        kn.field_model(kn.Grid.regular(0, 1, 1), [[1.0]], [[2.0]])


# ---------------------------------------------------------------------------
# derived kernels
# ---------------------------------------------------------------------------


def test_gram_kernels_match_definition():
    l = rand_features(4, 5, 3)
    model = kn.field_model(GRID, l, l)
    d = l.shape[0]
    for m in range(5):
        for m2 in range(5):
            k1 = sum(l[j, m] * np.conj(l[j, m2]) for j in range(d))
            k2 = sum(l[j, m] * l[j, m2] for j in range(d))
            assert model.k1[m, m2] == pytest.approx(k1, abs=1e-13)
            assert model.k2[m, m2] == pytest.approx(k2, abs=1e-13)


def test_k1_hermitian_and_psd_k2_symmetric():
    l = rand_features(3, 5, 4)
    model = kn.field_model(GRID, l, l)
    assert np.array_equal(model.k1, model.k1.conj().T)
    assert np.array_equal(model.k2, model.k2.T)
    eigs = np.linalg.eigvalsh(model.k1)
    assert eigs.min() >= -1e-10 * np.abs(model.k1).max()


def test_from_alpha_beta_proper_case():
    l = rand_features(2, 5, 5)
    model = kn.from_alpha_beta(l, l, GRID)
    assert np.abs(model.k2).max() == 0
    expected_k1 = l.T @ l.conj()
    assert np.allclose(model.k1, expected_k1, atol=1e-12)


def test_from_alpha_beta_fully_correlated_case():
    l = rand_features(2, 5, 6)
    model = kn.from_alpha_beta(np.sqrt(2) * l, np.zeros_like(l), GRID)
    assert np.allclose(model.k1, l.T @ l.conj(), atol=1e-12)
    assert np.allclose(model.k2, l.T @ l, atol=1e-12)


def test_from_alpha_beta_zero():
    z = np.zeros((2, 5), dtype=complex)
    model = kn.from_alpha_beta(z, z, GRID)
    assert np.abs(model.k1).max() == 0 and np.abs(model.k2).max() == 0


def test_from_alpha_beta_closed_forms_match_grams():
    a = rand_features(3, 5, 7)
    b = rand_features(3, 5, 8)
    model = kn.from_alpha_beta(a, b, GRID)
    assert np.allclose(model.k1, (a.T @ a.conj() + b.T @ b.conj()) / 2, atol=1e-12)
    assert np.allclose(model.k2, (a.T @ a - b.T @ b) / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# block kernel
# ---------------------------------------------------------------------------


def test_single_point_block():
    model = kn.builtin_model("alpha-beta-demo", GRID)
    m = 2
    block = kn.block_kernel(model, [m])
    expected = np.array([
        [model.k2[m, m], model.k1[m, m]],
        [np.conj(model.k1[m, m]), np.conj(model.k2[m, m])]])
    assert np.array_equal(block, expected)
    assert hafnian_dp(block) == model.k1[m, m]


def test_block_kernel_exactly_symmetric():
    model = kn.builtin_model("alpha-beta-demo", GRID)
    block = kn.block_kernel(model, [0, 2, 2, 4])
    assert np.array_equal(block, block.T)


def test_proper_two_point_pairing_enumeration():
    model = kn.builtin_model("proper-fourier", GRID)
    a, b = 1, 3
    block = kn.block_kernel(model, [a, b])
    expected = (model.k1[a, a] * model.k1[b, b]
                + abs(model.k1[a, b]) ** 2)
    assert hafnian_dp(block) == pytest.approx(expected, rel=1e-12)


def test_permanental_embedding_matches_permanent():
    rng = np.random.default_rng(9)
    n = 4
    kern = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    big = np.zeros((2 * n, 2 * n), dtype=complex)
    big[0::2, 1::2] = kern
    big[1::2, 0::2] = kern.T
    assert hafnian_dp(big) == pytest.approx(permanent(kern), rel=1e-11)


def test_one_point_hafnian_nonnegative_everywhere():
    for name in kn.BUILTIN_NAMES:
        model = kn.builtin_model(name, GRID)
        for m in range(GRID.n_cells):
            value = hafnian_dp(kn.block_kernel(model, [m]))
            assert value == model.k1[m, m]
            assert value.real >= 0 and abs(value.imag) <= 1e-14


def test_block_kernel_index_errors():
    model = kn.builtin_model("real-gauss", GRID)
    with pytest.raises(DimensionError):
        kn.block_kernel(model, [7])
    with pytest.raises(DimensionError):
        kn.block_kernel(model, [])
    with pytest.raises(DimensionError):
        kn.block_kernel(model, [-1])
    with pytest.raises(DimensionError, match="must be integers"):
        kn.block_kernel(model, [1.7])
    with pytest.raises(DimensionError, match="must be integers"):
        kn.block_kernel(model, [0, 2.0])
    with pytest.raises(DimensionError, match="must be integers"):
        kn.block_kernel(model, [True])


def four_slice_block(model, points):
    # The block layout written out slice by slice from k1 and k2.
    pts = list(points)
    k1, k2 = model.k1[np.ix_(pts, pts)], model.k2[np.ix_(pts, pts)]
    out = np.zeros((2 * len(pts), 2 * len(pts)), dtype=complex)
    out[0::2, 0::2] = k2
    out[0::2, 1::2] = k1
    out[1::2, 0::2] = k1.conj()
    out[1::2, 1::2] = k2.conj()
    return out


def random_models(seed):
    rng = np.random.default_rng(seed)
    grid = kn.Grid.regular(-0.5, 2.0, 7)
    params = {"proper-fourier": {"n_freq": 4}, "real-gauss": {"n_centers": 3},
              "alpha-beta-demo": {"d_half": 2}}
    out = [kn.builtin_model(name, grid, dict(params[name],
                                             lengthscale=float(rng.uniform(0.2, 1.5)),
                                             scale=float(rng.uniform(0.5, 2.0))))
           for name in kn.BUILTIN_NAMES]
    out.append(kn.from_alpha_beta(rand_features(3, 7, seed), rand_features(3, 7, seed + 1),
                                  grid))
    return out


@pytest.mark.parametrize("seed", [11, 12])
def test_block_kernel_matches_four_slice_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    for model in random_models(seed):
        m = model.grid.n_cells
        cases = [[int(rng.integers(m))], [3, 3], [6, 0, 6, 2],
                 rng.integers(m, size=5).tolist(), tuple(range(m))]
        for pts in cases:
            block = kn.block_kernel(model, pts)
            assert block.dtype == complex and block.shape == (2 * len(pts),) * 2
            assert np.array_equal(block, four_slice_block(model, pts))
        assert np.array_equal(kn.block_kernel(model, np.array([4, 1], dtype=np.uint8)),
                              four_slice_block(model, [4, 1]))
    # 2 * 150 does not fit in uint8
    wide = kn.builtin_model("real-gauss", kn.Grid.regular(0.0, 1.0, 200))
    assert np.array_equal(kn.block_kernel(wide, np.array([150, 3], dtype=np.uint8)),
                          four_slice_block(wide, [150, 3]))


def test_interleaved_kernel_is_cached_read_only_and_blocks_are_fresh():
    model = kn.builtin_model("alpha-beta-demo", GRID)
    full = kn._interleaved(model)
    assert kn._interleaved(model) is full
    assert not full.flags.writeable
    with pytest.raises(ValueError):
        full[0, 0] = 1.0
    assert np.array_equal(full, four_slice_block(model, range(GRID.n_cells)))
    block = kn.block_kernel(model, [1, 3])
    assert block.flags.writeable and not np.shares_memory(block, full)
    block[:] = 0.0
    assert np.array_equal(kn.block_kernel(model, [1, 3]), four_slice_block(model, [1, 3]))


# ---------------------------------------------------------------------------
# builtin models and the intensity quadrature
# ---------------------------------------------------------------------------


def test_proper_fourier_is_proper():
    model = kn.builtin_model("proper-fourier", GRID)
    assert kn.validate_features(model.l1, model.l2) == []
    assert np.abs(model.k2).max() <= 1e-12


def test_real_gauss_has_matching_real_kernels():
    model = kn.builtin_model("real-gauss", GRID)
    assert np.abs(model.k1 - model.k2).max() <= 1e-12
    assert np.abs(model.k1.imag).max() <= 1e-12
    assert np.abs(model.k1 - model.k1.T).max() <= 1e-12


def test_alpha_beta_demo_is_mixed():
    model = kn.builtin_model("alpha-beta-demo", GRID)
    assert kn.validate_features(model.l1, model.l2) == []
    assert np.abs(model.k2).max() > 1e-3
    assert np.abs(model.k1.imag).max() > 1e-3


def test_unknown_builtin():
    with pytest.raises(ConfigError):
        kn.builtin_model("nope", GRID)
    with pytest.raises(ConfigError):
        kn.builtin_model("real-gauss", GRID, {"bogus": 1})


def test_intensity_integral_cases():
    model = kn.builtin_model("proper-fourier", GRID)
    assert kn.intensity_integral(model, []) == 0.0
    grid1 = kn.Grid(np.array([0.0]), np.array([0.5]),
                    np.array([[0.25]]), np.array([0.5]))
    single = kn.field_model(grid1, [[1.0], [1j]], [[1.0], [1j]], validate=False)
    assert kn.intensity_integral(single, [0]) == pytest.approx(1.0)
    full = kn.intensity_integral(model, range(GRID.n_cells))
    trace = float(np.dot(GRID.volumes, model.k1.diagonal().real))
    assert full == pytest.approx(trace, rel=1e-10)
    l2_version = float(np.dot(GRID.volumes,
                              np.sum(np.abs(model.l2) ** 2, axis=0)))
    assert full == pytest.approx(l2_version, rel=1e-10)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def test_model_file_roundtrip(tmp_path):
    model = kn.builtin_model("alpha-beta-demo", GRID)
    path = tmp_path / "model.json"
    kn.save_model(path, model)
    back = kn.load_model(path)
    assert np.allclose(back.l1, model.l1)
    assert np.allclose(back.k1, model.k1)
    assert back.grid.n_cells == model.grid.n_cells


def test_model_file_rejects_invalid_features(tmp_path):
    path = tmp_path / "model.json"
    doc = {"grid": {"window": [0.0, 1.0], "cells": 1}, "feature_dim": 1,
           "L1": [[[1.0, 0.0]]], "L2": [[[2.0, 0.0]]]}
    import json
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="gram-match"):
        kn.load_model(path)


def test_model_file_rejects_malformed(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelError):
        kn.load_model(path)
    path.write_text("{}")
    with pytest.raises(ModelError):
        kn.load_model(path)


# ---------------------------------------------------------------------------
# the cell-index rule, as every layer reads it
# ---------------------------------------------------------------------------


def _index_entry_points():
    from haflab import cli
    from haflab import fock as fk
    from haflab import sampling as sp

    grid = kn.Grid.regular(0.0, 1.0, 3)
    model = kn.builtin_model("real-gauss", grid, {"n_centers": 1})
    basis = fk.FockBasis(3, 1, 2)
    pats = np.arange(12).reshape(4, 3)
    dense = lambda op: op.mat.toarray()
    # name -> (call on one box or point tuple, whether it is a cell set)
    return {
        "cell_indices": (lambda c: kn.cell_indices(c, 3), False),
        "cell_set": (lambda c: kn.cell_set(c, 3), True),
        "block_kernel": (lambda c: kn.block_kernel(model, c), False),
        "field_moment_mc": (lambda c: sp.field_moment_mc(model, c, 20, 0).value, False),
        "intensity_integral": (lambda c: kn.intensity_integral(model, c), True),
        "box_counts": (lambda c: sp.box_counts(pats, c), True),
        "empirical_factorial_moment":
            (lambda c: sp.empirical_factorial_moment(pats, c, 2).value, True),
        "empirical_product_moment":
            (lambda c: sp.empirical_product_moment(pats, [c]).value, True),
        "quadrature_haf_moment": (lambda c: sp.quadrature_haf_moment(model, [c]).value, True),
        "disjoint_boxes": (lambda c: cli.ExperimentConfig(boxes=[c]).disjoint_boxes(3), True),
        "neutral": (lambda c: dense(fk.neutral(basis, c)), True),
        "rho": (lambda c: dense(fk.rho(basis, model, c)), True),
        "wick": (lambda c: dense(fk.wick(basis, model, [c])), True),
        "theta": (lambda c: fk.theta(basis, model, [c]), True),
        "moment": (lambda c: fk.moment(basis, model, [c]), True),
    }


INDEX_ENTRY_POINTS = _index_entry_points()


@pytest.mark.parametrize("name", sorted(INDEX_ENTRY_POINTS))
def test_every_layer_reads_one_cell_index_rule(name):
    call, is_set = INDEX_ENTRY_POINTS[name]
    for bad in (0.7, True, "1", -1, 3, np.float64(2.0), np.bool_(False)):
        with pytest.raises(DimensionError):
            call([0, bad])
    reference = call([0, 2])
    for same in ([np.int64(0), np.uint8(2)], np.array([0, 2]), np.array([0, 2], np.uint8),
                 (0, 2), range(0, 3, 2), {0, 2}, frozenset({0, 2})):
        assert np.array_equal(call(same), reference)
    if is_set:
        assert np.array_equal(call([1, 1]), call([1]))
        assert np.array_equal(call([2, 0, 2]), reference)
        call([])
        call(set())


def test_cell_indices_keep_order_and_repeats():
    idx = kn.cell_indices([2, 0, 2], 3)
    assert idx.dtype == np.intp and idx.tolist() == [2, 0, 2]
    assert kn.cell_set([2, 0, 2], 3).tolist() == [0, 2]
    assert kn.cell_indices([], 3).dtype == np.intp
    with pytest.raises(DimensionError, match="cell index 3 is out of range 0..2"):
        kn.cell_indices([0, 3], 3)
    with pytest.raises(DimensionError, match="out of range"):
        kn.cell_indices([2 ** 70], 3)
    with pytest.raises(DimensionError, match="is not an integer"):
        kn.cell_indices([[0, 1]], 3)
