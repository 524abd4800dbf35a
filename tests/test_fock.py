import itertools
import math
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import sqrtm

from haflab import fock as fk
from haflab import kernels as kn
from haflab import sampling as sp
from haflab import verify as vf
from haflab.errors import CapacityError, DimensionError, PreconditionError
from haflab.matfun import hafnian_dp

GRID = kn.Grid.regular(0.0, 1.0, 3)
MODELS = {
    "proper-fourier": kn.builtin_model("proper-fourier", GRID, {"n_freq": 1}),
    "real-gauss": kn.builtin_model("real-gauss", GRID, {"n_centers": 2}),
    "alpha-beta-demo": kn.builtin_model("alpha-beta-demo", GRID, {"d_half": 1}),
}


@pytest.fixture(scope="module")
def bases():
    return {name: fk.FockBasis(GRID.n_cells, m.feature_dim, 6)
            for name, m in MODELS.items()}


@pytest.fixture(scope="module")
def plain_basis():
    return fk.FockBasis(2, 1, 5)


def _index(basis):
    """Each occupation tuple of the basis mapped to its position, in basis order."""
    return {tuple(row): i for i, row in enumerate(basis.occupations.tolist())}


def zero(basis):
    return fk.FockOperator(basis, sparse.csr_matrix((basis.size, basis.size), dtype=complex))


def vacuum_expectation(op):
    return complex(op.mat[0, 0])


def commutator(a, b):
    return a @ b - b @ a


def max_abs_on_domain(op, margin):
    return float(np.abs(op.mat[:, op.basis.safe_indices(margin)].data).max(initial=0.0))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def test_state_count_formula():
    for modes, n_max in [(3, 4), (5, 3), (2, 6)]:
        basis = fk.FockBasis(modes, 0, n_max)
        expected = sum(math.comb(modes + k - 1, k) for k in range(n_max + 1))
        assert basis.size == expected


@pytest.mark.parametrize("dims", [(2, 1, 5), (3, 2, 6), (3, 0, 4), (1, 0, 0), (3, 2, 0),
                                  (1, 0, 4), (0, 2, 3)])
def test_basis_and_raising_tables_match_brute_force(dims):
    # order by (total, tuple); raise_dst and raise_amp by the per-state
    # tuple rule, for truncation 0, one mode and no feature or grid modes
    basis = fk.FockBasis(*dims)
    n, top = basis.n_modes, basis.truncation
    states = sorted((s for s in itertools.product(range(top + 1), repeat=n) if sum(s) <= top),
                    key=lambda s: (sum(s), s))
    assert basis.occupations.tolist() == [list(s) for s in states]
    index = {s: i for i, s in enumerate(states)}
    below = [s for s in states if sum(s) < top]
    assert basis.raise_dst.shape[1] == len(below)
    dst = [[index[s[:j] + (s[j] + 1,) + s[j + 1:]] for s in below] for j in range(n)]
    amp = [[math.sqrt(s[j] + 1) for s in below] for j in range(n)]
    assert np.array_equal(basis.raise_dst, np.array(dst, dtype=np.int64).reshape(n, -1))
    assert np.array_equal(basis.raise_amp, np.array(amp).reshape(n, -1))


def test_vacuum_is_index_zero(plain_basis):
    assert plain_basis.occupations[0].tolist() == [0, 0, 0]
    v = plain_basis.vacuum()
    assert v[0] == 1.0 and np.abs(v[1:]).max() == 0.0
    assert vacuum_expectation(fk.identity(plain_basis)) == 1.0


def test_safe_indices(plain_basis):
    idx = plain_basis.safe_indices(2)
    assert all(plain_basis.totals[i] <= 3 for i in idx)


def test_empty_domain_is_a_capacity_error():
    # margin 4 leaves no state at truncation 3: a commutator read there
    # would be the empty maximum 0.0 and pass without checking anything
    op = fk.identity(fk.FockBasis(3, 2, 3))
    with pytest.raises(CapacityError, match="margin 4 leaves no state at truncation 3"):
        max_abs_on_domain(op, 4)
    assert max_abs_on_domain(op, 3) == 1.0


def test_empty_hermiticity_block_is_a_capacity_error():
    op = fk.identity(fk.FockBasis(3, 2, 1))
    with pytest.raises(CapacityError, match="margin 2 leaves no state at truncation 1"):
        fk.hermiticity_defect(op, 2)
    assert fk.hermiticity_defect(op, 1) == 0.0


@pytest.mark.parametrize("dims, error, message", [
    ((0, 0, 3), DimensionError, "need at least one mode"),
    ((-1, 2, 3), DimensionError, "need at least one mode"),
    ((3, 2, -1), DimensionError, "truncation must be nonnegative"),
    # comb(5 + 10**30, 5) states: refused by the size rule before any sector is built
    ((3, 2, 10 ** 30), CapacityError, "past numpy's size limit"),
])
def test_basis_refuses_bad_shapes(dims, error, message):
    with pytest.raises(error, match=message):
        fk.FockBasis(*dims)


def test_basis_allocation_failure_is_a_capacity_error(monkeypatch):
    held = []

    def build(self, n, truncation):
        sector = np.zeros((1, n), dtype=np.int64)
        held.append(weakref.ref(sector))
        raise MemoryError("Unable to allocate 164. MiB")
    monkeypatch.setattr(fk.FockBasis, "_build", build)
    # comb(5 + 6, 5) states: below numpy's size limit, past free memory
    with pytest.raises(CapacityError,
                       match="^a Fock basis of 462 states does not fit in memory$") as info:
        fk.FockBasis(3, 2, 6)
    # the refusal, held as verify holds it, keeps no sector of the failed build alive
    assert isinstance(info.value.__cause__, MemoryError) and held[0]() is None


def test_operators_on_two_bases_do_not_combine(plain_basis):
    a, b = fk.identity(plain_basis), fk.identity(fk.FockBasis(2, 1, 5))
    for combine in (a.__add__, a.__sub__, a.__matmul__):
        with pytest.raises(DimensionError, match="operators live on different bases"):
            combine(b)


def test_operators_refuse_a_source_of_another_shape():
    basis = fk.FockBasis(2, 2, 2)
    with pytest.raises(DimensionError, match=r"basis has \(2 grid, 2 feature\) modes; "
                                             r"source needs \(3, 2\)"):
        fk.rho(basis, MODELS["proper-fourier"], [0])


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------


def test_create_on_vacuum(plain_basis):
    op = fk.create(plain_basis, [1.0, 0.0, 0.0])
    out = op.mat @ plain_basis.vacuum()
    target = _index(plain_basis)[(1, 0, 0)]
    assert out[target] == 1.0
    assert np.abs(np.delete(out, target)).max() == 0.0


def test_create_adjoint_is_annihilate_conjugate(plain_basis):
    rng = np.random.default_rng(1)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    up = fk.create(plain_basis, g)
    down = fk.annihilate(plain_basis, np.conj(g))
    keep = plain_basis.safe_indices(1)
    defect = (up.adjoint() - down).mat[:, keep]
    # adjoint relation holds below the cutoff sector
    assert np.abs(defect[keep, :].toarray()).max() <= 1e-13


def test_creation_norm_grows_with_sector(plain_basis):
    rng = np.random.default_rng(2)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    up = fk.create(plain_basis, g)
    for k in (0, 1, 2, 3):
        src = np.nonzero(plain_basis.totals == k)[0]
        dst = np.nonzero(plain_basis.totals == k + 1)[0]
        block = up.mat[np.ix_(dst, src)].toarray()
        norm = np.linalg.norm(block, 2)
        assert norm == pytest.approx(math.sqrt(k + 1) * np.linalg.norm(g),
                                     rel=1e-12)


def test_ladder_degree_coupling(plain_basis):
    up = fk.create(plain_basis, [0.3, 0.7j, 1.0])
    rows, cols = up.mat.nonzero()
    assert np.all(plain_basis.totals[rows] == plain_basis.totals[cols] + 1)
    down = fk.annihilate(plain_basis, [1.0, 1.0, 1.0])
    rows, cols = down.mat.nonzero()
    assert np.all(plain_basis.totals[rows] == plain_basis.totals[cols] - 1)


def test_ccr_on_safe_subbasis(plain_basis):
    rng = np.random.default_rng(3)
    for _ in range(3):
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        comm = commutator(fk.annihilate(plain_basis, f), fk.create(plain_basis, g))
        scalar = complex(np.sum(f * g))
        defect = comm - scalar * fk.identity(plain_basis)
        keep = plain_basis.safe_indices(1)
        assert np.abs(defect.mat[np.ix_(keep, keep)].toarray()).max() <= 1e-12
        # same-type commutators vanish on the whole truncated space
        assert commutator(fk.create(plain_basis, f),
                          fk.create(plain_basis, g)).max_abs() <= 1e-12
        assert commutator(fk.annihilate(plain_basis, f),
                          fk.annihilate(plain_basis, g)).max_abs() <= 1e-12


def test_vector_length_checked(plain_basis):
    with pytest.raises(DimensionError):
        fk.create(plain_basis, [1.0, 2.0])


def _per_state_ladder(basis, v, step):
    """Reference ladder from the occupation tuples, one state at a time:
    step +1 raises mode j with sqrt(n_j + 1), step -1 lowers it with
    sqrt(n_j); transitions above the truncation are dropped."""
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    index = _index(basis)
    for col, state in enumerate(index):
        for j in np.nonzero(v)[0]:
            n = state[j] + step
            if n < 0 or sum(state) + step > basis.truncation:
                continue
            target = state[:j] + (n,) + state[j + 1:]
            mat[index[target], col] = v[j] * math.sqrt(max(n, state[j]))
    return mat


@pytest.mark.parametrize("dims", [(2, 1, 5), (3, 2, 6)])
def test_ladders_match_per_state_rule(dims):
    basis = fk.FockBasis(*dims)
    rng = np.random.default_rng(21)
    dense = rng.standard_normal(basis.n_modes) + 1j * rng.standard_normal(basis.n_modes)
    sparse_vec = np.zeros(basis.n_modes, dtype=complex)
    sparse_vec[[0, -1]] = dense[[0, -1]]
    vectors = list(np.eye(basis.n_modes)) + [dense, sparse_vec, np.zeros(basis.n_modes)]
    boundary = np.nonzero(basis.totals == basis.truncation)[0]
    for v in vectors:
        up = fk.create(basis, v).mat.toarray()
        down = fk.annihilate(basis, v).mat.toarray()
        assert np.array_equal(up, _per_state_ladder(basis, v, +1))
        assert np.array_equal(down, _per_state_ladder(basis, v, -1))
        # nothing is raised out of, or lowered into, the top sector
        assert not up[:, boundary].any() and not down[boundary, :].any()


# ---------------------------------------------------------------------------
# neutral operator
# ---------------------------------------------------------------------------


def test_neutral_counts_grid_occupation(plain_basis):
    op = fk.neutral(plain_basis, [0, 1])
    assert vacuum_expectation(op) == 0.0
    index = _index(plain_basis)
    two = index[(2, 0, 0)]
    assert op.mat[two, two] == 2.0
    mixed = index[(1, 2, 1)]
    assert op.mat[mixed, mixed] == 3.0   # feature mode not counted


def test_neutral_equals_ladder_sum(plain_basis):
    total = zero(plain_basis)
    for m in range(2):
        e = np.zeros(3)
        e[m] = 1.0
        total = total + fk.create(plain_basis, e) @ fk.annihilate(plain_basis, e)
    assert (total - fk.neutral(plain_basis, [0, 1])).max_abs() <= 1e-13


def test_neutral_rejects_feature_modes(plain_basis):
    with pytest.raises(DimensionError):
        fk.neutral(plain_basis, [2])


# ---------------------------------------------------------------------------
# field operators
# ---------------------------------------------------------------------------


def test_phi_commutators_vanish(bases):
    for name, model in MODELS.items():
        basis = bases[name]
        pa, pb = fk.phi(basis, model, 0), fk.phi(basis, model, 2)
        qa = fk.phi(basis, model, 1).adjoint()
        for pair in [(pa, pb), (pa, qa), (qa, fk.phi(basis, model, 2).adjoint())]:
            assert max_abs_on_domain(commutator(*pair), 2) <= 1e-12


def test_phi_two_point_functions(bases):
    for name, model in MODELS.items():
        basis = bases[name]
        for m in range(3):
            val = vacuum_expectation(fk.phi(basis, model, m).adjoint()
                                     @ fk.phi(basis, model, m))
            assert val == pytest.approx(model.k1[m, m], abs=1e-12)
        for a in range(3):
            for b in range(3):
                val = vacuum_expectation(fk.phi(basis, model, a)
                                         @ fk.phi(basis, model, b))
                assert val == pytest.approx(model.k2[a, b], abs=1e-12)


def test_gaussian_moment_bridge(bases):
    # ordered product of adjoint then plain field operators reproduces the
    # pairing sum of the block kernel
    for name, model in MODELS.items():
        basis = bases[name]
        for pts in ([1], [0, 2], [0, 1, 2]):
            vec = basis.vacuum()
            for m in reversed(pts):
                vec = fk.phi(basis, model, m).mat @ vec
            for m in pts:
                vec = fk.phi(basis, model, m).adjoint().mat @ vec
            expected = hafnian_dp(kn.block_kernel(model, pts))
            assert vec[0] == pytest.approx(expected, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# dressed ladder pair and particle density
# ---------------------------------------------------------------------------


def test_zero_model_ladder_pair_is_grid_ladder():
    grid = kn.Grid.regular(0.0, 1.0, 2)
    z = np.zeros((1, 2))
    model = kn.field_model(grid, z, z)
    basis = fk.FockBasis(2, 1, 4)
    down = fk.ladder(basis, model, 0)
    up = down.adjoint()
    e0 = np.array([1.0, 0.0, 0.0]) / math.sqrt(grid.volumes[0])
    assert (up - fk.create(basis, e0)).max_abs() == 0.0
    assert (down - fk.annihilate(basis, e0)).max_abs() == 0.0


@pytest.mark.parametrize("fn", [fk.ladder, fk.phi], ids=["ladder", "phi"])
def test_cell_operators_read_the_cell_index_rule(bases, fn):
    model, basis = MODELS["alpha-beta-demo"], bases["alpha-beta-demo"]
    for bad in (0.7, True, "1", -1, 3, np.float64(2.0), np.bool_(False)):
        with pytest.raises(DimensionError):
            fn(basis, model, bad)

    assert np.array_equal(fn(basis, model, np.int64(2)).mat.toarray(),
                          fn(basis, model, 2).mat.toarray())


def test_dressed_ccr_is_diagonal(bases):
    for name, model in MODELS.items():
        basis = bases[name]
        vols = model.grid.volumes
        for a in range(3):
            for b in range(3):
                comm = commutator(fk.ladder(basis, model, a),
                                  fk.ladder(basis, model, b).adjoint())
                scalar = (1.0 / vols[a]) if a == b else 0.0
                defect = comm - scalar * fk.identity(basis)
                keep = basis.safe_indices(2)
                assert np.abs(defect.mat[np.ix_(keep, keep)].toarray()).max() <= 1e-10


UNEVEN = kn.Grid(np.array([0.0, 0.1, 0.35, 0.7, 1.0]))


def _cell_sources(bases):
    """Every builtin model on its basis, a profile with a complex mean, and two
    seeded random models (1 and 2 feature pairs) on cells of unequal volume."""
    out = [(bases[name], model) for name, model in MODELS.items()]
    lam = np.array([1.0, 0.5 + 0.5j, -1j])
    out.append((fk.FockBasis(3, 0, 6), kn.intensity_profile(GRID, lam)))
    for seed, (d, truncation) in enumerate([(1, 6), (2, 4)]):
        rng = np.random.default_rng(seed)
        shape = (2, d, UNEVEN.n_cells)
        alpha, beta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        model = kn.from_alpha_beta(alpha, beta, UNEVEN)
        out.append((fk.FockBasis(UNEVEN.n_cells, model.feature_dim, truncation), model))
    return out


def test_ladder_pair_up_is_the_written_out_adjoint(bases):
    # A+(x_m) = (e_m/sqrt(vol_m) + conj l2, conj l1, conj mean), entry for entry
    for basis, source in _cell_sources(bases):
        for m, vol in enumerate(source.grid.volumes):
            g, f = np.zeros((2, basis.n_modes), dtype=complex)
            g[m] = 1.0 / math.sqrt(vol)
            g[basis.n_grid:] += np.conj(source.l2[:, m])
            f[basis.n_grid:] = np.conj(source.l1[:, m])
            written = fk._ladder_op(basis, g, f, np.conj(source.mean[m]))
            up = fk.ladder(basis, source, m).adjoint()
            assert np.array_equal(up.mat.toarray(), written.mat.toarray())


def test_rho_is_the_per_cell_quadrature(bases):
    for basis, source in _cell_sources(bases):
        for cells in ([0], [1, 2], [0, 1, 2]):
            ref = zero(basis)
            for m in cells:
                down = fk.ladder(basis, source, m)
                ref = ref + source.grid.volumes[m] * (down.adjoint() @ down)
            r = fk.rho(basis, source, cells)
            assert (r - ref).max_abs() <= 1e-13 * ref.max_abs()
            # D* D is Hermitian entry for entry, on the whole truncated space
            assert fk.hermiticity_defect(r, 0) == 0.0
        empty = fk.rho(basis, source, [])
        assert empty.mat.shape == (basis.size, basis.size) and empty.max_abs() == 0.0


def test_single_point_density_expectation(bases):
    for name, model in MODELS.items():
        basis = bases[name]
        m = 1
        down = fk.ladder(basis, model, m)
        val = vacuum_expectation(down.adjoint() @ down) * model.grid.volumes[m]
        assert val == pytest.approx(model.k1[m, m].real * model.grid.volumes[m],
                                    abs=1e-12)


def test_rho_treats_cells_as_a_set(bases):
    model = MODELS["real-gauss"]
    basis = bases["real-gauss"]
    assert (fk.rho(basis, model, [0, 0, 1])
            - fk.rho(basis, model, [0, 1])).max_abs() == 0.0
    assert (fk.neutral(basis, [1, 1]) - fk.neutral(basis, [1])).max_abs() == 0.0


def test_rho_zero_model_is_neutral():
    grid = kn.Grid.regular(0.0, 1.0, 2)
    z = np.zeros((1, 2))
    model = kn.field_model(grid, z, z)
    basis = fk.FockBasis(2, 1, 4)
    assert (fk.rho(basis, model, [0]) - fk.neutral(basis, [0])).max_abs() <= 1e-13


def test_rho_commutes_and_is_hermitian(bases):
    rng = np.random.default_rng(9)
    for name, model in MODELS.items():
        basis = bases[name]
        for _ in range(4):
            b1 = list(rng.choice(3, size=2, replace=False))
            b2 = list(rng.choice(3, size=2, replace=False))
            r1, r2 = fk.rho(basis, model, b1), fk.rho(basis, model, b2)
            assert max_abs_on_domain(commutator(r1, r2), 4) <= 1e-10
            assert fk.hermiticity_defect(r1, 2) <= 1e-13


def test_rho_vacuum_expectation_is_quadrature(bases):
    for name, model in MODELS.items():
        basis = bases[name]
        box = [0, 2]
        val = vacuum_expectation(fk.rho(basis, model, box))
        quad = sp.quadrature_haf_moment(model, [box]).value
        assert abs(val - quad) <= 1e-10 * max(1.0, abs(quad))


# ---------------------------------------------------------------------------
# shifted (deterministic-intensity) representation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def poisson_setup():
    grid = kn.Grid.regular(0.0, 1.0, 4)
    lam = np.array([1.0, 0.5 + 0.5j, -1j, 0.25])
    profile = kn.intensity_profile(grid, lam)
    basis = fk.FockBasis(4, 0, 6)
    return grid, profile, basis


def test_poisson_pair_zero_intensity():
    grid = kn.Grid.regular(0.0, 1.0, 2)
    profile = kn.intensity_profile(grid, np.zeros(2))
    basis = fk.FockBasis(2, 0, 3)
    down = fk.ladder(basis, profile, 1)
    up = down.adjoint()
    e1 = np.array([0.0, 1.0]) / math.sqrt(grid.volumes[1])
    assert (up - fk.create(basis, e1)).max_abs() == 0.0
    assert (down - fk.annihilate(basis, e1)).max_abs() == 0.0


def test_poisson_rho_four_term_closed_form(poisson_setup):
    grid, profile, basis = poisson_setup
    box = [0, 1, 3]
    lam, vols = profile.mean, grid.volumes
    weights = np.zeros(4, dtype=complex)
    weights[box] = lam[box] * np.sqrt(vols[box])
    mass = float(np.sum(np.abs(lam[box]) ** 2 * vols[box]))
    closed = (fk.create(basis, weights) + fk.annihilate(basis, np.conj(weights))
              + fk.neutral(basis, box) + mass * fk.identity(basis))
    assert (fk.rho(basis, profile, box) - closed).max_abs() <= 1e-13


def test_poisson_rho_expectation(poisson_setup):
    grid, profile, basis = poisson_setup
    box = [1, 2]
    val = vacuum_expectation(fk.rho(basis, profile, box))
    mass = float(np.sum(np.abs(profile.mean[box]) ** 2 * grid.volumes[box]))
    assert val == pytest.approx(mass, abs=1e-13)


def test_poisson_theta_product_form(poisson_setup):
    grid, profile, basis = poisson_setup
    rate = np.abs(profile.mean) ** 2 * grid.volumes
    for boxes in ([[0, 1]], [[0, 1], [1, 2]], [[0], [1, 2], [2, 3]]):
        n = len(boxes)
        th = fk.theta(basis, profile, boxes)
        expected = np.prod([rate[list(b)].sum() for b in boxes]) / math.factorial(n)
        assert abs(th - expected) <= 1e-10


def test_poisson_moment_unit_intensity():
    grid = kn.Grid.regular(0.0, 1.0, 4)
    profile = kn.intensity_profile(grid, np.ones(4))
    basis = fk.FockBasis(4, 0, 4)
    window = [0, 1, 2, 3]
    assert fk.moment(basis, profile, [window]) == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# Wick polynomials and correlation measures
# ---------------------------------------------------------------------------


def test_wick_order_one_is_rho(bases):
    model = MODELS["real-gauss"]
    basis = bases["real-gauss"]
    assert (fk.wick(basis, model, [[0, 1]])
            - fk.rho(basis, model, [0, 1])).max_abs() == 0.0


def test_wick_disjoint_is_plain_product(bases):
    model = MODELS["alpha-beta-demo"]
    basis = bases["alpha-beta-demo"]
    w = fk.wick(basis, model, [[0], [1, 2]])
    prod = fk.rho(basis, model, [1, 2]) @ fk.rho(basis, model, [0])
    assert (w - prod).max_abs() <= 1e-13


def test_wick_symmetric_under_permutation(bases):
    model = MODELS["proper-fourier"]
    basis = bases["proper-fourier"]
    boxes = [[0, 1], [1, 2], [2]]
    w = fk.wick(basis, model, boxes)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        w2 = fk.wick(basis, model, [boxes[i] for i in perm])
        assert max_abs_on_domain(w - w2, 6) <= 1e-12


def test_wick_truncation_capacity():
    model = MODELS["real-gauss"]
    small = fk.FockBasis(3, model.feature_dim, 3)
    with pytest.raises(CapacityError):
        fk.wick(small, model, [[0], [1]])
    with pytest.raises(PreconditionError):
        fk.wick(fk.FockBasis(3, model.feature_dim, 4), model, [])


def test_wick_reordering_identity(bases):
    # plain product minus normal-ordered product equals the density of the
    # intersection, at the vacuum
    for name, model in MODELS.items():
        basis = bases[name]
        b1, b2 = [0, 1], [1, 2]
        plain = fk.moment(basis, model, [b1, b2])
        ordered = vacuum_expectation(fk.wick(basis, model, [b1, b2]))
        inter = vacuum_expectation(fk.rho(basis, model, [1]))
        assert abs(plain - ordered - inter) <= 1e-10


def test_theta_matches_quadrature(bases):
    for name, model in MODELS.items():
        basis = bases[name]
        for boxes in ([[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]):
            n = len(boxes)
            th = fk.theta(basis, model, boxes)
            quad = sp.quadrature_haf_moment(model, boxes).value
            assert abs(math.factorial(n) * th - quad) <= 1e-9 * max(1e-6, abs(quad))
            assert abs(th.imag) <= 1e-10


def test_theta_matches_quadrature_with_overlaps(bases):
    # the normal-ordering identity is box-family agnostic: overlapping and
    # repeated boxes reduce to the repeats-allowed quadrature
    for name, model in MODELS.items():
        basis = bases[name]
        for boxes in ([[0, 1], [1, 2]], [[0, 1], [0, 1]],
                      [[0, 1], [1, 2], [0]], [[0, 1, 2]] * 3):
            n = len(boxes)
            th = fk.theta(basis, model, boxes)
            quad = sp.quadrature_haf_moment(model, boxes,
                                            allow_repeats=True).value
            assert abs(math.factorial(n) * th - quad) <= 1e-9 * max(1e-6, abs(quad))


def test_theta_single_box_intensity(bases):
    model = MODELS["alpha-beta-demo"]
    basis = bases["alpha-beta-demo"]
    box = [0, 1]
    th = fk.theta(basis, model, [box])
    expected = float(np.dot(model.grid.volumes[box],
                            model.k1.diagonal().real[box]))
    assert th.real == pytest.approx(expected, rel=1e-12)


def test_truncation_sufficiency(bases):
    model = MODELS["real-gauss"]
    boxes = [[0], [1, 2]]
    tight = fk.FockBasis(3, model.feature_dim, 4)
    loose = fk.FockBasis(3, model.feature_dim, 6)
    assert abs(fk.theta(tight, model, boxes)
               - fk.theta(loose, model, boxes)) <= 1e-12
    assert abs(fk.moment(tight, model, boxes)
               - fk.moment(loose, model, boxes)) <= 1e-12


def test_moment_variance_nonnegative(bases):
    model = MODELS["alpha-beta-demo"]
    basis = bases["alpha-beta-demo"]
    box = [0, 1]
    second = fk.moment(basis, model, [box, box]).real
    first = fk.moment(basis, model, [box]).real
    assert second >= first ** 2 - 1e-12


def test_moment_matches_monte_carlo(bases):
    for name, model in MODELS.items():
        basis = bases[name]
        boxes = [[0], [2]]
        exact = fk.moment(basis, model, boxes).real
        pats = sp.sample_cox(model, 37, size=60_000)
        rep = sp.empirical_product_moment(pats, boxes)
        assert abs(rep.value - exact) < 4 * rep.std_error


def test_second_moment_of_one_box_matches_monte_carlo(bases):
    # non-normal-ordered square: the self-overlap corrections must match
    # the simulated second moment of the box count
    for name, model in MODELS.items():
        basis = bases[name]
        box = [0, 1]
        exact = fk.moment(basis, model, [box, box]).real
        counts = sp.box_counts(sp.sample_cox(model, 41, size=60_000), box)
        sq = counts.astype(float) ** 2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - exact) < 4 * se


def test_growth_bound_via_theta(bases):
    box = [0, 1, 2]
    for name, model in MODELS.items():
        basis = bases[name]
        for n in (1, 2, 3):
            value = math.factorial(n) * fk.theta(basis, model, [box] * n).real
            assert value <= vf.growth_bound(model, box, n) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# quasi-free structure of the vacuum
# ---------------------------------------------------------------------------


def _pairing_hafnian(basis, source, hs):
    """The hafnian of the two-point matrix, T2(h_a, h_b) on its upper triangle."""
    t2 = np.zeros((len(hs), len(hs)), dtype=complex)
    for a, b in itertools.combinations(range(len(hs)), 2):
        t2[a, b] = fk.quasifree_T(basis, source, [hs[a], hs[b]])
    return hafnian_dp(t2)


def test_b_field_commutator(bases):
    rng = np.random.default_rng(13)
    model = MODELS["alpha-beta-demo"]
    basis = bases["alpha-beta-demo"]
    vols = model.grid.volumes
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    bf, bh = fk.b_field(basis, model, f), fk.b_field(basis, model, h)
    inner = complex(np.sum(h * np.conj(f) * vols))
    defect = commutator(bf, bh) - (2j * inner.imag) * fk.identity(basis)
    keep = basis.safe_indices(2)
    assert np.abs(defect.mat[np.ix_(keep, keep)].toarray()).max() <= 1e-10


def test_b_field_is_sum_of_ladder_pairs(bases):
    rng = np.random.default_rng(16)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h[1] = 0.0
    profile = kn.intensity_profile(GRID, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    cases = [(bases[name], model) for name, model in MODELS.items()]
    cases.append((fk.FockBasis(GRID.n_cells, 0, 4), profile))
    for basis, source in cases:
        expect = zero(basis)
        for m, vol in enumerate(GRID.volumes):
            down = fk.ladder(basis, source, m)
            expect = expect + (vol * h[m]) * down.adjoint() + (vol * np.conj(h[m])) * down
        assert (fk.b_field(basis, source, h) - expect).max_abs() <= 1e-13
        with pytest.raises(DimensionError):
            fk.b_field(basis, source, h[:2])


def test_quasifree_odd_orders_vanish(bases):
    rng = np.random.default_rng(14)
    for name, model in MODELS.items():
        basis = bases[name]
        hs = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
              for _ in range(3)]
        assert abs(fk.quasifree_T(basis, model, hs[:1])) <= 1e-10
        assert abs(fk.quasifree_T(basis, model, hs)) <= 1e-10


def test_quasifree_fourth_order_pairing(bases):
    rng = np.random.default_rng(15)
    for name, model in MODELS.items():
        basis = bases[name]
        hs = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
              for _ in range(4)]
        got = fk.quasifree_T(basis, model, hs)
        assert abs(got - _pairing_hafnian(basis, model, hs)) <= 1e-9


def test_quasifree_t2_closed_form(bases):
    rng = np.random.default_rng(16)
    for name, model in MODELS.items():
        basis = bases[name]
        vols = model.grid.volumes
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = fk.quasifree_T(basis, model, [f, h])
        vv = np.outer(vols, vols)
        closed = (np.sum(np.conj(f) * h * vols)
                  + 2 * np.sum((np.outer(f, h) * np.conj(model.k2)
                                + np.outer(np.conj(f), h) * model.k1).real * vv))
        assert abs(got - closed) <= 1e-11


def test_quasifree_poisson_centered_orders(poisson_setup):
    _, profile, basis = poisson_setup
    rng = np.random.default_rng(17)
    hs = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
          for _ in range(4)]
    # the shift contributes only to the first order; centered odd orders die
    assert abs(fk.quasifree_T(basis, profile, hs[:3])) <= 1e-10
    assert abs(fk.quasifree_T(basis, profile, hs) - _pairing_hafnian(basis, profile, hs)) <= 1e-9


# ---------------------------------------------------------------------------
# vacuum-vector evaluation against the operator route
# ---------------------------------------------------------------------------

# Disjoint, overlapping and repeated box families of orders 1-4 on 3 cells.
BOX_FAMILIES = ([[0, 1]], [[0], [1, 2]], [[0, 1], [1, 2]], [[0, 1], [0, 1]],
                [[0], [1], [2]], [[0, 1], [1, 2], [0]], [[0, 1, 2]] * 3,
                [[0, 1], [1, 2], [2], [0]], [[0], [1], [2], [0, 1, 2]], [[0, 1]] * 4)


@pytest.fixture(scope="module")
def sources():
    # every builtin model and a profile, each on a basis deep enough for order 4
    out = [(fk.FockBasis(3, m.feature_dim, 8), m) for m in MODELS.values()]
    lam = np.array([1.0, 0.5 + 0.5j, -1j])
    out.append((fk.FockBasis(3, 0, 8), kn.intensity_profile(GRID, lam)))
    return out


def _centered_product(basis, source, hs):
    ops = [fk.b_field(basis, source, h) for h in hs]
    if len(ops) == 1:
        return vacuum_expectation(ops[0])
    prod = fk.identity(basis)
    for op in ops:
        prod = prod @ (op - vacuum_expectation(op) * fk.identity(basis))
    return vacuum_expectation(prod)


def test_theta_equals_wick_vacuum_expectation(sources):
    for basis, source in sources:
        for boxes in BOX_FAMILIES:
            th = fk.theta(basis, source, boxes)
            ref = vacuum_expectation(fk.wick(basis, source, boxes))
            assert abs(th - ref / math.factorial(len(boxes))) <= 1e-13


def test_moment_equals_rho_product_on_vacuum(sources):
    for basis, source in sources:
        for boxes in ([[0, 2]], [[0, 1]] * 3, [[0], [1, 2]],
                      [[0, 1], [0, 1], [1, 2]], [[0], [1], [2], [0, 1]]):
            prod = fk.identity(basis)
            for box in boxes:
                prod = prod @ fk.rho(basis, source, box)
            got = fk.moment(basis, source, boxes)
            assert abs(got - vacuum_expectation(prod)) <= 1e-13


def test_quasifree_T_equals_centered_b_field_product(sources):
    rng = np.random.default_rng(18)
    hs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4)]
    hs[2][1] = 0.0
    for basis, source in sources:
        for k in (1, 2, 3, 4):
            ref = _centered_product(basis, source, hs[:k])
            assert abs(fk.quasifree_T(basis, source, hs[:k]) - ref) <= 1e-13


def test_vacuum_routes_build_no_operators(sources, monkeypatch):
    def no_operators(*args):
        raise AssertionError("operator built on the vacuum route")

    monkeypatch.setattr(fk, "create", no_operators)
    monkeypatch.setattr(fk, "annihilate", no_operators)
    hs = [np.ones(3), np.arange(3.0) + 1j]
    for basis, source in sources:
        assert np.isfinite(fk.theta(basis, source, [[0, 1], [1, 2], [2]]))
        assert np.isfinite(fk.moment(basis, source, [[0], [0], [1, 2]]))
        assert np.isfinite(fk.quasifree_T(basis, source, hs))
        with pytest.raises(AssertionError):
            fk.rho(basis, source, [0])


def test_vacuum_routes_capacity_errors():
    model = MODELS["real-gauss"]
    small = fk.FockBasis(3, model.feature_dim, 3)
    with pytest.raises(CapacityError, match="too small for order 2"):
        fk.theta(small, model, [[0], [1]])
    with pytest.raises(CapacityError, match="too small for degree 2"):
        fk.moment(small, model, [[0], [0]])
    with pytest.raises(CapacityError, match="too small for 4 factors"):
        fk.quasifree_T(small, model, [np.ones(3)] * 4)
    with pytest.raises(PreconditionError):
        fk.theta(fk.FockBasis(3, model.feature_dim, 10), model, [[0]] * 5)
    with pytest.raises(PreconditionError):
        fk.quasifree_T(small, model, [])


# ---------------------------------------------------------------------------
# dressed-pair admissibility
# ---------------------------------------------------------------------------


def test_bogoliubov_free_field():
    rep = fk.bogoliubov_check(np.zeros((3, 3)), np.eye(3))
    assert rep.passed
    assert rep.residual_symmetry <= 1e-14
    assert rep.residual_commutation <= 1e-14
    assert rep.t2_max_deviation <= 1e-12


def test_bogoliubov_free_field_t2_value():
    # for the bare ladder pair and real test vectors, the two-point
    # function is the plain bilinear sum
    basis = fk.FockBasis(3, 0, 2)
    rng = np.random.default_rng(18)
    f, h = rng.standard_normal(3), rng.standard_normal(3)
    b = lambda v: fk.create(basis, v) + fk.annihilate(basis, v)
    got = vacuum_expectation(b(f) @ b(h))
    assert got == pytest.approx(np.sum(f * h), abs=1e-12)


def test_bogoliubov_functional_calculus_pair():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    k1 = (a + a.T) / 2                      # complex symmetric
    k2 = sqrtm(np.eye(3) + k1.conj().T @ k1)
    rep = fk.bogoliubov_check(k1, k2)
    assert rep.passed
    assert rep.residual_symmetry <= 1e-10
    assert rep.residual_commutation <= 1e-10
    assert rep.t2_max_deviation <= 1e-10


def test_bogoliubov_builds_no_operator(monkeypatch):
    def no_operators(*args):
        raise AssertionError("operator built on the vacuum route")

    monkeypatch.setattr(fk, "create", no_operators)
    monkeypatch.setattr(fk, "annihilate", no_operators)
    rep = fk.bogoliubov_check(np.zeros((3, 3)), np.eye(3))
    assert rep.passed and rep.t2_max_deviation <= 1e-12


@pytest.mark.parametrize("k1, k2", [(np.eye(2), np.eye(3)), (np.eye(2), np.ones((2, 3))),
                                    (np.ones(2), np.ones(2))])
def test_bogoliubov_refuses_maps_of_different_shapes(k1, k2):
    with pytest.raises(DimensionError, match="maps must be matrices of identical shape"):
        fk.bogoliubov_check(k1, k2)


def test_bogoliubov_zero_pair_fails():
    rep = fk.bogoliubov_check(np.zeros((2, 2)), np.zeros((2, 2)))
    assert not rep.passed
    assert rep.residual_commutation == pytest.approx(1.0)
    assert rep.t2_max_deviation is None
