"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or
``pytest -v``) and asserts the criterion, including its runtime budget
where one is stated.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import time

import numpy as np
import pytest

from haflab import fock as fk
from haflab import kernels as kn
from haflab import sampling as sp
from haflab import verify as vf
from haflab.matfun import hafnian_dp

SMALL_PARAMS = {
    "proper-fourier": {"n_freq": 1},
    "real-gauss": {"n_centers": 2},
    "alpha-beta-demo": {"d_half": 1},
}


def gate(number, ok, detail):
    print(f"ACCEPTANCE criterion-{number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def small_models(cells=4):
    grid = kn.Grid.regular(0.0, 1.0, cells)
    return {name: kn.builtin_model(name, grid, p) for name, p in SMALL_PARAMS.items()}


def default_models(cells=6):
    grid = kn.Grid.regular(0.0, 1.0, cells)
    return {name: kn.builtin_model(name, grid) for name in kn.BUILTIN_NAMES}


def test_criterion_01_hafnian_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(200):
        dim = int(rng.choice([4, 6, 8, 10, 12]))
        c = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        worst = max(worst, vf.hafnian_gap((c + c.T) / 2))
    elapsed = time.perf_counter() - start
    gate(1, worst <= 1e-10 and elapsed <= 60.0,
         f"200 matrices, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_matrix_function_specializations():
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 8))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, *vf.alpha_det_gaps(b))
    gate(2, worst <= 1e-10, f"50 matrices, worst relative gap {worst:.2e}")


def test_criterion_03_permanental_embeddings():
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in range(1, 6):
        kern = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, vf.permanental_embedding_gap(kern))
        sym = rng.standard_normal((n, n))
        worst = max(worst, vf.two_permanental_gap((sym + sym.T) / 2))
    gate(3, worst <= 1e-10, f"n <= 5 embeddings, worst relative gap {worst:.2e}")


def test_criterion_04_gaussian_hafnian_moment_mc():
    start = time.perf_counter()
    worst_z = 0.0
    seed = 104
    for name, model in default_models().items():
        for n in (1, 2, 3):
            pts = [0, 3, 5][:n]
            seed += 1
            rep = sp.field_moment_mc(model, pts, 1_000_000, seed)
            exact = hafnian_dp(kn.block_kernel(model, pts)).real
            worst_z = max(worst_z, abs(rep.value - exact) / rep.std_error)
    elapsed = time.perf_counter() - start
    gate(4, worst_z <= 4.0 and elapsed <= 300.0,
         f"3 models x n<=3, 1e6 samples, worst z {worst_z:.2f}, {elapsed:.0f}s")


def test_criterion_05_fock_hafnian_exact_identity():
    start = time.perf_counter()
    boxes_by_order = {1: [[0, 1, 2, 3]], 2: [[0, 1], [2, 3]],
                      3: [[0], [1, 2], [3]]}
    worst = 0.0
    for name, model in small_models().items():
        for n in (1, 2, 3):
            basis = fk.FockBasis(4, model.feature_dim, 2 * n)
            worst = max(worst, vf.theta_gap(basis, model, boxes_by_order[n]))
    elapsed = time.perf_counter() - start
    gate(5, worst <= 1e-9 and elapsed <= 120.0,
         f"M=4, d<=2, N=2n, worst relative gap {worst:.2e}, {elapsed:.0f}s")


def test_criterion_06_poisson_closed_form():
    grid = kn.Grid.regular(0.0, 1.0, 4)
    lam = np.array([1.0, 0.5 + 0.5j, -0.75j, 0.3 - 0.2j])
    profile = kn.intensity_profile(grid, lam)
    basis = fk.FockBasis(4, 0, 6)
    worst = 0.0
    for boxes in ([[0, 1, 2, 3]], [[0, 1], [1, 2]], [[0], [1, 2], [2, 3]]):
        worst = max(worst, vf.poisson_theta_gap(basis, profile, boxes))
    gate(6, worst <= 1e-10, f"n <= 3 products, worst gap {worst:.2e}")


def test_criterion_07_commutation_and_hermiticity():
    rng = np.random.default_rng(107)
    worst_comm = worst_herm = 0.0
    for name, model in small_models().items():
        basis = fk.FockBasis(4, model.feature_dim, 6)
        for _ in range(10):
            size1, size2 = rng.integers(1, 4, size=2)
            b1 = list(rng.choice(4, size=size1, replace=False))
            b2 = list(rng.choice(4, size=size2, replace=False))
            r1, r2 = fk.rho(basis, model, b1), fk.rho(basis, model, b2)
            comm, herm = vf.rho_commutation_defect(r1, r2), fk.hermiticity_defect(r1, 2)
            worst_comm, worst_herm = max(worst_comm, comm), max(worst_herm, herm)
    gate(7, worst_comm <= 1e-10 and worst_herm <= 1e-13,
         f"30 box pairs, commutator {worst_comm:.2e}, hermiticity {worst_herm:.2e}")


def test_criterion_08_quasifree_state_checks():
    rng = np.random.default_rng(108)
    worst_odd = worst_four = 0.0
    for name, model in small_models().items():
        basis = fk.FockBasis(4, model.feature_dim, 6)
        for _ in range(5):
            hs = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                  for _ in range(4)]
            t1, t3 = (abs(fk.quasifree_T(basis, model, hs[:k])) for k in (1, 3))
            pairing = vf.quasifree_pairing_gap(basis, model, hs)
            worst_odd, worst_four = max(worst_odd, t1, t3), max(worst_four, pairing)
    gate(8, worst_odd <= 1e-10 and worst_four <= 1e-9,
         f"15 quadruples, odd orders {worst_odd:.2e}, pairing gap {worst_four:.2e}")


def test_criterion_09_spectral_moment_identity():
    start = time.perf_counter()
    worst_z = 0.0
    seed = 109
    for name, model in small_models().items():
        basis = fk.FockBasis(4, model.feature_dim, 6)
        boxes = [[0, 1], [2, 3]]
        exact = fk.moment(basis, model, boxes).real
        seed += 1
        pats = sp.sample_cox(model, seed, size=100_000)
        rep = sp.empirical_product_moment(pats, boxes)
        worst_z = max(worst_z, abs(rep.value - exact) / rep.std_error)
    elapsed = time.perf_counter() - start
    gate(9, worst_z <= 4.0 and elapsed <= 300.0,
         f"3 models, 1e5 replicates, worst z {worst_z:.2f}, {elapsed:.0f}s")


def test_criterion_10_growth_bound():
    worst = 0.0
    for name, model in small_models().items():
        basis = fk.FockBasis(4, model.feature_dim, 6)
        box = [0, 1, 2, 3]
        for n in (1, 2, 3):
            worst = max(worst, vf.growth_ratio(basis, model, box, n))
    gate(10, worst <= 1.0 + 1e-12,
         f"n <= 3 repeated boxes, worst value/bound ratio {worst:.3f}")
