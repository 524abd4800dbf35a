"""Truncated symmetric Fock space in the occupation-number basis.

One-particle space: grid modes (one per cell) followed by feature modes.
Ladder transitions that would push the total occupation above the
truncation are dropped, so operator identities are asserted on the "safe
sub-basis" of states far enough below the cutoff.  Discretized grid
ladder operators carry a 1/sqrt(vol) normalization, which makes the cell
quadrature Sum_m vol_m A+(x_m) A-(x_m) reproduce occupation counts
exactly.

Operators are stored as sparse complex matrices over the enumerated
states; index 0 is the vacuum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CapacityError, DimensionError, PreconditionError
from .kernels import GaussianFieldModel, IntensityProfile, cell_set


def _occupations(n_modes: int, max_total: int):
    # All occupation tuples with total <= max_total, ordered by total then
    # lexicographically; the empty state comes first.
    def fill(prefix, remaining, budget):
        if remaining == 0:
            if budget == 0:
                yield prefix
            return
        for k in range(budget + 1):
            yield from fill(prefix + (k,), remaining - 1, budget - k)

    for total in range(max_total + 1):
        yield from fill((), n_modes, total)


class FockBasis:
    """Enumerated occupation states with total occupation <= truncation."""

    def __init__(self, n_grid: int, n_feature: int, truncation: int):
        if n_grid < 0 or n_feature < 0 or n_grid + n_feature < 1:
            raise DimensionError("need at least one mode")
        if truncation < 0:
            raise DimensionError("truncation must be nonnegative")
        self.n_grid = n_grid
        self.n_feature = n_feature
        self.truncation = truncation
        self.n_modes = n_grid + n_feature
        self.states = list(_occupations(self.n_modes, truncation))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.occupations = occ = np.array(self.states, dtype=np.int64)
        occ.flags.writeable = False
        self.totals = occ.sum(axis=1)
        # Raising tables, built once per basis: the states below the cutoff,
        # and per mode j (rows) the index of each one's +1_j neighbour and
        # the matrix element sqrt(n_j + 1).
        self.raise_src = np.nonzero(self.totals < truncation)[0]
        below = [self.states[i] for i in self.raise_src]
        self.raise_dst = np.array(
            [[self.index[s[:j] + (s[j] + 1,) + s[j + 1:]] for s in below]
             for j in range(self.n_modes)], dtype=np.int64)
        self.raise_amp = np.sqrt(occ[self.raise_src].T + 1.0)

    @property
    def size(self) -> int:
        return len(self.states)

    def safe_indices(self, margin: int) -> np.ndarray:
        """States whose total occupation is at most truncation - margin."""
        return np.nonzero(self.totals <= self.truncation - margin)[0]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.size, dtype=complex)
        v[0] = 1.0
        return v


@dataclass(eq=False)
class FockOperator:
    """Sparse operator on a FockBasis; supports +, -, scalar *, @."""

    basis: FockBasis
    mat: sparse.csr_matrix

    def _like(self, other: "FockOperator") -> None:
        if other.basis is not self.basis:
            raise DimensionError("operators live on different bases")

    def __add__(self, other):
        self._like(other)
        return FockOperator(self.basis, (self.mat + other.mat).tocsr())

    def __sub__(self, other):
        self._like(other)
        return FockOperator(self.basis, (self.mat - other.mat).tocsr())

    def __neg__(self):
        return FockOperator(self.basis, (-self.mat).tocsr())

    def __mul__(self, scalar):
        return FockOperator(self.basis, (self.mat * complex(scalar)).tocsr())

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._like(other)
        return FockOperator(self.basis, (self.mat @ other.mat).tocsr())

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.basis, self.mat.conj().T.tocsr())

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.mat @ vec

    def max_abs(self) -> float:
        m = self.mat.copy()
        m.eliminate_zeros()
        return float(np.abs(m.data).max()) if m.nnz else 0.0

    def on_domain(self, margin: int) -> sparse.csr_matrix:
        """Columns restricted to safe source states (total <= N - margin)."""
        return self.mat[:, self.basis.safe_indices(margin)]


def identity(basis: FockBasis) -> FockOperator:
    return FockOperator(basis, sparse.identity(basis.size, dtype=complex, format="csr"))


def zero(basis: FockBasis) -> FockOperator:
    return FockOperator(basis, sparse.csr_matrix((basis.size, basis.size), dtype=complex))


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a


def vacuum_expectation(op: FockOperator) -> complex:
    return complex(op.mat[0, 0])


def max_abs_on_domain(op: FockOperator, margin: int) -> float:
    sub = sparse.csr_matrix(op.on_domain(margin))
    sub.eliminate_zeros()
    return float(np.abs(sub.data).max()) if sub.nnz else 0.0


def hermiticity_defect(op: FockOperator, margin: int) -> float:
    """Max entry of op - op* over the square safe sub-basis block."""
    idx = op.basis.safe_indices(margin)
    sub = op.mat[np.ix_(idx, idx)].toarray()
    return float(np.abs(sub - sub.conj().T).max())


# ---------------------------------------------------------------------------
# Ladder operators
# ---------------------------------------------------------------------------


def _mode_vector(basis: FockBasis, g) -> np.ndarray:
    v = np.asarray(g, dtype=complex)
    if v.shape != (basis.n_modes,):
        raise DimensionError(f"vector must have length {basis.n_modes}")
    return v


def _raising(basis: FockBasis, g) -> sparse.coo_matrix:
    """Sum_j g_j R_j, where R_j raises mode j with matrix element
    sqrt(n_j + 1) and drops transitions above the truncation."""
    v = _mode_vector(basis, g)
    support = np.nonzero(v)[0]
    values = (v[support, None] * basis.raise_amp[support]).ravel()
    entries = (basis.raise_dst[support].ravel(), np.tile(basis.raise_src, len(support)))
    return sparse.coo_matrix((values, entries), shape=(basis.size, basis.size))


def create(basis: FockBasis, g) -> FockOperator:
    """Weighted creation: sum_j g_j a+_j with matrix element sqrt(n_j + 1);
    transitions above the truncation are dropped."""
    return FockOperator(basis, _raising(basis, g).tocsr())


def annihilate(basis: FockBasis, f) -> FockOperator:
    """Weighted annihilation: sum_j f_j a_j with matrix element sqrt(n_j),
    the transpose of create(f)."""
    return FockOperator(basis, _raising(basis, f).T.tocsr())


def _ladder_op(basis: FockBasis, g, f, c) -> FockOperator:
    op = create(basis, g) + annihilate(basis, f)
    return op + c * identity(basis) if c else op


def _ladder_apply(basis: FockBasis, g, f, c, vec: np.ndarray) -> np.ndarray:
    """(create(g) + annihilate(f) + c) vec, straight from the raising tables."""
    src, dst, amp = basis.raise_src, basis.raise_dst, basis.raise_amp
    out = c * vec
    for j in np.nonzero(g)[0]:
        out[dst[j]] += g[j] * amp[j] * vec[src]
    support = np.nonzero(f)[0]
    out[src] += f[support] @ (amp[support] * vec[dst[support]])
    return out


def neutral(basis: FockBasis, cells) -> FockOperator:
    """Diagonal operator counting total occupation in the given grid modes."""
    idx = cell_set(cells, basis.n_grid)
    diag = basis.occupations[:, idx].sum(axis=1).astype(complex)
    return FockOperator(basis, sparse.diags(diag, format="csr", dtype=complex))


def _grid_embed(basis: FockBasis, m: int, coeff: complex) -> np.ndarray:
    v = np.zeros(basis.n_modes, dtype=complex)
    v[m] = coeff
    return v


def _feature_embed(basis: FockBasis, vec) -> np.ndarray:
    v = np.zeros(basis.n_modes, dtype=complex)
    v[basis.n_grid:] = vec
    return v


def _check_model(basis: FockBasis, model: GaussianFieldModel) -> None:
    if basis.n_grid != model.grid.n_cells or basis.n_feature != model.feature_dim:
        raise DimensionError(
            f"basis has ({basis.n_grid} grid, {basis.n_feature} feature) modes; "
            f"model needs ({model.grid.n_cells}, {model.feature_dim})")


def _check_profile(basis: FockBasis, profile: IntensityProfile) -> None:
    if basis.n_grid != profile.grid.n_cells or basis.n_feature != 0:
        raise DimensionError("intensity profiles act on a grid-only basis")


# ---------------------------------------------------------------------------
# Field operators on the feature modes
# ---------------------------------------------------------------------------


def phi(basis: FockBasis, model: GaussianFieldModel, m: int) -> FockOperator:
    """Field operator at cell m: create(l1 column) + annihilate(l2 column)."""
    _check_model(basis, model)
    return (create(basis, _feature_embed(basis, model.l1[:, m]))
            + annihilate(basis, _feature_embed(basis, model.l2[:, m])))


def psi(basis: FockBasis, model: GaussianFieldModel, m: int) -> FockOperator:
    """Adjoint field operator: create(conj l2) + annihilate(conj l1)."""
    _check_model(basis, model)
    return (create(basis, _feature_embed(basis, model.l2[:, m].conj()))
            + annihilate(basis, _feature_embed(basis, model.l1[:, m].conj())))


# ---------------------------------------------------------------------------
# Dressed ladder pair whose quadratic quadrature is the particle density
# ---------------------------------------------------------------------------


def _ladder_coeffs(basis: FockBasis, source, m: int):
    """(g, f, c) of A+ and of A- at cell m, each create(g) + annihilate(f) + c."""
    if isinstance(source, GaussianFieldModel):
        _check_model(basis, source)
        l1, l2 = _feature_embed(basis, source.l1[:, m]), _feature_embed(basis, source.l2[:, m])
        lam = 0.0
    elif isinstance(source, IntensityProfile):
        _check_profile(basis, source)
        l1 = l2 = np.zeros(basis.n_modes, dtype=complex)
        lam = source.lam[m]
    else:
        raise DimensionError(f"unsupported source {type(source).__name__}")
    grid = _grid_embed(basis, m, 1.0 / math.sqrt(source.grid.volumes[m]))
    return (grid + l2.conj(), l1.conj(), np.conj(lam)), (l1, grid + l2, lam)


def ladder_pair(basis: FockBasis, source, m: int) -> tuple[FockOperator, FockOperator]:
    """(A+, A-) at cell m for a field model or an intensity profile.

    Field model: A+ = a+(e_m)/sqrt(vol) + create(conj l2) + annihilate(conj l1)
    on feature modes; A- is its adjoint.  Intensity profile (grid-only
    basis): the ladder pair shifted by the scalar intensity amplitude.
    """
    up, down = _ladder_coeffs(basis, source, m)
    return _ladder_op(basis, *up), _ladder_op(basis, *down)


def _rho_apply(basis: FockBasis, source, cells, vec: np.ndarray) -> np.ndarray:
    """rho(cells) vec as sum_m vol_m A+(x_m) (A-(x_m) vec), with no operator."""
    out = np.zeros_like(vec)
    for m in sorted(cells):
        up, down = _ladder_coeffs(basis, source, m)
        out += source.grid.volumes[m] * _ladder_apply(
            basis, *up, _ladder_apply(basis, *down, vec))
    return out


def rho(basis: FockBasis, source, cells) -> FockOperator:
    """Particle density of a cell set: sum_m vol_m A+(x_m) A-(x_m)."""
    grid = source.grid
    out = zero(basis)
    for m in cell_set(cells, grid.n_cells).tolist():
        up, down = ladder_pair(basis, source, m)
        out = out + float(grid.volumes[m]) * (up @ down)
    return out


# ---------------------------------------------------------------------------
# Wick polynomials, correlation measures, and plain moments
# ---------------------------------------------------------------------------


def _as_cellsets(source, boxes) -> list[frozenset]:
    return [frozenset(cell_set(box, source.grid.n_cells).tolist()) for box in boxes]


def _wick(basis: FockBasis, source, boxes, max_order: int, base, rho_step):
    """Normal-ordered product of densities over the boxes, applied to ``base``
    (the identity operator or the vacuum vector) through ``rho_step``.

    Recursion: the order n+1 polynomial is rho(D_{n+1}) times the order n
    one, minus the sum over slots i of the order n polynomial with D_i
    replaced by its intersection with D_{n+1}.  Each box tuple is built once.
    """
    cellsets = _as_cellsets(source, boxes)
    n = len(cellsets)
    if n < 1 or n > max_order:
        raise PreconditionError(f"between 1 and {max_order} boxes")
    if basis.truncation < 2 * n:
        raise CapacityError(
            f"truncation {basis.truncation} too small for order {n} (need >= {2 * n})")
    memo = {(): base}

    def build(sets: tuple[frozenset, ...]):
        if sets not in memo:
            head, last = sets[:-1], sets[-1]
            out = rho_step(last, build(head))
            for i in range(len(head)):
                out = out - build(head[:i] + (head[i] & last,) + head[i + 1:])
            memo[sets] = out
        return memo[sets]

    return build(tuple(cellsets))


def wick(basis: FockBasis, source, boxes, *, max_order: int = 4) -> FockOperator:
    """Normal-ordered product of particle densities over the given boxes."""
    rho_cached = functools.cache(lambda cells: rho(basis, source, cells))
    return _wick(basis, source, boxes, max_order, identity(basis),
                 lambda cells, op: rho_cached(cells) @ op)


def theta(basis: FockBasis, source, boxes, *, max_order: int = 4) -> complex:
    """Order-n correlation measure of the box product: the vacuum
    expectation of the normal-ordered density product divided by n!,
    evaluated on the vacuum vector without building operators."""
    boxes = list(boxes)
    vec = _wick(basis, source, boxes, max_order, basis.vacuum(),
                lambda cells, v: _rho_apply(basis, source, cells, v))
    return complex(vec[0]) / math.factorial(len(boxes))


def moment(basis: FockBasis, source, boxes, order=None) -> complex:
    """Vacuum expectation of the plain (non-normal-ordered) product of
    densities; ``order`` gives a multiplicity per box (default 1 each)."""
    cellsets = _as_cellsets(source, boxes)
    mult = [1] * len(cellsets) if order is None else [int(k) for k in order]
    if len(mult) != len(cellsets) or any(k < 1 for k in mult):
        raise PreconditionError("order must list one positive multiplicity per box")
    degree = sum(mult)
    if basis.truncation < 2 * degree:
        raise CapacityError(
            f"truncation {basis.truncation} too small for degree {degree}")
    vec = basis.vacuum()
    for cells, k in zip(reversed(cellsets), reversed(mult)):
        for _ in range(k):
            vec = _rho_apply(basis, source, cells, vec)
    return complex(vec[0])


# ---------------------------------------------------------------------------
# Hermitian combinations and the pair-partition structure of the vacuum
# ---------------------------------------------------------------------------


def _b_coeffs(basis: FockBasis, source, h):
    """(u, w, shift) with b_field(h) = create(u) + annihilate(w) + shift: the
    ladder pair is linear in the cell, so the sum over cells is one of each."""
    h = np.asarray(h, dtype=complex)
    grid = source.grid
    if h.shape != (grid.n_cells,):
        raise DimensionError("test function must have one value per cell")
    vol = grid.volumes
    grid_u, grid_w = np.sqrt(vol) * h, np.sqrt(vol) * h.conj()
    if isinstance(source, GaussianFieldModel):
        _check_model(basis, source)
        vh, vhc = vol * h, vol * h.conj()
        u = np.concatenate([grid_u, source.l2.conj() @ vh + source.l1 @ vhc])
        w = np.concatenate([grid_w, source.l1.conj() @ vh + source.l2 @ vhc])
        return u, w, 0.0
    if isinstance(source, IntensityProfile):
        _check_profile(basis, source)
        shift = np.sum(vol * (h * np.conj(source.lam) + h.conj() * source.lam))
        return grid_u, grid_w, shift
    raise DimensionError(f"unsupported source {type(source).__name__}")


def b_field(basis: FockBasis, source, h) -> FockOperator:
    """Hermitian combination sum_m vol_m (h_m A+(x_m) + conj(h_m) A-(x_m))."""
    return _ladder_op(basis, *_b_coeffs(basis, source, h))


def quasifree_T(basis: FockBasis, source, hs) -> complex:
    """Centered k-point function of the Hermitian combinations.

    k = 1 returns the plain vacuum expectation (the shift); k >= 2 the
    expectation of the product of centered operators, in list order, on
    the vacuum vector.  Centring drops the shift: <0|create + annihilate|0> = 0.
    """
    funcs = list(hs)
    k = len(funcs)
    if k < 1:
        raise PreconditionError("need at least one test function")
    if basis.truncation < k:
        raise CapacityError(f"truncation {basis.truncation} too small for {k} factors")
    coeffs = [_b_coeffs(basis, source, h) for h in funcs]
    if k == 1:
        return complex(coeffs[0][2])
    vec = basis.vacuum()
    for u, w, _ in reversed(coeffs):
        vec = _ladder_apply(basis, u, w, 0.0, vec)
    return complex(vec[0])


def pair_partitions(n: int):
    """All partitions of 0..n-1 into ordered pairs (i < j within each pair)."""
    items = list(range(n))

    def rec(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for t in range(1, len(rest)):
            partner = rest[t]
            for tail in rec(rest[1:t] + rest[t + 1:]):
                yield [(first, partner)] + tail

    if n % 2 != 0:
        return
    yield from rec(items)


# ---------------------------------------------------------------------------
# Dressed-representation admissibility check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BogoliubovReport:
    residual_symmetry: float    # transpose-coupling condition
    residual_commutation: float  # K2*K2 - K1*K1 = 1
    passed: bool
    t2_max_deviation: float | None   # closed form vs Fock evaluation


def bogoliubov_check(k1_map, k2_map, *, tol: float = 1e-8, n_vectors: int = 4,
                     seed: int = 0) -> BogoliubovReport:
    """Check the two admissibility conditions on a dressed ladder pair
    A+(h) = a+(K2 h) + a-(K1 h), and when they hold compare the closed-form
    two-point function ((K1 + conj K2 conj) f, . h) against the vacuum
    expectation computed in a small truncated Fock space."""
    k1 = np.asarray(k1_map, dtype=complex)
    k2 = np.asarray(k2_map, dtype=complex)
    if k1.ndim != 2 or k1.shape != k2.shape:
        raise DimensionError("maps must be matrices of identical shape")
    q, p = k1.shape
    res_sym = float(np.linalg.norm(k2.T @ k1 - k1.T @ k2, 2))
    res_ccr = float(np.linalg.norm(k2.conj().T @ k2 - k1.conj().T @ k1 - np.eye(p), 2))
    passed = res_sym <= tol and res_ccr <= tol
    if not passed:
        return BogoliubovReport(res_sym, res_ccr, False, None)

    basis = FockBasis(q, 0, 2)

    def b_op(h):
        up = k2 @ h + np.conj(k1 @ h)
        down = k1 @ h + np.conj(k2 @ h)
        return create(basis, up) + annihilate(basis, down)

    def t2_closed(f, h):
        uf = k1 @ f + np.conj(k2 @ f)
        uh = k1 @ h + np.conj(k2 @ h)
        return complex(np.vdot(uh, uf))

    rng = np.random.default_rng(seed)
    vectors = [np.eye(p, dtype=complex)[j] for j in range(min(p, 2))]
    for _ in range(n_vectors):
        vectors.append(rng.standard_normal(p) + 1j * rng.standard_normal(p))
    dev = 0.0
    for f in vectors:
        for h in vectors:
            fock_val = vacuum_expectation(b_op(f) @ b_op(h))
            dev = max(dev, abs(fock_val - t2_closed(f, h)))
    return BogoliubovReport(res_sym, res_ccr, True, dev)
