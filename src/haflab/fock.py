"""Truncated symmetric Fock space in the occupation-number basis.

One-particle space: grid modes (one per cell) followed by feature modes.
Ladder transitions that would push the total occupation above the
truncation are dropped, so operator identities are asserted on the "safe
sub-basis" of states far enough below the cutoff.  Discretized grid
ladder operators carry a 1/sqrt(vol) normalization, which makes the cell
quadrature Sum_m vol_m A+(x_m) A-(x_m) reproduce occupation counts
exactly.

Operators are stored as sparse complex matrices over the enumerated
states; index 0 is the vacuum.  scipy.sparse is imported by the functions
that assemble an operator, so the basis and the vacuum routes (`theta`,
`moment`, `quasifree_T`, `bogoliubov_check`) run on numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, DimensionError, PreconditionError
from .kernels import GaussianFieldModel, cell_indices, cell_set, check_size

if TYPE_CHECKING:
    from scipy import sparse

#: Most boxes of a Wick polynomial, and the largest residual of either
#: condition that `bogoliubov_check` passes.
WICK_MAX_ORDER = 4
BOGOLIUBOV_TOL = 1e-8


class FockBasis:
    """Occupation states with total occupation <= truncation, ordered by
    total and then lexicographically; index 0 is the vacuum."""

    def __init__(self, n_grid: int, n_feature: int, truncation: int):
        if n_grid < 0 or n_feature < 0 or n_grid + n_feature < 1:
            raise DimensionError("need at least one mode")
        if truncation < 0:
            raise DimensionError("truncation must be nonnegative")
        self.n_grid = n_grid
        self.n_feature = n_feature
        self.truncation = truncation
        self.n_modes = n = n_grid + n_feature
        states = math.comb(n + truncation, n)
        check_size(states, n)   # the basis, before any sector is built
        try:
            self._build(n, truncation)
        except MemoryError as exc:   # below numpy's size limit, but past free memory
            # without the failed build's frames: they hold every sector built so far
            raise CapacityError(f"a Fock basis of {states} states does not fit "
                                f"in memory") from exc.with_traceback(None)

    def _build(self, n: int, truncation: int) -> None:
        # Sector k + 1 is every sector-k row plus e_j, lexsorted and
        # deduplicated; the position a raised row lands at is its source's
        # +1_j neighbour, so the raising tables come with the basis: per mode
        # j (rows), the neighbour's index and sqrt(n_j + 1) for each source,
        # the K states below the cutoff, which are the basis's first K states.
        sectors, dst = [np.zeros((1, n), dtype=np.int64)], [np.zeros((n, 0), dtype=np.int64)]
        for _ in range(truncation):
            low = sectors[-1]
            raised = (low + np.eye(n, dtype=np.int64)[:, None]).reshape(-1, n)
            order = np.lexsort(raised.T[::-1])
            rows = raised[order]
            new = np.ones(len(rows), dtype=bool)
            new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
            rank = np.empty(len(rows), dtype=np.int64)
            rank[order] = np.cumsum(new) - 1
            dst.append(rank.reshape(n, len(low)) + sum(map(len, sectors)))
            sectors.append(rows[new])
        occ = np.concatenate(sectors)
        occ.flags.writeable = False
        raise_dst = np.concatenate(dst, axis=1)
        # set together, once every table is built, so a failed build sets none
        self.occupations, self.totals, self.raise_dst, self.raise_amp = (
            occ, occ.sum(axis=1), raise_dst, np.sqrt(occ[:raise_dst.shape[1]].T + 1.0))

    @property
    def size(self) -> int:
        return len(self.occupations)

    def safe_indices(self, margin: int) -> np.ndarray:
        """States whose total occupation is at most truncation - margin (none: a CapacityError)."""
        if margin > self.truncation:
            raise CapacityError(f"margin {margin} leaves no state at truncation {self.truncation}")
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

    def __mul__(self, scalar):
        return FockOperator(self.basis, (self.mat * complex(scalar)).tocsr())

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._like(other)
        return FockOperator(self.basis, (self.mat @ other.mat).tocsr())

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.basis, self.mat.conj().T.tocsr())

    def max_abs(self) -> float:
        return float(np.abs(self.mat.data).max(initial=0.0))


def identity(basis: FockBasis) -> FockOperator:
    from scipy import sparse
    return FockOperator(basis, sparse.identity(basis.size, dtype=complex, format="csr"))


def hermiticity_defect(op: FockOperator, margin: int) -> float:
    """Max entry of op - op* over the square safe sub-basis block."""
    idx = op.basis.safe_indices(margin)
    sub = op.mat[np.ix_(idx, idx)]
    return float(abs(sub - sub.conj().T).max())


# ---------------------------------------------------------------------------
# Ladder operators
# ---------------------------------------------------------------------------


def _raising(basis: FockBasis, g) -> sparse.coo_matrix:
    """Sum_j g_j R_j, where R_j raises mode j with matrix element
    sqrt(n_j + 1) and drops transitions above the truncation."""
    from scipy import sparse
    v = np.asarray(g, dtype=complex)
    if v.shape != (basis.n_modes,):
        raise DimensionError(f"vector must have length {basis.n_modes}")
    support = np.nonzero(v)[0]
    values = (v[support, None] * basis.raise_amp[support]).ravel()
    sources = np.arange(basis.raise_dst.shape[1])
    entries = (basis.raise_dst[support].ravel(), np.tile(sources, len(support)))
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
    """(create(g) + annihilate(f) + c) vec, straight from the raising tables.

    States are ordered by total occupation, so the raising sources are a
    prefix of the basis, and a vector whose last nonzero entry is at n - 1
    meets only the first n of them, in either direction: a raised state
    comes after its source.  (A zero vector reads as n = size.)  The
    annihilation half is a multiply and a sum over the support, not a
    BLAS product: OpenBLAS threads even this small product, which runs
    slower when the other cores are busy.
    """
    n = min(vec.size - int(np.argmax(vec[::-1] != 0)), basis.raise_dst.shape[1])
    dst, amp = basis.raise_dst[:, :n], basis.raise_amp[:, :n]
    out = c * vec
    for j in np.nonzero(g)[0]:
        out[dst[j]] += g[j] * amp[j] * vec[:n]
    support = np.nonzero(f)[0]
    out[:n] += (f[support, None] * amp[support] * vec[dst[support]]).sum(axis=0)
    return out


def neutral(basis: FockBasis, cells) -> FockOperator:
    """Diagonal operator counting total occupation in the given grid modes."""
    from scipy import sparse
    idx = cell_set(cells, basis.n_grid)
    diag = basis.occupations[:, idx].sum(axis=1).astype(complex)
    return FockOperator(basis, sparse.diags(diag, format="csr", dtype=complex))


# ---------------------------------------------------------------------------
# The ladder table: the dressed annihilator A-(x_m) at every cell, whose
# adjoint is A+(x_m) and whose quadratic quadrature is the particle density
# ---------------------------------------------------------------------------


def _ladders(basis: FockBasis, source: GaussianFieldModel):
    """Ladder table (g, f, c) of a field model: g and f of shape (n_modes, M)
    and c of shape (M,), with A-(x_m) = create(g[:, m]) + annihilate(f[:, m])
    + c[m] = (l1, e/sqrt(vol) + l2, mean), e the grid modes.  A model with no
    features (`intensity_profile`) lives on a grid-only basis.
    """
    grid, l1, l2, mean = source.grid, source.l1, source.l2, source.mean
    if (basis.n_grid, basis.n_feature) != (grid.n_cells, len(l1)):
        raise DimensionError(
            f"basis has ({basis.n_grid} grid, {basis.n_feature} feature) modes; "
            f"source needs ({grid.n_cells}, {len(l1)})")
    e, d1, d2 = np.zeros((3, basis.n_modes, grid.n_cells), dtype=complex)
    e[:basis.n_grid] = np.diag(1.0 / np.sqrt(grid.volumes))
    d1[basis.n_grid:], d2[basis.n_grid:] = l1, l2
    return d1, e + d2, mean


def _adjoint(g, f, c):
    """Coefficients of the adjoint of create(g) + annihilate(f) + c."""
    return f.conj(), g.conj(), np.conj(c)


def _at(ladders, m) -> tuple:
    """(g, f, c) of A-(x_m), m read by the cell-index rule."""
    (m,) = cell_indices([m], ladders[2].size)
    return tuple(v[..., m] for v in ladders)


def ladder(basis: FockBasis, source, m) -> FockOperator:
    """A-(x_m) at cell m of a field model; A+(x_m) is its adjoint."""
    return _ladder_op(basis, *_at(_ladders(basis, source), m))


def phi(basis: FockBasis, model: GaussianFieldModel, m) -> FockOperator:
    """Field operator at cell m, create(l1 column) + annihilate(l2 column) on
    the feature modes: A-(x_m) without its grid ladder."""
    g, f, _ = _at(_ladders(basis, model), m)
    f[:basis.n_grid] = 0   # drops the grid ladder; the table is this call's own
    return create(basis, g) + annihilate(basis, f)


def _rho_apply(basis: FockBasis, source):
    """The map (cells, vec) -> rho(cells) vec, as
    sum_m vol_m A+(x_m) (A-(x_m) vec) with no operator, over one table."""
    ladders, vols = _ladders(basis, source), source.grid.volumes

    def apply(cells, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        for m in sorted(cells):
            down = _at(ladders, m)
            out += vols[m] * _ladder_apply(basis, *_adjoint(*down), _ladder_apply(basis, *down, vec))
        return out

    return apply


def rho(basis: FockBasis, source, cells) -> FockOperator:
    """Particle density of a cell set, sum_m vol_m A+(x_m) A-(x_m) = D* D, D
    the rows sqrt(vol_m) A-(x_m) stacked over the cells (none: zero)."""
    from scipy import sparse
    ladders, root = _ladders(basis, source), np.sqrt(source.grid.volumes)
    rows = [sparse.csr_matrix((0, basis.size), dtype=complex)]
    for m in cell_set(cells, source.grid.n_cells).tolist():
        rows.append(_ladder_op(basis, *(root[m] * v[..., m] for v in ladders)).mat)
    d = sparse.vstack(rows, format="csr")
    return FockOperator(basis, (d.conj().T @ d).tocsr())


# ---------------------------------------------------------------------------
# Wick polynomials, correlation measures, and plain moments
# ---------------------------------------------------------------------------


def _as_cellsets(source, boxes) -> list[frozenset]:
    return [frozenset(cell_set(box, source.grid.n_cells).tolist()) for box in boxes]


def _wick(basis: FockBasis, source, boxes, base, rho_step):
    """Normal-ordered product of densities over the boxes, applied to ``base``
    (the identity operator or the vacuum vector) through ``rho_step``.

    Recursion: the order n+1 polynomial is rho(D_{n+1}) times the order n
    one, minus the sum over slots i of the order n polynomial with D_i
    replaced by its intersection with D_{n+1}.  Each box tuple is built once.
    """
    cellsets = _as_cellsets(source, boxes)
    n = len(cellsets)
    if n < 1 or n > WICK_MAX_ORDER:
        raise PreconditionError(f"between 1 and {WICK_MAX_ORDER} boxes")
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


def wick(basis: FockBasis, source, boxes) -> FockOperator:
    """Normal-ordered product of particle densities over the given boxes."""
    rho_cached = functools.cache(lambda cells: rho(basis, source, cells))
    return _wick(basis, source, boxes, identity(basis),
                 lambda cells, op: rho_cached(cells) @ op)


def theta(basis: FockBasis, source, boxes) -> complex:
    """Order-n correlation measure of the box product: the vacuum
    expectation of the normal-ordered density product divided by n!,
    evaluated on the vacuum vector without building operators."""
    boxes = list(boxes)
    vec = _wick(basis, source, boxes, basis.vacuum(), _rho_apply(basis, source))
    return complex(vec[0]) / math.factorial(len(boxes))


def moment(basis: FockBasis, source, boxes) -> complex:
    """Vacuum expectation of the plain (non-normal-ordered) product of
    densities over the boxes; a box listed k times enters to the power k."""
    cellsets = _as_cellsets(source, boxes)
    if basis.truncation < 2 * len(cellsets):
        raise CapacityError(
            f"truncation {basis.truncation} too small for degree {len(cellsets)}")
    apply = _rho_apply(basis, source)
    vec = basis.vacuum()
    for cells in reversed(cellsets):
        vec = apply(cells, vec)
    return complex(vec[0])


# ---------------------------------------------------------------------------
# Hermitian combinations and the quasi-free vacuum
# ---------------------------------------------------------------------------


def _b_coeffs(source, ladders, h):
    """(u, w, shift) with b_field(h) = create(u) + annihilate(w) + shift: the
    table is linear in the cell, so with vh = vol * h the sum over cells is
    A+ . vh + A- . conj(vh), one creation and one annihilation."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (source.grid.n_cells,):
        raise DimensionError("test function must have one value per cell")
    vh = source.grid.volumes * h
    return tuple(a @ vh + b @ vh.conj() for a, b in zip(_adjoint(*ladders), ladders))


def b_field(basis: FockBasis, source, h) -> FockOperator:
    """Hermitian combination sum_m vol_m (h_m A+(x_m) + conj(h_m) A-(x_m))."""
    return _ladder_op(basis, *_b_coeffs(source, _ladders(basis, source), h))


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
    ladders = _ladders(basis, source)
    coeffs = [_b_coeffs(source, ladders, h) for h in funcs]
    if k == 1:
        return complex(coeffs[0][2])
    vec = basis.vacuum()
    for u, w, _ in reversed(coeffs):
        vec = _ladder_apply(basis, u, w, 0.0, vec)
    return complex(vec[0])


# ---------------------------------------------------------------------------
# Dressed-representation admissibility check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BogoliubovReport:
    residual_symmetry: float    # transpose-coupling condition
    residual_commutation: float  # K2*K2 - K1*K1 = 1
    passed: bool
    t2_max_deviation: float | None   # closed form vs Fock evaluation


def bogoliubov_check(k1_map, k2_map) -> BogoliubovReport:
    """Check the two admissibility conditions on a dressed ladder pair
    A+(h) = a+(K2 h) + a-(K1 h), and when they hold compare the closed-form
    two-point function ((K1 + conj K2 conj) f, . h) against the vacuum
    expectation <0|b(f) b(h)|0>, pushed through the ladder tables of a
    small truncated Fock space with no operator built."""
    k1 = np.asarray(k1_map, dtype=complex)
    k2 = np.asarray(k2_map, dtype=complex)
    if k1.ndim != 2 or k1.shape != k2.shape:
        raise DimensionError("maps must be matrices of identical shape")
    q, p = k1.shape
    res_sym = float(np.linalg.norm(k2.T @ k1 - k1.T @ k2, 2))
    res_ccr = float(np.linalg.norm(k2.conj().T @ k2 - k1.conj().T @ k1 - np.eye(p), 2))
    passed = res_sym <= BOGOLIUBOV_TOL and res_ccr <= BOGOLIUBOV_TOL
    if not passed:
        return BogoliubovReport(res_sym, res_ccr, False, None)

    basis = FockBasis(q, 0, 2)
    rng = np.random.default_rng(0)
    vectors = [np.eye(p, dtype=complex)[j] for j in range(min(p, 2))]
    for _ in range(4):   # plus four fixed random test vectors
        vectors.append(rng.standard_normal(p) + 1j * rng.standard_normal(p))
    # b(v) = A+(v) + A+(v)* = create(conj w) + annihilate(w), w = (K1 + conj K2 conj) v
    ws = [k1 @ v + np.conj(k2 @ v) for v in vectors]
    dev = 0.0
    for wh in ws:
        b_h = _ladder_apply(basis, wh.conj(), wh, 0.0, basis.vacuum())   # b(h)|0>
        for wf in ws:
            fock_val = complex(_ladder_apply(basis, wf.conj(), wf, 0.0, b_h)[0])
            dev = max(dev, abs(fock_val - complex(np.vdot(wh, wf))))
    return BogoliubovReport(res_sym, res_ccr, True, dev)
