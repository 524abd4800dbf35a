"""Exact matrix functions on small complex matrices.

Two independent hafnian algorithms (pairing enumeration and a subset
recursion evaluated one subset size at a time) cross-check each other;
the permanent (Ryser, Gray-code updates) cross-checks the cycle-weighted
permutation sum ``alpha_det``.
All arithmetic is complex double precision.
"""

from __future__ import annotations

import time
from cmath import isfinite
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from statistics import median
from typing import Final

import numpy as np

from .errors import CapacityError, DimensionError, HaflabError

#: Size caps of the exponential algorithms.
HAFNIAN_ENUM_MAX_DIM: Final = 16
HAFNIAN_DP_MAX_DIM: Final = 24   # dp cap <= 62: subsets are int64 bitmasks
PERMANENT_MAX_DIM: Final = 20
ALPHA_DET_MAX_DIM: Final = 10


def _as_square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_even(dim: int) -> None:
    if dim % 2 != 0:
        raise DimensionError(f"hafnian needs an even dimension, got {dim}")


def _check_cap(dim: int, cap: int, what: str) -> None:
    if dim > cap:
        raise CapacityError(f"{what}: dimension {dim} exceeds limit {cap}")


#: Largest dimension whose pairings (10 395 at 12) form one table.
_ENUM_TABLE_MAX_DIM: Final = 12


@lru_cache(maxsize=8)
def _pairing_table(dim: int) -> np.ndarray:
    """Every perfect pairing of ``range(dim)``, one per row, as the flat
    indices ``i * dim + j`` (``i < j``) of its pairs.

    Rows follow the enumeration that always pairs off the lowest index,
    partners ascending, so the table never indexes the diagonal.  Read-only
    ``intp`` array of shape ``((dim - 1)!!, dim // 2)``.
    """
    if dim == 0:
        table = np.zeros((1, 0), dtype=np.intp)
    else:
        # pairs of the pairings of range(dim - 2) (one empty row at dim 2)
        i, j = np.divmod(_pairing_table(dim - 2), max(dim - 2, 1))
        blocks = []
        for partner in range(1, dim):
            rest = np.delete(np.arange(1, dim), partner - 1)
            block = np.full((len(i), dim // 2), partner, dtype=np.intp)
            block[:, 1:] = rest[i] * dim + rest[j]
            blocks.append(block)
        table = np.concatenate(blocks)
    table.setflags(write=False)
    return table


def _enum_sum(c: np.ndarray) -> complex:
    # Sum over pairings of c: one gather, row product and sum over the cached
    # table, or, above _ENUM_TABLE_MAX_DIM, one such sum per partner of index
    # 0, so no table or gather outgrows the dim-12 one.
    dim = c.shape[0]
    if dim <= _ENUM_TABLE_MAX_DIM:   # plain indexing: take copies the read-only table
        return complex(c.ravel()[_pairing_table(dim)].prod(axis=1).sum())
    total = 0.0 + 0.0j
    for partner in range(1, dim):
        rest = np.delete(np.arange(1, dim), partner - 1)
        total += c[0, partner] * _enum_sum(c[np.ix_(rest, rest)])
    return total


def hafnian_enum(matrix) -> complex:
    """Hafnian by direct enumeration of all (2n-1)!! perfect pairings.

    Never reads diagonal entries.
    """
    c = _as_square(matrix)
    dim = c.shape[0]
    _check_even(dim)
    _check_cap(dim, HAFNIAN_ENUM_MAX_DIM, "hafnian_enum")
    return _enum_sum(c)


@lru_cache(maxsize=16)
def _dp_schedule(dim: int) -> tuple:
    """Subset levels of the hafnian recursion at one even dimension.

    Starting from the full index set, each step drops the lowest index
    ``i`` and one partner ``j``; each level keeps its subsets as sorted
    bitmasks, so a child's position one level down is a binary search.
    Returns, from the pairs level up to the full set, one ``(ij, slot)``
    pair of read-only ``intp`` arrays of shape ``(subsets, size - 1)``
    (numpy's index type, so no gather casts its index):
    ``ij`` is the flat index ``i * dim + j`` (partners ascending) and
    ``slot`` the position of the child subset.
    """
    levels = []
    masks = np.array([(1 << dim) - 1], dtype=np.int64)
    for size in range(dim, 0, -2):
        low = masks & -masks
        rest = masks ^ low
        row = np.log2(low).astype(np.intp) * dim
        children = np.empty((len(masks), size - 1), dtype=np.int64)
        ij = np.empty(children.shape, dtype=np.intp)
        sweep = rest.copy()
        for t in range(size - 1):
            low = sweep & -sweep
            sweep ^= low
            children[:, t] = rest ^ low
            ij[:, t] = row + np.log2(low).astype(np.intp)
        masks = np.sort(children, axis=None)
        masks = masks[np.append(True, masks[1:] != masks[:-1])]
        slot = np.searchsorted(masks, children)
        ij.setflags(write=False)
        slot.setflags(write=False)
        levels.append((ij, slot))
    return tuple(reversed(levels))


def hafnian_dp(matrix) -> complex:
    """Hafnian by the subset recursion, evaluated one subset size at a time.

    haf(S) = sum over j in S of c[min(S), j] * haf(S minus {min(S), j}),
    haf(empty) = 1, partners in ascending order; reads only the upper
    triangle.  Each level is a gather, a multiply and a row sum over the
    cached ``_dp_schedule(dim)``, whose size (the number of reachable
    subset/partner terms, 89 665 at dim 20) sets the memory.
    """
    c = _as_square(matrix)
    dim = c.shape[0]
    _check_even(dim)
    _check_cap(dim, HAFNIAN_DP_MAX_DIM, "hafnian_dp")
    if dim == 0:
        return 1.0 + 0.0j
    (pairs, _), *levels = _dp_schedule(dim)
    # Plain indexing, not take(): take copies a read-only index on every
    # call.  np.add.reduce is the ufunc behind .sum, without its wrapper.
    flat = c.ravel()
    haf = flat[pairs.ravel()]
    for ij, slot in levels:
        terms = flat[ij]
        terms *= haf[slot]
        haf = np.add.reduce(terms, axis=1)
    return haf.item()


def permanent(matrix) -> complex:
    """Permanent via Ryser's inclusion-exclusion with Gray-code column updates."""
    b = _as_square(matrix)
    n = b.shape[0]
    _check_cap(n, PERMANENT_MAX_DIM, "permanent")
    if n == 0:
        return 1.0 + 0.0j
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    popcount = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = gray ^ new_gray
        j = bit.bit_length() - 1
        if new_gray & bit:
            row_sums += b[:, j]
            popcount += 1
        else:
            row_sums -= b[:, j]
            popcount -= 1
        gray = new_gray
        term = np.prod(row_sums)
        total += term if (popcount % 2 == 0) else -term
    return total if n % 2 == 0 else -total


#: Permutations of at most this many entries form one table; larger
#: ones are summed in blocks of 8! rows that share their leading entries.
_PERM_TABLE_MAX_DIM: Final = 8


@lru_cache(maxsize=16)
def _perm_table(n: int) -> np.ndarray:
    """All permutations of ``range(n)`` in lexicographic order, one per row
    of a read-only ``intp`` array."""
    table = np.array(list(permutations(range(n))), dtype=np.intp)
    table.setflags(write=False)
    return table


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Number of cycles of each permutation row.

    Pointer doubling gives every entry the minimum of its orbit after
    ceil(log2 n) steps; each cycle holds exactly one entry equal to it.
    """
    rows, n = perms.shape
    entry = np.tile(np.arange(n, dtype=np.int8), rows)
    image = (perms + n * np.arange(rows)[:, None]).ravel()   # flat position of perm[i]
    low = entry
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low.take(image))
        image = image.take(image)
    return np.count_nonzero((low == entry).reshape(rows, n), axis=1)


def alpha_det(matrix, alpha: float) -> complex:
    """Cycle-weighted permutation sum: sum over permutations of
    alpha^(n - #cycles) times the product of matched entries.

    alpha=1 gives the permanent, alpha=-1 the determinant.
    """
    b = _as_square(matrix)
    n = b.shape[0]
    _check_cap(n, ALPHA_DET_MAX_DIM, "alpha_det")
    tail = _perm_table(min(n, _PERM_TABLE_MAX_DIM))
    rows = np.arange(n)
    total = 0.0 + 0.0j
    for head in permutations(range(n), n - tail.shape[1]):
        perms = np.empty((len(tail), n), dtype=np.intp)
        perms[:, :len(head)] = head
        perms[:, len(head):] = np.delete(rows, head)[tail]
        weights = alpha ** (n - _cycle_counts(perms))
        total += weights @ np.prod(b[rows, perms], axis=1)
    return total


def determinant(matrix) -> complex:
    """Determinant (LU, via numpy); exposed for the CLI's cross-checks."""
    return complex(np.linalg.det(_as_square(matrix)))


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    size: int
    repetitions: int
    median_seconds: float


def random_symmetric(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex matrix with a[i,j] == a[j,i] exactly."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    iu = np.triu_indices(dim, 1)
    a[(iu[1], iu[0])] = a[iu]
    return a


def bench_hafnian(sizes, repetitions: int = 3, *, seed: int = 0) -> list[BenchRow]:
    """Median wall-clock time of both hafnian algorithms per size.

    Every size must be even and within the dp cap, and all are checked
    before any is timed.  Each algorithm is timed only up to its own cap,
    after one untimed call.
    """
    sizes = [int(size) for size in sizes]
    for size in sizes:
        _check_even(size)
        _check_cap(size, HAFNIAN_DP_MAX_DIM, "bench_hafnian")
    rows: list[BenchRow] = []
    rng = np.random.default_rng(seed)
    for size in sizes:
        c = random_symmetric(size, rng)
        for name, fn, cap in (("enum", hafnian_enum, HAFNIAN_ENUM_MAX_DIM),
                              ("dp", hafnian_dp, HAFNIAN_DP_MAX_DIM)):
            if size > cap:
                continue
            fn(c)  # untimed warm-up: the first dp call per size builds its schedule
            times = []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                fn(c)
                times.append(time.perf_counter() - t0)
            rows.append(BenchRow(name, size, repetitions, median(times)))
    return rows


# ---------------------------------------------------------------------------
# Plain-text matrix format: first line "dim", then rows of "re,im" pairs.
# ---------------------------------------------------------------------------


def write_matrix_text(path, matrix) -> None:
    a = _as_square(matrix)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_text(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw:
        raise HaflabError(f"{path}: empty matrix file")
    try:
        dim = int(raw[0])
    except ValueError as exc:
        raise HaflabError(f"{path}: first line must be the dimension") from exc
    if dim < 0:
        raise DimensionError(f"{path}: dimension must be at least 0, got {dim}")
    if len(raw) != dim + 1:
        raise DimensionError(f"{path}: expected {dim} rows, found {len(raw) - 1}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, line in enumerate(raw[1:]):
        cells = line.split()
        if len(cells) != dim:
            raise DimensionError(f"{path}: row {i} has {len(cells)} entries, expected {dim}")
        for j, cell in enumerate(cells):
            try:
                re, im = cell.split(",")
                value = complex(float(re), float(im))
            except ValueError as exc:
                raise HaflabError(f"{path}: bad entry {cell!r} at row {i}") from exc
            if not isfinite(value):
                raise HaflabError(f"{path}: entry {cell!r} at row {i}, column {j} is not finite")
            out[i, j] = value
    return out
