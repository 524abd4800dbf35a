import math
from itertools import permutations

import numpy as np
import pytest

from haflab import matfun as mf
from haflab.errors import CapacityError, DimensionError, HaflabError


def haf_permutation_oracle(c):
    """Independent oracle: (1/(n! 2^n)) sum over all permutations of the
    product of entries matched in adjacent positions."""
    dim = c.shape[0]
    n = dim // 2
    total = 0j
    for p in permutations(range(dim)):
        term = 1.0 + 0j
        for i in range(n):
            term *= c[p[2 * i], p[2 * i + 1]]
        total += term
    return total / (math.factorial(n) * 2 ** n)


def perm_naive(b):
    n = b.shape[0]
    return sum(np.prod(b[np.arange(n), p]) for p in permutations(range(n)))


def alpha_det_reference(b, alpha):
    """Per-permutation form of ``alpha_det``: cycles counted by walking
    each orbit, one product per permutation."""
    n = b.shape[0]
    total = 0j
    for p in permutations(range(n)):
        seen, cycles = set(), 0
        for start in range(n):
            cycles += start not in seen
            while start not in seen:
                seen.add(start)
                start = p[start]
        total += alpha ** (n - cycles) * np.prod(b[np.arange(n), p])
    return total


def double_factorial(k):
    return math.prod(range(k, 0, -2))


def haf_memo_reference(c):
    """The memoized bitmask recursion ``hafnian_dp`` used before it was
    evaluated level by level: same recurrence, one Python call per term."""
    dim = c.shape[0]
    memo = {0: 1.0 + 0.0j}

    def rec(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        acc = 0.0 + 0.0j
        sweep = rest
        while sweep:
            low = sweep & -sweep
            acc += c[i, low.bit_length() - 1] * rec(rest ^ low)
            sweep ^= low
        memo[mask] = acc
        return acc

    return rec((1 << dim) - 1)


def dp_schedule_reference(dim):
    """``_dp_schedule`` as nested lists, built with Python sets: each level
    holds the subsets reached from the level above in ascending order, and
    a dict from mask to position gives each child's slot."""
    levels = []
    masks = [(1 << dim) - 1]
    for _ in range(dim // 2):
        terms = []
        for mask in masks:
            i = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << i)
            terms.append([(i * dim + j, rest ^ (1 << j)) for j in range(dim) if rest >> j & 1])
        masks = sorted({child for row in terms for _, child in row})
        position = {mask: p for p, mask in enumerate(masks)}
        levels.append(([[ij for ij, _ in row] for row in terms],
                       [[position[child] for _, child in row] for row in terms]))
    return levels[::-1]


# ---------------------------------------------------------------------------
# hafnian
# ---------------------------------------------------------------------------


def test_hafnian_2x2_is_offdiagonal():
    a, b, d = 1.5 + 2j, -0.25 + 1j, 9.0
    assert mf.hafnian_enum([[a, b], [b, d]]) == b
    assert mf.hafnian_dp([[0, b], [b, 0]]) == b


def test_hafnian_all_ones_counts_pairings():
    for n2 in (2, 4, 6, 8, 10, 12):
        expected = double_factorial(n2 - 1)
        assert mf.hafnian_enum(np.ones((n2, n2))) == expected
        assert mf.hafnian_dp(np.ones((n2, n2))) == expected


def test_hafnian_block_diagonal_factors():
    b1, b2 = 2.0 - 1j, 0.5 + 3j
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = c[1, 0] = b1
    c[2, 3] = c[3, 2] = b2
    assert mf.hafnian_dp(c) == pytest.approx(b1 * b2)
    assert mf.hafnian_enum(c) == pytest.approx(b1 * b2)


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_hafnian_matches_permutation_oracle(dim):
    rng = np.random.default_rng(100 + dim)
    c = mf.random_symmetric(dim, rng)
    expected = haf_permutation_oracle(c)
    assert mf.hafnian_enum(c) == pytest.approx(expected, rel=1e-12)
    assert mf.hafnian_dp(c) == pytest.approx(expected, rel=1e-12)


def test_hafnian_cross_algorithm_12x12():
    rng = np.random.default_rng(42)
    for _ in range(10):
        c = mf.random_symmetric(12, rng)
        a, b = mf.hafnian_enum(c), mf.hafnian_dp(c)
        assert abs(a - b) <= 1e-10 * abs(b)


def test_hafnian_enum_blocks_above_dim_12():
    rng = np.random.default_rng(14)
    c = mf.random_symmetric(14, rng)
    assert mf.hafnian_enum(c) == pytest.approx(mf.hafnian_dp(c), rel=1e-10)


def hafnian_enum_by_take(c):
    """The pairing sum as first written, gathering with ``take``."""
    dim = c.shape[0]
    if dim <= 12:
        return complex(c.ravel().take(mf._pairing_table(dim)).prod(axis=1).sum())
    total = 0.0 + 0.0j
    for partner in range(1, dim):
        rest = np.delete(np.arange(1, dim), partner - 1)
        total += c[0, partner] * hafnian_enum_by_take(c[np.ix_(rest, rest)])
    return total


@pytest.mark.parametrize("dim", range(0, 17, 2))
def test_hafnian_enum_bitwise_equals_take_gather(dim):
    # plain indexing changes the cost, not a bit
    c = mf.random_symmetric(dim, np.random.default_rng(900 + dim))
    assert repr(mf.hafnian_enum(c)) == repr(hafnian_enum_by_take(c))


def test_hafnian_diagonal_independence_bitwise():
    rng = np.random.default_rng(3)
    c = mf.random_symmetric(8, rng)
    c2 = c.copy()
    np.fill_diagonal(c2, rng.standard_normal(8) + 1j)
    assert mf.hafnian_enum(c) == mf.hafnian_enum(c2)
    assert mf.hafnian_dp(c) == mf.hafnian_dp(c2)


def test_hafnian_permutation_invariance():
    rng = np.random.default_rng(4)
    c = mf.random_symmetric(8, rng)
    base = mf.hafnian_dp(c)
    for _ in range(5):
        p = rng.permutation(8)
        shuffled = c[np.ix_(p, p)]
        assert abs(mf.hafnian_dp(shuffled) - base) <= 1e-12 * abs(base)


@pytest.mark.parametrize("dim", range(0, 17, 2))
def test_hafnian_dp_matches_memo_reference(dim):
    rng = np.random.default_rng(500 + dim)
    for _ in range(3):
        c = mf.random_symmetric(dim, rng)
        expected = haf_memo_reference(c)
        assert abs(mf.hafnian_dp(c) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("dim", range(0, 15, 2))
def test_dp_schedule_matches_set_reference(dim):
    schedule = mf._dp_schedule(dim)
    expected = dp_schedule_reference(dim)
    assert len(schedule) == len(expected)
    for arrays, lists in zip(schedule, expected):
        for array, rows in zip(arrays, lists):
            assert array.dtype == np.intp and not array.flags.writeable
            assert array.tolist() == rows


def hafnian_dp_int32_sum(c):
    """The level loop as first written: ``int32`` schedule arrays gathered
    by ``take``, each level reduced by ``.sum(axis=1)``."""
    dim = c.shape[0]
    if dim == 0:
        return 1.0 + 0.0j
    (pairs, _), *levels = [(ij.astype(np.int32), slot.astype(np.int32))
                           for ij, slot in mf._dp_schedule(dim)]
    flat = c.ravel()
    haf = flat.take(pairs.ravel())
    for ij, slot in levels:
        terms = flat.take(ij)
        terms *= haf.take(slot)
        haf = terms.sum(axis=1)
    return complex(haf[0])


@pytest.mark.parametrize("dim", range(0, 25, 2))
def test_hafnian_dp_bitwise_equals_int32_sum_loop(dim):
    # intp schedules, plain indexing and np.add.reduce change the cost, not a bit
    rng = np.random.default_rng(700 + dim)
    for _ in range(3 if dim <= 16 else 1):
        c = mf.random_symmetric(dim, rng)
        assert repr(mf.hafnian_dp(c)) == repr(hafnian_dp_int32_sum(c))


def test_hafnian_dp_builds_schedule_once_per_dimension():
    mf._dp_schedule.cache_clear()
    rng = np.random.default_rng(8)
    for _ in range(4):
        for dim in (2, 6, 10):
            mf.hafnian_dp(mf.random_symmetric(dim, rng))
    info = mf._dp_schedule.cache_info()
    assert (info.misses, info.hits) == (3, 9)


def test_hafnian_dp_leaves_input_unchanged():
    rng = np.random.default_rng(9)
    c = mf.random_symmetric(10, rng)
    before = c.copy()
    mf.hafnian_dp(c)
    assert np.array_equal(c, before)


def test_hafnian_dp_reads_upper_triangle_only():
    rng = np.random.default_rng(10)
    c = mf.random_symmetric(8, rng)
    lower = np.tril(rng.standard_normal((8, 8)) + 1j, -1)
    assert mf.hafnian_dp(np.triu(c) + lower) == mf.hafnian_dp(c)


def test_hafnian_rejects_odd_and_oversize():
    with pytest.raises(DimensionError):
        mf.hafnian_enum(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        mf.hafnian_dp(np.zeros((5, 5)))
    with pytest.raises(CapacityError):
        mf.hafnian_enum(np.zeros((18, 18)))
    with pytest.raises(CapacityError):
        mf.hafnian_dp(np.zeros((26, 26)))
    with pytest.raises(DimensionError):
        mf.hafnian_enum(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# permanent and the cycle-weighted permutation sum
# ---------------------------------------------------------------------------


def test_permanent_basics():
    assert mf.permanent(np.eye(3)) == pytest.approx(1.0)
    assert mf.permanent([[1, 1], [1, 1]]) == pytest.approx(2.0)
    assert mf.permanent(np.zeros((0, 0))) == 1.0   # the empty product


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_permanent_matches_naive_sum(n):
    rng = np.random.default_rng(200 + n)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert mf.permanent(b) == pytest.approx(perm_naive(b), rel=1e-11)


def test_alpha_det_2x2_closed_form():
    a, b, c, d = 1 + 1j, 2.0, -0.5j, 3 - 1j
    for alpha in (0.5, 1.0, -1.0, 2.0):
        assert mf.alpha_det([[a, b], [c, d]], alpha) == pytest.approx(
            a * d + alpha * b * c)


def test_alpha_det_specializations():
    rng = np.random.default_rng(6)
    for n in (3, 5):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert mf.alpha_det(b, 1.0) == pytest.approx(mf.permanent(b), rel=1e-10)
        assert mf.alpha_det(b, -1.0) == pytest.approx(np.linalg.det(b), rel=1e-10)


@pytest.mark.parametrize("n", range(8))
def test_alpha_det_matches_per_permutation_reference(n):
    rng = np.random.default_rng(300 + n)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for alpha in (1.0, -1.0, 2.0, 0.5, 0.0):
        assert mf.alpha_det(b, alpha) == pytest.approx(alpha_det_reference(b, alpha),
                                                       rel=1e-12)


def test_alpha_det_blocks_above_n_8():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert mf.alpha_det(b, 1.0) == pytest.approx(mf.permanent(b), rel=1e-10)
    assert mf.alpha_det(b, -1.0) == pytest.approx(mf.determinant(b), rel=1e-10)


def test_alpha_det_capacity():
    with pytest.raises(CapacityError):
        mf.alpha_det(np.zeros((11, 11)), 1.0)
    with pytest.raises(CapacityError):
        mf.permanent(np.zeros((21, 21)))


# ---------------------------------------------------------------------------
# benchmark harness and matrix file format
# ---------------------------------------------------------------------------


def test_bench_rows_shape():
    rows = mf.bench_hafnian([8], repetitions=2)
    assert len(rows) == 2
    assert {r.algorithm for r in rows} == {"enum", "dp"}
    assert all(r.median_seconds > 0 for r in rows)


def test_bench_empty_sizes():
    assert mf.bench_hafnian([], repetitions=3) == []


def test_bench_dp_scales_better():
    rows = mf.bench_hafnian([8, 12], repetitions=3, seed=1)
    times = {(r.algorithm, r.size): r.median_seconds for r in rows}
    growth_enum = times[("enum", 12)] / times[("enum", 8)]
    growth_dp = times[("dp", 12)] / times[("dp", 8)]
    assert growth_dp < growth_enum


def test_bench_makes_one_untimed_call_before_timing(monkeypatch):
    # per algorithm and size: one warm-up call outside the clock, then each
    # repetition's call between two clock reads
    events = []
    ticks = iter(range(1000))
    monkeypatch.setattr(mf.time, "perf_counter",
                        lambda: events.append("clock") or float(next(ticks)))
    for name in ("hafnian_enum", "hafnian_dp"):
        monkeypatch.setattr(mf, name, lambda c, name=name: events.append(name))
    rows = mf.bench_hafnian([8], repetitions=3)
    expected = []
    for name in ("hafnian_enum", "hafnian_dp"):
        expected += [name] + ["clock", name, "clock"] * 3
    assert events == expected
    assert [(r.algorithm, r.repetitions, r.median_seconds) for r in rows] == [
        ("enum", 3, 1.0), ("dp", 3, 1.0)]


def test_matrix_text_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    c = mf.random_symmetric(6, rng)
    path = tmp_path / "m.txt"
    mf.write_matrix_text(path, c)
    back = mf.read_matrix_text(path)
    assert np.array_equal(back, c)


def test_matrix_text_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1,0 2,0\n")
    with pytest.raises(DimensionError):
        mf.read_matrix_text(bad)
    bad.write_text("nope\n")
    with pytest.raises(Exception):
        mf.read_matrix_text(bad)


@pytest.mark.parametrize("text, error, message", [
    ("", HaflabError, "empty matrix file"),
    ("\n  \n", HaflabError, "empty matrix file"),
    ("2\n1,0 2,0\n3,0\n", DimensionError, "row 1 has 1 entries, expected 2"),
    ("1\n1;0\n", HaflabError, "bad entry '1;0' at row 0"),
    ("1\n1,0,0\n", HaflabError, "bad entry '1,0,0' at row 0"),
])
def test_matrix_text_refuses_with_one_message(tmp_path, text, error, message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(error) as info:
        mf.read_matrix_text(path)
    assert str(info.value) == f"{path}: {message}"
