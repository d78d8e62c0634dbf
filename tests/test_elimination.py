"""Exact rank: elimination modulo P, then modulo more primes, against oracles."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjb import elimination, verify
from sjb.cli import main
from sjb.elimination import P, _is_prime, _primes, _rank_mod_p, exact_rank
from sjb.jordan import JordanBasis, JordanChain, build_sjb
from sjb.operators import _inclusions, up_matrix
from sjb.vectors import Vector
from sjb.verify import _rank_matrix, up_rank_check


def fraction_rank(matrix):
    # Independent oracle: plain Gaussian elimination over Fractions.
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_trivial_shapes():
    assert exact_rank([]) == 0
    assert exact_rank([[]]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[5]]) == 1


def test_identity_and_rank_one():
    eye = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    assert exact_rank(eye) == 6
    outer = [[2 * j for j in range(5)] for _ in range(4)]
    assert exact_rank(outer) == 1


def test_known_rank_by_construction():
    rng = random.Random(11)
    for _ in range(30):
        m, n, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
        r = min(r, m, n)
        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        prod = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n)]
                for i in range(m)]
        assert exact_rank(prod) <= r
        assert exact_rank(prod) == fraction_rank(prod)


def test_random_matrices_match_oracle():
    rng = random.Random(5)
    for _ in range(120):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(n)]
               for _ in range(m)]
        assert exact_rank(mat) == fraction_rank(mat)


def test_zero_one_incidence_matrices_match_oracle():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 10)
        n = rng.randint(1, 10)
        mat = [[1 if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(m)]
        assert exact_rank(mat) == fraction_rank(mat)


def test_huge_entries_match_oracle():
    big = 10 ** 40
    mat = [[big, big + 1, 1], [big - 1, big, 0], [1, 1, 1]]
    assert exact_rank(mat) == fraction_rank(mat)


def test_entries_near_2_31_match_oracles():
    # Entries near 2^31 make every minor outgrow int64 within a few steps.
    rng = random.Random(23)
    base = 1 << 31
    for _ in range(10):
        mat = [[rng.randint(base - 3, base + 3) for _ in range(5)] for _ in range(5)]
        assert exact_rank(mat) == fraction_rank(mat)


def test_primes_run_down_from_p():
    assert list(itertools.islice(_primes(), 6)) == [
        2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549]


def _odd_prime_by_trial_division(q):
    return all(q % d for d in range(3, isqrt(q) + 1, 2))


def test_primes_match_trial_division():
    below_p = (q for q in range(P, 2, -2) if _odd_prime_by_trial_division(q))
    assert list(itertools.islice(_primes(), 500)) == list(itertools.islice(below_p, 500))
    for q in range(3, 10 ** 5, 2):
        assert _is_prime(q) == _odd_prime_by_trial_division(q), q


def _spy_primes(monkeypatch):
    primes = []
    real = elimination._rank_mod_p

    def spy(a, p):
        primes.append(p)
        return real(a, p)
    monkeypatch.setattr(elimination, "_rank_mod_p", spy)
    return primes


@pytest.mark.parametrize("mat, rank, primes", [
    ([[P, 0, 0], [0, P, 0], [0, 0, P]], 3, [P, 2147483629]),        # P*I
    ([[1, 2, 3], [1, 2 + P, 3]], 2, [P, 2147483629]),                # rows differ by P*e_2
    ([[2, 1], [1, (P + 1) // 2]], 2, [P, 2147483629]),               # determinant P
    ([[3, 5, 7], [3 + 2 * P, 5, 7 - P], [0, 1, 1]], 3, [P, 2147483629]),
    ([[1, 2, 3], [2, 4, 6]], 1, [P]),       # singular over Q, and P^2 > Hadamard's bound
    ([[0, 0], [0, 0]], 0, [P]),
])
def test_deficient_mod_p_takes_more_primes(monkeypatch, mat, rank, primes):
    assert _rank_mod_p(np.array(mat, dtype=np.int64) % P, P) < min(len(mat), len(mat[0]))
    seen = _spy_primes(monkeypatch)
    assert exact_rank(mat) == rank == fraction_rank(mat)
    assert seen == primes


def test_rank_needs_no_second_prime(monkeypatch, capsys):
    # A second prime changes no verdict; it would show only as seconds lost.
    seen = _spy_primes(monkeypatch)
    for n in range(1, 11):
        assert main(["rank", "--n", str(n), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert set(seen) == {P}


def test_full_rank_mod_p_takes_one_prime(monkeypatch):
    seen = _spy_primes(monkeypatch)
    assert exact_rank(up_matrix(6, 2).matrix.tolist()) == 15
    assert exact_rank([[1, 1], [1, 1 + P + 1]]) == 2
    assert seen == [P, P]


@pytest.mark.parametrize("mat", [
    [[1 << 63, 1], [1, 1 << 63]],                       # fits uint64 only
    [[1 << 63, 1 << 62], [2, 1]],
    [[(1 << 64) + 5, -3], [-(1 << 63) - 1, 7]],          # object array
    [[1 << 70, 1 << 70], [1 << 71, 1 << 71]],
    [[-(1 << 63), -1], [-1, -(1 << 63)]],               # int64 minimum
    [[-1, -2, -3], [-2, -4, -6], [5, -P, 0]],
    [[P * (1 << 40), 0], [0, -P * (1 << 40)]],
    # Singular; numpy promotes this list to float64, which rounds 2^62 + 700.
    [[3 * ((1 << 62) + 700), -3], [(1 << 62) + 700, -1]],
])
def test_huge_and_negative_entries(mat):
    assert exact_rank(mat) == fraction_rank(mat)


def test_numpy_arrays_of_any_integer_dtype():
    mat = [[1, 2], [3, 4]]
    for dtype in (np.int8, np.int64, np.uint8, np.uint64, bool):
        assert exact_rank(np.array(mat, dtype=dtype)) == fraction_rank(
            np.array(mat, dtype=dtype).tolist())
    # Singular, but full rank mod P if 2^63 wrapped to -2^63 on the way to int64.
    wraps = np.array([[1 << 63, 1 << 62], [2, 1]], dtype=np.uint64)
    assert exact_rank(wraps) == fraction_rank(wraps.tolist()) == 1
    # Singular, but full rank mod P if cast to int32 before it is reduced.
    narrows = np.array([[1 << 32, 2], [1 << 31, 1]], dtype=np.int64)
    assert exact_rank(narrows) == fraction_rank(narrows.tolist()) == 1


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int16, np.int32, np.int64])
def test_residues_of_each_dtype_extreme_stay_exact(dtype):
    # The residues are int32; int32's maximum is P itself, which reduces
    # to zero, and every minimum must be reduced before it is narrowed.
    lo, hi = (False, True) if dtype is bool else (np.iinfo(dtype).min, np.iinfo(dtype).max)
    rng = random.Random(31)
    values = sorted({lo, hi, 0, 1, lo + 1, hi - 1, -1 if lo else 0})
    mats = [[[lo, hi], [hi, lo]], [[lo, lo], [lo, lo]], [[hi, 0], [0, hi]],
            [[lo, hi, 1], [hi, lo, 0], [lo, hi, 1]]]
    mats += [[[rng.choice(values) for _ in range(w)] for _ in range(h)]
             for h, w in [(3, 3), (4, 5), (5, 4), (6, 6)] for _ in range(10)]
    for mat in mats:
        a = np.array(mat, dtype=dtype)
        assert exact_rank(a) == fraction_rank(a.tolist())


def test_up_rank_check_holds_about_five_bytes_a_dense_entry():
    # up_rank_check(13, 6) ranks W over B(12), 792 x 792, not up's 1716 x 1716:
    # an int8 W (1 B) and int32 residues (4 B); int64 copies of both hold 16 B.
    entries = 792 * 792
    tracemalloc.start()
    try:
        assert up_rank_check(13, 6).injective
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * entries


_entries = st.one_of(st.integers(-3, 3), st.sampled_from([P, -P, 2 * P, 1 << 63]),
                     st.integers(-(1 << 70), 1 << 70),
                     st.integers(1 << 53, (1 << 64) - 1))   # float64 rounds these


# Small enough that a product below (at most 5 terms of 3 * 2**58) fits int64.
_int64_entries = st.one_of(st.integers(-3, 3), st.sampled_from([P, -P, 2 * P]),
                           st.integers(-(1 << 58), 1 << 58))


@st.composite
def _matrices(draw, entries=_entries):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(n)] for _ in range(m)]
    # A product through an inner dimension below min(m, n) is rank deficient.
    r = draw(st.integers(0, min(m, n) - 1))
    left = [[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n)]
            for i in range(m)]


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_exact_rank_matches_fraction_rank(mat):
    assert exact_rank(mat) == fraction_rank(mat)
    assert exact_rank([list(col) for col in zip(*mat)]) == fraction_rank(mat)


@settings(max_examples=300, deadline=None)
@given(_matrices(_int64_entries))
def test_exact_rank_of_strided_views(mat):
    # up_rank_check ranks a row-reversed view; every view must be ranked
    # as the matrix it shows, and left as it was.
    a = np.array(mat, dtype=np.int64)
    for view in (a.T, a[::-1], a[:, ::-1]):
        assert exact_rank(view) == fraction_rank(mat)
    assert a.tolist() == mat


def test_up_matrices_match_oracle():
    for n in range(1, 9):
        for k in range(n):
            rows = up_matrix(n, k).matrix.tolist()
            rank = fraction_rank(rows)
            assert exact_rank(rows) == rank
            # up_rank_check ranks W, not up; the oracle ranks up itself.
            assert up_rank_check(n, k).computed_rank == rank


def test_up_rank_check_ranks_w_with_rows_descending(monkeypatch):
    # The order changes no verdict; losing it would show only as seconds lost.
    seen = []
    monkeypatch.setattr(verify, "exact_rank", lambda a: seen.append(a) or exact_rank(a))
    for n, k in [(1, 0), (4, 1), (5, 2), (7, 3), (8, 4), (8, 7)]:
        up_rank_check(n, k)
        assert np.array_equal(seen.pop(), _inclusions(n - 1, k - 1, 2)[2][::-1])


def test_up_rank_check_matches_ranking_up_itself():
    # The split's oracle is the path it replaced: one elimination of up.
    for n in range(1, 13):
        for k in range(n):
            assert up_rank_check(n, k).computed_rank == exact_rank(up_matrix(n, k).matrix)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_rank_makes_one_elimination_a_level(monkeypatch, capsys, n):
    # k = 0 and k = n - 1 rank an empty W, so the call count is n at every n.
    seen = []
    monkeypatch.setattr(verify, "exact_rank", lambda a: seen.append(a.shape) or exact_rank(a))
    assert main(["rank", "--n", str(n), "--jobs", "1"]) == 0
    assert len(seen) == n
    assert 0 in seen[0] and 0 in seen[-1]
    capsys.readouterr()


def test_basis_stacks_match_oracle():
    for n in range(8):
        basis = build_sjb(n)
        for r in range(n + 1):
            rows = _rank_matrix(basis, r)
            assert exact_rank(rows) == fraction_rank(rows.tolist())


@pytest.mark.parametrize("bound, dtype", [
    (127, np.int8), (128, np.int16), (P, np.int32), (1 << 31, np.int64),
    ((1 << 63) - 1, np.int64), (1 << 63, object)])
def test_basis_stack_takes_the_narrowest_dtype(bound, dtype):
    # A diagonal rank-1 stack of n = 3 holding -bound and bound: P itself
    # is deficient modulo P, and int8 holds -128 but not 128.
    basis = JordanBasis(3, [JordanChain(3, 1, [Vector(3, {1 << i: c})])
                            for i, c in enumerate([-bound, bound, 1])])
    stack = _rank_matrix(basis, 1)
    assert stack.dtype == dtype
    assert stack.tolist() == [[-bound, 0, 0], [0, bound, 0], [0, 0, 1]]
    assert exact_rank(stack) == 3


@pytest.mark.parametrize("mat", [
    [[0.5]],
    [[1.0, 2.5], [2.0, 5.0]],                           # truncated, it has rank 2
    [[Fraction(1, 2)]],
    np.array([[1, 0], [0, 1]], dtype=float),
    [[1 << 70, 1], [-1, 0.5]],
])
def test_non_integer_entries_raise_type_error(mat):
    with pytest.raises(TypeError):
        exact_rank(mat)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_array_that_is_not_a_matrix_rejected(shape):
    with pytest.raises(ValueError, match=r"^expected a matrix, got an array of shape"):
        exact_rank(np.ones(shape, dtype=np.int64))


def test_float_array_that_is_not_a_matrix_rejected_before_its_entries():
    # The shape is checked before any entry is converted: no TypeError for 0.5.
    with pytest.raises(ValueError, match=r"^expected a matrix, got an array of shape"):
        exact_rank(np.full((2, 2, 2), 0.5))


@pytest.mark.parametrize("mat", [[], [[], []], np.empty((3, 0))])
def test_empty_float_matrix_has_rank_zero(mat):
    assert np.asarray(mat).dtype == float
    assert exact_rank(mat) == 0


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        exact_rank([[1, 2], [3]])


# 100 x 100 entries of 1,000 digits with two equal rows: deficient modulo every
# prime, and Hadamard's bound asks for about 11,000 primes, each a pass over
# 10,000 big entries, minutes of work.  A child process, since an exact_rank
# without the cap would hold the test that long.
CAP_PROBE = """
import random, time
from sjb.elimination import exact_rank
from sjb.lattice import CapacityError
rng = random.Random(3)
rows = [[10 ** 999 + rng.getrandbits(3000) for _ in range(100)] for _ in range(99)]
start = time.perf_counter()
try:
    exact_rank(rows + rows[:1])
except CapacityError as exc:
    print(f"{time.perf_counter() - start:.2f}", exc)
"""


def test_prime_loop_past_the_cap_is_refused(run_python):
    proc = run_python("-c", CAP_PROBE)
    seconds, message = proc.stdout.split(" ", 1)
    assert float(seconds) < 2.0
    assert re.fullmatch(r"exact rank of a deficient 100x100 matrix has \d+ words over "
                        r"\d+ primes, over the cap of 67108864\n", message)
