"""Up/down operators, lift, and the matrix form."""

import random
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sjb import operators
from sjb.lattice import MAX_ITEMS, CapacityError, binomial, covers_of, subsets_of_rank
from sjb.operators import (TABLE_MAX_N, UpMatrix, _up_sparse, check_up_matrix_size, down,
                           embed, lift, up, up_matrix)
from sjb.vectors import Vector

E, A, B, AB = 0b00, 0b01, 0b10, 0b11


def random_vector(n, rng, size=6, bound=9):
    terms = {rng.randrange(1 << n): rng.randint(-bound, bound) for _ in range(size)}
    return Vector(n, terms)


def test_up_hand_values():
    assert up(Vector(2, {E: 1})) == Vector(2, {A: 1, B: 1})
    assert up(Vector(2, {AB: 1})).is_zero
    # up({2}-{1}) = {1,2} - {1,2} = 0
    assert up(Vector(2, {B: 1, A: -1})).is_zero


def test_down_hand_values():
    assert down(Vector(2, {AB: 1})) == Vector(2, {A: 1, B: 1})
    assert down(Vector(2, {E: 1})).is_zero
    assert down(Vector(2, {A: 1, B: 1})) == Vector(2, {E: 2})


def test_lift_hand_values():
    assert lift(Vector(2, {A: 1, B: 1})) == Vector(3, {0b101: 1, 0b110: 1})
    assert lift(Vector(0, {0: 1})) == Vector(1, {1: 1})
    assert lift(Vector(2)).is_zero


def test_embed_requires_growth():
    v = Vector(2, {A: 1})
    w = embed(v, 4)
    assert w.n == 4 and w.items() == v.items()
    with pytest.raises(ValueError):
        embed(w, 2)


def test_up_raises_rank_down_lowers():
    rng = random.Random(1)
    for n in range(1, 9):
        for r in range(n + 1):
            masks = subsets_of_rank(n, r)
            v = Vector(n, {m: rng.randint(1, 5) for m in rng.sample(masks, min(3, len(masks)))})
            uv = up(v)
            if not uv.is_zero:
                assert uv.ranks == {r + 1}
            dv = down(v)
            if not dv.is_zero:
                assert dv.ranks == {r - 1}


def test_adjointness_randomized():
    rng = random.Random(42)
    for n in range(11):
        for _ in range(20):
            a = random_vector(n, rng)
            b = random_vector(n, rng)
            assert up(a).dot(b) == a.dot(down(b))


@given(st.integers(0, 7), st.data())
def test_up_recurrence_on_ground_extension(n, data):
    # Adding a ground element splits the operator: on the old half it is
    # the old operator plus the lift; on the lifted half it commutes with
    # the lift.
    terms = data.draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                      st.integers(-9, 9), max_size=10))
    v = Vector(n, terms)
    assert up(embed(v, n + 1)) == embed(up(v), n + 1) + lift(v)
    assert up(lift(v)) == lift(up(v))


def up_by_covers(v):
    """Reference up: one Vector term per cover, summed by the constructor."""
    return Vector(v.n, [(cover, c) for mask, c in v.items()
                        for cover in covers_of(mask, v.n)])


@settings(max_examples=200)
@given(st.integers(0, 8), st.data())
def test_up_matches_covers_reference(n, data):
    terms = data.draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                      st.integers(-(1 << 70), 1 << 70), max_size=12))
    v = Vector(n, terms)
    assert up(v) == up_by_covers(v)


COEFFS = st.integers(-3, 3) | st.integers(-(1 << 70), 1 << 70)
ABOVE_TABLE = st.integers(TABLE_MAX_N + 1, 63)


@st.composite
def table_vectors(draw, sizes=st.integers(0, TABLE_MAX_N)):
    """Vectors over n drawn from sizes (by default n <= TABLE_MAX_N): on one
    rank or mixed, with small or past-int64 coefficients of either sign, and
    pairs whose ups cancel."""
    n = draw(sizes)
    masks = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        r = draw(st.integers(0, n))
        masks = st.sets(st.integers(0, max(n - 1, 0)), min_size=r, max_size=r).map(
            lambda elements: sum(1 << e for e in elements))
    terms = draw(st.dictionaries(masks, COEFFS, max_size=12))
    if n >= 2 and draw(st.booleans()):
        # S+i and S+j both cover S+i+j, where c and -c cancel.
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rest = draw(masks) & ~(1 << i | 1 << j)
        c = draw(COEFFS)
        terms.update({rest | 1 << i: c, rest | 1 << j: -c})
    return Vector(n, terms)


@settings(max_examples=300)
@given(table_vectors())
@example(Vector(0))
@example(Vector(0, {0: 5}))
@example(Vector(TABLE_MAX_N))
@example(Vector(TABLE_MAX_N, {(1 << TABLE_MAX_N) - 1: -(1 << 64), 0: 1}))
@example(Vector(3, {0b001: 1, 0b010: -1}))  # up cancels at {1,2} only
@example(Vector(2, {0b01: 1, 0b10: -1}))  # up cancels to zero
def test_table_up_matches_sparse_loop(v):
    w = up(v)
    assert w == _up_sparse(v) == up_by_covers(v)
    assert all(w._terms.values())
    # Levels are read in rank order, each in ascending mask order.
    assert list(w._terms) == sorted(w._terms, key=lambda m: (m.bit_count(), m))


@settings(max_examples=200)
@given(table_vectors(ABOVE_TABLE))
@example(Vector(TABLE_MAX_N + 1))
@example(Vector(63))
@example(Vector(63, {(1 << 63) - 1: 1 << 65, 0: -(1 << 65)}))
@example(Vector(TABLE_MAX_N + 1, {0b001: 1, 0b010: -1}))  # up cancels at {1,2} only
@example(Vector(63, {1 << 62 | 0b01: 1 << 64, 1 << 62 | 0b10: -(1 << 64)}))
def test_up_above_table_matches_covers_reference(v):
    # Only hand-written documents take up past the table, through _up_sparse.
    w = up(v)
    assert w == up_by_covers(v)
    assert all(w._terms.values())


@settings(max_examples=100)
@given(table_vectors(ABOVE_TABLE), st.data())
def test_up_above_table_is_adjoint_to_down(u, data):
    # w is drawn partly on covers of u's subsets, so the two sides share terms.
    masks = st.integers(0, (1 << u.n) - 1)
    covers = [cover for mask, _ in u.items() for cover in covers_of(mask, u.n)]
    if covers:
        masks = masks | st.sampled_from(covers)
    w = Vector(u.n, data.draw(st.dictionaries(masks, COEFFS, max_size=12)))
    assert up(u).dot(w) == u.dot(down(w))


@pytest.mark.parametrize("n, tabulated", [(14, True), (15, False)])
def test_table_bound(n, tabulated):
    v = Vector(n, {0: 1, 0b101: -2, (1 << n) - 1: 3, (1 << n) - 2: 1 << 65})
    assert up(v) == up_by_covers(v)
    assert (n in operators._tables) == tabulated


def test_cover_table_is_built_once_per_n(monkeypatch):
    calls = []
    monkeypatch.setattr(operators, "_tables", {})
    monkeypatch.setattr(operators, "covers_of", lambda m, n: calls.append(m) or covers_of(m, n))
    first = up(Vector(6, {0b11: 1}))
    table = operators._tables[6]
    assert len(calls) == 64
    assert up(Vector(6, {0b11: 1})) == first and operators._tables[6] is table
    assert len(calls) == 64


def test_import_builds_no_cover_table(run_python):
    proc = run_python("-c", "import sjb.cli, sjb.operators as o; print(o._tables)")
    assert proc.stdout == "{}\n"


def test_down_stores_no_cancelled_sums():
    # down({1}) and down({2}) both give {}, where the sum cancels.
    assert down(Vector(2, {A: 1, B: -1})).items() == []


def test_up_stores_no_cancelled_sums():
    # up({1,2}) and up({1,3}) meet at {1,2,3} and cancel there; equality
    # compares the stored terms, so a kept zero would fail it.
    assert up(Vector(3, {E: 1, 0b011: 1, 0b101: -1})) == Vector(
        3, {0b001: 1, 0b010: 1, 0b100: 1})


def test_lift_is_norm_preserving_injection():
    rng = random.Random(3)
    for n in range(8):
        a = random_vector(n, rng)
        b = random_vector(n, rng)
        assert lift(a).dot(lift(b)) == a.dot(b)
        if not a.is_zero:
            assert not lift(a).is_zero


def test_up_matrix_tiny():
    m = up_matrix(2, 0)
    assert m.matrix.tolist() == [[1], [1]]
    assert m.col_basis == [E] and m.row_basis == [A, B]
    m = up_matrix(2, 1)
    assert m.matrix.tolist() == [[1, 1]]


def test_up_matrix_row_and_column_sums():
    for n in range(1, 11):
        for k in range(n):
            m = up_matrix(n, k)
            rows, cols = m.matrix.shape
            assert rows == binomial(n, k + 1) and cols == binomial(n, k)
            matrix = m.matrix.tolist()
            for row in matrix:
                assert sum(row) == k + 1
            for j in range(cols):
                assert sum(row[j] for row in matrix) == n - k


def _up_rows_by_covers(n, k):
    # Reference: fill each column's covers one Python int at a time.
    col_basis = subsets_of_rank(n, k)
    row_index = {mask: i for i, mask in enumerate(subsets_of_rank(n, k + 1))}
    rows = [[0] * len(col_basis) for _ in row_index]
    for j, mask in enumerate(col_basis):
        for cover in covers_of(mask, n):
            rows[row_index[cover]][j] = 1
    return rows


@pytest.mark.parametrize("sizes", [
    [(n, k) for n in range(1, 11) for k in range(n)],
    [(63, 0), (63, 62), (62, 1), (62, 60)],   # masks using bit 62, the highest a subset sets
], ids=["n<=10", "word-edge"])
def test_up_matrix_matches_covers_oracle(sizes):
    for n, k in sizes:
        m = up_matrix(n, k)
        assert m.matrix.dtype == np.int8
        assert m.row_basis == subsets_of_rank(n, k + 1)
        assert m.col_basis == subsets_of_rank(n, k)
        assert m.matrix.tolist() == _up_rows_by_covers(n, k)


@pytest.mark.parametrize("n", range(10))
def test_two_step_inclusions(n):
    # W's entries are containments, and W = U_{k+1} U_k / 2: each (k+2)-set
    # covers a k-set through two (k+1)-sets.  A rank outside 0..n is empty.
    for k in range(-1, n + 1):
        rows, cols, w = operators._inclusions(n, k, 2)
        assert w.dtype == np.int8 and w.shape == (len(rows), len(cols))
        assert rows == (subsets_of_rank(n, k + 2) if k + 2 <= n else [])
        assert cols == (subsets_of_rank(n, k) if k >= 0 else [])
        assert w.tolist() == [[int(x & y == x) for x in cols] for y in rows]
        if 0 <= k <= n - 2:
            two_steps = up_matrix(n, k + 1).matrix.astype(int) @ up_matrix(n, k).matrix
            assert np.array_equal(two_steps, 2 * w)


def test_up_matrix_entries_are_containments():
    m = up_matrix(4, 1)
    rows = m.matrix.tolist()
    for i, y in enumerate(m.row_basis):
        for j, x in enumerate(m.col_basis):
            expected = 1 if (x & y == x and y.bit_count() == 2) else 0
            assert rows[i][j] == expected


def test_up_matrix_agrees_with_operator():
    for n in range(1, 7):
        for k in range(n):
            m = up_matrix(n, k)
            rows = m.matrix.tolist()
            for j, x in enumerate(m.col_basis):
                image = up(Vector(n, {x: 1}))
                col = {m.row_basis[i]: row[j] for i, row in enumerate(rows) if row[j]}
                assert col == dict(image.items())


def test_up_matrix_type_hints_resolve():
    # numpy is imported inside up_matrix, so the annotation must not need it.
    hints = typing.get_type_hints(UpMatrix)
    assert list(hints) == ["n", "k", "row_basis", "col_basis", "matrix"]


def test_up_matrix_range_errors():
    with pytest.raises(ValueError):
        up_matrix(3, 3)
    with pytest.raises(ValueError):
        up_matrix(3, -1)


def test_up_matrix_cap_admits_n_up_to_14():
    for n in range(1, 15):
        for k in range(n):
            check_up_matrix_size(n, k)
    assert binomial(14, 7) * binomial(14, 6) <= MAX_ITEMS


def test_up_matrix_over_cap_raises_before_allocating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated subsets of an over-cap matrix")

    monkeypatch.setattr("sjb.operators.subsets_of_rank", no_enumeration)
    with pytest.raises(CapacityError, match="over the cap"):
        up_matrix(24, 12)
    with pytest.raises(CapacityError):
        up_matrix(40, 20)
