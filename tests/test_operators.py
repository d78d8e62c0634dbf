"""Up/down operators, lift, and the matrix form."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjb.lattice import CapacityError, binomial, covers_of, rank_of, subsets_of_rank
from sjb.operators import (UP_MATRIX_MAX_ENTRIES, check_up_matrix_size, down, embed,
                           lift, up, up_matrix)
from sjb.vectors import Vector, homogeneous_rank

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
    assert lift(Vector.zero(2)).is_zero


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
                assert homogeneous_rank(uv) == r + 1
            dv = down(v)
            if not dv.is_zero:
                assert homogeneous_rank(dv) == r - 1


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
    assert m.rows == [[1], [1]]
    assert m.col_basis == [E] and m.row_basis == [A, B]
    m = up_matrix(2, 1)
    assert m.rows == [[1, 1]]


def test_up_matrix_row_and_column_sums():
    for n in range(1, 11):
        for k in range(n):
            m = up_matrix(n, k)
            rows, cols = m.shape
            assert rows == binomial(n, k + 1) and cols == binomial(n, k)
            for row in m.rows:
                assert sum(row) == k + 1
            for j in range(cols):
                assert sum(row[j] for row in m.rows) == n - k


def test_up_matrix_entries_are_containments():
    m = up_matrix(4, 1)
    for i, y in enumerate(m.row_basis):
        for j, x in enumerate(m.col_basis):
            expected = 1 if (x & y == x and rank_of(y) == 2) else 0
            assert m.rows[i][j] == expected


def test_up_matrix_agrees_with_operator():
    for n in range(1, 7):
        for k in range(n):
            m = up_matrix(n, k)
            for j, x in enumerate(m.col_basis):
                image = up(Vector.unit(n, x))
                col = {m.row_basis[i]: row[j] for i, row in enumerate(m.rows) if row[j]}
                assert col == dict(image.items())


def test_up_matrix_range_errors():
    with pytest.raises(ValueError):
        up_matrix(3, 3)
    with pytest.raises(ValueError):
        up_matrix(3, -1)


def test_up_matrix_cap_admits_n_up_to_14():
    for n in range(1, 15):
        for k in range(n):
            check_up_matrix_size(n, k)
    assert binomial(14, 7) * binomial(14, 6) <= UP_MATRIX_MAX_ENTRIES


def test_up_matrix_over_cap_raises_before_allocating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated subsets of an over-cap matrix")

    monkeypatch.setattr("sjb.operators.subsets_of_rank", no_enumeration)
    with pytest.raises(CapacityError, match="over the cap"):
        up_matrix(24, 12)
    with pytest.raises(CapacityError):
        up_matrix(40, 20)
