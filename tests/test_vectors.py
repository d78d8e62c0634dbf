"""Exact sparse vectors: arithmetic, inner products, homogeneity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjb.lattice import subsets_of_rank
from sjb.vectors import GroundSetMismatchError, Vector

E = 0b000  # {}
A = 0b001  # {1}
B = 0b010  # {2}
AB = 0b011  # {1,2}


@st.composite
def vectors(draw, n=None):
    if n is None:
        n = draw(st.integers(0, 12))
    terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                 st.integers(-9, 9), max_size=12))
    return Vector(n, terms)


def test_add_cancellation():
    a = Vector(2, {A: 1, B: 1})
    b = Vector(2, {B: 1, A: -1})
    assert a + b == Vector(2, {B: 2})


def test_add_identity_and_doubling():
    v = Vector(2, {A: 3, AB: -1})
    assert v + Vector(2) == v
    assert Vector(2, {A: 1}) + Vector(2, {A: 1}) == Vector(2, {A: 2})


def test_scale():
    v = Vector(2, {A: 1, B: 1})
    assert 2 * v == Vector(2, {A: 2, B: 2})
    assert v * 0 == Vector(2)
    assert -1 * Vector(2, {B: 1, A: -1}) == Vector(2, {A: 1, B: -1})


def test_inner_product_hand_values():
    # <{1}+{2}, {2}-{1}> = 1*(-1) + 1*1 = 0
    assert Vector(2, {A: 1, B: 1}).dot(Vector(2, {B: 1, A: -1})) == 0
    v = Vector(2, {AB: 2})
    assert v.dot(v) == 4
    assert Vector(2, {E: 1}).dot(Vector(2, {A: 1})) == 0


def test_non_vector_operands():
    v = Vector(2, {A: 1})
    assert (v == 5) is False
    for op in (lambda: v + 1, lambda: v - 1, lambda: v * 1.5):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError, match="^expected Vector, got int$"):
        v.dot(5)


def test_equal_vectors_hash_equal():
    assert hash(Vector(2, {A: 1, B: -2})) == hash(Vector(2, {B: -2, A: 1}))


def test_mismatched_ground_sets_rejected():
    with pytest.raises(GroundSetMismatchError):
        Vector(2, {A: 1}) + Vector(3, {A: 1})
    with pytest.raises(GroundSetMismatchError):
        Vector(2, {A: 1}).dot(Vector(3, {A: 1}))


def test_construction_rejects_foreign_masks():
    with pytest.raises(ValueError):
        Vector(2, {0b100: 1})


@pytest.mark.parametrize("terms", [{A: 0.5}, {A: 1.0}, {A: Fraction(1, 2)}, {A: Fraction(2)},
                                   {1.0: 1}, {"1": 1}, {A: "1"}])
def test_construction_rejects_non_integers(terms):
    with pytest.raises(TypeError):
        Vector(2, terms)


def test_construction_stores_bools_as_ints():
    v = Vector(2, {True: True, False: -1})
    assert v == Vector(2, {A: 1, E: -1})
    assert {type(x) for term in v.items() for x in term} == {int}


def test_construction_prunes_and_merges():
    assert Vector(2, [(A, 2), (A, -2)]).is_zero
    assert Vector(2, [(A, 2), (A, 3)]) == Vector(2, {A: 5})
    assert len(Vector(2, {A: 0, B: 1})) == 1


def test_ranks():
    assert Vector(2, {A: 1, B: 1}).ranks == {1}
    assert Vector(2).ranks == set()
    assert Vector(2, {E: 1, A: 1}).ranks == {0, 1}


@st.composite
def homogeneous_vectors(draw):
    n = draw(st.integers(0, 12))
    masks = subsets_of_rank(n, draw(st.integers(0, n)))
    terms = draw(st.dictionaries(st.sampled_from(masks), st.integers(1, 9), max_size=12))
    return Vector(n, terms)


@settings(max_examples=300, deadline=None)
@given(st.one_of(homogeneous_vectors(), vectors()))
def test_ranks_match_bit_count_oracle(v):
    assert v.ranks == {m.bit_count() for m, _ in v.items()}


def test_items_sorted_by_mask():
    v = Vector(2, {AB: 3, E: 1, B: -2})
    assert v.items() == [(E, 1), (B, -2), (AB, 3)]
    assert [m for m, _ in v.items()] == [E, B, AB]


def test_str_rendering():
    assert str(Vector(2)) == "0"
    assert str(Vector(2, {A: -1, B: 1})) == "-{1} + {2}"
    assert str(Vector(2, {AB: 2})) == "2*{1,2}"


@given(st.integers(0, 12), st.data())
def test_inner_product_symmetric_bilinear(n, data):
    a = data.draw(vectors(n=n))
    b = data.draw(vectors(n=n))
    c = data.draw(vectors(n=n))
    assert a.dot(b) == b.dot(a)
    assert (a + b).dot(c) == a.dot(c) + b.dot(c)


@given(vectors())
def test_inner_product_positive_definite(v):
    ns = v.dot(v)
    assert ns >= 0
    assert (ns == 0) == v.is_zero
    assert ns == v.norm_sq()


@given(vectors(n=5), vectors(n=5), st.integers(-6, 6))
def test_no_stored_zeros_after_arithmetic(a, b, c):
    for v in (a + b, a - b, c * a, -b):
        assert all(coeff != 0 for _, coeff in v.items())


@settings(max_examples=40)
@given(st.integers(1, 7), st.data())
def test_distinct_rank_homogeneous_vectors_orthogonal(n, data):
    ranks = data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2,
                               unique=True))
    vs = []
    for r in ranks:
        masks = subsets_of_rank(n, r)
        terms = data.draw(st.dictionaries(st.sampled_from(masks),
                                          st.integers(-5, 5), min_size=1))
        vs.append(Vector(n, terms))
    assert vs[0].dot(vs[1]) == 0


def generator_dot(a: Vector, b: Vector) -> int:
    """The inner product as a generator over the smaller support."""
    x, y = a._terms, b._terms
    if len(y) < len(x):
        x, y = y, x
    return sum(c * y[m] for m, c in x.items() if m in y)


BIG = st.integers(-(1 << 80), 1 << 80).filter(bool)  # past 2^64 either way


@st.composite
def dot_pairs(draw):
    n = draw(st.integers(0, 10))
    masks = st.integers(0, (1 << n) - 1)
    a = draw(st.dictionaries(masks, BIG, max_size=20))
    b = draw(st.dictionaries(masks, BIG, max_size=20))
    support = draw(st.sampled_from(["any", "disjoint", "identical"]))
    if support == "disjoint":
        b = {m: c for m, c in b.items() if m not in a}
    elif support == "identical":
        b = {m: draw(BIG) for m in a}
    return Vector(n, a), Vector(n, b)


@settings(max_examples=300)
@given(dot_pairs())
def test_dot_matches_generator_formula(pair):
    a, b = pair
    assert a.dot(b) == generator_dot(a, b) == b.dot(a)
