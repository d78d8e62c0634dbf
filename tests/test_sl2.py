"""The sl(2) structure of the built basis (Proctor 1982).

On rank r, down(up(x)) - up(down(x)) = (n - 2r) x.  Each chain's start
vector v at rank k has down(v) = 0, so the chain is v, Uv, ..., U^(n-2k) v
and its squared norms follow in closed form; start vectors sharing a start
rank are orthogonal.  These facts are what an sl(2) certificate would rest on.
"""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sjb.jordan import JordanChain, sjb_chains
from sjb.operators import down, up
from sjb.scd import scd_chains
from sjb.vectors import Vector
from sjb.verify import ratio_profile


@functools.cache
def chains(n: int) -> tuple[JordanChain, ...]:
    return tuple(sjb_chains(n))


def test_ratios_have_the_closed_form():
    # ||U^(j+1) v||^2 = (j + 1)(n - 2k - j) ||U^j v||^2 when down(v) = 0.
    seen = 0
    for n in range(11):
        for ch in chains(n):
            k = ch.start_rank
            assert ratio_profile(ch) == [(j + 1) * (n - 2 * k - j)
                                         for j in range(ch.length - 1)]
            seen += 1
    assert seen == 526


def test_start_vectors_are_lowest_weight():
    for n in range(11):
        for ch in chains(n):
            assert down(ch.vectors[0]).is_zero


def test_start_vectors_of_one_start_rank_are_orthogonal():
    pairs = 0
    for n in range(11):
        starts = {}
        for ch in chains(n):
            starts.setdefault(ch.start_rank, []).append(ch.vectors[0])
        for vs in starts.values():
            assert all(v.norm_sq() > 0 for v in vs)
            for v, w in itertools.combinations(vs, 2):
                assert v.dot(w) == 0
                pairs += 1
    assert pairs == 11_594


def test_each_vector_holds_the_scd_subset_at_its_place():
    # The two recursions give their chains in the same order and shapes.
    vectors = 0
    for n in range(10):
        for ch, sch in zip(chains(n), scd_chains(n), strict=True):
            assert (ch.start_rank, ch.length) == (sch.start_rank, sch.length)
            for v, mask in zip(ch.vectors, sch.subsets):
                assert v.coeff(mask) != 0
                vectors += 1
    assert vectors == 1023


@st.composite
def rank_k_combinations(draw):
    """(n, k, v, lower): v an integer combination at rank k of the start
    vectors of start rank k and, with coefficients lower, of the rank-k
    vectors of chains that start below k."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, n // 2))
    starts = [ch.vectors[0] for ch in chains(n) if ch.start_rank == k]
    below = [ch.vectors[k - ch.start_rank] for ch in chains(n) if ch.start_rank < k]
    coeffs = st.integers(-3, 3)
    upper = draw(st.lists(coeffs, min_size=len(starts), max_size=len(starts)))
    lower = draw(st.one_of(st.just([0] * len(below)),
                           st.lists(coeffs, min_size=len(below), max_size=len(below))))
    v = Vector(n)
    for c, w in zip(upper + lower, starts + below):
        v = v + c * w
    return n, k, v, lower


@settings(max_examples=200, deadline=None)
@given(rank_k_combinations())
def test_kernel_of_up_power_is_the_lowest_weight_space(case):
    # U^m, m = n - 2k + 1, is injective from rank k - 1 (Proctor), so at
    # rank k its kernel is the kernel of down: the span of the start vectors.
    n, k, v, lower = case
    image = v
    for _ in range(n - 2 * k + 1):
        image = up(image)
    assert image.is_zero == down(v).is_zero == (not any(lower))
