"""Jordan basis builder: base cases, the y/z recursion, determinism."""

import hashlib

import pytest

from sjb.jordan import basis_terms, build_sjb, sjb_chains
from sjb.lattice import MAX_ITEMS, CapacityError, binomial, grow, subsets_of_rank
from sjb.operators import embed, lift, up
from sjb.serialize import serialize
from sjb.vectors import Vector

E, A, B, AB = 0b00, 0b01, 0b10, 0b11


def test_base_case_n0():
    basis = build_sjb(0)
    assert len(basis.chains) == 1
    ch = basis.chains[0]
    assert ch.start_rank == 0 and ch.vectors == [Vector(0, {0: 1})]


def test_chain_repr():
    assert repr(build_sjb(3).chains[1]) == "JordanChain(n=3, start_rank=1, length=2)"


def test_n1_single_chain():
    basis = build_sjb(1)
    assert len(basis.chains) == 1
    assert basis.chains[0].vectors == [Vector(1, {0: 1}), Vector(1, {1: 1})]


def test_n2_hand_derived_basis():
    basis = build_sjb(2)
    assert len(basis.chains) == 2
    long, short = basis.chains
    assert long.start_rank == 0
    assert long.vectors == [Vector(2, {E: 1}),
                            Vector(2, {A: 1, B: 1}),
                            Vector(2, {AB: 2})]
    assert short.start_rank == 1
    assert short.vectors == [Vector(2, {B: 1, A: -1})]


def test_n3_hand_derived_basis():
    basis = build_sjb(3)
    got = [(ch.start_rank, ch.vectors) for ch in basis.chains]
    assert got == [
        (0, [Vector(3, {0b000: 1}),
             Vector(3, {0b001: 1, 0b010: 1, 0b100: 1}),
             Vector(3, {0b011: 2, 0b101: 2, 0b110: 2}),
             Vector(3, {0b111: 6})]),
        (1, [Vector(3, {0b100: 2, 0b001: -1, 0b010: -1}),
             Vector(3, {0b101: 1, 0b110: 1, 0b011: -2})]),
        (1, [Vector(3, {0b010: 1, 0b001: -1}),
             Vector(3, {0b110: 1, 0b101: -1})]),
    ]


def extend(chain, n):
    """The y and (for two or more vectors) z children over {1..n+1} of a
    chain over {1..n}, written with embed and lift as the paper states them."""
    k, m = chain.start_rank, n + 1
    zero = Vector(n)

    def x(l):
        return chain.vectors[l - k] if k <= l <= n - k else zero

    ys = [embed(x(l), m) + (l - k) * lift(x(l - 1)) for l in range(k, m - k + 1)]
    children = [(k, ys)]
    if chain.length >= 2:
        zs = [(n - k - l + 1) * lift(x(l - 1)) - embed(x(l), m)
              for l in range(k + 1, n - k + 1)]
        children.append((k + 1, zs))
    return children


@pytest.mark.parametrize("n", range(10))
def test_next_level_is_the_y_z_extension_in_canonical_order(n):
    # Parents in stored order, y before z: the level-by-level oracle.
    want = [child for ch in build_sjb(n).chains for child in extend(ch, n)]
    got = [(ch.start_rank, ch.vectors) for ch in build_sjb(n + 1).chains]
    assert got == want


def test_extension_endpoints():
    # A one-vector middle chain (x,) has only the y child (x, lift(x)); a
    # longer chain's y child ends at (n+1-2k) * lift(top), and its z child
    # ends at lift(second-to-top) - top, which up annihilates.
    for n in range(1, 9):
        for ch in build_sjb(n).chains:
            k, top = ch.start_rank, ch.vectors[-1]
            (_, ys), *rest = extend(ch, n)
            assert ys[0] == embed(ch.vectors[0], n + 1)
            assert ys[-1] == (n + 1 - 2 * k) * lift(top)
            assert up(ys[-1]).is_zero
            if ch.length == 1:
                assert ys == [embed(top, n + 1), lift(top)] and not rest
            else:
                (_, zs), = rest
                assert zs[-1] == lift(ch.vectors[-2]) - embed(top, n + 1)
                assert up(zs[-1]).is_zero


def words(n):
    """The y/z word of each chain over {1..n} with its lengths after 0..n
    letters, in build order: y before z, and z only from two or more members."""
    def walk(word, lengths):
        if len(word) == n:
            yield word, lengths
            return
        yield from walk(word + "y", lengths + [lengths[-1] + 1])
        if lengths[-1] >= 2:
            yield from walk(word + "z", lengths + [lengths[-1] - 1])
    return walk("", [1])


def closed_form(word, lengths, p, mask):
    """The coefficient of `mask` at position p, one factor per element from
    n down to 1; 0 once a position leaves its parent's range."""
    coeff = 1
    for e in range(len(word), 0, -1):
        present, length = mask >> (e - 1) & 1, lengths[e]
        if word[e - 1] == "y" and present:
            coeff, p = coeff * p, p - 1
        elif word[e - 1] == "z":
            coeff, p = (coeff * (length - p), p) if present else (-coeff, p + 1)
        if not 0 <= p < lengths[e - 1]:
            return 0
    return coeff


def test_every_term_is_the_product_read_off_its_word():
    # The paper's recursion in closed form: y gives p when the element is
    # present and 1 when absent, z gives L - p and -1.
    for n in range(10):
        for (word, lengths), ch in zip(words(n), sjb_chains(n), strict=True):
            assert ch.length == lengths[-1]
            for p, v in enumerate(ch.vectors):
                want = {s: c for s in subsets_of_rank(n, ch.start_rank + p)
                        if (c := closed_form(word, lengths, p, s))}
                assert dict(v.items()) == want


# sha256 of serialize(build_sjb(n)), recorded from the level-by-level build.
PINNED_SHA256 = {
    6: "b80ffac8c90aecf25407e2592bd51a2d750c248935176db6e31858adaa15a8e2",
    8: "1a468f31c134ac8614aaf522c568e7693eae6661c56e028c30acac6d1c5428fe",
    10: "625739612d4745d3aa0618f66ada3e604084cb27ee543abc6c5857ee8a277985",
}


@pytest.mark.parametrize("n", sorted(PINNED_SHA256))
def test_documents_match_pinned_hashes(n):
    assert hashlib.sha256(serialize(build_sjb(n))).hexdigest() == PINNED_SHA256[n]


def test_chain_count_per_start_rank():
    for n in range(11):
        basis = build_sjb(n)
        counts = {}
        for ch in basis.chains:
            counts[ch.start_rank] = counts.get(ch.start_rank, 0) + 1
        for k in range(n // 2 + 1):
            expected = binomial(n, k) - binomial(n, k - 1)
            assert counts.get(k, 0) == expected
        assert sum(ch.length for ch in basis.chains) == 2 ** n
        assert len(basis.chains) == binomial(n, n // 2)


def test_all_up_links_hold():
    for n in range(9):
        for ch in build_sjb(n).chains:
            for i in range(ch.length - 1):
                assert up(ch.vectors[i]) == ch.vectors[i + 1]
            assert up(ch.vectors[-1]).is_zero


def test_rebuild_is_bit_reproducible():
    assert serialize(build_sjb(7)) == serialize(build_sjb(7))


def test_capacity_enforced():
    # n = 14 is the largest basis within the work budget; only the walk's
    # first step is taken here, not the 22.1M-term build.
    assert basis_terms(14) == 22_084_920 <= MAX_ITEMS < basis_terms(15) == 82_818_450
    assert next(sjb_chains(14)).length == 15
    with pytest.raises(CapacityError, match="sjb basis for n=15 has 82818450 terms"):
        build_sjb(15)
    # bool is an int subclass: built, its "n" would be written as True, not JSON.
    for n in (64, True, False):
        with pytest.raises(CapacityError, match=f"ground set size must be in 0..63, got {n}$"):
            build_sjb(n)


def test_basis_terms_counts_the_built_basis():
    for n in range(11):
        basis = build_sjb(n)
        assert basis_terms(n) == sum(len(v) for ch in basis.chains for v in ch.vectors)


def test_basis_terms_matches_the_count_recursion():
    # Term counts per vector under the step rules: y_l holds x_l and the lift
    # of x_{l-1}, z_l the lift of x_{l-1} and x_l; no term ever cancels.
    def y(cs, bit):
        return [a + b for a, b in zip(cs + [0], [0] + cs)]

    def z(cs, bit):
        return [a + b for a, b in zip(cs, cs[1:])]

    for n in range(17):
        assert basis_terms(n) == sum(sum(cs) for cs in grow(n, [1], y, z))
