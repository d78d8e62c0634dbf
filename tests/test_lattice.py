"""Lattice core: counts, enumeration order, covers."""

import pytest

from sjb.lattice import (MAX_ITEMS, CapacityError, binomial, chains_starting,
                         check_ground_size, check_items, covered_by, covers_of,
                         grow, mask_to_elements, subset_str, subsets_of_rank)
from sjb.serialize import _parse_subset


def pascal_table(n_max):
    # Independent oracle: Pascal's triangle by the additive recurrence.
    table = [[1]]
    for n in range(1, n_max + 1):
        prev = table[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        table.append(row)
    return table


def brute_subsets_of_rank(n, k):
    return [m for m in range(1 << n) if bin(m).count("1") == k]


def test_binomial_small_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(10, 5) == 252


def test_binomial_outside_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_pascal_recurrence():
    table = pascal_table(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == table[n][k]


def test_pascal_identity():
    for n in range(1, 31):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_chains_starting():
    assert [chains_starting(4, k) for k in range(-1, 6)] == [0, 1, 3, 2, 0, 0, 0]
    for n in range(12):
        # Every chain starts somewhere, and a chain starting at k holds one
        # subset of each rank k..n-k.
        assert sum(chains_starting(n, k) for k in range(n + 1)) == binomial(n, n // 2)
        assert sum(chains_starting(n, k) * (n - 2 * k + 1)
                   for k in range(n // 2 + 1)) == 2 ** n


def test_subsets_of_rank_tiny():
    assert subsets_of_rank(2, 1) == [0b01, 0b10]
    assert subsets_of_rank(3, 0) == [0]
    assert subsets_of_rank(4, 2) == brute_subsets_of_rank(4, 2)


def test_subsets_of_rank_matches_brute_force():
    for n in range(9):
        for k in range(n + 1):
            got = subsets_of_rank(n, k)
            assert got == brute_subsets_of_rank(n, k)
            assert got == sorted(got)


def test_subsets_of_rank_counts_cover_powerset():
    for n in range(17):
        assert sum(len(subsets_of_rank(n, k)) for k in range(n + 1)) == 2 ** n


def test_subsets_of_rank_rejects_bad_rank():
    with pytest.raises(ValueError):
        subsets_of_rank(3, 4)
    with pytest.raises(ValueError):
        subsets_of_rank(3, -1)


def test_enumeration_is_deterministic():
    assert subsets_of_rank(10, 4) == subsets_of_rank(10, 4)
    assert covers_of(0b0101, 5) == covers_of(0b0101, 5)


def test_covers_of_examples():
    assert covers_of(0, 3) == [0b001, 0b010, 0b100]
    assert covers_of(0b11, 2) == []
    assert covers_of(0b010, 3) == [0b011, 0b110]


def test_covers_of_matches_direct_superset_check():
    for n in range(7):
        for mask in range(1 << n):
            oracle = [y for y in range(1 << n)
                      if mask & y == mask and y.bit_count() == mask.bit_count() + 1]
            assert covers_of(mask, n) == oracle


def test_covers_count_is_corank_exhaustive():
    for n in range(13):
        for mask in range(1 << n):
            assert len(covers_of(mask, n)) == n - mask.bit_count()


def test_covered_by_matches_direct_subset_check():
    for n in range(7):
        for mask in range(1 << n):
            oracle = [y for y in range(1 << n)
                      if mask & y == y and y.bit_count() == mask.bit_count() - 1]
            assert covered_by(mask) == oracle


def test_mask_element_round_trip():
    # serialize._parse_subset is the one reader of an element list.
    for mask in range(1 << 6):
        elems = mask_to_elements(mask)
        assert _parse_subset(list(elems), 6) == mask
        assert list(elems) == sorted(elems)


def test_subset_str():
    assert subset_str(0) == "{}"
    assert subset_str(0b101) == "{1,3}"


def test_ground_size_cap():
    # Masks must fit a machine word; the work budget decides the rest.
    assert check_ground_size(0) == 0
    assert check_ground_size(63) == 63
    for n in (-1, 64, "3", 3.0, True, False):
        with pytest.raises(CapacityError, match=f"must be in 0..63, got {n!r}$"):
            check_ground_size(n)


def test_work_budget():
    assert MAX_ITEMS == 2 ** 26
    check_items(MAX_ITEMS, "entries", "x")
    with pytest.raises(CapacityError) as exc:
        check_items(MAX_ITEMS + 1, "terms", "a basis")
    assert str(exc.value) == "a basis has 67108865 terms, over the cap of 67108864"


def _recording_rules(calls):
    def y(ch, bit):
        calls.append(("y", bit))
        return ch + [ch[-1] | bit]

    def z(ch, bit):
        calls.append(("z", bit))
        return [s | bit for s in ch[:-1]]
    return y, z


def test_grow_walks_depth_first_y_before_z():
    calls = []
    walk = grow(3, [0], *_recording_rules(calls))
    assert calls == []  # lazy: nothing is grown before the first chain is asked for
    assert next(walk) == [0b000, 0b001, 0b011, 0b111]
    assert calls == [("y", 1), ("y", 2), ("y", 4)]
    # The z child is grown only after the y child's whole subtree is out,
    # and a one-member chain ([0] at the root, [2] at the end) gets no z child.
    assert list(walk) == [[0b100, 0b101], [0b010, 0b110]]
    assert calls == [("y", 1), ("y", 2), ("y", 4), ("z", 4), ("z", 2), ("y", 4)]


def test_grow_at_n0_yields_the_start_chain_only():
    calls = []
    assert list(grow(0, [0], *_recording_rules(calls))) == [[0]]
    assert calls == []


def test_grow_leaf_count_is_the_middle_binomial():
    for n in range(11):
        leaves = sum(1 for _ in grow(n, [0], *_recording_rules([])))
        assert leaves == binomial(n, n // 2)
