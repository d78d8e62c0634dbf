"""Lattice core: counts, enumeration order, covers."""

import pytest

from sjb.lattice import (CapacityError, binomial, chains_starting, check_ground_size,
                         covered_by, covers_of, elements_to_mask, ground_cap,
                         mask_to_elements, rank_of, subset_str,
                         subsets_of_rank)


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
                      if mask & y == mask and rank_of(y) == rank_of(mask) + 1]
            assert covers_of(mask, n) == oracle


def test_covers_count_is_corank_exhaustive():
    for n in range(13):
        for mask in range(1 << n):
            assert len(covers_of(mask, n)) == n - rank_of(mask)


def test_covered_by_matches_direct_subset_check():
    for n in range(7):
        for mask in range(1 << n):
            oracle = [y for y in range(1 << n)
                      if mask & y == y and rank_of(y) == rank_of(mask) - 1]
            assert covered_by(mask) == oracle


def test_mask_element_round_trip():
    for mask in range(1 << 6):
        elems = mask_to_elements(mask)
        assert elements_to_mask(elems, 6) == mask
        assert list(elems) == sorted(elems)


def test_elements_to_mask_rejects_bad_input():
    with pytest.raises(ValueError):
        elements_to_mask([0], 3)
    with pytest.raises(ValueError):
        elements_to_mask([4], 3)
    with pytest.raises(ValueError):
        elements_to_mask([1, 1], 3)


def test_subset_str():
    assert subset_str(0) == "{}"
    assert subset_str(0b101) == "{1,3}"


def test_ground_size_cap(monkeypatch):
    assert check_ground_size(0) == 0
    assert check_ground_size(24) == 24
    with pytest.raises(CapacityError):
        check_ground_size(25)
    with pytest.raises(CapacityError):
        check_ground_size(-1)
    assert check_ground_size(25, cap=30) == 25
    monkeypatch.setenv("SJB_N_CAP", "10")
    assert ground_cap() == 10
    with pytest.raises(CapacityError):
        check_ground_size(11)
    monkeypatch.setenv("SJB_N_CAP", "banana")
    with pytest.raises(CapacityError):
        ground_cap()
    monkeypatch.setenv("SJB_N_CAP", "99")
    with pytest.raises(CapacityError):
        ground_cap()
