"""Symmetric chain decomposition: partition, symmetry, profile match."""

import hashlib
from collections import Counter

import pytest

from sjb.jordan import build_sjb
from sjb.lattice import CapacityError, binomial
from sjb.scd import ChainDecomposition, SubsetChain, build_scd, chain_length_sequence, scd_chains
from sjb.serialize import serialize


def test_n0_and_n1():
    d0 = build_scd(0)
    assert [ch.subsets for ch in d0.chains] == [[0]]
    d1 = build_scd(1)
    assert [ch.subsets for ch in d1.chains] == [[0b0, 0b1]]


def test_n2_hand_derived():
    d = build_scd(2)
    assert [ch.subsets for ch in d.chains] == [[0b00, 0b01, 0b11], [0b10]]


def test_n3_structure():
    d = build_scd(3)
    assert [ch.start_rank for ch in d.chains] == [0, 1, 1]
    assert sorted(ch.length for ch in d.chains) == [2, 2, 4]
    seen = sorted(s for ch in d.chains for s in ch.subsets)
    assert seen == list(range(8))


def test_partition_up_to_n16():
    for n in range(17):
        d = build_scd(n)
        seen = [s for ch in d.chains for s in ch.subsets]
        assert len(seen) == 2 ** n
        assert len(set(seen)) == 2 ** n


def test_chains_saturated_and_symmetric():
    for n in range(13):
        for ch in build_scd(n).chains:
            for a, b in zip(ch.subsets, ch.subsets[1:]):
                assert a & b == a and b.bit_count() == a.bit_count() + 1
            assert ch.start_rank + ch.top_rank == n


def test_start_rank_counts():
    for n in range(13):
        counts = {}
        for ch in build_scd(n).chains:
            counts[ch.start_rank] = counts.get(ch.start_rank, 0) + 1
        for k in range(n // 2 + 1):
            expected = binomial(n, k) - binomial(n, k - 1)
            assert counts.get(k, 0) == expected
            assert expected >= 0  # unimodality on the lower half


def test_profiles_match_jordan_basis():
    for n in range(11):
        sjb = build_sjb(n)
        scd = build_scd(n)
        assert Counter(chain_length_sequence(sjb)) == Counter(chain_length_sequence(scd))
        # Canonical emission order makes them match chain by chain too.
        assert chain_length_sequence(sjb) == chain_length_sequence(scd)


def test_profile_values_small():
    assert Counter(chain_length_sequence(build_scd(2))) == {(0, 3): 1, (1, 1): 1}
    assert Counter(chain_length_sequence(build_sjb(2))) == {(0, 3): 1, (1, 1): 1}
    assert Counter(chain_length_sequence(build_scd(0))) == {(0, 1): 1}


def test_determinism():
    a = build_scd(9)
    b = build_scd(9)
    assert [ch.subsets for ch in a.chains] == [ch.subsets for ch in b.chains]


def test_capacity_enforced():
    # 2**26 subsets fill the work budget exactly; only a first chain is made here.
    assert next(scd_chains(26)).length == 27
    with pytest.raises(CapacityError, match="scd decomposition for n=27 has 134217728 subsets"):
        build_scd(27)
    for n in (64, True, False):
        with pytest.raises(CapacityError, match=f"ground set size must be in 0..63, got {n}$"):
            scd_chains(n)


def test_chain_properties():
    ch = SubsetChain(3, [0b010, 0b110])
    assert ch.start_rank == 1 and ch.top_rank == 2 and ch.length == 2
    d = ChainDecomposition(3, [ch])
    assert sum(ch.length for ch in d.chains) == 2


# sha256 of serialize(build_scd(n)), recorded from the level-by-level build.
PINNED_SHA256 = {
    8: "d250d7b321b2be7aaa3fdda1c488dd494e3e4ed9dc85ed063e49db8687b7e140",
    12: "585e4f832f03ac70455c79479aa313c1c3792f335b73dd1817e265b2539b65a7",
    16: "af7ce698f6871a3c72f7b6495d32b0d85b54e19b038b4824d8c58b1141f5a15a",
}


@pytest.mark.parametrize("n", sorted(PINNED_SHA256))
def test_documents_match_pinned_hashes(n):
    assert hashlib.sha256(serialize(build_scd(n))).hexdigest() == PINNED_SHA256[n]
