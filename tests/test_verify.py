"""Verifier: chain/basis validity, orthogonality, ratios, rank results."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjb.jordan import JordanBasis, JordanChain, build_sjb
from sjb.lattice import binomial
from sjb.scd import ChainDecomposition, SubsetChain, build_scd
from sjb.vectors import Vector
from sjb.verify import (InvalidChainError, check_orthogonality,
                        check_ratio_uniformity, ratio_profile,
                        unimodality_report, up_rank_check, verify_scd,
                        verify_sjb, verify_sjc)

E, A, B, AB = 0b00, 0b01, 0b10, 0b11


def chain_n2_long():
    return JordanChain(2, 0, [Vector(2, {E: 1}), Vector(2, {A: 1, B: 1}),
                              Vector(2, {AB: 2})])


def chain_n2_short():
    return JordanChain(2, 1, [Vector(2, {B: 1, A: -1})])


def test_verify_sjc_passes_good_chains():
    assert verify_sjc(chain_n2_long()).overall
    assert verify_sjc(chain_n2_short()).overall


def test_verify_sjc_flags_rank_asymmetry():
    bad = JordanChain(2, 0, [Vector(2, {E: 1}), Vector(2, {A: 1, B: 1})])
    report = verify_sjc(bad)
    assert not report.overall
    assert any(c.name == "rank_symmetry" and not c.passed for c in report.checks)


def test_verify_sjc_flags_broken_link():
    bad = JordanChain(2, 0, [Vector(2, {E: 1}), Vector(2, {A: 1, B: 2}),
                             Vector(2, {AB: 3})])
    report = verify_sjc(bad)
    failed = {c.name for c in report.failures()}
    assert "up_links" in failed
    witness = next(c.witness for c in report.failures() if c.name == "up_links")
    assert witness == {"position": 0}


def test_verify_sjc_flags_zero_and_mixed_vectors():
    report = verify_sjc(JordanChain(2, 1, [Vector.zero(2)]))
    assert {"vectors_nonzero", "vectors_homogeneous"} <= {c.name for c in report.failures()}
    report = verify_sjc(JordanChain(2, 1, [Vector(2, {E: 1, A: 1})]))
    assert any(c.name == "vectors_homogeneous" and not c.passed for c in report.checks)


def test_verify_sjc_flags_surviving_top():
    bad = JordanChain(2, 1, [Vector(2, {A: 1})])  # up({1}) = {1,2} != 0
    report = verify_sjc(bad)
    assert any(c.name == "top_annihilated" and not c.passed for c in report.checks)


def test_verify_sjb_passes_built_bases():
    for n in range(9):
        assert verify_sjb(build_sjb(n)).overall


def test_verify_sjb_duplicated_chain_fails_with_witness():
    # Overwriting one rank-1 chain with the other keeps every count right,
    # so only the per-rank independence check can catch it.
    basis = build_sjb(3)
    assert basis.chains[1].start_rank == basis.chains[2].start_rank == 1
    basis.chains[2] = basis.chains[1]
    report = verify_sjb(basis)
    failed = {c.name: c for c in report.failures()}
    assert set(failed) == {"full_rank[r=1]", "full_rank[r=2]"}
    witness = failed["full_rank[r=1]"].witness
    assert witness["computed_rank"] < witness["expected"]

    # An appended duplicate breaks the counts and the squareness instead.
    extra = build_sjb(3)
    extra.chains.append(extra.chains[1])
    report2 = verify_sjb(extra)
    failed2 = {c.name: c for c in report2.failures()}
    assert "total_count" in failed2
    rank_fail = next(c for name, c in failed2.items() if name.startswith("full_rank"))
    assert rank_fail.witness["vectors"] != rank_fail.witness["expected"]


def test_full_rank_ranks_only_stacks_of_the_right_size(monkeypatch):
    import sjb.verify
    ranked = []

    def spy(rows):
        ranked.append(len(rows))
        return real(rows)

    real = sjb.verify.exact_rank
    monkeypatch.setattr(sjb.verify, "exact_rank", spy)
    assert verify_sjb(build_sjb(4)).overall
    assert ranked == [binomial(4, r) for r in range(5)]

    ranked.clear()
    basis = build_sjb(4)
    basis.chains.pop()  # the last chain is a single vector at rank 2
    report = verify_sjb(basis)
    assert ranked == [1, 4, 4, 1]
    failed = {c.name: c.witness for c in report.failures()}
    assert failed["full_rank[r=2]"] == {"rank": 2, "vectors": 5, "computed_rank": None,
                                        "expected": 6}


def test_verify_sjb_empty_basis_fails_count():
    report = verify_sjb(JordanBasis(0, []))
    assert not report.overall
    assert any(c.name == "total_count" and not c.passed for c in report.checks)


def test_verify_sjb_full_rank_toggle():
    basis = build_sjb(4)
    with_rank = verify_sjb(basis, check_full_rank=True)
    without = verify_sjb(basis, check_full_rank=False)
    assert any(c.name.startswith("full_rank") for c in with_rank.checks)
    assert not any(c.name.startswith("full_rank") for c in without.checks)


def test_orthogonality_of_built_bases():
    for n in range(8):
        assert check_orthogonality(build_sjb(n)).overall


def test_orthogonality_hand_value_n2():
    basis = build_sjb(2)
    rank1 = basis.vectors_of_rank(1)
    assert len(rank1) == 2
    assert rank1[0][2].dot(rank1[1][2]) == 0


def test_orthogonality_failure_witness():
    basis = JordanBasis(2, [
        JordanChain(2, 1, [Vector(2, {A: 1})]),
        JordanChain(2, 1, [Vector(2, {A: 1, B: 1})]),
    ])
    report = check_orthogonality(basis)
    bad = next(c for c in report.failures())
    assert bad.witness["rank"] == 1
    assert bad.witness["inner_product"] == "1"
    assert bad.witness["chain_a"] == 0 and bad.witness["chain_b"] == 1


def test_ratio_profile_hand_values():
    assert ratio_profile(chain_n2_long()).ratios == [Fraction(2), Fraction(2)]
    assert ratio_profile(chain_n2_short()).ratios == []
    n1 = JordanChain(1, 0, [Vector(1, {0: 1}), Vector(1, {1: 1})])
    assert ratio_profile(n1).ratios == [Fraction(1)]


def test_ratio_profile_rejects_zero_vector():
    with pytest.raises(InvalidChainError):
        ratio_profile(JordanChain(2, 0, [Vector.zero(2)]))


def test_ratio_uniformity_of_built_bases():
    for n in range(9):
        assert check_ratio_uniformity(build_sjb(n)).overall


def test_ratio_uniformity_n4_rank1_chains_agree():
    basis = build_sjb(4)
    profs = [ratio_profile(ch).ratios for ch in basis.chains if ch.start_rank == 1]
    assert len(profs) == 3
    assert all(p == profs[0] for p in profs)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.data())
def test_ratio_uniformity_invariant_under_chain_rescale(n, data):
    basis = build_sjb(n)
    idx = data.draw(st.integers(0, len(basis.chains) - 1))
    scalar = data.draw(st.integers(-9, 9).filter(lambda c: c != 0))
    basis.chains[idx] = JordanChain(
        n, basis.chains[idx].start_rank,
        [scalar * v for v in basis.chains[idx].vectors])
    assert check_ratio_uniformity(basis).overall


def test_ratio_uniformity_detects_tampering():
    basis = build_sjb(4)
    victim = next(ch for ch in basis.chains if ch.start_rank == 1)
    # Replace a middle vector with a non-multiple of the same rank.
    pos = 1
    masks = victim.vectors[pos].support()
    tampered = Vector(4, {masks[0]: 1})
    victim.vectors[pos] = tampered
    ok_sjc = all(verify_sjc(ch).overall for ch in basis.chains)
    uniform = check_ratio_uniformity(basis).overall
    assert not (ok_sjc and uniform)


def test_up_rank_check_small():
    res = up_rank_check(2, 0)
    assert (res.computed_rank, res.injective, res.surjective) == (1, True, False)
    res = up_rank_check(2, 1)
    assert (res.computed_rank, res.injective, res.surjective) == (1, False, True)
    res = up_rank_check(4, 2)
    assert res.computed_rank == 4 and res.surjective and not res.injective


def test_up_rank_contract_small_n():
    for n in range(1, 9):
        for k in range(n):
            res = up_rank_check(n, k)
            assert res.computed_rank == min(binomial(n, k), binomial(n, k + 1))
            assert res.injective == (binomial(n, k) <= binomial(n, k + 1))
            assert res.surjective == (binomial(n, k + 1) <= binomial(n, k))


def test_up_rank_check_range_error():
    with pytest.raises(ValueError):
        up_rank_check(3, 3)


def test_unimodality_small():
    rep = unimodality_report(5)
    assert rep.overall
    assert binomial(5, 0) <= binomial(5, 1) <= binomial(5, 2)
    rep0 = unimodality_report(0)
    assert rep0.overall


def test_unimodality_n12_has_six_injectivity_checks():
    rep = unimodality_report(12)
    assert rep.overall
    inj = [c for c in rep.checks if c.name.startswith("injective_up")]
    assert len(inj) == 6


def test_verify_scd_passes_built():
    for n in range(10):
        assert verify_scd(build_scd(n)).overall


def test_verify_scd_catches_corruption():
    d = build_scd(3)
    # Remove a subset: no longer covers the powerset.
    d.chains[0].subsets.pop()
    report = verify_scd(d)
    assert not report.overall
    assert any(c.name in ("covers_all", "symmetric") and not c.passed
               for c in report.checks)

    d2 = build_scd(3)
    d2.chains[1] = SubsetChain(3, [d2.chains[0].subsets[0]])
    report2 = verify_scd(d2)
    assert any(c.name == "no_duplicates" and not c.passed for c in report2.checks)

    d3 = ChainDecomposition(2, [SubsetChain(2, [0b00, 0b11]), SubsetChain(2, [0b01]),
                                SubsetChain(2, [0b10])])
    report3 = verify_scd(d3)
    assert any(c.name == "saturated" and not c.passed for c in report3.checks)


def test_report_rendering():
    report = verify_sjb(build_sjb(2))
    text = str(report)
    assert "overall: PASS" in text
    assert "PASS chains_valid" in text
