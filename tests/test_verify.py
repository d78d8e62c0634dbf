"""Verifier: chain/basis validity, orthogonality, ratios, rank results."""

import dataclasses
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjb.jordan import JordanBasis, JordanChain, build_sjb
from sjb.lattice import (MAX_ITEMS, CapacityError, binomial, chains_starting,
                         subsets_of_rank)
from sjb.scd import ChainDecomposition, SubsetChain, build_scd, chain_length_sequence
from sjb.serialize import DocumentError, read_chains, to_document
from sjb.vectors import Vector
from sjb.verify import (InvalidChainError, VerificationReport, check_orthogonality,
                        check_ratio_uniformity, check_stack_sizes, compare_profiles,
                        ratio_profile, unimodality_report, up_rank_check,
                        verify_chains, verify_scd, verify_sjb, verify_sjc)

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
    report = verify_sjc(JordanChain(2, 1, [Vector(2)]))
    assert {"vectors_nonzero", "vectors_homogeneous"} <= {c.name for c in report.failures()}
    report = verify_sjc(JordanChain(2, 1, [Vector(2, {E: 1, A: 1})]))
    assert any(c.name == "vectors_homogeneous" and not c.passed for c in report.checks)


def test_verify_sjc_flags_surviving_top():
    bad = JordanChain(2, 1, [Vector(2, {A: 1})])  # up({1}) = {1,2} != 0
    report = verify_sjc(bad)
    assert any(c.name == "top_annihilated" and not c.passed for c in report.checks)


@pytest.mark.parametrize("n, k", [(3, 1), (1, 1)])  # (1, 1) is rank-symmetric
def test_verify_sjc_fails_empty_chain_with_witness(n, k):
    report = verify_sjc(JordanChain(n, k, []))
    assert not report.overall
    top = next(c for c in report.checks if c.name == "top_annihilated")
    assert not top.passed and top.witness == {"length": 0}
    report = verify_sjb(JordanBasis(n, [JordanChain(n, k, [])]))
    assert report.checks[0].name == "chains_valid"
    assert report.checks[0].witness["chain"] == 0
    assert "top_annihilated" in report.checks[0].witness["failed"]


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


def copy_vector_of_rank(basis, r):
    """basis with its first vector of rank r overwritten by its second."""
    (ci, pos, _), (_, _, v) = basis.vectors_of_rank(r)[:2]
    basis.chains[ci].vectors[pos] = v
    return basis


@pytest.mark.parametrize("n, rank", [(8, 69), (9, 125)])
def test_copied_vector_is_ranked_exactly(n, rank):
    # The stack is deficient modulo every prime, so no certificate decides it.
    report = verify_sjb(copy_vector_of_rank(build_sjb(n), 4))
    failed = {c.name: c.witness for c in report.failures() if c.name.startswith("full_rank")}
    assert failed == {"full_rank[r=4]": {"rank": 4, "vectors": rank + 1,
                                         "computed_rank": rank, "expected": rank + 1}}


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


def test_start_rank_counts_witness_never_expects_negative():
    # Chain 1 of B(4) starts at rank 1 and has length 3.  Split it into a
    # 2-vector chain and a 1-vector chain at rank 3: every rank count still
    # holds, but rank 3 now starts a chain where no chain may start.
    basis = build_sjb(4)
    ch = basis.chains[1]
    assert (ch.start_rank, ch.length) == (1, 3)
    basis.chains[1:2] = [JordanChain(4, 1, ch.vectors[:2]),
                         JordanChain(4, 3, ch.vectors[2:])]
    failed = {c.name: c.witness for c in verify_sjb(basis, check_full_rank=False).failures()}
    assert failed["start_rank_counts"] == {"start_rank": 3, "got": 1, "expected": 0}


def test_chains_valid_stops_at_the_first_failing_chain(monkeypatch):
    import sjb.verify
    calls = []

    def spy(chain):
        calls.append(chain)
        return real(chain)

    real = sjb.verify.verify_sjc
    monkeypatch.setattr(sjb.verify, "verify_sjc", spy)
    basis = build_sjb(4)
    assert verify_sjb(basis, check_full_rank=False).overall
    assert calls == basis.chains

    calls.clear()
    basis.chains[1] = JordanChain(4, 1, basis.chains[1].vectors[:2])
    failed = {c.name: c.witness for c in verify_sjb(basis, check_full_rank=False).failures()}
    assert failed["chains_valid"] == {"chain": 1, "failed": ["top_annihilated",
                                                             "rank_symmetry"]}
    assert len(calls) == 2


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


@pytest.mark.parametrize("checks", [("ratios", "sjc"), ("ortho", "basis"), ("ortho",)])
def test_verify_chains_reads_a_stream_as_a_list(checks):
    # A generator gives what the held list gives, also when ortho holds it,
    # and each check's report comes in SJB_CHECKS order whatever the order asked.
    basis = build_sjb(5)
    (ci, pos, _), (_, _, v) = basis.vectors_of_rank(2)[:2]
    basis.chains[ci].vectors[pos] = v
    listed = verify_chains(5, basis.chains, checks)
    streamed = verify_chains(5, (ch for ch in basis.chains), checks)
    alone = [verify_chains(5, basis.chains, (c,))[0]
             for c in ("sjc", "basis", "ortho", "ratios") if c in checks]
    assert list(map(str, streamed)) == list(map(str, listed)) == list(map(str, alone))
    assert not all(r.overall for r in listed)


@pytest.mark.parametrize("checks, unknown", [(("sjc", "ratio"), ["ratio"]),
                                             (("bogus",), ["bogus"])])
@pytest.mark.parametrize("stream", [False, True])
def test_verify_chains_refuses_an_unknown_check(checks, unknown, stream):
    # The CLI's wording; no report is made, so an unknown name never reads as PASS.
    chains = build_sjb(3).chains
    with pytest.raises(ValueError) as exc:
        verify_chains(3, iter(chains) if stream else chains, checks)
    assert str(exc.value) == f"unknown checks {unknown}; choose from sjc,basis,ortho,ratios"


def test_verify_chains_reports_a_document_fault_before_an_unknown_check(tmp_path):
    doc = to_document(build_sjb(4))
    doc["chains"][-1]["vectors"][0][0]["coeff"] = "01"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _, n, chains = read_chains(path)
    with pytest.raises(DocumentError, match="coeff is not in canonical form: '01'"):
        verify_chains(n, chains, ("sjc", "bogus"))


def test_verify_chains_reads_to_the_end_holding_nothing_before_refusing(monkeypatch):
    # ortho would hold the chains and size their stacks; an unknown name
    # refuses first, one chain at a time.
    def no_stacks(basis):
        raise AssertionError("held the chains of a refused request")

    monkeypatch.setattr("sjb.verify.check_stack_sizes", no_stacks)
    stream = iter(build_sjb(4).chains)
    with pytest.raises(ValueError, match=r"unknown checks \['bogus'\]"):
        verify_chains(4, stream, ("ortho", "bogus"))
    assert next(stream, None) is None


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


def test_orthogonality_walks_pairs_in_order_and_stops_at_the_first(monkeypatch):
    # Rank 1: A, B, A + B; rank 0: the empty set and twice it.
    basis = JordanBasis(2, [JordanChain(2, 1, [Vector(2, {A: 1})]),
                            JordanChain(2, 1, [Vector(2, {B: 1})]),
                            JordanChain(2, 1, [Vector(2, {A: 1, B: 1})]),
                            JordanChain(2, 0, [Vector(2, {E: 1})]),
                            JordanChain(2, 0, [Vector(2, {E: 2})])])
    dot, ranks = Vector.dot, []

    def spy(self, other):
        ranks.append(self.items()[0][0].bit_count())
        return dot(self, other)

    monkeypatch.setattr(Vector, "dot", spy)
    report = check_orthogonality(basis)
    assert [c.witness for c in report.failures()] == [
        {"rank": 0, "chain_a": 3, "position_a": 0, "chain_b": 4, "position_b": 0,
         "inner_product": "2"},
        {"rank": 1, "chain_a": 0, "position_a": 0, "chain_b": 2, "position_b": 0,
         "inner_product": "1"}]
    assert Counter(ranks) == {0: 1, 1: 2}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.tuples(
    st.integers(0, n), st.lists(st.dictionaries(st.integers(0, 2 ** n - 1),
                                                st.sampled_from([-2, -1, 1, 2]), max_size=3),
                                min_size=1, max_size=3)), min_size=1, max_size=4))))
def test_orthogonality_matches_every_pair(drawn):
    # Vectors of any ranks at any place: the verdict is that of all pairs.
    n, shapes = drawn
    basis = JordanBasis(n, [JordanChain(n, k, [Vector(n, t) for t in terms])
                            for k, terms in shapes])
    vectors = [v for ch in basis.chains for v in ch.vectors]
    assert check_orthogonality(basis).overall == all(
        u.dot(v) == 0 for u, v in combinations(vectors, 2))


def test_ratio_profile_hand_values():
    assert ratio_profile(chain_n2_long()) == [Fraction(2), Fraction(2)]
    assert ratio_profile(chain_n2_short()) == []
    n1 = JordanChain(1, 0, [Vector(1, {0: 1}), Vector(1, {1: 1})])
    assert ratio_profile(n1) == [Fraction(1)]


def test_ratio_profile_rejects_zero_vector():
    with pytest.raises(InvalidChainError):
        ratio_profile(JordanChain(2, 0, [Vector(2)]))


def test_ratio_uniformity_of_built_bases():
    for n in range(9):
        assert check_ratio_uniformity(build_sjb(n)).overall


def test_ratio_uniformity_n4_rank1_chains_agree():
    basis = build_sjb(4)
    profs = [ratio_profile(ch) for ch in basis.chains if ch.start_rank == 1]
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
    masks = [m for m, _ in victim.vectors[pos].items()]
    tampered = Vector(4, {masks[0]: 1})
    victim.vectors[pos] = tampered
    ok_sjc = all(verify_sjc(ch).overall for ch in basis.chains)
    uniform = check_ratio_uniformity(basis).overall
    assert not (ok_sjc and uniform)


def test_ratio_uniformity_reads_grouped_profiles():
    # One group per start rank, ascending: its first chain, that chain's
    # ratios, and how many chains start there.
    basis = build_sjb(5)
    groups = check_ratio_uniformity(basis).groups
    assert {k: g.count for k, g in groups.items()} == {0: 1, 1: 4, 2: 5}
    assert list(groups) == [0, 1, 2]
    for k, g in groups.items():
        first = basis.chains[g.chain]
        assert first.start_rank == k and not any(
            ch.start_rank == k for ch in basis.chains[:g.chain])
        assert g.ratios == ratio_profile(first) and g.witness is None
    # Tripling chain 4's top vector breaks its last ratio; the witness is
    # the first chain that differs from its group's first chain.
    basis.chains[4].vectors[-1] = 3 * basis.chains[4].vectors[-1]
    report = check_ratio_uniformity(basis)
    witness = {"start_rank": 1, "chain": 4, "reference_chain": 1, "position": 2}
    assert [(c.name, c.witness) for c in report.failures()] == [
        ("uniform_ratios[k=1]", witness)]
    assert report.groups[1].witness == witness and report.groups[1].count == 4


def test_streamed_checks_keep_tallies_not_a_record_per_chain():
    # 9,000 chains, 3,000 copies of the n = 3 basis: the basis check keeps a
    # tally of (start rank, length) and the ratio check one group per start
    # rank, so the peak does not grow with the chains read.
    chains = build_sjb(3).chains
    stream = (ch for _ in range(3000) for ch in chains)
    tracemalloc.start()
    try:
        basis, ratios = verify_chains(3, stream, ("basis", "ratios"), full_rank=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak
    assert basis.subject == "sjb n=3 chains=9000"
    assert {k: g.count for k, g in ratios.groups.items()} == {0: 3000, 1: 6000}
    assert ratios.overall


def test_compare_profiles():
    for n in range(7):
        assert compare_profiles(n, chain_length_sequence(build_sjb(n)),
                                chain_length_sequence(build_scd(n))).overall
    decomp = chain_length_sequence(build_scd(4))
    report = compare_profiles(4, chain_length_sequence(build_sjb(4)), decomp[::-1])
    assert [(c.name, c.passed) for c in report.checks] == [
        ("equal_as_multisets", True), ("equal_chain_by_chain", False)]


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
    with pytest.raises(ValueError):
        up_rank_check(3, -1)
    # The budget counts up's entries, though only W is made.
    with pytest.raises(CapacityError, match="up matrix for n=24, k=12 has"):
        up_rank_check(24, 12)


def test_unimodality_small():
    rep = unimodality_report(5, [up_rank_check(5, k) for k in range(5)])
    assert rep.overall
    assert [c.name for c in rep.checks] == [
        "injective_up[k=0]", "injective_up[k=1]", "injective_up[k=2]",
        "surjective_up[k=3]", "surjective_up[k=4]"]
    short = dataclasses.replace(up_rank_check(5, 1), computed_rank=4, injective=False)
    assert unimodality_report(5, [short]).failures()[0].witness == {
        "k": 1, "computed_rank": 4}
    assert unimodality_report(0, []).overall


def test_unimodality_n12_has_six_injectivity_checks():
    rep = unimodality_report(12, [up_rank_check(12, k) for k in range(12)])
    assert rep.overall
    names = [c.name.split("[")[0] for c in rep.checks]
    assert names == ["injective_up"] * 6 + ["surjective_up"] * 6


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


def whole_verify_scd(decomp):
    """The reference for verify_scd: each check in its own pass over the whole
    decomposition, with a dict of the masks seen and their last owner."""
    n = decomp.n
    report = VerificationReport(f"scd n={n} chains={len(decomp.chains)}")
    seen, dup = {}, None
    for ci, ch in enumerate(decomp.chains):
        for s in ch.subsets:
            if s in seen and dup is None:
                dup = {"subset_mask": s, "chains": [seen[s], ci]}
            seen[s] = ci
    report.add("no_duplicates", dup is None, dup)
    report.add("covers_all", len(seen) == 2 ** n, {"got": len(seen), "expected": 2 ** n})
    bad_sat = next(({"chain": ci, "position": i} for ci, ch in enumerate(decomp.chains)
                    for i, (a, b) in enumerate(zip(ch.subsets, ch.subsets[1:]))
                    if a & b != a or b.bit_count() != a.bit_count() + 1), None)
    report.add("saturated", bad_sat is None, bad_sat)
    bad_sym = next(({"chain": ci} for ci, ch in enumerate(decomp.chains)
                    if ch.start_rank + ch.top_rank != n), None)
    report.add("symmetric", bad_sym is None, bad_sym)
    starts = Counter(ch.start_rank for ch in decomp.chains)
    bad = next(({"start_rank": k, "got": starts[k], "expected": chains_starting(n, k)}
                for k in range(n + 1) if starts[k] != chains_starting(n, k)), None)
    report.add("start_rank_counts", bad is None, bad)
    return report


def _dup_within(chains, ci):
    chains[ci].subsets.append(chains[ci].subsets[-1])


def _dup_across(chains, ci):
    chains[ci].subsets[-1] = chains[(ci + 1) % len(chains)].subsets[0]


def _missing(chains, ci):
    if chains[ci].length > 1:
        chains[ci].subsets.pop()
    else:
        del chains[ci]


def _unsaturated(chains, ci):  # swaps the ends, or adds an element twice over
    subs = chains[ci].subsets
    if len(subs) > 1:
        subs[0], subs[-1] = subs[-1], subs[0]
    else:
        subs.append(subs[0] | (2 ** chains[ci].n - 1))


def _asymmetric(chains, ci):
    subs = chains[ci].subsets
    chains[ci] = SubsetChain(chains[ci].n, subs[1:] if len(subs) > 1 else subs + subs)


def _wrong_starts(chains, ci):  # the chain moved one rank up, its top dropped
    ch = chains[ci]
    if ch.length > 1:
        chains[ci] = SubsetChain(ch.n, ch.subsets[1:-1] or [ch.subsets[-1]])
    else:
        chains.append(SubsetChain(ch.n, [ch.subsets[0]]))


TAMPERS = {"dup_within": _dup_within, "dup_across": _dup_across, "missing": _missing,
           "unsaturated": _unsaturated, "asymmetric": _asymmetric,
           "wrong_starts": _wrong_starts}


def scd_cases():
    """(label, decomposition): built ones for n <= 8, and each tamper applied
    to the first, a middle and the last chain of each of them."""
    cases = []
    for n in range(9):
        cases.append((f"built n={n}", build_scd(n)))
        for name, tamper in TAMPERS.items():
            for ci in sorted({0, binomial(n, n // 2) // 2, binomial(n, n // 2) - 1}):
                decomp = build_scd(n)
                tamper(decomp.chains, ci)
                cases.append((f"{name} n={n} chain={ci}", decomp))
    return cases


def test_scd_cases_fail_every_check():
    failed = Counter(c.name for _, d in scd_cases() for c in whole_verify_scd(d).failures())
    assert set(failed) == {"no_duplicates", "covers_all", "saturated", "symmetric",
                           "start_rank_counts"}


@pytest.mark.parametrize("label, decomp", scd_cases(), ids=[c[0] for c in scd_cases()])
def test_verify_scd_matches_the_whole_decomposition_reference(label, decomp):
    want = whole_verify_scd(decomp)
    assert verify_scd(decomp) == want
    # One pass: the chains may come from a stream that cannot be walked again.
    assert verify_scd(ChainDecomposition(decomp.n, iter(decomp.chains))) == want


def test_verify_scd_fails_masks_outside_the_lattice():
    report = verify_scd(ChainDecomposition(1, [SubsetChain(1, [0, 2])]))
    assert [c.name for c in report.failures()] == ["covers_all"]
    assert report.failures()[0].witness == {"got": 1, "expected": 2,
                                            "chain": 0, "subset_mask": 2}
    # -2 must not stand for mask 2 by wrapping round the map of masks seen.
    report = verify_scd(ChainDecomposition(2, [SubsetChain(2, [0, 1, 3]),
                                               SubsetChain(2, [-2])]))
    assert [c.name for c in report.failures()] == ["covers_all"]
    assert report.failures()[0].witness == {"got": 3, "expected": 4,
                                            "chain": 1, "subset_mask": -2}
    # Every mask in place still fails with one outside.
    chains = build_scd(2).chains + [SubsetChain(2, [4])]
    covers = {c.name: c for c in verify_scd(ChainDecomposition(2, chains)).checks}
    assert covers["covers_all"].witness == {"got": 4, "expected": 4,
                                            "chain": 2, "subset_mask": 4}


def test_verify_scd_refuses_an_over_cap_n_before_any_chain():
    def no_chains():
        raise AssertionError("read a chain")
        yield

    with pytest.raises(CapacityError, match="scd decomposition for n=27 has 134217728 subsets"):
        verify_scd(ChainDecomposition(27, no_chains()))


def test_report_rendering():
    report = verify_sjb(build_sjb(2))
    text = str(report)
    assert "overall: PASS" in text
    assert "PASS chains_valid" in text


def forged_singletons(n, r):
    """The empty set plus one single-vector chain per r-subset of {1..n}."""
    chains = [JordanChain(n, 0, [Vector(n, {0: 1})])]
    chains += [JordanChain(n, r, [Vector(n, {s: 1})]) for s in subsets_of_rank(n, r)]
    return JordanBasis(n, chains)


def test_over_cap_stack_is_refused_before_any_matrix(monkeypatch):
    # C(63, 3) = 39,711 rank-3 vectors: a square stack of 1.6e9 entries.
    basis = forged_singletons(63, 3)

    def no_matrix(*args):
        raise AssertionError("built the rows of an over-cap stack")

    monkeypatch.setattr("sjb.verify._rank_matrix", no_matrix)
    monkeypatch.setattr("sjb.verify.exact_rank", no_matrix)
    with pytest.raises(CapacityError, match="rank 3 stack of n=63 has 1576963521 entries"):
        check_stack_sizes(basis)
    with pytest.raises(CapacityError, match="over the cap"):
        verify_sjb(basis)
    report = verify_sjb(basis, check_full_rank=False)
    assert not report.overall and not any(c.name.startswith("full_rank") for c in report.checks)


def test_under_cap_forged_stack_is_still_ranked():
    basis = forged_singletons(63, 2)
    check_stack_sizes(basis)
    checks = {c.name: c for c in verify_sjb(basis).checks}
    assert checks["full_rank[r=0]"].passed and checks["full_rank[r=2]"].passed
    assert checks["full_rank[r=1]"].witness["computed_rank"] is None


def test_basis_stack_holds_under_eight_bytes_a_dense_entry():
    # 924 rank-6 singletons of n = 12: only full_rank[r=6] is ranked.  The
    # stack is held once, as int8 (1 B), beside int32 residues (4 B);
    # Python rows and an int64 copy of them held about 20 B an entry.
    entries = 924 * 924
    basis = JordanBasis(12, [JordanChain(12, 6, [Vector(12, {s: 1})])
                             for s in subsets_of_rank(12, 6)])
    tracemalloc.start()
    try:
        checks = {c.name: c for c in verify_sjb(basis).checks}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert checks["full_rank[r=6]"].passed
    assert all(checks[f"full_rank[r={r}]"].witness["computed_rank"] is None
               for r in range(13) if r != 6)
    assert peak < 8 * entries


def test_orthogonality_refuses_an_over_cap_rank_before_any_inner_product(monkeypatch):
    def no_dot(*args):
        raise AssertionError("took an inner product in an over-cap rank")

    monkeypatch.setattr(Vector, "dot", no_dot)
    with pytest.raises(CapacityError, match="rank 3 stack of n=63 has 1576963521 entries"):
        check_orthogonality(forged_singletons(63, 3))


def test_stack_cap_counts_every_rank():
    # 8,193 copies of one rank-1 vector: not C(63, 1) of them, but the
    # pairwise check would still take 33.6M inner products.
    basis = JordanBasis(63, [JordanChain(63, 1, [Vector(63, {A: 1})])] * 8193)
    with pytest.raises(CapacityError, match="rank 1 stack of n=63 has 67125249 entries"):
        check_stack_sizes(basis)
    with pytest.raises(CapacityError, match="rank 1 stack"):
        check_orthogonality(basis)


def test_orthogonality_caps_the_vectors_holding_a_term_of_each_rank(monkeypatch):
    # Placed at ranks 1 and 2, 4,097 and 4,096 vectors: each stack is under
    # the cap, but all 8,193 hold the empty set.
    basis = JordanBasis(14, [JordanChain(14, 1, [Vector(14, {E: 1, A: 1})])] * 4097
                        + [JordanChain(14, 2, [Vector(14, {E: 1, AB: 1})])] * 4096)
    check_stack_sizes(basis)

    def no_dot(*args):
        raise AssertionError("took an inner product in an over-cap rank")

    monkeypatch.setattr(Vector, "dot", no_dot)
    with pytest.raises(CapacityError) as refused:
        check_orthogonality(basis)
    assert str(refused.value) == ("rank 0 stack of n=14 has 67125249 entries, "
                                  "over the cap of 67108864")


def test_stack_cap_admits_every_rank_up_to_n15():
    def full_stacks(n):  # C(n, r) placeholder vectors at every rank r
        return JordanBasis(n, [JordanChain(n, r, [Vector(n, {})])
                               for r in range(n + 1) for _ in range(binomial(n, r))])

    check_stack_sizes(full_stacks(15))
    with pytest.raises(CapacityError, match="rank 7 stack of n=16"):
        check_stack_sizes(full_stacks(16))
    assert binomial(15, 7) ** 2 <= MAX_ITEMS < binomial(16, 7) ** 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n + 1), st.integers(1, 3),
                                   st.integers(1, 3)), max_size=8))))
def test_stack_cap_refuses_the_first_rank_holding_four_vectors(drawn):
    # Each drawn chain is (start rank, length, copies); a chain starting
    # past rank n holds no vector of any rank 0..n.
    n, shapes = drawn
    basis = JordanBasis(n, [JordanChain(n, k, [Vector(n, {})] * length)
                            for k, length, copies in shapes for _ in range(copies)])
    counts = [len(basis.vectors_of_rank(r)) for r in range(n + 1)]
    over = next((r for r, count in enumerate(counts) if count >= 4), None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sjb.lattice.MAX_ITEMS", 15)  # refuses 4 vectors: 16 entries
        if over is None:
            check_stack_sizes(basis)
        else:
            with pytest.raises(CapacityError) as refused:
                check_stack_sizes(basis)
            assert str(refused.value) == (f"rank {over} stack of n={n} has "
                                          f"{counts[over] ** 2} entries, over the cap of 15")
