"""Exact machine checks on constructed bases and decompositions.

Every check is exact integer or rational arithmetic; no report ever
depends on a tolerance.  Failures carry a witness that points back into
the input (chain index, position, rank, or vector pair) so they can be
re-checked by hand.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .elimination import exact_rank, ndarray
from .jordan import JordanBasis, JordanChain
from .lattice import binomial, chains_starting, check_items, subsets_of_rank
from .operators import up, up_matrix
from .scd import ChainDecomposition
from .vectors import NotHomogeneousError, homogeneous_rank


class InvalidChainError(ValueError):
    """Chain is structurally unusable for the requested computation."""


@dataclass
class Check:
    name: str
    passed: bool
    witness: dict | None = None

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.passed or self.witness is None:
            return f"{tag} {self.name}"
        return f"{tag} {self.name}  witness={self.witness}"


@dataclass
class VerificationReport:
    subject: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, witness: dict | None = None) -> None:
        self.checks.append(Check(name, passed, None if passed else witness))

    def __str__(self) -> str:
        lines = [f"== {self.subject} =="]
        lines += [str(c) for c in self.checks]
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class RatioProfile:
    """Squared-norm ratios of successive chain vectors, as exact rationals."""

    start_rank: int
    ratios: list[Fraction]


@dataclass
class UpRankResult:
    n: int
    k: int
    domain_dim: int
    codomain_dim: int
    computed_rank: int
    injective: bool
    surjective: bool


def verify_sjc(chain: JordanChain) -> VerificationReport:
    """Check one chain: nonzero homogeneous vectors, exact up-links, symmetry."""
    n, k = chain.n, chain.start_rank
    report = VerificationReport(f"sjc n={n} start_rank={k} length={chain.length}")

    bad = next((i for i, v in enumerate(chain.vectors) if v.is_zero), None)
    report.add("vectors_nonzero", bad is None, {"position": bad})

    bad_h = None
    for i, v in enumerate(chain.vectors):
        try:
            r = homogeneous_rank(v)
        except NotHomogeneousError:
            r = None
        if r != k + i:
            bad_h = {"position": i, "expected_rank": k + i}
            break
    report.add("vectors_homogeneous", bad_h is None, bad_h)

    bad_link = next(({"position": i} for i in range(chain.length - 1)
                     if up(chain.vectors[i]) != chain.vectors[i + 1]), None)
    report.add("up_links", bad_link is None, bad_link)

    report.add("top_annihilated", bool(chain.vectors) and up(chain.vectors[-1]).is_zero,
               {"position": chain.length - 1} if chain.vectors else {"length": 0})

    report.add("rank_symmetry", k + chain.top_rank == n,
               {"start_rank": k, "top_rank": chain.top_rank, "n": n})
    return report


def _check_start_ranks(report: VerificationReport, n: int, start_ranks) -> None:
    """Add start_rank_counts: each rank k starts chains_starting(n, k) chains."""
    starts = Counter(start_ranks)
    bad = next(({"start_rank": k, "got": starts[k], "expected": chains_starting(n, k)}
                for k in range(n + 1) if starts[k] != chains_starting(n, k)), None)
    report.add("start_rank_counts", bad is None, bad)


def _rank_matrix(basis: JordanBasis, r: int) -> ndarray | None:
    """The rank-r basis vectors as rows of the narrowest integer array that
    holds them, columns in ascending-mask order; None when a vector placed
    at rank r has a term of another rank."""
    import numpy as np  # loaded on the first stack ranked, not with the package

    order = {mask: j for j, mask in enumerate(subsets_of_rank(basis.n, r))}
    terms = [v._terms for _, _, v in basis.vectors_of_rank(r)]
    if not all(t.keys() <= order.keys() for t in terms):
        return None
    # -bound - 1, not -bound: int8 holds -128 but not +128.
    bound = max((abs(c) for t in terms for c in t.values()), default=0)
    stack = np.zeros((len(terms), len(order)), dtype=np.min_scalar_type(-bound - 1))
    for i, t in enumerate(terms):
        stack[i, list(map(order.get, t))] = list(t.values())
    return stack


def check_stack_sizes(basis: JordanBasis) -> None:
    """Raise CapacityError if the vectors of a rank are too many to rank as a
    square matrix or to take every inner product of: a document may repeat
    vectors, so every rank counts, not only those holding C(n, r) vectors."""
    for r in range(basis.n + 1):
        count = len(basis.vectors_of_rank(r))
        check_items(count * count, "entries", f"rank {r} stack of n={basis.n}")


# The checks verify_chains runs, in the order of its reports.
SJB_CHECKS = ("sjc", "basis", "ortho", "ratios")


@dataclass
class SjcReport:
    """verify_sjc over a basis's chains: each failed chain's report, then the count."""

    count: int
    failed: list[VerificationReport]

    @property
    def overall(self) -> bool:
        return not self.failed

    def __str__(self) -> str:
        verdict = f"== sjc: {self.count} chains checked: {'FAIL' if self.failed else 'PASS'} =="
        return "\n".join([*map(str, self.failed), verdict])


def _basis_report(n: int, shapes: list[tuple[int, int]], bad_chain: dict | None,
                  basis: JordanBasis | None) -> VerificationReport:
    """verify_sjb's report; given the basis of these chains, with its full-rank checks."""
    report = VerificationReport(f"sjb n={n} chains={len(shapes)}")
    report.add("chains_valid", bad_chain is None, bad_chain)

    total = sum(length for _, length in shapes)
    report.add("total_count", total == 2 ** n, {"got": total, "expected": 2 ** n})

    at_rank = Counter(r for k, length in shapes for r in range(k, k + length))
    counts = [at_rank[r] for r in range(n + 1)]
    bad_rank = next(({"rank": r, "got": got, "expected": binomial(n, r)}
                     for r, got in enumerate(counts) if got != binomial(n, r)), None)
    report.add("rank_counts", bad_rank is None, bad_rank)
    _check_start_ranks(report, n, (k for k, _ in shapes))
    if basis is None:
        return report
    for r, count in enumerate(counts):
        expected = binomial(n, r)
        # The stack must be square (C(n,r) vectors of rank r) and
        # nonsingular.  A stack of the wrong size fails without being
        # ranked: its matrix has C(n,r) columns however few vectors the
        # document holds.
        stack = _rank_matrix(basis, r) if count == expected else None
        rank = None if stack is None else exact_rank(stack)
        report.add(f"full_rank[r={r}]", rank == expected,
                   {"rank": r, "vectors": count, "computed_rank": rank,
                    "expected": expected})
    return report


def verify_chains(n: int, chains, checks=SJB_CHECKS, full_rank: bool = True
                  ) -> list[SjcReport | VerificationReport]:
    """The reports of the named checks on a basis's chains, in SJB_CHECKS
    order, from one pass over them.  chains may be a stream: they are held
    only when ortho, or basis with full_rank, needs the rank stacks, and a
    stack over the work budget then raises CapacityError before any check."""
    full_rank = full_rank and "basis" in checks
    basis = None
    if "ortho" in checks or full_rank:
        basis = JordanBasis(n, list(chains))
        check_stack_sizes(basis)
        chains = basis.chains
    shapes, failed, bad_chain, profiles = [], [], None, []
    for ch in chains:
        if "sjc" in checks and not (report := verify_sjc(ch)).overall:
            failed.append(report)
        # chains_valid runs verify_sjc again: perfbench/run.py pins 2·C(n, n/2)
        # verify_sjc calls per full verify, and the traced CI steps check them.
        if "basis" in checks and bad_chain is None and not (sub := verify_sjc(ch)).overall:
            bad_chain = {"chain": len(shapes), "failed": [c.name for c in sub.failures()]}
        shapes.append((ch.start_rank, ch.length))
        if "ratios" in checks:
            profiles.append(ratio_profile(ch))
    reports = {"sjc": lambda: SjcReport(len(shapes), failed),
               "basis": lambda: _basis_report(n, shapes, bad_chain, basis if full_rank else None),
               "ortho": lambda: check_orthogonality(basis),
               "ratios": lambda: ratio_uniformity(n, profile_groups(profiles))}
    return [reports[c]() for c in SJB_CHECKS if c in checks]


def verify_sjb(basis: JordanBasis, check_full_rank: bool = True) -> VerificationReport:
    """Check a full basis: chains, counts, and per-rank linear independence.

    The per-rank full-rank check runs exact_rank on a C(n,r) x C(n,r)
    integer matrix per rank, and raises CapacityError past the work budget;
    disable it via check_full_rank where only the structural checks are wanted.
    """
    return verify_chains(basis.n, basis.chains, ("basis",), check_full_rank)[0]


def check_orthogonality(basis: JordanBasis) -> VerificationReport:
    """All distinct basis vectors of equal rank have inner product zero.

    Vectors of different ranks have disjoint supports, so cross-rank
    pairs are zero structurally and are not recomputed.  Raises
    CapacityError, before any inner product, past the work budget.
    """
    check_stack_sizes(basis)
    report = VerificationReport(f"orthogonality n={basis.n}")
    for r in range(basis.n + 1):
        vecs = basis.vectors_of_rank(r)
        witness = None
        for i in range(len(vecs)):
            ci, pi, vi = vecs[i]
            for j in range(i + 1, len(vecs)):
                cj, pj, vj = vecs[j]
                ip = vi.dot(vj)
                if ip != 0:
                    witness = {"rank": r, "chain_a": ci, "position_a": pi,
                               "chain_b": cj, "position_b": pj, "inner_product": str(ip)}
                    break
            if witness:
                break
        report.add(f"orthogonal[r={r}]", witness is None, witness)
    return report


def ratio_profile(chain: JordanChain) -> RatioProfile:
    """Exact ratios norm_sq(v_{l+1}) / norm_sq(v_l) along a chain."""
    norms = []
    for i, v in enumerate(chain.vectors):
        ns = v.norm_sq()
        if ns == 0:
            raise InvalidChainError(f"zero vector at position {i}")
        norms.append(ns)
    return RatioProfile(chain.start_rank,
                        [Fraction(norms[i + 1], norms[i]) for i in range(len(norms) - 1)])


def profile_groups(profiles) -> dict[int, list[tuple[int, RatioProfile]]]:
    """(index, profile) of each of the chains' profiles, by start rank, ascending."""
    by_start: dict[int, list[tuple[int, RatioProfile]]] = {}
    for ci, prof in enumerate(profiles):
        by_start.setdefault(prof.start_rank, []).append((ci, prof))
    return dict(sorted(by_start.items()))


def check_ratio_uniformity(basis: JordanBasis) -> VerificationReport:
    """Chains sharing a start rank have identical squared-norm ratio profiles.

    Exact rational comparison, hence invariant under rescaling any whole
    chain by a nonzero scalar.
    """
    return verify_chains(basis.n, basis.chains, ("ratios",))[0]


def ratio_uniformity(n: int, groups: dict[int, list[tuple[int, RatioProfile]]]
                     ) -> VerificationReport:
    """check_ratio_uniformity on profiles already grouped by profile_groups."""
    report = VerificationReport(f"ratio uniformity n={n}")
    for k, group in groups.items():
        ref_ci, ref = group[0]
        witness = None
        for ci, prof in group[1:]:
            if prof.ratios != ref.ratios:
                pos = next(i for i, (a, b) in enumerate(zip(prof.ratios, ref.ratios))
                           if a != b) if len(prof.ratios) == len(ref.ratios) else None
                witness = {"start_rank": k, "chain": ci, "reference_chain": ref_ci,
                           "position": pos}
                break
        report.add(f"uniform_ratios[k={k}]", witness is None, witness)
    return report


def up_rank_check(n: int, k: int) -> UpRankResult:
    """Exact rank of up restricted to rank k, with injectivity/surjectivity."""
    m = up_matrix(n, k)
    # Rank ignores row and column order, so eliminate in the order that
    # fills in least: down (the transpose), its rank-(k+1) columns in
    # descending mask order.  At n = 12 that updates 1.03M block entries
    # over all levels, against 7.72M for the transpose in ascending order.
    rank = exact_rank(m.matrix.T[:, ::-1])
    rows, cols = m.shape
    return UpRankResult(n=n, k=k, domain_dim=cols, codomain_dim=rows,
                        computed_rank=rank,
                        injective=rank == cols, surjective=rank == rows)


def unimodality_report(n: int, results: list[UpRankResult]) -> VerificationReport:
    """rank == min(C(n,k), C(n,k+1)) at each level ranked: up is injective
    below the middle (2k < n), so the binomials rise to it, and surjective
    from the middle on."""
    report = VerificationReport(f"unimodality n={n}")
    for res in results:
        kind, ok = (("injective", res.injective) if 2 * res.k < n
                    else ("surjective", res.surjective))
        report.add(f"{kind}_up[k={res.k}]", ok,
                   {"k": res.k, "computed_rank": res.computed_rank})
    return report


def verify_scd(decomp: ChainDecomposition) -> VerificationReport:
    """Partition, saturation, and symmetry checks for a chain decomposition.

    decomp.chains is walked once, so it may be a stream.  The first chain of
    each mask is kept in an array of 2**n entries, made once the work budget
    admits n; a mask outside 0..2**n-1 fails covers_all.
    """
    n, size = decomp.n, 2 ** decomp.n
    check_items(size, "subsets", f"scd decomposition for n={n}")
    owner, starts = array("i", [-1]) * size, Counter()
    dup = outside = bad_sat = bad_sym = None
    for ci, ch in enumerate(decomp.chains):
        subs = ch.subsets
        for s in subs:
            if not 0 <= s < size:
                outside = outside or {"chain": ci, "subset_mask": s}
            elif owner[s] < 0:
                owner[s] = ci
            elif dup is None:
                dup = {"subset_mask": s, "chains": [owner[s], ci]}
        if bad_sat is None:
            bad_sat = next(({"chain": ci, "position": i}
                            for i, (a, b) in enumerate(zip(subs, subs[1:]))
                            if a & b != a or b.bit_count() != a.bit_count() + 1), None)
        if bad_sym is None and ch.start_rank + ch.top_rank != n:
            bad_sym = {"chain": ci}
        starts[ch.start_rank] += 1
    report = VerificationReport(f"scd n={n} chains={starts.total()}")
    report.add("no_duplicates", dup is None, dup)
    count = size - owner.count(-1)
    report.add("covers_all", count == size and outside is None,
               {"got": count, "expected": size, **(outside or {})})
    report.add("saturated", bad_sat is None, bad_sat)
    report.add("symmetric", bad_sym is None, bad_sym)
    _check_start_ranks(report, n, starts.elements())
    return report


def compare_profiles(n: int, basis: list[tuple[int, int]],
                     decomp: list[tuple[int, int]]) -> VerificationReport:
    """Two chain_length_sequence lists over {1..n} agree as multisets and in order."""
    report = VerificationReport(f"chain profiles n={n}")
    report.add("equal_as_multisets", Counter(basis) == Counter(decomp))
    report.add("equal_chain_by_chain", basis == decomp)
    return report
