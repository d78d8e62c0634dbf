"""Exact machine checks on constructed bases and decompositions.

Every check is exact integer or rational arithmetic; no report ever
depends on a tolerance.  Failures carry a witness that points back into
the input (chain index, position, rank, or vector pair) so they can be
re-checked by hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .elimination import exact_rank
from .jordan import JordanBasis, JordanChain
from .lattice import binomial, chains_starting, rank_of, subsets_of_rank
from .operators import up, up_matrix
from .scd import ChainDecomposition, chain_length_profile, chain_length_sequence
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

    bad_link = None
    for i in range(chain.length - 1):
        if up(chain.vectors[i]) != chain.vectors[i + 1]:
            bad_link = {"position": i}
            break
    report.add("up_links", bad_link is None, bad_link)

    top = up(chain.vectors[-1])
    report.add("top_annihilated", top.is_zero, {"position": chain.length - 1})

    report.add("rank_symmetry", k + chain.top_rank == n,
               {"start_rank": k, "top_rank": chain.top_rank, "n": n})
    return report


def chain_reports(basis: JordanBasis):
    """(chain index, verify_sjc report) of every chain, lazily, in order."""
    return ((ci, verify_sjc(ch)) for ci, ch in enumerate(basis.chains))


def _check_start_ranks(report: VerificationReport, n: int, chains) -> None:
    """Add start_rank_counts: each rank k starts chains_starting(n, k) chains."""
    starts = Counter(ch.start_rank for ch in chains)
    bad = next(({"start_rank": k, "got": starts[k], "expected": chains_starting(n, k)}
                for k in range(n + 1) if starts[k] != chains_starting(n, k)), None)
    report.add("start_rank_counts", bad is None, bad)


def _rank_matrix(basis: JordanBasis, r: int) -> list[list[int]] | None:
    """Coordinate rows of all rank-r basis vectors, in ascending-mask order.

    None when a vector placed at rank r has a term of another rank.
    """
    order = {mask: j for j, mask in enumerate(subsets_of_rank(basis.n, r))}
    rows = []
    for _, _, v in basis.vectors_of_rank(r):
        row = [0] * len(order)
        for mask, c in v.items():
            j = order.get(mask)
            if j is None:
                return None
            row[j] = c
        rows.append(row)
    return rows


def verify_sjb(basis: JordanBasis, check_full_rank: bool = True) -> VerificationReport:
    """Check a full basis: chains, counts, and per-rank linear independence.

    The per-rank full-rank check runs exact_rank on a C(n,r) x C(n,r)
    integer matrix per rank; disable it via check_full_rank for large n
    where only the structural checks are wanted.
    """
    n = basis.n
    report = VerificationReport(f"sjb n={n} chains={len(basis.chains)}")

    bad_chain = next(({"chain": ci, "failed": [c.name for c in sub.failures()]}
                      for ci, sub in chain_reports(basis) if not sub.overall), None)
    report.add("chains_valid", bad_chain is None, bad_chain)

    total = basis.total_vectors()
    report.add("total_count", total == 2 ** n, {"got": total, "expected": 2 ** n})

    bad_rank = None
    for r in range(n + 1):
        got = len(basis.vectors_of_rank(r))
        if got != binomial(n, r):
            bad_rank = {"rank": r, "got": got, "expected": binomial(n, r)}
            break
    report.add("rank_counts", bad_rank is None, bad_rank)
    _check_start_ranks(report, n, basis.chains)

    if check_full_rank:
        for r in range(n + 1):
            count = len(basis.vectors_of_rank(r))
            expected = binomial(n, r)
            # The stack must be square (C(n,r) vectors of rank r) and
            # nonsingular.  A stack of the wrong size fails without being
            # ranked: its matrix has C(n,r) columns however few vectors the
            # document holds.
            rows = _rank_matrix(basis, r) if count == expected else None
            rank = None if rows is None else exact_rank(rows)
            report.add(f"full_rank[r={r}]", rank == expected,
                       {"rank": r, "vectors": count, "computed_rank": rank,
                        "expected": expected})
    return report


def check_orthogonality(basis: JordanBasis) -> VerificationReport:
    """All distinct basis vectors of equal rank have inner product zero.

    Vectors of different ranks have disjoint supports, so cross-rank
    pairs are zero structurally and are not recomputed.
    """
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


def ratio_groups(basis: JordanBasis) -> dict[int, list[tuple[int, RatioProfile]]]:
    """(chain index, ratio profile) of every chain, by start rank, ascending."""
    by_start: dict[int, list[tuple[int, RatioProfile]]] = {}
    for ci, ch in enumerate(basis.chains):
        by_start.setdefault(ch.start_rank, []).append((ci, ratio_profile(ch)))
    return dict(sorted(by_start.items()))


def check_ratio_uniformity(basis: JordanBasis) -> VerificationReport:
    """Chains sharing a start rank have identical squared-norm ratio profiles.

    Exact rational comparison, hence invariant under rescaling any whole
    chain by a nonzero scalar.
    """
    return ratio_uniformity(basis.n, ratio_groups(basis))


def ratio_uniformity(n: int, groups: dict[int, list[tuple[int, RatioProfile]]]
                     ) -> VerificationReport:
    """check_ratio_uniformity on profiles already grouped by ratio_groups."""
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
    rank = exact_rank(m.rows)
    rows, cols = m.shape
    return UpRankResult(n=n, k=k, domain_dim=cols, codomain_dim=rows,
                        computed_rank=rank,
                        injective=rank == cols, surjective=rank == rows)


def unimodality_report(n: int) -> VerificationReport:
    """Binomial coefficients rise to the middle, symmetrically.

    Each inequality C(n,k) <= C(n,k+1) on the lower half is cross-checked
    against the computed rank of the up operator: rank C(n,k) forces the
    inequality since the rank is also at most C(n,k+1).
    """
    report = VerificationReport(f"unimodality n={n}")
    report.add("symmetric", all(binomial(n, k) == binomial(n, n - k)
                                for k in range(n + 1)), {"n": n})
    for k in range(n // 2):
        report.add(f"nondecreasing[k={k}]", binomial(n, k) <= binomial(n, k + 1),
                   {"k": k})
    for k in range(n // 2):
        res = up_rank_check(n, k)
        report.add(f"injective_up[k={k}]", res.injective,
                   {"k": k, "computed_rank": res.computed_rank})
    return report


def verify_scd(decomp: ChainDecomposition) -> VerificationReport:
    """Partition, saturation, and symmetry checks for a chain decomposition."""
    n = decomp.n
    report = VerificationReport(f"scd n={n} chains={len(decomp.chains)}")

    seen: dict[int, int] = {}
    dup = None
    for ci, ch in enumerate(decomp.chains):
        for s in ch.subsets:
            if s in seen and dup is None:
                dup = {"subset_mask": s, "chains": [seen[s], ci]}
            seen[s] = ci
    report.add("no_duplicates", dup is None, dup)
    report.add("covers_all", len(seen) == 2 ** n,
               {"got": len(seen), "expected": 2 ** n})

    bad_sat = None
    for ci, ch in enumerate(decomp.chains):
        for i in range(len(ch.subsets) - 1):
            a, b = ch.subsets[i], ch.subsets[i + 1]
            if not (a & b == a and rank_of(b) == rank_of(a) + 1):
                bad_sat = {"chain": ci, "position": i}
                break
        if bad_sat:
            break
    report.add("saturated", bad_sat is None, bad_sat)

    bad_sym = next(({"chain": ci} for ci, ch in enumerate(decomp.chains)
                    if ch.start_rank + ch.top_rank != n), None)
    report.add("symmetric", bad_sym is None, bad_sym)
    _check_start_ranks(report, n, decomp.chains)
    return report


def compare_profiles(basis: JordanBasis, decomp: ChainDecomposition) -> VerificationReport:
    """The basis and the decomposition have the same (start rank, length) chains."""
    report = VerificationReport(f"chain profiles n={basis.n}")
    report.add("equal_as_multisets",
               chain_length_profile(basis) == chain_length_profile(decomp))
    report.add("equal_chain_by_chain",
               chain_length_sequence(basis) == chain_length_sequence(decomp))
    return report
