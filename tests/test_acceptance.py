"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every check is exact; the only tolerances are the stated wall
clock budgets.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from sjb.jordan import build_sjb
from sjb.lattice import binomial
from sjb.operators import embed, lift, up
from sjb.scd import build_scd, chain_length_sequence
from sjb.vectors import Vector
from sjb.verify import (check_orthogonality, check_ratio_uniformity,
                        up_rank_check, verify_sjb)


@contextmanager
def criterion(num, desc, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL  {desc}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} PASS  {desc}  [{elapsed:.2f}s]", flush=True)
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {num} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")


@pytest.fixture(scope="module")
def levels10():
    # Bases for n = 0..10, shared by the structural criteria.
    return [build_sjb(m) for m in range(11)]


def test_criterion_1_golden_n2_basis():
    with criterion(1, "golden n=2 basis is exactly the hand-derived one",
                   budget_seconds=1.0):
        basis = build_sjb(2)
        assert len(basis.chains) == 2
        long, short = basis.chains
        assert long.start_rank == 0
        assert long.vectors == [Vector(2, {0b00: 1}),
                                Vector(2, {0b01: 1, 0b10: 1}),
                                Vector(2, {0b11: 2})]
        assert short.start_rank == 1
        assert short.vectors == [Vector(2, {0b10: 1, 0b01: -1})]


def test_criterion_2_structural_suite(levels10):
    with criterion(2, "verify_sjb passes for all n <= 12 "
                      "(full-rank elimination for n <= 10)",
                   budget_seconds=300.0):
        for n, basis in enumerate(levels10):
            report = verify_sjb(basis, check_full_rank=True)
            assert report.overall, f"n={n}: {report.failures()}"
        for n in (11, 12):
            report = verify_sjb(build_sjb(n), check_full_rank=False)
            assert report.overall, f"n={n}: {report.failures()}"


def test_criterion_3_orthogonality(levels10):
    with criterion(3, "every same-rank pair of basis vectors is orthogonal, "
                      "n <= 10", budget_seconds=120.0):
        for n, basis in enumerate(levels10):
            report = check_orthogonality(basis)
            assert report.overall, f"n={n}: {report.failures()}"


def test_criterion_4_ratio_uniformity(levels10):
    with criterion(4, "squared-norm ratio profiles agree per start rank, "
                      "n <= 10, and survive rescaling a chain by 7"):
        for n, basis in enumerate(levels10):
            report = check_ratio_uniformity(basis)
            assert report.overall, f"n={n}: {report.failures()}"
        basis = build_sjb(8)
        for idx in (0, len(basis.chains) // 2, len(basis.chains) - 1):
            ch = basis.chains[idx]
            basis.chains[idx] = type(ch)(ch.n, ch.start_rank,
                                         [7 * v for v in ch.vectors])
        report = check_ratio_uniformity(basis)
        assert report.overall, f"rescaled: {report.failures()}"


def test_criterion_5_injectivity_surjectivity():
    with criterion(5, "rank of up equals min(C(n,k), C(n,k+1)) for all "
                      "k < n <= 13", budget_seconds=300.0):
        for n in range(1, 14):
            for k in range(n):
                res = up_rank_check(n, k)
                dim_k, dim_k1 = binomial(n, k), binomial(n, k + 1)
                assert res.computed_rank == min(dim_k, dim_k1), (n, k, res)
                assert res.injective == (dim_k <= dim_k1), (n, k, res)
                assert res.surjective == (dim_k1 <= dim_k), (n, k, res)
                if 2 * k < n:
                    assert res.injective, (n, k)
                if 2 * k >= n:
                    assert res.surjective, (n, k)


def test_criterion_6_scd_partition():
    with criterion(6, "chain decomposition partitions all subsets into "
                      "saturated symmetric chains, n <= 16",
                   budget_seconds=60.0):
        for n in range(17):
            decomp = build_scd(n)
            seen = set()
            for ch in decomp.chains:
                for a, b in zip(ch.subsets, ch.subsets[1:]):
                    assert a & b == a and b.bit_count() == a.bit_count() + 1
                assert ch.start_rank + ch.top_rank == n
                for s in ch.subsets:
                    assert s not in seen
                    seen.add(s)
            assert len(seen) == 2 ** n
            counts = {}
            for ch in decomp.chains:
                counts[ch.start_rank] = counts.get(ch.start_rank, 0) + 1
            for k in range(n // 2 + 1):
                assert counts.get(k, 0) == binomial(n, k) - binomial(n, k - 1)


def test_criterion_7_linear_analog_correspondence():
    with criterion(7, "chain length profiles of basis and decomposition "
                      "agree, n <= 12, chain by chain"):
        for n in range(13):
            basis = build_sjb(n)
            decomp = build_scd(n)
            assert Counter(chain_length_sequence(basis)) == Counter(chain_length_sequence(decomp))
            assert chain_length_sequence(basis) == chain_length_sequence(decomp)


def test_criterion_8_ground_extension_recurrence():
    with criterion(8, "up on the extended ground set splits exactly, "
                      "200 random vectors per n <= 10"):
        rng = random.Random(20240809)
        for n in range(11):
            for _ in range(200):
                size = rng.randint(0, 8)
                terms = {rng.randrange(1 << n): rng.randint(-99, 99)
                         for _ in range(size)}
                v = Vector(n, terms)
                assert up(embed(v, n + 1)) == embed(up(v), n + 1) + lift(v)
                assert up(lift(v)) == lift(up(v))


def test_criterion_9_build_determinism(run_python, tmp_path):
    with criterion(9, "two independent CLI builds at n=10 are byte-identical"):
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            proc = run_python("-m", "sjb", "build", "--n", "10", "--out", str(path))
            assert proc.returncode == 0, proc.stderr
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert len(first) > 0
