"""Command-line interface.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
or input errors and when memory runs out.  All output is deterministic;
nothing is randomized.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from .jordan import JordanBasis, sjb_chains
from .lattice import CapacityError, binomial, chains_starting, check_ground_size
from .operators import check_up_matrix_size
from .scd import ChainDecomposition, scd_chains
from .serialize import DocumentError, export_up_matrix_csv, read_chains, save
from .verify import (SJB_CHECKS, compare_profiles, profile_groups, ratio_profile,
                     ratio_uniformity, unimodality_report, up_rank_check, verify_chains,
                     verify_scd)


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjb",
        description="Build and verify symmetric Jordan bases and symmetric "
                    "chain decompositions of the subset lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a basis or decomposition and write it out")
    p.add_argument("--n", type=int, required=True, help="ground set size")
    p.add_argument("--kind", choices=("sjb", "scd"), default="sjb")
    p.add_argument("--out", required=True, help="output path; with --all-levels, "
                                                "a template containing {n}")
    p.add_argument("--all-levels", action="store_true",
                   help="write every level 0..n instead of only level n")

    p = sub.add_parser("verify", help="verify a previously written document")
    p.add_argument("file")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of %s (sjb documents only)"
                        % ",".join(SJB_CHECKS))
    p.add_argument("--no-full-rank", action="store_true",
                   help="skip the per-rank elimination check in the basis check")

    p = sub.add_parser("rank", help="exact rank of the up operator per rank level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="single level (default: all)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p = sub.add_parser("profile", help="squared-norm ratio profiles of a basis file")
    p.add_argument("file")

    p = sub.add_parser("compare", help="chain length profiles: basis vs decomposition")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("stats", help="chain counts and level dimensions")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("export-matrix", help="write the 0/1 up matrix as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_build(args) -> int:
    check_ground_size(args.n)
    levels = range(args.n + 1) if args.all_levels else [args.n]
    # Each chain is written as the walk grows it; the walk has C(m, m/2) leaves.
    # Making the walks checks the size of every level before any file is written.
    kind, chains = ((JordanBasis, sjb_chains) if args.kind == "sjb"
                    else (ChainDecomposition, scd_chains))
    walks = [chains(m) for m in levels]
    try:
        paths = [args.out.format(n=m) for m in levels] if args.all_levels else [args.out]
    except (KeyError, IndexError, ValueError) as exc:
        return _error(f"--out template {args.out!r} must format with {{n}} alone "
                      f"({type(exc).__name__}: {exc})")
    if len(set(paths)) < len(paths):
        return _error(f"--out template {args.out!r} must give each level its own path")
    for m, path, walk in zip(levels, paths, walks):
        save(kind(m, walk), path)
        print(f"wrote {path} (kind={args.kind}, n={m}, chains={binomial(m, m // 2)})")
    return 0


def _refuse(chains, message) -> int:
    for _ in chains:  # a fault in the document is reported first
        pass
    return _error(message)


def _cmd_verify(args) -> int:
    kind, n, chains = read_chains(args.file)
    checks = SJB_CHECKS if args.checks is None else args.checks.split(",")
    unknown = [c for c in checks if c not in SJB_CHECKS]
    if args.checks is not None and (kind == "scd" or unknown):
        return _refuse(chains, "--checks applies only to sjb documents" if kind == "scd" else
                       f"unknown checks {unknown}; choose from {','.join(SJB_CHECKS)}")
    reports = ([verify_scd(ChainDecomposition(n, chains))] if kind == "scd" else
               verify_chains(n, chains, checks, not args.no_full_rank))
    print(*reports, sep="\n")
    return 0 if all(r.overall for r in reports) else 1


def _cmd_rank(args) -> int:
    n = check_ground_size(args.n)
    if n < 1:
        return _error("rank needs --n >= 1")
    ks = [args.k] if args.k is not None else list(range(n))
    if any(not 0 <= k < n for k in ks):
        return _error(f"--k must be in 0..{n - 1}")
    if args.jobs < 1:
        return _error("--jobs must be >= 1")
    for k in ks:
        check_up_matrix_size(n, k)
    # More workers than levels or cores would only add processes to start.
    workers = min(args.jobs, len(ks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(up_rank_check, [n] * len(ks), ks))
        except BrokenExecutor as exc:  # a worker died: no verdict, so not exit 1
            return _error(exc)
    else:
        results = [up_rank_check(n, k) for k in ks]
    print(f"{'k':>3} {'dim_k':>8} {'dim_k+1':>8} {'rank':>8} "
          f"{'injective':>9} {'surjective':>10}")
    for res in results:
        print(f"{res.k:>3} {res.domain_dim:>8} {res.codomain_dim:>8} "
              f"{res.computed_rank:>8} {str(res.injective).lower():>9} "
              f"{str(res.surjective).lower():>10}")
    ok = unimodality_report(n, results).overall
    print("rank == min(dim_k, dim_k+1) for all checked k:"
          f" {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    kind, n, chains = read_chains(args.file)
    if kind != "sjb":
        return _refuse(chains, "profile applies only to sjb documents")
    groups = profile_groups(map(ratio_profile, chains))  # holds the profiles, not the chains
    report = ratio_uniformity(n, groups)
    for (k, group), check in zip(groups.items(), report.checks):
        ref = group[0][1].ratios
        shown = " ".join(str(r) for r in ref) if ref else "(single vector)"
        print(f"start_rank {k}: chains={len(group)} ratios: {shown}"
              + ("" if check.passed else "  [NOT UNIFORM]"))
    print(f"profiles uniform within each start rank: {'PASS' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def _cmd_compare(args) -> int:
    # Each walk keeps only its chains' (start rank, length): one chain is held at a time.
    basis = [(ch.start_rank, ch.length) for ch in sjb_chains(args.n)]
    decomp = [(ch.start_rank, ch.length) for ch in scd_chains(args.n)]
    report = compare_profiles(args.n, basis, decomp)
    print(f"{'start_rank':>10} {'length':>7} {'chains':>7}")
    for (k, length), count in sorted(Counter(basis).items()):
        print(f"{k:>10} {length:>7} {count:>7}")
    multiset, chainwise = report.checks
    print(f"profiles equal as multisets: {'PASS' if multiset.passed else 'FAIL'}")
    print(f"profiles equal chain by chain: {'PASS' if chainwise.passed else 'FAIL'}")
    return 0 if report.overall else 1


def _cmd_stats(args) -> int:
    n = check_ground_size(args.n)
    print(f"{'k':>3} {'dim C(n,k)':>12} {'chains starting':>16}")
    for k in range(n + 1):
        print(f"{k:>3} {binomial(n, k):>12} {chains_starting(n, k):>16}")
    print(f"total subsets: {2 ** n}")
    print(f"total chains:  {binomial(n, n // 2)}")
    return 0


def _cmd_export_matrix(args) -> int:
    if check_ground_size(args.n) < 1:
        return _error("export-matrix needs --n >= 1")
    export_up_matrix_csv(args.n, args.k, args.out)
    print(f"wrote {args.out} ({binomial(args.n, args.k + 1)}x{binomial(args.n, args.k)})")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "rank": _cmd_rank,
    "profile": _cmd_profile,
    "compare": _cmd_compare,
    "stats": _cmd_stats,
    "export-matrix": _cmd_export_matrix,
}


def main(argv=None) -> int:
    # sjb's numpy arithmetic is integer-only and never reaches a BLAS routine.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CapacityError, DocumentError, ValueError, OSError) as exc:
        return _error(exc)
    except MemoryError as exc:
        return _error(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
