"""Command-line interface.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
or input errors.  All output is deterministic; nothing is randomized.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .jordan import JordanBasis, build_sjb
from .lattice import CapacityError, binomial, chains_starting, check_ground_size
from .operators import check_up_matrix_size
from .scd import ChainDecomposition, build_scd, chain_length_profile
from .serialize import DocumentError, export_up_matrix_csv, load, save
from .verify import (VerificationReport, chain_reports, check_orthogonality,
                     check_ratio_uniformity, compare_profiles, ratio_groups,
                     ratio_uniformity, up_rank_check, verify_scd, verify_sjb)


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _show(report: VerificationReport) -> bool:
    print(report)
    return report.overall


def _check_chains(basis: JordanBasis, args) -> bool:
    ok = True
    for _, report in chain_reports(basis):
        if not report.overall:
            print(report)
            ok = False
    print(f"== sjc: {len(basis.chains)} chains checked: {'PASS' if ok else 'FAIL'} ==")
    return ok


# The checks `verify` runs on an sjb document, in order.  Each entry looks its
# library check up when called, so a rebound module global is honoured.
SJB_CHECKS = {
    "sjc": _check_chains,
    "basis": lambda basis, args: _show(
        verify_sjb(basis, check_full_rank=not args.no_full_rank)),
    "ortho": lambda basis, args: _show(check_orthogonality(basis)),
    "ratios": lambda basis, args: _show(check_ratio_uniformity(basis)),
}


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
    p.add_argument("--cap", type=int, default=None, help="override the ground size cap")

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
    p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("profile", help="squared-norm ratio profiles of a basis file")
    p.add_argument("file")

    p = sub.add_parser("compare", help="chain length profiles: basis vs decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("stats", help="chain counts and level dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("export-matrix", help="write the 0/1 up matrix as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_build(args) -> int:
    if args.all_levels and "{n}" not in args.out:
        return _error("--all-levels requires an --out template containing {n}")
    check_ground_size(args.n, args.cap)
    levels = range(args.n + 1) if args.all_levels else [args.n]
    try:
        paths = [args.out.format(n=m) for m in levels] if args.all_levels else [args.out]
    except (KeyError, IndexError, ValueError) as exc:
        return _error(f"--out template {args.out!r} must format with {{n}} alone "
                      f"({type(exc).__name__}: {exc})")
    builder = build_sjb if args.kind == "sjb" else build_scd
    for m, path in zip(levels, paths):
        obj = builder(m, cap=args.cap)
        save(obj, path)
        print(f"wrote {path} (kind={args.kind}, n={m}, chains={len(obj.chains)})")
    return 0


def _cmd_verify(args) -> int:
    obj = load(args.file)
    if isinstance(obj, ChainDecomposition):
        if args.checks is not None:
            return _error("--checks applies only to sjb documents")
        return 0 if _show(verify_scd(obj)) else 1

    assert isinstance(obj, JordanBasis)
    selected = SJB_CHECKS if args.checks is None else args.checks.split(",")
    unknown = [c for c in selected if c not in SJB_CHECKS]
    if unknown:
        return _error(f"unknown checks {unknown}; choose from {','.join(SJB_CHECKS)}")
    passed = [check(obj, args) for name, check in SJB_CHECKS.items() if name in selected]
    return 0 if all(passed) else 1


def _rank_row(arg: tuple[int, int]):
    return up_rank_check(*arg)


def _cmd_rank(args) -> int:
    n = args.n
    if n < 1:
        return _error("rank needs --n >= 1")
    check_ground_size(n, args.cap)
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_rank_row, [(n, k) for k in ks]))
    else:
        results = [up_rank_check(n, k) for k in ks]
    print(f"{'k':>3} {'dim_k':>8} {'dim_k+1':>8} {'rank':>8} "
          f"{'injective':>9} {'surjective':>10}")
    for res in results:
        print(f"{res.k:>3} {res.domain_dim:>8} {res.codomain_dim:>8} "
              f"{res.computed_rank:>8} {str(res.injective).lower():>9} "
              f"{str(res.surjective).lower():>10}")
    ok = all(res.injective or res.surjective for res in results)
    print("rank == min(dim_k, dim_k+1) for all checked k:"
          f" {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    obj = load(args.file)
    if not isinstance(obj, JordanBasis):
        return _error("profile applies only to sjb documents")
    groups = ratio_groups(obj)
    report = ratio_uniformity(obj.n, groups)
    for (k, group), check in zip(groups.items(), report.checks):
        ref = group[0][1].ratios
        shown = " ".join(str(r) for r in ref) if ref else "(single vector)"
        print(f"start_rank {k}: chains={len(group)} ratios: {shown}"
              + ("" if check.passed else "  [NOT UNIFORM]"))
    print(f"profiles uniform within each start rank: {'PASS' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def _cmd_compare(args) -> int:
    basis = build_sjb(args.n, cap=args.cap)
    report = compare_profiles(basis, build_scd(args.n, cap=args.cap))
    print(f"{'start_rank':>10} {'length':>7} {'chains':>7}")
    for (k, length), count in sorted(chain_length_profile(basis).items()):
        print(f"{k:>10} {length:>7} {count:>7}")
    multiset, chainwise = report.checks
    print(f"profiles equal as multisets: {'PASS' if multiset.passed else 'FAIL'}")
    print(f"profiles equal chain by chain: {'PASS' if chainwise.passed else 'FAIL'}")
    return 0 if report.overall else 1


def _cmd_stats(args) -> int:
    n = check_ground_size(args.n, args.cap)
    print(f"{'k':>3} {'dim C(n,k)':>12} {'chains starting':>16}")
    for k in range(n + 1):
        print(f"{k:>3} {binomial(n, k):>12} {chains_starting(n, k):>16}")
    print(f"total subsets: {2 ** n}")
    print(f"total chains:  {binomial(n, n // 2)}")
    return 0


def _cmd_export_matrix(args) -> int:
    check_ground_size(args.n)
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


if __name__ == "__main__":
    sys.exit(main())
