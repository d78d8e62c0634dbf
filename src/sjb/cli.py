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
from .lattice import CapacityError, binomial, check_ground_size
from .operators import check_up_matrix_size
from .scd import ChainDecomposition, build_scd, chain_length_profile, chain_length_sequence
from .serialize import DocumentError, export_up_matrix_csv, load, save
from .verify import (check_orthogonality, check_ratio_uniformity, ratio_groups,
                     up_rank_check, verify_scd, verify_sjb, verify_sjc)

SJB_CHECKS = ("sjc", "basis", "ortho", "ratios")


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
        print("error: --all-levels requires an --out template containing {n}",
              file=sys.stderr)
        return 2
    check_ground_size(args.n, args.cap)
    builder = build_sjb if args.kind == "sjb" else build_scd
    for m in range(args.n + 1) if args.all_levels else [args.n]:
        obj = builder(m, cap=args.cap)
        path = args.out.format(n=m) if args.all_levels else args.out
        save(obj, path)
        print(f"wrote {path} (kind={args.kind}, n={m}, chains={len(obj.chains)})")
    return 0


def _cmd_verify(args) -> int:
    obj = load(args.file)
    if isinstance(obj, ChainDecomposition):
        if args.checks is not None:
            print("error: --checks applies only to sjb documents", file=sys.stderr)
            return 2
        report = verify_scd(obj)
        print(report)
        return 0 if report.overall else 1

    assert isinstance(obj, JordanBasis)
    selected = SJB_CHECKS if args.checks is None else tuple(args.checks.split(","))
    unknown = [c for c in selected if c not in SJB_CHECKS]
    if unknown:
        print(f"error: unknown checks {unknown}; choose from {','.join(SJB_CHECKS)}",
              file=sys.stderr)
        return 2
    ok = True
    for name in SJB_CHECKS:
        if name not in selected:
            continue
        if name == "sjc":
            for ci, ch in enumerate(obj.chains):
                rep = verify_sjc(ch)
                if not rep.overall:
                    print(rep)
                    ok = False
            print(f"== sjc: {len(obj.chains)} chains checked: "
                  f"{'PASS' if ok else 'FAIL'} ==")
        elif name == "basis":
            rep = verify_sjb(obj, check_full_rank=not args.no_full_rank)
            print(rep)
            ok = ok and rep.overall
        elif name == "ortho":
            rep = check_orthogonality(obj)
            print(rep)
            ok = ok and rep.overall
        elif name == "ratios":
            rep = check_ratio_uniformity(obj)
            print(rep)
            ok = ok and rep.overall
    return 0 if ok else 1


def _rank_row(arg: tuple[int, int]):
    return up_rank_check(*arg)


def _cmd_rank(args) -> int:
    n = args.n
    if n < 1:
        print("error: rank needs --n >= 1", file=sys.stderr)
        return 2
    check_ground_size(n, args.cap)
    ks = [args.k] if args.k is not None else list(range(n))
    if any(not 0 <= k < n for k in ks):
        print(f"error: --k must be in 0..{n - 1}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
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
    ok = True
    for res in results:
        print(f"{res.k:>3} {res.domain_dim:>8} {res.codomain_dim:>8} "
              f"{res.computed_rank:>8} {str(res.injective).lower():>9} "
              f"{str(res.surjective).lower():>10}")
        ok = ok and res.computed_rank == min(res.domain_dim, res.codomain_dim)
    print("rank == min(dim_k, dim_k+1) for all checked k:"
          f" {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    obj = load(args.file)
    if not isinstance(obj, JordanBasis):
        print("error: profile applies only to sjb documents", file=sys.stderr)
        return 2
    ok = True
    for k, group in ratio_groups(obj).items():
        ref = group[0][1].ratios
        uniform = all(prof.ratios == ref for _, prof in group)
        ok = ok and uniform
        shown = " ".join(str(r) for r in ref) if ref else "(single vector)"
        print(f"start_rank {k}: chains={len(group)} ratios: {shown}"
              + ("" if uniform else "  [NOT UNIFORM]"))
    print(f"profiles uniform within each start rank: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    basis = build_sjb(args.n, cap=args.cap)
    decomp = build_scd(args.n, cap=args.cap)
    seq_b = chain_length_sequence(basis)
    seq_d = chain_length_sequence(decomp)
    multiset_equal = chain_length_profile(basis) == chain_length_profile(decomp)
    chainwise_equal = seq_b == seq_d
    counts = sorted(chain_length_profile(basis).items())
    print(f"{'start_rank':>10} {'length':>7} {'chains':>7}")
    for (k, length), count in counts:
        print(f"{k:>10} {length:>7} {count:>7}")
    print(f"profiles equal as multisets: {'PASS' if multiset_equal else 'FAIL'}")
    print(f"profiles equal chain by chain: {'PASS' if chainwise_equal else 'FAIL'}")
    return 0 if multiset_equal and chainwise_equal else 1


def _cmd_stats(args) -> int:
    n = check_ground_size(args.n, args.cap)
    print(f"{'k':>3} {'dim C(n,k)':>12} {'chains starting':>16}")
    for k in range(n + 1):
        starting = max(binomial(n, k) - binomial(n, k - 1), 0)
        print(f"{k:>3} {binomial(n, k):>12} {starting:>16}")
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
    except (CapacityError, DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
