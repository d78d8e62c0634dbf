"""Command-line surface: subcommand flows and exit codes."""

import concurrent.futures
import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import sjb.cli
from sjb.cli import main
from sjb.serialize import load, save, serialize, to_document
from sjb.jordan import build_sjb
from sjb.scd import build_scd
from sjb.vectors import Vector


def test_build_then_verify_sjb(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["build", "--n", "2", "--kind", "sjb", "--out", str(out)]) == 0
    assert load(out) == build_sjb(2)
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text


def test_build_then_verify_scd(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["build", "--n", "4", "--kind", "scd", "--out", str(out)]) == 0
    assert load(out) == build_scd(4)
    assert main(["verify", str(out)]) == 0
    assert "scd n=4" in capsys.readouterr().out


def test_verify_selected_checks(tmp_path, capsys):
    out = tmp_path / "b.json"
    save(build_sjb(3), out)
    assert main(["verify", str(out), "--checks", "ortho,ratios"]) == 0
    text = capsys.readouterr().out
    assert "orthogonality" in text and "ratio uniformity" in text
    assert "full_rank" not in text


def test_verify_tampered_file_exits_1(tmp_path, capsys):
    out = tmp_path / "t.json"
    save(build_sjb(3), out)
    doc = json.loads(out.read_text())
    doc["chains"][0]["vectors"][1][0]["coeff"] = "7"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "witness" in text


def test_verify_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": "1", "kind": "sjb", "n": 1, "chains": [')
    assert main(["verify", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["build", "--n", "2"]) == 2  # missing --out
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "symmetric" in capsys.readouterr().out.lower()


def _refuse_walks(monkeypatch):
    def refuse(*args):  # a walk may be made, but not advanced
        raise AssertionError("advanced the walk of an over-budget build")
        yield

    monkeypatch.setattr("sjb.jordan.grow", refuse)
    monkeypatch.setattr("sjb.scd.grow", refuse)


SJB_15_OVER = "error: sjb basis for n=15 has 82818450 terms, over the cap of 67108864\n"
SCD_27_OVER = "error: scd decomposition for n=27 has 134217728 subsets, over the cap of 67108864\n"


def test_build_over_cap_exits_2(tmp_path, capsys, monkeypatch):
    # T(14) = 22,084,920 <= 2**26 < T(15), and 2**26 subsets fit but 2**27 do not.
    _refuse_walks(monkeypatch)
    out = tmp_path / "x.json"
    for argv, message in [(["build", "--n", "15"], SJB_15_OVER),
                          (["build", "--kind", "scd", "--n", "27"], SCD_27_OVER)]:
        start = time.perf_counter()
        assert main(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []


def test_compare_over_cap_exits_2(capsys, monkeypatch):
    _refuse_walks(monkeypatch)
    start = time.perf_counter()
    assert main(["compare", "--n", "15"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", SJB_15_OVER)


@pytest.mark.parametrize("argv", [["rank", "--n", "30", "--k", "0"], ["stats", "--n", "40"],
                                  ["export-matrix", "--n", "30", "--k", "1"]],
                         ids=["rank", "stats", "export-matrix"])
def test_small_work_over_a_large_ground_set_is_admitted(tmp_path, capsys, argv):
    if argv[0] == "export-matrix":
        argv = argv + ["--out", str(tmp_path / "m.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_rank_table(capsys):
    assert main(["rank", "--n", "2"]) == 0
    text = capsys.readouterr().out
    lines = [line.split() for line in text.splitlines()]
    assert lines[1] == ["0", "1", "2", "1", "true", "false"]
    assert lines[2] == ["1", "2", "1", "1", "false", "true"]
    assert "PASS" in text


def test_rank_single_level_and_errors(capsys):
    assert main(["rank", "--n", "5", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == ["2", "10", "10", "10", "true", "true"]
    assert main(["rank", "--n", "5", "--k", "5"]) == 2
    assert main(["rank", "--n", "0"]) == 2
    capsys.readouterr()


def test_rank_parallel_matches_serial(capsys):
    assert main(["rank", "--n", "6", "--jobs", "2"]) == 0
    par = capsys.readouterr().out
    assert main(["rank", "--n", "6"]) == 0
    ser = capsys.readouterr().out
    assert par == ser


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_rank_jobs_capped_by_levels_and_cores(monkeypatch, capsys):
    # The pool is imported from concurrent.futures only when one is needed.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(sjb.cli.os, "cpu_count", lambda: 4)
    _InlinePool.sizes = []
    assert main(["rank", "--n", "6", "--jobs", "100000"]) == 0
    assert main(["rank", "--n", "6", "--jobs", "3"]) == 0
    assert main(["rank", "--n", "2", "--jobs", "100000"]) == 0
    assert main(["rank", "--n", "6", "--k", "2", "--jobs", "100000"]) == 0
    assert _InlinePool.sizes == [4, 3, 2]
    capsys.readouterr()


def test_rank_fails_on_a_deficient_level(monkeypatch, capsys):
    # One level of n = 5 comes back a rank short: neither injective nor surjective.
    real = sjb.cli.up_rank_check

    def deficient(n, k):
        res = real(n, k)
        if k == 1:
            res = dataclasses.replace(res, computed_rank=res.computed_rank - 1,
                                      injective=False, surjective=False)
        return res

    monkeypatch.setattr("sjb.cli.up_rank_check", deficient)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(sjb.cli.os, "cpu_count", lambda: 4)
    _InlinePool.sizes = []
    verdict = "rank == min(dim_k, dim_k+1) for all checked k: FAIL"
    for jobs in ("1", "2"):
        assert main(["rank", "--n", "5", "--jobs", jobs]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[2].split() == ["1", "5", "10", "4", "false", "false"]
        assert out[-1] == verdict
    assert _InlinePool.sizes == [2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_rank_rejects_nonpositive_jobs(capsys, jobs):
    assert main(["rank", "--n", "4", "--jobs", jobs]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 158. MiB for an array")


@pytest.mark.parametrize("target, argv", [
    ("sjb.cli.up_rank_check", ["rank", "--n", "5", "--jobs", "1"]),
    ("sjb.cli.up_rank_check", ["rank", "--n", "5", "--jobs", "2"]),
    ("sjb.verify.check_orthogonality", ["verify", "{d}/b.json"]),
], ids=["rank serial", "rank pool", "verify"])
def test_out_of_memory_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                   target, argv):
    # Exit 1 is a FAIL verdict: running out of memory is not one.
    save(build_sjb(4), tmp_path / "b.json")
    monkeypatch.setattr(target, _out_of_memory)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(sjb.cli.os, "cpu_count", lambda: 4)
    _InlinePool.sizes = []
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 158. MiB for an array\n"
    assert _InlinePool.sizes == ([2] if "2" in argv else [])


_WORKER_DIED = ("A process in the process pool was terminated abruptly while the "
                "future was running or pending.")


class _DyingPool(_InlinePool):
    """A pool whose worker is killed, as by the OOM killer."""

    def map(self, fn, *iterables):
        raise concurrent.futures.process.BrokenProcessPool(_WORKER_DIED)


def test_dead_rank_worker_exits_2_with_one_error_line(monkeypatch, capsys):
    # Exit 1 is a FAIL verdict: a dead worker gives no verdict.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _DyingPool)
    monkeypatch.setattr(sjb.cli.os, "cpu_count", lambda: 4)
    assert main(["rank", "--n", "5", "--jobs", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {_WORKER_DIED}\n")


def test_bare_memory_error_says_out_of_memory(monkeypatch, capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr("sjb.cli.up_rank_check", out_of_memory)
    assert main(["rank", "--n", "3"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("command", ["build", "rank", "compare", "stats", "export-matrix"])
def test_n_commands_refuse_sizes_outside_0_to_63(tmp_path, capsys, command):
    def argv(n):
        return {"build": ["build", "--n", n, "--out", str(tmp_path / "b.json")],
                "export-matrix": ["export-matrix", "--n", n, "--k", "3",
                                  "--out", str(tmp_path / "m.csv")]
                }.get(command, [command, "--n", n])

    for n in ("-1", "64"):
        assert main(argv(n)) == 2
        assert capsys.readouterr().err == f"error: ground set size must be in 0..63, got {n}\n"
    assert list(tmp_path.iterdir()) == []
    assert main(argv("8")) == 0
    capsys.readouterr()
    assert main(argv("8") + ["--cap", "8"]) == 2
    assert "unrecognized arguments: --cap 8" in capsys.readouterr().err


def test_profile_command(tmp_path, capsys):
    out = tmp_path / "b.json"
    save(build_sjb(4), out)
    assert main(["profile", str(out)]) == 0
    text = capsys.readouterr().out
    assert "start_rank 0" in text and "PASS" in text


PROFILE_N6 = """\
start_rank 0: chains=1 ratios: 6 10 12 12 10 6
start_rank 1: chains=5 ratios: 4 6 6 4{mark}
start_rank 2: chains=9 ratios: 2 2
start_rank 3: chains=5 ratios: (single vector)
profiles uniform within each start rank: {verdict}
"""


def test_profile_stdout_pinned(tmp_path, capsys):
    out = tmp_path / "b.json"
    save(build_sjb(6), out)
    assert main(["profile", str(out)]) == 0
    assert capsys.readouterr().out == PROFILE_N6.format(mark="", verdict="PASS")
    assert main(["verify", str(out), "--checks", "ratios"]) == 0
    capsys.readouterr()

    # Tripling the top vector of the second start-rank-1 chain breaks its
    # last ratio; the group still shows the first chain's profile.
    doc = json.loads(serialize(build_sjb(6)))
    chain = [ch for ch in doc["chains"] if ch["start_rank"] == 1][1]
    for term in chain["vectors"][-1]:
        term["coeff"] = str(3 * int(term["coeff"]))
    out.write_text(json.dumps(doc))
    assert main(["profile", str(out)]) == 1
    assert capsys.readouterr().out == PROFILE_N6.format(mark="  [NOT UNIFORM]",
                                                        verdict="FAIL")
    assert main(["verify", str(out), "--checks", "ratios"]) == 1
    capsys.readouterr()


def test_profile_rejects_scd(tmp_path, capsys):
    out = tmp_path / "d.json"
    save(build_scd(3), out)
    assert main(["profile", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: profile applies only to sjb documents\n")


def test_compare_command(capsys):
    assert main(["compare", "--n", "6"]) == 0
    text = capsys.readouterr().out
    assert "multisets: PASS" in text and "chain by chain: PASS" in text


def test_compare_holds_no_whole_build(capsys):
    # The n = 10 basis alone takes 8.6 MiB; compare keeps one chain of each walk.
    tracemalloc.start()
    try:
        assert main(["compare", "--n", "10"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    capsys.readouterr()


def test_stats_command(capsys):
    assert main(["stats", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert "total subsets: 16" in text
    assert "total chains:  6" in text


def test_verify_basis_reports_a_copied_vector(tmp_path, capsys):
    basis = build_sjb(9)
    (ci, pos, _), (_, _, v) = basis.vectors_of_rank(4)[:2]
    basis.chains[ci].vectors[pos] = v
    path = tmp_path / "tampered9.json"
    save(basis, path)
    assert main(["verify", str(path), "--checks", "basis"]) == 1
    assert ("FAIL full_rank[r=4]  witness={'rank': 4, 'vectors': 126, "
            "'computed_rank': 125, 'expected': 126}") in capsys.readouterr().out.splitlines()


def test_export_matrix_command(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["export-matrix", "--n", "3", "--k", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    assert main(["export-matrix", "--n", "3", "--k", "3", "--out", str(out)]) == 2
    capsys.readouterr()


def test_export_matrix_needs_a_nonempty_ground_set(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sjb.cli, "export_up_matrix_csv", None)  # refused before it runs
    out = tmp_path / "m.csv"
    assert main(["export-matrix", "--n", "0", "--k", "0", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: export-matrix needs --n >= 1\n")
    assert not out.exists()


def test_export_matrix_csv_pinned(tmp_path, capsys):
    # sha256 of the CSV as the list-of-lists up matrix wrote it.
    out = tmp_path / "m.csv"
    assert main(["export-matrix", "--n", "8", "--k", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "602327ca2118d1d6f80bdfc8c0ee8e537c52358549fd2180cc1fac1a8fb655dc")


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated the subsets of an over-cap matrix")

    monkeypatch.setattr("sjb.operators.subsets_of_rank", refuse)
    monkeypatch.setattr("sjb.cli.up_rank_check", refuse)


@pytest.mark.parametrize("argv, message", [
    (["export-matrix", "--n", "64", "--k", "20"], "ground set size must be in 0..63, got 64"),
    (["export-matrix", "--n", "20", "--k", "10"], "up matrix for n=20, k=10 has"),
    (["rank", "--n", "24", "--k", "12"], "up matrix for n=24, k=12 has"),
    (["rank", "--n", "24"], "up matrix for n=24, k=4 has"),
    (["export-matrix", "--n", "40", "--k", "20"], "up matrix for n=40, k=20 has"),
])
def test_oversized_up_matrix_exits_2_without_allocating(tmp_path, monkeypatch, capsys,
                                                        argv, message):
    _refuse_enumeration(monkeypatch)
    if argv[0] == "export-matrix":
        argv = argv + ["--out", str(tmp_path / "m.csv")]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_forged_one_chain_document_fails_fast(tmp_path, capsys):
    # A 20-element middle subset at n = 40: every per-rank count is wrong,
    # so no rank may be eliminated over C(40, r) columns.
    doc = {"format_version": "1", "kind": "sjb", "n": 40, "chains": [
        {"start_rank": 20, "vectors": [[{"subset": list(range(1, 21)), "coeff": "1"}]]}]}
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 2.0
    text = capsys.readouterr().out
    assert "FAIL full_rank[r=20]  witness={'rank': 20, 'vectors': 1, " \
           "'computed_rank': None, 'expected': 137846528820}" in text


@pytest.fixture(scope="module")
def forged_singletons(tmp_path_factory):
    """n = 63 documents: the empty set plus every r-subset as its own chain."""
    d = tmp_path_factory.mktemp("forged")
    paths = {}
    for r in (2, 3):
        chains = [{"start_rank": 0, "vectors": [[{"subset": [], "coeff": "1"}]]}]
        chains += [{"start_rank": r, "vectors": [[{"subset": list(s), "coeff": "1"}]]}
                   for s in itertools.combinations(range(1, 64), r)]
        paths[r] = d / f"rank{r}.json"
        paths[r].write_text(json.dumps({"format_version": "1", "kind": "sjb", "n": 63,
                                        "chains": chains}))
    return paths


@pytest.mark.parametrize("checks", [[], ["--checks", "basis"]])
def test_forged_over_cap_stack_exits_2_fast(forged_singletons, capsys, checks):
    # 39,711 rank-3 vectors: ranking them needs a 39,711 x 39,711 matrix.
    start = time.perf_counter()
    assert main(["verify", str(forged_singletons[3])] + checks) == 2
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: rank 3 stack of n=63 has 1576963521 entries, "
                   "over the cap of 67108864\n")


def test_forged_under_cap_stack_is_still_ranked(forged_singletons, capsys):
    assert main(["verify", str(forged_singletons[2]), "--checks", "basis"]) == 1
    out = capsys.readouterr().out
    assert "PASS full_rank[r=2]\n" in out and "overall: FAIL" in out


@pytest.mark.parametrize("checks", [["--checks", "ortho"], ["--no-full-rank"]])
def test_forged_over_cap_rank_skips_pairwise_check(forged_singletons, capsys, checks):
    # 39,711 rank-3 vectors: 788M inner products, about ten minutes.
    start = time.perf_counter()
    assert main(["verify", str(forged_singletons[3])] + checks) == 2
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: rank 3 stack of n=63 has 1576963521 entries, "
                   "over the cap of 67108864\n")


def test_forged_under_cap_rank_still_gets_pairwise_check(forged_singletons, capsys):
    assert main(["verify", str(forged_singletons[2]), "--checks", "ortho"]) == 0
    assert "PASS orthogonal[r=2]\n" in capsys.readouterr().out


def test_verify_off_rank_term_exits_1(tmp_path, capsys):
    # Right counts, but chain 0's first vector holds {1} at rank 0.
    doc = json.loads(serialize(build_sjb(2)))
    doc["chains"][0]["vectors"][0] = [{"subset": [1], "coeff": "1"}]
    path = tmp_path / "off_rank.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    text = capsys.readouterr().out
    assert "FAIL full_rank[r=0]  witness={'rank': 0, 'vectors': 1, " \
           "'computed_rank': None, 'expected': 1}" in text


def test_build_all_levels(tmp_path):
    template = str(tmp_path / "level_{n}.json")
    assert main(["build", "--n", "3", "--all-levels", "--out", template]) == 0
    for n in range(4):
        assert load(tmp_path / f"level_{n}.json") == build_sjb(n)
    assert main(["build", "--n", "3", "--all-levels", "--out",
                 str(tmp_path / "flat.json")]) == 2


def test_build_all_levels_refuses_before_building(tmp_path, capsys, monkeypatch):
    _refuse_walks(monkeypatch)
    template = str(tmp_path / "l{n}.json")
    for kind, n, message in [("sjb", "15", SJB_15_OVER), ("scd", "27", SCD_27_OVER)]:
        start = time.perf_counter()
        assert main(["build", "--kind", kind, "--all-levels", "--n", n,
                     "--out", template]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, error", [("{x}", "KeyError: 'x'"),
                                          ("{0}", "IndexError"), ("{}", "IndexError")])
def test_build_all_levels_refuses_bad_template(tmp_path, capsys, field, error):
    template = str(tmp_path / f"a{{n}}{field}.json")
    assert main(["build", "--all-levels", "--n", "2", "--out", template]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out template {template!r} must format with {{n}} alone")
    assert error in err
    assert list(tmp_path.iterdir()) == []


def test_build_all_levels_refuses_escaped_n(tmp_path, capsys):
    # Every level formats to the same path a{n}.json.
    template = str(tmp_path / "a{{n}}.json")
    assert main(["build", "--all-levels", "--n", "2", "--out", template]) == 2
    assert capsys.readouterr().err == (
        f"error: --out template {template!r} must give each level its own path\n")
    assert list(tmp_path.iterdir()) == []


def test_build_all_levels_accepts_format_spec(tmp_path):
    template = str(tmp_path / "l{n:02d}.json")
    assert main(["build", "--all-levels", "--n", "2", "--out", template]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l00.json", "l01.json", "l02.json"]
    assert load(tmp_path / "l02.json") == build_sjb(2)


def test_build_stdout_pinned(tmp_path, capsys):
    template = str(tmp_path / "l{n}.json")
    assert main(["build", "--kind", "scd", "--all-levels", "--n", "2",
                 "--out", template]) == 0
    assert main(["build", "--n", "3", "--out", str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "T") == (
        "wrote T/l0.json (kind=scd, n=0, chains=1)\n"
        "wrote T/l1.json (kind=scd, n=1, chains=1)\n"
        "wrote T/l2.json (kind=scd, n=2, chains=2)\n"
        "wrote T/b.json (kind=sjb, n=3, chains=3)\n")


def test_build_all_levels_scd(tmp_path):
    template = str(tmp_path / "scd_{n}.json")
    assert main(["build", "--n", "2", "--kind", "scd", "--all-levels",
                 "--out", template]) == 0
    assert load(tmp_path / "scd_2.json") == build_scd(2)


def test_scd_verify_rejects_checks_flag(tmp_path, capsys):
    out = tmp_path / "d.json"
    save(build_scd(2), out)
    assert main(["verify", str(out), "--checks", "ortho"]) == 2
    assert capsys.readouterr() == ("", "error: --checks applies only to sjb documents\n")


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    out = tmp_path / "b.json"
    save(build_sjb(2), out)
    assert main(["verify", str(out), "--checks", "bogus"]) == 2
    assert capsys.readouterr() == (
        "", "error: unknown checks ['bogus']; choose from sjc,basis,ortho,ratios\n")


def test_documents_identical_across_calls(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--n", "6", "--out", str(a)]) == 0
    assert main(["build", "--n", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == serialize(build_sjb(6))


def test_verify_scd_start_rank_mismatch_exits_2(tmp_path, capsys):
    doc = json.loads(serialize(build_scd(3)))
    doc["chains"][1]["start_rank"] = 0
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert ("chain 1: start_rank 0 is not the rank 1 of its first subset"
            in capsys.readouterr().err)


def test_verify_oversized_integer_literal_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"format_version": "1", "kind": "sjb", "n": %s, "chains": []}'
                    % ("1" * 5000))
    assert main(["verify", str(path)]) == 2
    assert "Exceeds the limit (4300 digits)" in capsys.readouterr().err


# Every case in the transcript is "$ sjb <args>", "exit <code>", then the
# exact stdout.  Document arguments name files made by `_documents`.
TRANSCRIPT = (Path(__file__).parent / "golden" / "cli_stdout.txt").read_text()
CASES = [case.split("\n", 2) for case in re.split(r"^\$ sjb ", TRANSCRIPT, flags=re.M)[1:]]


@pytest.fixture(scope="module")
def _documents(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    save(build_sjb(3), d / "sjb_n3.json")
    save(build_sjb(6), d / "sjb_n6.json")
    save(build_scd(3), d / "scd_n3.json")
    doc = json.loads(serialize(build_sjb(5)))
    doc["chains"][0]["vectors"][1][0]["coeff"] = "7"
    (d / "sjb_n5_tampered.json").write_text(json.dumps(doc))
    return d


def test_transcript_covers_every_pinned_command():
    assert len(CASES) == 13


@pytest.mark.parametrize("command, code, stdout", CASES, ids=[c[0] for c in CASES])
def test_stdout_and_exit_code_pinned(_documents, capsys, command, code, stdout):
    argv = [str(_documents / a) if a.endswith(".json") else a for a in command.split()]
    assert main(argv) == int(code.removeprefix("exit "))
    assert capsys.readouterr().out == stdout


# `verify` of the n = 4 basis and of four tampered copies, under every
# non-empty --checks subset, with and without --no-full-rank; the transcript
# has the layout of cli_stdout.txt.

def _tampered_n4(fault: str):
    basis = build_sjb(4)
    chains = basis.chains
    if fault == "broken_link":  # a coefficient of chain 1's rank-2 vector, -2 -> -1
        chains[1].vectors[1] = chains[1].vectors[1] + Vector.unit(4, 0b0011)
    elif fault == "duplicated_chain":  # chain 4 replaced by chain 2; both start at rank 1
        chains[4] = chains[2]
    elif fault == "rescaled_vector":  # chain 4's rank-2 vector, tripled
        chains[4].vectors[1] = 3 * chains[4].vectors[1]
    elif fault == "copied_vector":  # chain 1's rank-2 vector over chain 0's
        (ci, pos, _), (_, _, v) = basis.vectors_of_rank(2)[:2]
        chains[ci].vectors[pos] = v
    return basis


CHECKS_DOCUMENTS = {f"sjb_n4{'_' + fault if fault else ''}.json": fault
                    for fault in ("", "broken_link", "duplicated_chain", "rescaled_vector",
                                  "copied_vector")}
CHECKS_COMMANDS = [f"verify {doc} --checks {','.join(subset)}{flag}"
                   for doc in CHECKS_DOCUMENTS
                   for r in range(1, 5)
                   for subset in itertools.combinations(("sjc", "basis", "ortho", "ratios"), r)
                   for flag in ("", " --no-full-rank")]
CHECKS_TRANSCRIPT = (Path(__file__).parent / "golden" / "verify_checks.txt").read_text()
CHECKS_CASES = [case.split("\n", 2)
                for case in re.split(r"^\$ sjb ", CHECKS_TRANSCRIPT, flags=re.M)[1:]]


@pytest.fixture(scope="module")
def _checks_documents(tmp_path_factory):
    d = tmp_path_factory.mktemp("checks")
    for name, fault in CHECKS_DOCUMENTS.items():
        save(_tampered_n4(fault), d / name)
    return d


def test_checks_transcript_covers_every_subset():
    assert [case[0] for case in CHECKS_CASES] == CHECKS_COMMANDS


@pytest.mark.parametrize("command, code, stdout", CHECKS_CASES,
                         ids=[c[0] for c in CHECKS_CASES])
def test_every_checks_subset_pinned(_checks_documents, capsys, command, code, stdout):
    argv = [str(_checks_documents / a) if a.endswith(".json") else a for a in command.split()]
    assert main(argv) == int(code.removeprefix("exit "))
    assert capsys.readouterr().out == stdout


# `build` writes each chain as the y/z walk grows it, never holding the whole
# basis; the files are those the in-memory builders serialize to.

@pytest.mark.parametrize("kind, n, build", [("sjb", 10, build_sjb), ("scd", 16, build_scd)])
def test_streamed_build_writes_the_in_memory_documents(tmp_path, capsys, kind, n, build):
    template = str(tmp_path / "l{n}.json")
    assert main(["build", "--kind", kind, "--n", str(n), "--all-levels",
                 "--out", template]) == 0
    assert main(["build", "--kind", kind, "--n", str(n), "--out",
                 str(tmp_path / "top.json")]) == 0
    wrote = []
    for m in range(n + 1):
        obj = build(m)
        assert (tmp_path / f"l{m}.json").read_bytes() == serialize(obj)
        wrote.append(f"wrote {tmp_path}/l{m}.json (kind={kind}, n={m}, "
                     f"chains={len(obj.chains)})\n")
    assert (tmp_path / "top.json").read_bytes() == serialize(obj)
    wrote.append(f"wrote {tmp_path}/top.json (kind={kind}, n={n}, chains={len(obj.chains)})\n")
    assert capsys.readouterr().out == "".join(wrote)


def test_streamed_build_peak_is_a_fraction_of_the_basis(tmp_path, capsys):
    tracemalloc.start()
    try:
        assert main(["build", "--n", "10", "--out", str(tmp_path / "a.json")]) == 0
        _, streamed = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        save(build_sjb(10), tmp_path / "b.json")
        _, whole = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert streamed < whole / 4
    capsys.readouterr()


@pytest.mark.parametrize("kind, module", [("sjb", "sjb.jordan"), ("scd", "sjb.scd")])
def test_build_failing_mid_walk_leaves_no_file(tmp_path, monkeypatch, kind, module):
    module = importlib.import_module(module)
    grow, calls = module.grow, itertools.count()

    def failing(y):
        def step(chain, bit):
            if next(calls) == 40:
                # Chains have been written: the temporary file is all there is.
                assert [p.suffix for p in tmp_path.iterdir()] == [".tmp"]
                raise RuntimeError("step failed")
            return y(chain, bit)
        return step

    monkeypatch.setattr(module, "grow", lambda n, chain, y, z: grow(n, chain, failing(y), z))
    with pytest.raises(RuntimeError, match="step failed"):
        main(["build", "--kind", kind, "--n", "8", "--out", str(tmp_path / "d.json")])
    assert list(tmp_path.iterdir()) == []


# numpy is imported by the first up_matrix made or exact rank taken, and by
# nothing else.
NUMPY_PROBE = ("import sys\nfrom sjb.cli import main\n"
               "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
               "print(rc, 'numpy' in sys.modules, file=sys.stderr)\n")


@pytest.fixture(scope="module")
def probe_docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("probe")
    save(build_sjb(5), d / "b.json")
    save(build_scd(5), d / "d.json")
    return d


@pytest.mark.parametrize("argv, loads_numpy", [
    ([], False),
    (["build", "--n", "5", "--out", "{d}/new.json"], False),
    (["build", "--kind", "scd", "--n", "5", "--out", "{d}/new.json"], False),
    (["verify", "{d}/b.json", "--no-full-rank"], False),
    (["verify", "{d}/d.json"], False),
    (["stats", "--n", "5"], False),
    (["compare", "--n", "5"], False),
    (["profile", "{d}/b.json"], False),
    (["verify", "{d}/b.json"], True),
    (["rank", "--n", "4"], True),
    (["export-matrix", "--n", "4", "--k", "1", "--out", "{d}/m.csv"], True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_numpy_loads_only_where_a_rank_is_taken(probe_docs, argv, loads_numpy):
    proc = _run_child(NUMPY_PROBE, *[a.format(d=probe_docs) for a in argv])
    assert proc.stderr.splitlines()[-1] == f"0 {loads_numpy}"


def _run_child(code, *argv, **env):
    """Runs python -c code in a fresh process that imports this checkout's
    sjb, without OPENBLAS_NUM_THREADS unless it is given in env."""
    src = str(Path(sjb.cli.__file__).resolve().parent.parent)
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=child_env,
                          capture_output=True, text=True, timeout=60)


# numpy's bundled OpenBLAS starts one thread per core at import unless
# OPENBLAS_NUM_THREADS says otherwise; sjb calls no BLAS routine.
BLAS_PROBE = ("import os, sys\nfrom sjb.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "tasks = '/proc/self/task'\n"
              "print(rc, len(os.listdir(tasks)) if os.path.isdir(tasks) else '-',"
              " os.environ.get('OPENBLAS_NUM_THREADS'))\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
                    reason="needs /proc/self/task and more than one core")
def test_cli_starts_numpy_with_one_thread():
    proc = _run_child(BLAS_PROBE, "rank", "--n", "4")
    assert proc.stdout.splitlines()[-1] == "0 1 1"


def test_cli_keeps_a_thread_count_the_user_set():
    proc = _run_child(BLAS_PROBE, "rank", "--n", "4", OPENBLAS_NUM_THREADS="2")
    rc, _, threads = proc.stdout.splitlines()[-1].split()
    assert (rc, threads) == ("0", "2")


def test_library_leaves_the_thread_count_alone():
    proc = _run_child("import os, sjb\nsjb.up_matrix(4, 1)\n"
                      "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert proc.stdout == "None\n"


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"format_version": "1", "kind": "sjb", "n": 2, "chains": '
                    '[{"start_rank": 0, "vectors": [[{"subset": ' + "[" * 100_000)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: maximum recursion depth exceeded[^\n]*\n", captured.err)


# `verify` and `profile` read an sjb document as a stream of chains: the
# structural checks take each chain as it is read, and nothing is printed
# until the whole document has been read and checked.

def test_structural_verify_holds_one_chain_not_the_basis(tmp_path, capsys):
    path = tmp_path / "b10.json"
    save(build_sjb(10), path)
    structural = ["verify", str(path), "--checks", "sjc,basis", "--no-full-rank"]
    assert main(structural) == 0  # builds the cover table of B(10) before tracing
    tracemalloc.start()
    try:
        basis = load(path)
        _, whole = tracemalloc.get_traced_memory()
        del basis
        peaks = {}
        for argv in (structural, ["profile", str(path)]):
            tracemalloc.reset_peak()
            assert main(argv) == 0
            _, peaks[argv[0]] = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert max(peaks.values()) < whole / 4, (peaks, whole)


def test_scd_verify_holds_the_masks_seen_not_the_decomposition(tmp_path, capsys):
    path = tmp_path / "d14.json"
    save(build_scd(14), path)
    tracemalloc.start()
    try:
        decomp = load(path)
        _, whole = tracemalloc.get_traced_memory()
        del decomp
        tracemalloc.reset_peak()
        assert main(["verify", str(path)]) == 0
        _, streamed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "overall: PASS" in capsys.readouterr().out
    assert streamed < whole / 3, (streamed, whole)


def test_over_cap_scd_header_exits_2_before_any_chain(tmp_path, capsys):
    # The chain is not even an object: the cap refuses n before it is read.
    path = tmp_path / "n40.json"
    path.write_text('{"format_version": "1", "kind": "scd", "n": 40, "chains": [7]}')
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: scd decomposition for n=40 has 1099511627776 subsets, "
            "over the cap of 67108864\n")


def faulty_sjb_texts():
    """(label, text, error) of n = 5 documents in the writer's layout whose
    fault comes after chains that would fail the checks, or be printed."""
    doc = to_document(build_sjb(5))
    doc["chains"][0]["vectors"][1][0]["coeff"] = "7"  # fails the sjc checks
    text = json.dumps(doc, indent=2) + "\n"
    last = json.loads(text)
    last["chains"][-1]["vectors"][0][0]["coeff"] = "01"
    try:
        json.loads(text + "x")
    except json.JSONDecodeError as exc:
        extra = f"not valid JSON: {exc}"
    return [("malformed-last-chain", json.dumps(last, indent=2) + "\n",
             "coeff is not in canonical form: '01'"),
            ("extra-data", text + "x", extra),
            ("key-after-chains", text.rstrip()[:-1] + ',\n  "n": 5\n}\n',
             "repeated top-level key 'n'")]


@pytest.mark.parametrize("label, text, error", faulty_sjb_texts(),
                         ids=[case[0] for case in faulty_sjb_texts()])
@pytest.mark.parametrize("argv", [[], ["--checks", "sjc"], ["--checks", "ratios"],
                                  ["--checks", "sjc,basis", "--no-full-rank"],
                                  ["--checks", "bogus"], "profile"],
                         ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_fault_after_the_chains_prints_nothing(tmp_path, capsys, label, text, error, argv):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["profile", str(path)] if argv == "profile" else ["verify", str(path), *argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def scd_with_a_duplicate():
    """The n = 5 scd document with chain 1's first subset also ending chain 0."""
    doc = to_document(build_scd(5))
    doc["chains"][0]["subsets"][-1] = doc["chains"][1]["subsets"][0]
    return doc


def faulty_scd_texts():
    """(label, text, error) of n = 5 scd documents whose fault comes after a
    chain that fails the checks."""
    text = json.dumps(scd_with_a_duplicate(), indent=2) + "\n"
    last = scd_with_a_duplicate()
    last["chains"][-1]["subsets"][0] = [3, 1]
    return [("malformed-last-chain", json.dumps(last, indent=2) + "\n",
             "subset must be sorted without repeats: [3, 1]"),
            ("key-after-chains", text.rstrip()[:-1] + ',\n  "kind": "scd"\n}\n',
             "repeated top-level key 'kind'")]


def test_scd_with_a_duplicate_fails_verify(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(scd_with_a_duplicate(), indent=2) + "\n")
    assert main(["verify", str(path)]) == 1
    assert "FAIL no_duplicates  witness={'subset_mask': 16, 'chains': [0, 1]}" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("label, text, error", faulty_scd_texts(),
                         ids=[case[0] for case in faulty_scd_texts()])
@pytest.mark.parametrize("argv", [[], ["--checks", "sjc"], "profile"],
                         ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_scd_fault_after_the_chains_prints_nothing(tmp_path, capsys, label, text, error, argv):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["profile", str(path)] if argv == "profile" else ["verify", str(path), *argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("argv", [[], ["--checks", "sjc,basis", "--no-full-rank"],
                                  ["--checks", "ratios,sjc"], "profile"],
                         ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_chains_before_the_header_verify_alike(tmp_path, capsys, argv):
    # json.dumps(..., sort_keys=True) puts "chains" first: the document is
    # read whole, and every check still sees each chain once.
    basis = build_sjb(6)
    basis.chains[3].vectors[1] = basis.chains[3].vectors[1] + basis.chains[3].vectors[1]
    got = {}
    for name, text in (("writer", serialize(basis).decode()),
                       ("sorted", json.dumps(to_document(basis), sort_keys=True))):
        assert text.startswith('{"chains"') == (name == "sorted")
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        args = ["profile", str(path)] if argv == "profile" else ["verify", str(path), *argv]
        got[name] = main(args), capsys.readouterr()
    assert got["writer"] == got["sorted"]
    assert got["writer"][0] == 1 and "FAIL" in got["writer"][1].out


def test_default_verify_checks_each_chain_twice(tmp_path, capsys, monkeypatch):
    # Once for the sjc check and once inside the basis check: 2 * C(n, n/2).
    import sjb.verify
    calls = []
    real = sjb.verify.verify_sjc

    def spy(chain):
        calls.append(chain)
        return real(chain)

    monkeypatch.setattr(sjb.verify, "verify_sjc", spy)
    path = tmp_path / "b7.json"
    save(build_sjb(7), path)
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2 * 35
