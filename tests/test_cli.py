"""Command-line surface: subcommand flows and exit codes."""

import json
import re
import time
from pathlib import Path

import pytest

import sjb.cli
from sjb.cli import main
from sjb.serialize import load, save, serialize
from sjb.jordan import build_sjb
from sjb.scd import build_scd


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


def test_build_over_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["build", "--n", "30", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["build", "--n", "9", "--cap", "8", "--out", str(out)]) == 2
    capsys.readouterr()


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

    def map(self, fn, items):
        return map(fn, items)


def test_rank_jobs_capped_by_levels_and_cores(monkeypatch, capsys):
    monkeypatch.setattr(sjb.cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(sjb.cli.os, "cpu_count", lambda: 4)
    _InlinePool.sizes = []
    assert main(["rank", "--n", "6", "--jobs", "100000"]) == 0
    assert main(["rank", "--n", "6", "--jobs", "3"]) == 0
    assert main(["rank", "--n", "2", "--jobs", "100000"]) == 0
    assert main(["rank", "--n", "6", "--k", "2", "--jobs", "100000"]) == 0
    assert _InlinePool.sizes == [4, 3, 2]
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_rank_rejects_nonpositive_jobs(capsys, jobs):
    assert main(["rank", "--n", "4", "--jobs", jobs]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "stats"])
def test_cap_clamped_to_hard_cap(capsys, command):
    argv = [command, "--n", "70", "--cap", "100"] + (["--k", "0"] if command == "rank" else [])
    assert main(argv) == 2
    assert "ground set size must be in 0..63, got 70" in capsys.readouterr().err
    assert main([command, "--n", "9", "--cap", "8"]) == 2
    assert "ground set size must be in 0..8, got 9" in capsys.readouterr().err


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


def test_profile_rejects_scd(tmp_path, capsys):
    out = tmp_path / "d.json"
    save(build_scd(3), out)
    assert main(["profile", str(out)]) == 2
    capsys.readouterr()


def test_compare_command(capsys):
    assert main(["compare", "--n", "6"]) == 0
    text = capsys.readouterr().out
    assert "multisets: PASS" in text and "chain by chain: PASS" in text


def test_stats_command(capsys):
    assert main(["stats", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert "total subsets: 16" in text
    assert "total chains:  6" in text


def test_export_matrix_command(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["export-matrix", "--n", "3", "--k", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    assert main(["export-matrix", "--n", "3", "--k", "3", "--out", str(out)]) == 2
    capsys.readouterr()


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated the subsets of an over-cap matrix")

    monkeypatch.setattr("sjb.operators.subsets_of_rank", refuse)
    monkeypatch.setattr("sjb.cli.up_rank_check", refuse)


@pytest.mark.parametrize("argv, message", [
    (["export-matrix", "--n", "40", "--k", "20"], "ground set size must be in 0..24, got 40"),
    (["export-matrix", "--n", "20", "--k", "10"], "up matrix for n=20, k=10 has"),
    (["rank", "--n", "24", "--k", "12"], "up matrix for n=24, k=12 has"),
    (["rank", "--n", "24"], "up matrix for n=24, k=4 has"),
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


def test_build_all_levels_refuses_before_building(tmp_path, capsys):
    template = str(tmp_path / "l{n}.json")
    start = time.perf_counter()
    assert main(["build", "--kind", "scd", "--all-levels", "--n", "21",
                 "--cap", "20", "--out", template]) == 2
    assert time.perf_counter() - start < 1.0
    assert "ground set size must be in 0..20, got 21" in capsys.readouterr().err
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
    capsys.readouterr()


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    out = tmp_path / "b.json"
    save(build_sjb(2), out)
    assert main(["verify", str(out), "--checks", "bogus"]) == 2
    capsys.readouterr()


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
