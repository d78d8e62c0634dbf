"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

RUN_PY = Path(run.__file__)


def test_smoke_passes_gate_and_exact_counts():
    proc = subprocess.run([sys.executable, str(RUN_PY), "--smoke"], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    commands = sum(len(run.commands(w, s)) for w, s in run.SMOKE.items())
    counts = sum(len(run.expected_counts(w, s)) for w, s in run.SMOKE.items())
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"correct": True, "attempted": 2 * commands + counts, "failed": 0}


def test_gate_counts_a_changed_output_as_failed():
    size = run.SMOKE["unimodality"]
    pins = run.load_pins()
    key = " ".join(run.commands("unimodality", size)[0][0])
    pins[key] = dict(pins[key], stdout_sha256="0" * 64)
    try:
        result = run.run_pass("unimodality", size, pins, time.monotonic() + 60, traced=False)
    finally:
        run.remove_work()
    assert len(result["mismatches"]) == 1
    assert result["mismatches"][0].startswith(key)


def test_self_time_subtracts_direct_children():
    names = list(run.SPAN_NAMES)
    main, verify, rank = (names.index(n) for n in
                          ("cli.main", "verify.verify_sjb", "elimination.exact_rank"))
    doc = {"names": names, "counters": {},
           "spans": [(main, 0.0, 10.0, -1, 0), (verify, 1.0, 4.0, 0, 0),
                     (rank, 2.0, 3.0, 1, 0), (rank, 5.0, 6.0, 0, 0)]}
    layers = run.layer_metrics([doc])
    assert layers["cli.main.self_s"] == 10.0 - 3.0 - 1.0
    assert layers["verify.verify_sjb.self_s"] == 3.0 - 1.0
    assert layers["elimination.exact_rank.calls"] == 2
    assert layers["elimination.exact_rank.total_s"] == 2.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((RUN_PY.parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.FULL)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(RUN_PY.parent.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
