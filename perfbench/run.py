"""End-to-end and per-layer benchmark of the ``sjb`` command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # every workload at small n, in seconds
    python3 perfbench/run.py --pin       # rewrite perfbench/expected.json

Each workload is a closed loop of real ``sjb`` commands: the next child
process starts only when the previous one has exited, and every ``rank``
runs with ``--jobs 1``, so the benchmark uses one core at a time.  Passes
over the workload's commands repeat until S seconds have gone by, and the
medians over the passes are reported.  Every command is checked against
perfbench/expected.json: its exit code, the sha256 of its normalised
standard output and the sha256 of the document it writes.  Any mismatch
counts as a failed operation.

With ``--trace 1`` one more pass runs each command under traced.py, which
wraps the layer functions of every ``sjb`` module in spans.  Per-layer
call counts, self and total times and counters are read from those spans,
and the call counts that have a closed form in n are checked exactly.

The library is deterministic and the inputs depend only on n, so the seed
changes no input; it is accepted to meet the benchmark's interface.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from math import comb
from pathlib import Path

from traced import COUNTERS, RSS_SPANS, SPAN_NAMES, add_counters

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
# One directory per process, so runs sharing a checkout do not collide.
WORK = ROOT / ".perfbench_work" / str(os.getpid())
EXPECTED = BENCH_DIR / "expected.json"

# Every run must end within 180 s; a child still running at this point is
# killed and its command counts as failed.
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 11

FULL = {"certify": {"n": 10}, "unimodality": {"n": 12}, "documents": {"n": 11, "scd_n": 16}}
SMOKE = {"certify": {"n": 5}, "unimodality": {"n": 6}, "documents": {"n": 6, "scd_n": 8}}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COUNTER_UNITS = {"jordan.terms": "count", "jordan.max_coeff_bits": "bits",
                 "elimination.exact_rank.max_dim": "rows", "serialize.doc_bytes": "bytes"}


def commands(workload: str, size: dict) -> list[tuple[list[str], str | None]]:
    """(sjb arguments, document the command writes or None), in run order.

    Document names carry n, so each command line is a unique key in the pins.
    """
    n = size["n"]
    basis = f"sjb_n{n}.json"
    if workload == "certify":
        return [(["build", "--n", str(n), "--kind", "sjb", "--out", basis], basis),
                (["verify", basis], None)]
    if workload == "unimodality":
        return [(["rank", "--n", str(n), "--jobs", "1"], None)]
    scd_n = size["scd_n"]
    decomp = f"scd_n{scd_n}.json"
    return [(["build", "--n", str(n), "--kind", "sjb", "--out", basis], basis),
            (["verify", basis, "--checks", "sjc,basis", "--no-full-rank"], None),
            (["build", "--n", str(scd_n), "--kind", "scd", "--out", decomp], decomp),
            (["verify", decomp], None)]


def expected_counts(workload: str, size: dict) -> dict[str, int]:
    """Traced call counts fixed by n.

    ``sjb verify`` checks each of the C(n, n//2) chains twice (the sjc check
    and again inside the basis check); orthogonality takes one dot product
    per pair of equal-rank vectors; the full-rank check eliminates once per
    rank, and ``sjb rank`` once per level k < n.
    """
    n = size["n"]
    chain_checks = 2 * comb(n, n // 2)
    if workload == "certify":
        return {"verify.verify_sjc.calls": chain_checks,
                "vectors.Vector.dot.calls": sum(comb(comb(n, r), 2) for r in range(n + 1)),
                "elimination.exact_rank.calls": n + 1}
    if workload == "unimodality":
        return {"elimination.exact_rank.calls": n}
    return {"verify.verify_sjc.calls": chain_checks, "elimination.exact_rank.calls": 0}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in RSS_SPANS:
        units[f"{name}.rss_growth_mb"] = "MB"
    for name in COUNTERS:
        units[name] = COUNTER_UNITS[name]
    for name in ("trace.pass_s", "trace.unattributed_s", "trace.overhead_s"):
        units[name] = "s"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("SJB_N_CAP", None)
    return env


def spawn(argv: list[str], stem: str, deadline: float) -> dict:
    """Run one child in WORK to its exit and return its exit code and usage."""
    with open(WORK / f"{stem}.out", "wb") as out, open(WORK / f"{stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 has reaped the child; record that, so Popen never waits on it.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def fresh_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass  # missing, or another run is using it


def sha256_file(path: Path) -> str | None:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def observe(stem: str, exit_code: int, doc: str | None) -> dict:
    """What the gate compares: exit code, normalised stdout and document hashes."""
    stdout = (WORK / f"{stem}.out").read_bytes().replace(str(WORK).encode(), b"<work>")
    return {"exit": exit_code, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "doc_sha256": sha256_file(WORK / doc) if doc else None}


def run_pass(workload: str, size: dict, pins: dict, deadline: float, traced: bool) -> dict:
    """One closed-loop pass over the workload's commands, gated against the pins.

    A traced pass also derives the per-layer metrics and checks the exact
    counts, each of which is one more attempted operation.
    """
    cmds = commands(workload, size)
    fresh_work()
    results = []
    start = time.perf_counter()
    for i, (args, _) in enumerate(cmds):
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), f"spans{i}.json", *args]
        else:
            argv = [sys.executable, "-m", "sjb", *args]
        results.append(spawn(argv, f"cmd{i}", deadline))
    wall = time.perf_counter() - start

    mismatches = []
    for i, ((args, doc), res) in enumerate(zip(cmds, results)):
        key = " ".join(args)
        got = observe(f"cmd{i}", res["exit"], doc)
        want = pins.get(key)
        if got != want:
            err = (WORK / f"cmd{i}.err").read_text(errors="replace")[-2000:]
            mismatches.append(f"{key}: got {got}, pinned {want}\n{err}")
    out = {"wall": wall, "cpu": sum(r["cpu"] for r in results),
           "rss_mb": max(r["rss_mb"] for r in results), "mismatches": mismatches,
           "attempted": len(cmds)}
    if traced:
        span_files = (WORK / f"spans{i}.json" for i in range(len(cmds)))
        layers = layer_metrics([json.loads(path.read_text())
                                for path in span_files if path.exists()])
        expected = expected_counts(workload, size)
        mismatches += [f"{workload}: {name} is {layers[name]}, expected {want}"
                       for name, want in expected.items() if layers[name] != want]
        out["attempted"] += len(expected)
        out["layers"] = layers
    return out


def layer_metrics(span_docs: list[dict]) -> dict[str, float]:
    """Calls, total and self time per span name, RSS growth and counters.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    calls, total, self_s, rss_kb = (defaultdict(int), defaultdict(float),
                                    defaultdict(float), defaultdict(int))
    counters = dict.fromkeys(COUNTERS, 0)
    for doc in span_docs:
        names, spans = doc["names"], doc["spans"]
        in_children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                in_children[parent] += end - start
        for i, (name_index, start, end, _, growth) in enumerate(spans):
            name = names[name_index]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - in_children[i]
            rss_kb[name] += growth
        add_counters(counters, doc["counters"])
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total[name]
    for name in RSS_SPANS:
        out[f"{name}.rss_growth_mb"] = rss_kb[name] / 1024
    out.update(counters)
    return out


def measure_setup(deadline: float) -> float:
    """Median time for a fresh interpreter to import sjb.cli.

    One untimed import first fills the bytecode cache, a cost users pay
    once per checkout, not per command.
    """
    argv = [sys.executable, "-c", "import sjb.cli"]
    fresh_work()
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = spawn(argv, "setup", deadline)
        if res["exit"] != 0:
            sys.exit("error: `import sjb.cli` failed:\n"
                     + (WORK / "setup.err").read_text(errors="replace")[-2000:])
        times.append(res["wall"])
    return statistics.median(times[1:])


def require_checkout() -> None:
    if not (SRC / "sjb" / "cli.py").is_file():
        sys.exit(f"error: no sjb sources under {SRC}; run from the root of a checkout")


def load_pins() -> dict:
    return json.loads(EXPECTED.read_text())


def run_workload(workload: str, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    size = FULL[workload]
    pins = load_pins()
    setup_s = None if trace else measure_setup(deadline)
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        passes.append(run_pass(workload, size, pins, deadline, traced=False))
    wall_s = statistics.median(p["wall"] for p in passes)
    print(f"{workload}: {len(passes)} passes, pass wall "
          + " ".join(f"{p['wall']:.3f}" for p in passes), file=sys.stderr)
    if trace:
        traced = run_pass(workload, size, pins, deadline, traced=True)
        layers = traced["layers"]
        self_sum = sum(layers[f"{name}.self_s"] for name in SPAN_NAMES)
        layers["trace.pass_s"] = traced["wall"]
        layers["trace.unattributed_s"] = traced["wall"] - self_sum
        layers["trace.overhead_s"] = traced["wall"] - wall_s
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        passes.append(traced)
    else:
        values = {"wall_s": wall_s,
                  "cpu_s": statistics.median(p["cpu"] for p in passes),
                  "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
                  "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return dict(gate_summary(passes), metrics=metrics)


def gate_summary(passes: list[dict]) -> dict:
    mismatches = [m for p in passes for m in p["mismatches"]]
    for m in mismatches:
        print(f"MISMATCH {m}", file=sys.stderr)
    return {"correct": not mismatches, "attempted": sum(p["attempted"] for p in passes),
            "failed": len(mismatches)}


def smoke() -> dict:
    """Every workload at small n: an untraced and a traced pass, gated and counted."""
    deadline = time.monotonic() + RUN_LIMIT_S
    pins = load_pins()
    return gate_summary([run_pass(workload, size, pins, deadline, traced)
                         for workload, size in SMOKE.items() for traced in (False, True)])


def pin() -> None:
    """Record the current program's outputs as the expectation for every command."""
    pins = {}
    for sizes in (SMOKE, FULL):
        for workload, size in sizes.items():
            cmds = commands(workload, size)
            fresh_work()
            for i, (args, doc) in enumerate(cmds):
                res = spawn([sys.executable, "-m", "sjb", *args], f"cmd{i}",
                            time.monotonic() + 600)
                pins[" ".join(args)] = observe(f"cmd{i}", res["exit"], doc)
    EXPECTED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(FULL))
    parser.add_argument("--seed", type=int, default=0, help="accepted; inputs depend only on n")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    require_checkout()
    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.pin:
            pin()
            return 0
        if args.smoke:
            result = smoke()
        elif args.workload:
            result = run_workload(args.workload, args.seconds, bool(args.trace))
        else:
            parser.error("one of --workload, --smoke or --pin is required")
    finally:
        remove_work()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
