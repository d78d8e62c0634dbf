"""Run one ``sjb`` command in-process, with a span around each layer call.

Usage: python3 traced.py SPANS_OUT SJB_ARG...

Imports ``sjb.cli``, replaces every reference that the sjb modules hold to
the functions in TARGETS with a wrapper that records a span, runs
``sjb.cli.main(SJB_ARG...)``, writes the spans and counters to SPANS_OUT
as JSON and exits with the command's exit code.  Nothing under ``src/`` is
edited: the wrappers only rebind module globals in this process, and the
command's standard output is exactly what ``sjb`` itself prints.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

# (module under sjb, qualified name, whether the span records the growth of
# the RSS high-water mark).  getrusage costs about a microsecond, so it is
# kept off the functions called tens of thousands of times per command.
TARGETS = (
    ("cli", "main", True),
    ("jordan", "build_sjb", True),
    ("scd", "build_scd", True),
    ("serialize", "save", True),
    ("serialize", "to_document", True),
    ("serialize", "load", True),
    ("serialize", "from_document", True),
    ("verify", "verify_sjc", False),
    ("verify", "verify_sjb", False),
    ("verify", "check_orthogonality", False),
    ("verify", "check_ratio_uniformity", False),
    ("verify", "up_rank_check", False),
    ("verify", "verify_scd", False),
    ("operators", "up", False),
    ("operators", "up_matrix", False),
    ("elimination", "exact_rank", False),
    ("vectors", "Vector.dot", False),
    ("lattice", "subsets_of_rank", False),
)
IMPORT_SPAN = "cli.import"
SPAN_NAMES = (IMPORT_SPAN,) + tuple(f"{m}.{q}" for m, q, _ in TARGETS)
RSS_SPANS = tuple(f"{m}.{q}" for m, q, rss in TARGETS if rss)
COUNTERS = ("jordan.terms", "jordan.max_coeff_bits", "elimination.exact_rank.max_dim",
            "serialize.doc_bytes")


def add_counters(into: dict, values: dict) -> None:
    """Counters named *.max_* combine by maximum, the others by sum."""
    for name, value in values.items():
        into[name] = max(into[name], value) if ".max_" in name else into[name] + value


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _basis_counters(args, kwargs, basis) -> dict:
    vectors = [v for ch in basis.chains for v in ch.vectors]
    bits = max((abs(c).bit_length() for v in vectors for _, c in v.items()), default=0)
    return {"jordan.terms": sum(len(v) for v in vectors), "jordan.max_coeff_bits": bits}


def _rank_counters(args, kwargs, rank) -> dict:
    matrix = args[0] if args else kwargs["matrix"]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return {"elimination.exact_rank.max_dim": max(rows, cols)}


def _save_counters(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"serialize.doc_bytes": os.path.getsize(path)}


AFTER = {
    "jordan.build_sjb": _basis_counters,
    "elimination.exact_rank": _rank_counters,
    "serialize.save": _save_counters,
}


class Tracer:
    """Spans as (name index, start, end, parent index, RSS growth in KB)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}

    def record(self, name_index: int, start: float, end: float) -> None:
        self.spans.append((name_index, start, end, self.stack[-1], 0))

    def wrap(self, name: str, fn, rss: bool):
        name_index = SPAN_NAMES.index(name)
        after = AFTER.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            rss0 = _maxrss_kb() if rss else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent,
                                _maxrss_kb() - rss0 if rss else 0)
            if after is not None:
                add_counters(self.counters, after(args, kwargs, result))
            return result
        return span

    def install(self) -> None:
        """Rebind every sjb module global and class attribute naming a target."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sjb" or name.startswith("sjb."))]
        for module_name, qualname, rss in TARGETS:
            home = sys.modules[f"sjb.{module_name}"]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{module_name}.{qualname}", original, rss)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": SPAN_NAMES, "spans": self.spans,
                       "counters": self.counters}, fh)


def main(argv: list[str]) -> int:
    spans_out, sjb_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import sjb.cli
    tracer.record(SPAN_NAMES.index(IMPORT_SPAN), start, time.perf_counter())
    tracer.install()
    # Look main up again: install() rebound the module global.
    rc = sjb.cli.main(sjb_args)
    sys.stdout.flush()
    tracer.dump(spans_out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
