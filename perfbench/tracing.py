"""Span tracing of the library's public functions, from outside the library.

The tracer replaces each traced function at the module attribute callers
look it up through (the import site), records one span per call in
in-memory arrays, and restores the originals when it is closed. Spans are
written out only at the end. Per-layer metrics are computed from the spans
and from counts the calls return.

Run as a script it performs one traced pass of a workload in this fresh
interpreter and prints the per-layer metrics as its last line:

    python3 perfbench/tracing.py --workload sdepth-hard --seed 1 --seconds 10 --spans out.jsonl.gz
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

import workloads

# (module the caller looks the name up in, attribute, span name)
TRACED = (
    ("sqdepth.ideal_io", "parse_ideal", "ideal_io.parse_ideal"),
    ("sqdepth.report", "build_analysis_report", "report.build_analysis_report"),
    ("sqdepth.report", "build_poset", "monomial.build_poset"),
    ("sqdepth.partition", "build_poset", "monomial.build_poset"),
    ("sqdepth.lab", "build_poset", "monomial.build_poset"),
    ("sqdepth.criteria", "build_poset", "monomial.build_poset"),
    ("sqdepth.report", "sdepth_exact", "partition.sdepth_exact"),
    ("sqdepth.lab", "sdepth_exact", "partition.sdepth_exact"),
    ("sqdepth.partition", "sdepth_exact", "partition.sdepth_exact"),
    ("sqdepth.partition", "hopcroft_karp", "matching.hopcroft_karp"),
    ("sqdepth.report", "depth_profile", "koszul.depth_profile"),
    ("sqdepth.lab", "depth_profile", "koszul.depth_profile"),
    ("sqdepth.koszul", "depth_profile", "koszul.depth_profile"),
    ("sqdepth.koszul", "rank_char0", "linalg.rank_char0"),
    ("sqdepth.koszul", "rank_mod_p", "linalg.rank_mod_p"),
    ("sqdepth.report", "best_upper_bound", "criteria.best_upper_bound"),
    ("sqdepth.report", "classify_lcm_configuration", "lab.classify_lcm_configuration"),
    ("sqdepth.lab", "is_canonical", "lab.is_canonical"),
    ("sqdepth.lab", "hunt_counterexamples", "lab.hunt_counterexamples"),
)

class Tracer:
    """Wraps the traced functions while open; holds every span in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.current_op = -1
        self.rank_entries = 0
        self.sdepth_calls: list[tuple[object, int, int]] = []
        self.emitted = 0
        self._saved: list[tuple[object, str, object]] = []

    def open(self) -> None:
        for module_name, attr, span in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def close(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _observe(self, span: str, args, result) -> None:
        if span.startswith("linalg.rank"):
            rows = args[0]
            self.rank_entries += len(rows) * len(rows[0]) if rows else 0
        elif span == "partition.sdepth_exact":
            self.sdepth_calls.append((args[0], result.value, result.nodes))
        elif span == "lab.hunt_counterexamples":
            self.emitted += sum(result["counts"].values())

    def _wrap(self, fn, span: str):
        name_id = self.name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        starts, ends, stack = self.start, self.end, self.stack
        observe = span.startswith("linalg.rank") or span in (
            "partition.sdepth_exact", "lab.hunt_counterexamples")

        def traced(*args, **kwargs):
            idx = len(starts)
            self.span_name.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe:
                self._observe(span, args, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            own[name] += dur - covered[i]
        return {name: (calls[name], incl[name], own[name]) for name in calls}

    def write(self, path: str, t0: float) -> None:
        """One JSON line per span: [name, start, end, parent, op], times from the pass start."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for row in zip(self.span_name, self.start, self.end, self.parent, self.op):
                fh.write(f"[{row[0]},{row[1] - t0:.9f},{row[2] - t0:.9f},{row[3]},{row[4]}]\n")


def layer_metrics(tracer: Tracer, wall: float, cache_hits: int, cache_misses: int) -> dict:
    from sqdepth import partition

    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    targets = sum(partition.matching_upper_bound(pair) - value + 1
                  for pair, value, _ in tracer.sdepth_calls)
    canonical_calls = calls("lab.is_canonical")
    return {
        "partition.sdepth_exact_s": incl("partition.sdepth_exact"),
        "partition.sdepth_exact_calls": calls("partition.sdepth_exact"),
        "partition.nodes": sum(nodes for _, _, nodes in tracer.sdepth_calls),
        "partition.targets_tried": targets,
        "matching.hopcroft_karp_calls": calls("matching.hopcroft_karp"),
        "matching.hopcroft_karp_s": incl("matching.hopcroft_karp"),
        "koszul.depth_profile_s": incl("koszul.depth_profile"),
        "koszul.self_s": own("koszul.depth_profile"),
        "linalg.rank_calls.char0": calls("linalg.rank_char0"),
        "linalg.rank_calls.modp": calls("linalg.rank_mod_p"),
        "linalg.rank_s.char0": incl("linalg.rank_char0"),
        "linalg.rank_s.modp": incl("linalg.rank_mod_p"),
        "linalg.rank_entries": tracer.rank_entries,
        "lab.is_canonical_calls": canonical_calls,
        "lab.is_canonical_s": incl("lab.is_canonical"),
        "lab.emitted": tracer.emitted,
        "lab.canonical_yield": tracer.emitted / canonical_calls if canonical_calls else 0.0,
        "monomial.build_poset_hits": cache_hits,
        "monomial.build_poset_misses": cache_misses,
        "ideal_io.parse_s": incl("ideal_io.parse_ideal"),
        "criteria.best_upper_bound_s": incl("criteria.best_upper_bound"),
        "report.self_s": own("report.build_analysis_report"),
        "bench.traced_wall_s": wall,
        "bench.spans": len(tracer.start),
    }


def _cache_counts() -> tuple[int, int]:
    from sqdepth import monomial

    info = getattr(monomial.build_poset, "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def traced_pass(workload_name: str, seed: int, seconds: int, spans_path: str) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    ops = workload.make_ops(seed, seconds)
    workloads.import_program()
    hits0, misses0 = _cache_counts()
    tracer = Tracer()
    tracer.open()
    try:
        t0 = time.perf_counter()
        _, _, wall = workloads.timed_pass(workload, ops, tracer)
    finally:
        tracer.close()
    hits1, misses1 = _cache_counts()
    metrics = layer_metrics(tracer, wall, hits1 - hits0, misses1 - misses0)
    tracer.write(spans_path, t0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(workloads.SRC))
    print(json.dumps(traced_pass(args.workload, args.seed, args.seconds, args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
