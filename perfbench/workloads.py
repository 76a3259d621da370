"""The benchmark's workloads: seeded inputs, one call per operation, output checks.

Every input reaches the program as JSON text. Operations call the library
through module attributes (``sqdepth.report.build_analysis_report``, not a
name bound at import time), so the tracer can wrap them at their import sites.

Sizes scale with the requested run length; ``REFERENCE_SECONDS`` is the run
length the sizes were calibrated for, and ``reference.json`` holds the
values a trusted commit computed at that size (see ``record_reference.py``).
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
REFERENCE = HERE / "reference.json"

REFERENCE_SECONDS = 10
CHARS = (0, 2, 3)
# Pairs small enough for the independent oracles (about 9 ms a pair).
ORACLE_MAX_N = 5

# sdepth-hard is one fixed list, drawn with this seed, whatever the run
# seed: the decision search's cost is heavy-tailed in the instance and even
# in its variable labels (relabelling one instance moved it from 0.04 s to
# 1.3 s; one seed's relabelled list ran for minutes), so no per-seed draw
# gives steady times or a bounded run.
BASE_SEED = 0
# Operations per second of run length, sized so a run of REFERENCE_SECONDS
# takes about that long on a 2-vCPU Xeon with Python 3.11.
SDEPTH_HARD_PER_S = 0.7
DEPTH_HARD_PER_S = 1.6
ANALYZE_PAIRS_PER_S = 170
HUNT_LIMIT_PER_S = 30


@dataclass(frozen=True)
class Op:
    """One operation: the JSON text the program receives and its reference slot."""

    text: str
    ref: int | str


def _bits(mask: int) -> list[int]:
    return [v + 1 for v in range(mask.bit_length()) if mask >> v & 1]


def _pair_text(n: int, masks_i, masks_j=()) -> str:
    return json.dumps({"n": n, "I": [_bits(m) for m in masks_i], "J": [_bits(m) for m in masks_j]})


def _minimal(masks) -> list[int]:
    return [m for m in masks if not any(o != m and o & m == o for o in masks)]


def _valid(masks_i, masks_j) -> bool:
    """The pair rules of the program's IdealPair, restated on the benchmark side."""
    mi, mj = _minimal(masks_i), _minimal(masks_j)
    d = min(m.bit_count() for m in mi)
    covered = all(any(j & i == j for j in mj) for i in mi)
    return not covered and all(j.bit_count() > d for j in mj)


def _count(per_second: float, seconds: int) -> int:
    return max(1, round(per_second * seconds))


# ---------------------------------------------------------------------------
# input generators


def analyze_ops(seed: int, seconds: int) -> list[Op]:
    """Random pairs shaped like the acceptance suite's ``sample_random_pairs``."""
    rng = random.Random(seed)
    ops: list[Op] = []
    while len(ops) < _count(ANALYZE_PAIRS_PER_S, seconds):
        n = rng.choice((5, 6, 7))
        top = (1 << n) - 1
        gens = rng.sample(range(1, top + 1), rng.randint(1, min(4, top)))
        mults = [m for m in range(1, top + 1) if any(m | g == m and m != g for g in gens)]
        picked = rng.sample(mults, min(rng.randint(0, 3), len(mults))) if mults else []
        if _valid(gens, picked):
            ops.append(Op(_pair_text(n, gens, picked), len(ops)))
    return ops


def _edge_ideals(rng: random.Random, n: int, k: int, count: int) -> list[Op]:
    edges = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(n), 2)]
    return [Op(_pair_text(n, rng.sample(edges, k)), i) for i in range(count)]


def sdepth_hard_ops(seed: int, seconds: int) -> list[Op]:
    """I generated by 8 degree-2 monomials in 8 variables, J = 0; the seed is unused."""
    return _edge_ideals(random.Random(BASE_SEED), 8, 8, _count(SDEPTH_HARD_PER_S, seconds))


def depth_hard_ops(seed: int, seconds: int) -> list[Op]:
    """Seeded random I generated by 6 degree-2 monomials in 9 variables, J = 0."""
    return _edge_ideals(random.Random(seed), 9, 6, _count(DEPTH_HARD_PER_S, seconds))


def hunt_ops(seed: int, seconds: int) -> list[Op]:
    """One step-open hunt over n = 5, d = 1, k = 2 with every J; the seed is unused.

    Runs shorter than the reference length cap the instances the hunt emits.
    """
    limit = None if seconds >= REFERENCE_SECONDS else _count(HUNT_LIMIT_PER_S, seconds)
    family = {"n": 5, "d": 1, "k": 2, "j_policy": "exhaustive", "symmetry_reduction": True}
    return [Op(json.dumps({"family": family, "limit": limit}), f"limit={limit}")]


# ---------------------------------------------------------------------------
# operations: each returns (pair or None, program output)


def run_analyze(text: str):
    from sqdepth import ideal_io, report

    pair, _ = ideal_io.parse_ideal(text)
    return pair, report.build_analysis_report(pair, chars=CHARS)


def run_sdepth(text: str):
    from sqdepth import ideal_io, partition

    pair, _ = ideal_io.parse_ideal(text)
    return pair, partition.sdepth_exact(pair)


def run_depth(text: str):
    from sqdepth import ideal_io, koszul

    pair, _ = ideal_io.parse_ideal(text)
    return pair, koszul.depth_profile(pair, fields=tuple(koszul.FieldSpec(c) for c in CHARS))


def run_hunt(text: str):
    from sqdepth import lab

    spec = json.loads(text)
    family = lab.InstanceFamily(**spec["family"])
    return None, lab.hunt_counterexamples(family, "step-open", limit=spec["limit"])


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def certificate_problems(pair, part, value: int) -> list[str]:
    from sqdepth import verify_partition

    problems = [] if verify_partition(pair, part) else ["certificate fails verify_partition"]
    if part.sdepth_value != value:
        problems.append(f"certificate value {part.sdepth_value} != sdepth {value}")
    return problems


def witness_problems(pair, char: int, depth: int, sigma_vars, index: int) -> list[str]:
    """A depth claim holds when H_index != 0 at the witness and depth = n - index."""
    from sqdepth import FieldSpec, Monomial, build_strand

    if depth != pair.n - index:
        return [f"char {char}: depth {depth} but witness index {index} on n = {pair.n}"]
    strand = build_strand(pair, Monomial.from_variables(sigma_vars, pair.n), FieldSpec(char))
    if not 0 <= index < len(strand.homology) or strand.homology[index] == 0:
        return [f"char {char}: no homology at witness index {index} of sigma {list(sigma_vars)}"]
    return []


def _load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatch(expected, got) -> list[str]:
    return [] if expected == got else [f"reference {expected} != computed {got}"]


def analyze_values(report: dict) -> list:
    """The values of an analysis report that every correct program repeats."""
    return [
        report["sdepth"].get("value"),
        [report["depth"][str(c)]["depth"] for c in CHARS],
        report["criteria"]["bound"],
        [report["theorems"][s]["status"] for s in ("floor", "step")],
    ]


def check_analyze(op: Op, pair, report: dict, reference, oracles) -> list[str]:
    from sqdepth import Interval, IntervalPartition, Monomial

    problems: list[str] = []
    sd = report["sdepth"]
    if "error" in sd:
        return [f"sdepth: {sd['error']}"]
    if "error" in report["depth"]:
        return [f"depth: {report['depth']['error']}"]
    cert = sd["certificate"]
    part = IntervalPartition(
        tuple(Interval(Monomial.from_variables(iv["lo"], pair.n),
                       Monomial.from_variables(iv["hi"], pair.n)) for iv in cert["intervals"]),
        cert["sdepth"],
    )
    problems += certificate_problems(pair, part, sd["value"])
    for c in CHARS:
        dep = report["depth"][str(c)]
        w = dep["witness"]
        problems += witness_problems(pair, c, dep["depth"], w["sigma"], w["index"])
    problems += [f"theorem {k} failed" for k, v in report["theorems"].items()
                 if v["status"] == "fail"]
    if pair.n <= ORACLE_MAX_N:
        expected = oracles.naive_sdepth(pair)
        if expected != sd["value"]:
            problems.append(f"oracle sdepth {expected} != {sd['value']}")
        for c in CHARS:
            expected = oracles.full_koszul_depth(pair, c)
            if expected != report["depth"][str(c)]["depth"]:
                problems.append(f"oracle depth over char {c}: {expected}")
    if reference is not None and op.ref < len(reference):
        problems += _mismatch(reference[op.ref], analyze_values(report))
    return problems


def check_sdepth(op: Op, pair, res, reference, oracles) -> list[str]:
    problems = certificate_problems(pair, res.certificate, res.value)
    if op.ref < len(reference):
        problems += _mismatch(reference[op.ref], res.value)
    return problems


def depth_values(profile) -> list[int]:
    return [profile[c].depth for c in CHARS]


def check_depth(op: Op, pair, profile, reference, oracles) -> list[str]:
    problems = []
    for c in CHARS:
        r = profile[c]
        problems += witness_problems(pair, c, r.depth, r.witness_sigma.variables, r.witness_index)
    if reference is not None and op.ref < len(reference):
        problems += _mismatch(reference[op.ref], depth_values(profile))
    return problems


def check_hunt(op: Op, pair, hunt: dict, reference, oracles) -> list[str]:
    problems = []
    fails = hunt["counts"]["fail"]
    if len(hunt["failures"]) != fails:
        problems.append(f"{len(hunt['failures'])} failure records for {fails} fails")
    if op.ref in reference:
        problems += _mismatch(reference[op.ref], hunt["counts"])
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable
    run: Callable
    check: Callable
    values: Callable
    # a workload that draws fresh inputs per seed has a reference for one seed only
    reference_seed: int | None = None
    needs_oracles: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-stream", analyze_ops, run_analyze, check_analyze,
                 analyze_values, reference_seed=0, needs_oracles=True),
        Workload("sdepth-hard", sdepth_hard_ops, run_sdepth, check_sdepth,
                 lambda out: out.value),
        Workload("depth-hard", depth_hard_ops, run_depth, check_depth, depth_values,
                 reference_seed=0),
        Workload("hunt-symmetry", hunt_ops, run_hunt, check_hunt, lambda out: out["counts"]),
    )
}


def import_program() -> None:
    """Import every module of the program, so the timed pass pays no import."""
    importlib.import_module("sqdepth.cli")


def timed_pass(workload: Workload, ops, tracer=None):
    """Run the operations one at a time; returns (outputs, latencies, wall seconds).

    Each output is (pair, program output, error text or None).
    """
    outputs, latencies = [], []
    clock = time.perf_counter
    t0 = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        s = clock()
        try:
            pair, out = workload.run(op.text)
            error = None
        except Exception as exc:  # a failed operation is counted and the pass goes on
            pair, out, error = None, None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - s)
        outputs.append((pair, out, error))
    return outputs, latencies, clock() - t0


def load_reference(workload: Workload, seed: int):
    """The recorded values that apply to this workload and seed, or None."""
    if workload.reference_seed is not None and seed != workload.reference_seed:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload.name]


def count_failures(workload: Workload, seed: int, ops, outputs) -> tuple[int, list[str]]:
    """Operations that raised or whose output fails a check, with the first reasons."""
    reference = load_reference(workload, seed)
    oracles = _load_oracles() if workload.needs_oracles else None
    failed, reasons = 0, []
    for i, (op, (pair, out, error)) in enumerate(zip(ops, outputs)):
        if error:
            problems = [error]
        else:
            try:
                problems = workload.check(op, pair, out, reference, oracles)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            if len(reasons) < 10:
                reasons.append(f"op {i}: {'; '.join(problems)}")
    return failed, reasons
