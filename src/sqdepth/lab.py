"""Instance families, theorem checks and counterexample hunts.

This module turns the engines (interval-partition solver, Koszul homology)
into verification campaigns:

* enumerate or sample ideal pairs matching a family description,
* check the depth-floor statement (sdepth = d forces depth = d) and the
  depth-step statement (for the proved generator shapes, sdepth = d+1
  forces depth <= d+1) on each instance,
* hunt for counterexamples over a family, reporting reproducible counts.

With ``symmetry`` the enumerators emit one canonical representative per
orbit of variable permutations.  The lcm classifier of the paper's proofs
lives in ``sqdepth.lemmas``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import asdict, dataclass, field

from .ideal_io import pair_to_dict
from .koszul import DEFAULT_FIELDS, DepthResult, check_paranoid_size, depth_profile
from .monomial import (
    IdealPair,
    InvariantError,
    Monomial,
    degree_masks,
    ideal_masks,
    mask_key,
    masks_contain,
)
from .partition import DEFAULT_NODE_BUDGET, SdepthResult, sdepth_exact


class EmptyFamily(ValueError):
    """The family constraints admit no instance."""


class HypothesisMismatch(ValueError):
    """The instance shape does not match the statement's hypotheses."""


# ---------------------------------------------------------------------------
# variable permutations and canonical forms


def permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    """Image of a monomial mask under the variable permutation i -> perm[i]."""
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


MAX_SYMMETRY_VARS = 8


@functools.lru_cache(maxsize=8)
def _perm_tables(n: int) -> list[list[int]]:
    """Per permutation of n variables, the ``mask_key`` of each mask's image.

    The first table is the identity permutation's. The tables hold n! * 2^n
    entries (10.3 M at n = 8, 185.8 M at n = 9), so more than
    ``MAX_SYMMETRY_VARS`` variables are refused before any is built.
    """
    if n > MAX_SYMMETRY_VARS:
        raise ValueError(f"symmetry reduction is limited to n <= {MAX_SYMMETRY_VARS}, got n = {n}")
    return [
        [mask_key(permute_mask(m, perm)) for m in range(1 << n)]
        for perm in itertools.permutations(range(n))
    ]


def _rank_key(masks, table):
    return tuple(sorted(table[m] for m in masks))


# ---------------------------------------------------------------------------
# instance families


@dataclass(frozen=True)
class InstanceFamily:
    """Shape description for generated instances.

    ``k`` counts degree-``d`` generators.  ``with_e`` admits extra minimal
    generators of degree exactly d+1.  ``j_policy`` is one of "zero",
    "exhaustive", "random".
    """

    n: int
    d: int
    k: int
    with_e: bool = False
    j_policy: str = "zero"
    symmetry_reduction: bool = False

    def __post_init__(self):
        if not 1 <= self.d <= self.n:
            raise EmptyFamily(f"degree d={self.d} impossible with n={self.n}")
        if self.k < 1:
            raise EmptyFamily("at least one degree-d generator required")
        if self.k > math.comb(self.n, self.d):
            raise EmptyFamily(f"k={self.k} exceeds the number of degree-{self.d} monomials")
        if self.j_policy not in ("zero", "exhaustive", "random"):
            raise EmptyFamily(f"unknown J policy {self.j_policy!r}")
        if self.symmetry_reduction and self.j_policy == "random":
            raise EmptyFamily("symmetry reduction needs an enumerated family (--exhaustive)")


def _antichains(elements: list[int]):
    """All antichains (as lists of masks) of the divisibility poset, DFS order.

    Includes the empty antichain.
    """
    n_el = len(elements)

    def dfs(start: int, chosen: list[int]):
        yield list(chosen)
        for idx in range(start, n_el):
            m = elements[idx]
            if all(c & m != c and c & m != m for c in chosen):
                chosen.append(m)
                yield from dfs(idx + 1, chosen)
                chosen.pop()

    yield from dfs(0, [])


def _poset_above(n: int, gens) -> list[int]:
    """Masks of I = (gens) above its least generator degree, canonical order."""
    d = min(g.bit_count() for g in gens)
    return sorted((m for m in ideal_masks((1 << n) - 1, gens) if m.bit_count() > d), key=mask_key)


def _i_candidates(fam: InstanceFamily):
    """Yield generator mask tuples (degree-d choices plus optional E)."""
    low = degree_masks(fam.n, fam.d)
    highs = degree_masks(fam.n, fam.d + 1) if fam.with_e else []
    for combo in itertools.combinations(low, fam.k):
        free_highs = [h for h in highs if all(h & f != f for f in combo)]
        for r in range(len(free_highs) + 1):
            for extra in itertools.combinations(free_highs, r):
                yield combo + extra


def _pairs(n: int, i_choices, j_choices, symmetry: bool):
    """The pairs I = (gens), J = (js) for gens in ``i_choices``, js in ``j_choices(gens)``.

    With ``symmetry`` only canonical representatives are emitted: a pair is
    kept exactly when its key, the sorted ``mask_key``s of I's generators
    and then of J's, is minimal over all variable permutations.  The I-part
    is screened first, because only an I-minimal pair can be pair-minimal;
    the J-part is then compared only under the permutations that achieve
    the minimal I-key.
    """
    tables = _perm_tables(n) if symmetry else None
    for gens in i_choices:
        gens = tuple(gens)
        if symmetry:
            keys = [(_rank_key(gens, t), t) for t in tables]
            best = min(k for k, _ in keys)
            if keys[0][0] != best:
                continue
            achievers = [t for k, t in keys if k == best]
        for js in j_choices(gens):
            if symmetry:
                own = _rank_key(js, tables[0])
                if any(_rank_key(js, t) < own for t in achievers):
                    continue
            yield IdealPair.from_masks(n, gens, tuple(js))


def enumerate_instances(fam: InstanceFamily):
    """Stream distinct valid pairs matching the family, deterministically.

    With symmetry_reduction only the canonical representative of each
    variable-permutation orbit is emitted.  Raises EmptyFamily when nothing
    matches.
    """
    if fam.j_policy == "random":
        raise EmptyFamily("random J policy requires sample_instances with a seed")

    def j_choices(gens):
        if fam.j_policy == "zero":
            return [[]]
        # J generators lie above degree d, so one divides a generator of I
        # only by equalling one of the degree-(d+1) extras
        return _antichains([m for m in _poset_above(fam.n, gens) if m not in gens])

    it = _pairs(fam.n, _i_candidates(fam), j_choices, fam.symmetry_reduction)
    try:
        first = next(it)
    except StopIteration:
        raise EmptyFamily(f"no instances match {fam}") from None
    return itertools.chain([first], it)


def sample_instances(fam: InstanceFamily, count: int, seed: int):
    """Yield ``count`` seeded random valid pairs matching the family shape."""
    rng = random.Random(seed)
    low = degree_masks(fam.n, fam.d)
    highs = degree_masks(fam.n, fam.d + 1) if fam.with_e else []
    produced = 0
    while produced < count:
        gens = tuple(rng.sample(low, fam.k))
        free_highs = [h for h in highs if all(h & f != f for f in gens)]
        if free_highs:
            extra = tuple(h for h in free_highs if rng.random() < 0.5)
            gens = gens + extra
        if fam.j_policy == "zero":
            js = ()
        else:
            js = [m for m in _poset_above(fam.n, gens) if rng.random() < 0.3]
            if any(masks_contain(js, g) for g in gens):
                continue
        yield IdealPair.from_masks(fam.n, gens, js)
        produced += 1


def enumerate_all_pairs(n: int, symmetry: bool = False):
    """Every valid pair on n variables: I over nonzero antichains (including
    the unit ideal), J over antichains of I's poset above degree d.

    With ``symmetry`` only canonical representatives are emitted.
    """
    all_masks = sorted(range(1, 1 << n), key=mask_key)
    i_choices = itertools.chain([[0]], (a for a in _antichains(all_masks) if a))
    yield from _pairs(n, i_choices, lambda gens: _antichains(_poset_above(n, gens)), symmetry)


# ---------------------------------------------------------------------------
# theorem checks


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one statement check on one instance."""

    status: str
    instance: IdealPair
    details: dict = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class Analysis:
    """The engine results of one instance, each computed on its first read.

    Statements and reports read these fields and call no engine themselves.
    A read that raises (an exhausted budget, an engine error) caches
    nothing, so callers keep the exception rather than read again.  Too
    large a ring for the paranoid check is refused before any engine runs.
    """

    pair: IdealPair
    fields: tuple = DEFAULT_FIELDS
    budget: int | None = DEFAULT_NODE_BUDGET
    paranoid: bool = False

    def __post_init__(self):
        if self.paranoid:
            check_paranoid_size(self.pair)

    @functools.cached_property
    def sdepth(self) -> SdepthResult:
        res = sdepth_exact(self.pair, budget=self.budget)
        if res.value < self.pair.d:
            raise InvariantError(f"sdepth {res.value} below d = {self.pair.d}")
        return res

    @functools.cached_property
    def profile(self) -> dict[int, DepthResult]:
        profile = depth_profile(self.pair, fields=self.fields, paranoid=self.paranoid)
        low = {c: r.depth for c, r in profile.items() if r.depth < self.pair.d}
        if low:
            raise InvariantError(f"depth below d = {self.pair.d}: {low}")
        return profile

    @functools.cached_property
    def depths(self) -> dict[int, int]:
        return {char: res.depth for char, res in self.profile.items()}


def step_shape(inst: IdealPair) -> str:
    """Classify the instance for the depth-step statement.

    "single" = one degree-d generator, extras all of degree exactly d+1;
    "few" = two or three degree-d generators and nothing else.
    Raises HypothesisMismatch for any other shape.
    """
    k = len(inst.degree_d_masks())
    extras = inst.extra_masks()
    if k == 1 and all(m.bit_count() == inst.d + 1 for m in extras):
        return "single"
    if k in (2, 3) and not extras:
        return "few"
    names = [str(Monomial(m, inst.n)) for m in extras]
    raise HypothesisMismatch(f"{k} degree-{inst.d} generators with extras {names}")


def _sdepth_bounds_depth(a: Analysis, t: int, **details) -> CheckResult:
    """Skip unless sdepth = t; then depth must be at most t over every field."""
    value = a.sdepth.value
    details = {"sdepth": value, **details}
    if value != t:
        return CheckResult("skip", a.pair, details)
    depths = a.depths
    status = "fail" if any(v > t for v in depths.values()) else "pass"
    return CheckResult(status, a.pair, {**details, "depths": depths})


def floor_statement(a: Analysis) -> CheckResult:
    """sdepth = d must force depth = d (depth >= d always) over every field."""
    return _sdepth_bounds_depth(a, a.pair.d)


def step_statement(a: Analysis) -> CheckResult:
    """For the proved shapes: sdepth = d+1 must force depth <= d+1."""
    return _sdepth_bounds_depth(a, a.pair.d + 1, shape=step_shape(a.pair))


def step_open_statement(a: Analysis) -> CheckResult:
    """The unrestricted step statement: no shape filter, findings are news."""
    return _sdepth_bounds_depth(a, a.pair.d + 1)


STATEMENTS = {
    "floor": floor_statement,
    "step": step_statement,
    "step-open": step_open_statement,
}


# ---------------------------------------------------------------------------
# counterexample hunting


def _failure_record(a: Analysis) -> dict:
    """The failing instance with the sdepth certificate and depths it already holds."""
    return {
        "instance": pair_to_dict(a.pair),
        "details": {
            "sdepth": a.sdepth.value,
            "certificate": [[str(iv.lo), str(iv.hi)] for iv in a.sdepth.certificate.intervals],
            "depths": {str(c): v for c, v in a.depths.items()},
        },
    }


def hunt_counterexamples(
    fam: InstanceFamily,
    check: str,
    fields=DEFAULT_FIELDS,
    limit: int | None = None,
    seed: int = 0,
    timing: bool = False,
    budget: int | None = DEFAULT_NODE_BUDGET,
) -> dict:
    """Run a statement check over a family; return a reproducible report.

    ``check`` is "floor", "step" or "step-open".  Failures carry the full
    instance and certificates.  For "floor" and "step" any failure is an
    implementation bug; for "step-open" failures are genuine findings.
    ``budget`` caps each instance's sdepth search; an exhausted search
    raises BudgetExhausted.
    """
    if check not in STATEMENTS:
        raise ValueError(f"unknown check {check!r}")
    statement = STATEMENTS[check]
    t0 = time.monotonic()
    if fam.j_policy == "random":
        stream = sample_instances(fam, limit if limit is not None else 1000, seed)
    else:
        stream = enumerate_instances(fam)
        if limit is not None:
            stream = itertools.islice(stream, limit)
    counts = {"pass": 0, "fail": 0, "skip": 0}
    failures = []
    for inst in stream:
        analysis = Analysis(inst, fields, budget)
        try:
            result = statement(analysis)
        except HypothesisMismatch:
            counts["skip"] += 1
            continue
        counts[result.status] += 1
        if result.status == "fail":
            failures.append(_failure_record(analysis))
    return {
        "family": asdict(fam),
        "check": check,
        "fields": [str(f) for f in fields],
        "counts": counts,
        "failures": failures,
        "seed": seed,
        "elapsed_ms": int((time.monotonic() - t0) * 1000) if timing else None,
    }
