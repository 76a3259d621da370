"""Instance enumeration, theorem checks, lcm configuration analysis, h-maps.

This module turns the engines (interval-partition solver, Koszul homology,
numeric criteria) into verification campaigns:

* enumerate or sample ideal pairs matching a family description,
* check the depth-floor statement (sdepth = d forces depth = d) and the
  depth-step statement (for the proved generator shapes, sdepth = d+1
  forces depth <= d+1) on each instance,
* classify the lcm configuration of 2- and 3-generator instances and check
  the counting bounds that hold for each configuration,
* extract the injection h: B\\{b} -> C from a normalized partition of the
  derived pair I_b/J_b, and walk its maximal/bad paths,
* hunt for counterexamples over a family, reporting reproducible counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import asdict, dataclass, field

from .ideal_io import pair_to_dict
from .koszul import DEFAULT_FIELDS, DepthResult, depth_profile
from .monomial import (
    IdealPair,
    InvariantError,
    LcmClass,
    Monomial,
    PosetEmpty,
    build_poset,
    ideal_masks,
    intersect_masks,
    lcm_pairs,
    mask_key,
    masks_contain,
    minimalize_masks,
    subquotient_pair,
    sum_masks,
)
from .partition import DEFAULT_NODE_BUDGET, SdepthResult, sdepth_decision, sdepth_exact


class EmptyFamily(ValueError):
    """The family constraints admit no instance."""


class HypothesisMismatch(ValueError):
    """The instance shape does not match the statement's hypotheses."""


class NotApplicable(ValueError):
    """The lcm classifier preconditions fail for this instance."""


class NotNormalized(ValueError):
    """A partition interval headed by a B-element does not end in C."""


# ---------------------------------------------------------------------------
# variable permutations and canonical forms


def permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    """Image of a monomial mask under the variable permutation i -> perm[i]."""
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


@functools.lru_cache(maxsize=8)
def _perm_tables(n: int) -> list[list[int]]:
    """Per permutation of n variables, the ``mask_key`` of each mask's image.

    The first table is the identity permutation's.
    """
    return [
        [mask_key(permute_mask(m, perm)) for m in range(1 << n)]
        for perm in itertools.permutations(range(n))
    ]


def _rank_key(masks, table):
    return tuple(sorted(table[m] for m in masks))


def canonical_key(pair: IdealPair):
    """Minimal (sorted I keys, sorted J keys) over all variable permutations.

    Comparing sorted key tuples is the same as comparing sorted generator
    lists lexicographically in the canonical monomial order.
    """
    return min(
        (_rank_key(pair.i_masks, table), _rank_key(pair.j_masks, table))
        for table in _perm_tables(pair.n)
    )


def is_canonical(pair: IdealPair) -> bool:
    """True when the pair's own key is minimal in its permutation orbit."""
    ident = _perm_tables(pair.n)[0]
    own = (_rank_key(pair.i_masks, ident), _rank_key(pair.j_masks, ident))
    return own == canonical_key(pair)


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


def degree_masks(n: int, deg: int) -> list[int]:
    """All squarefree masks of the given degree, canonical order."""
    # combinations of increasing variables come out in lex order
    return [sum(1 << v for v in combo) for combo in itertools.combinations(range(n), deg)]


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
        if fam.with_e:
            for r in range(len(free_highs) + 1):
                for extra in itertools.combinations(free_highs, r):
                    yield combo + extra
        else:
            yield combo


def _pairs(n: int, i_choices, j_choices, symmetry: bool):
    """The pairs I = (gens), J = (js) for gens in ``i_choices``, js in ``j_choices(gens)``.

    With ``symmetry`` only canonical representatives are emitted: a pair is
    kept exactly when its (sorted I, sorted J) key is minimal over all
    variable permutations.  The I-part is screened first, because only an
    I-minimal pair can be pair-minimal; the J-part is then compared only
    under the permutations that achieve the minimal I-key.  The keys are
    those of ``canonical_key``, so the kept pairs are exactly the ones
    ``is_canonical`` accepts.
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
        if fam.with_e and free_highs:
            extra = tuple(h for h in free_highs if rng.random() < 0.5)
            gens = gens + extra
        if fam.j_policy == "zero":
            js = ()
        else:
            elements = _poset_above(fam.n, gens)
            picked = [m for m in elements if rng.random() < 0.3]
            js = minimalize_masks(picked)
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
    nothing, so callers keep the exception rather than read again.
    """

    pair: IdealPair
    fields: tuple = DEFAULT_FIELDS
    budget: int | None = DEFAULT_NODE_BUDGET
    paranoid: bool = False

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


def check_depth_floor(inst: IdealPair, fields=DEFAULT_FIELDS) -> CheckResult:
    """``floor_statement`` on a fresh analysis of the pair."""
    return floor_statement(Analysis(inst, fields))


def check_depth_step(inst: IdealPair, fields=DEFAULT_FIELDS) -> CheckResult:
    """``step_statement`` on a fresh analysis of the pair."""
    return step_statement(Analysis(inst, fields))


def check_depth_step_open(inst: IdealPair, fields=DEFAULT_FIELDS) -> CheckResult:
    """``step_open_statement`` on a fresh analysis of the pair."""
    return step_open_statement(Analysis(inst, fields))


# ---------------------------------------------------------------------------
# lcm configuration classifier


@dataclass(frozen=True)
class BoundCheck:
    """One counting bound evaluated on an instance."""

    description: str
    observed: int
    required: int
    holds: bool


def _ge(desc: str, observed: int, required: int) -> BoundCheck:
    return BoundCheck(desc, observed, required, observed >= required)


def _eq(desc: str, observed: int, required: int) -> BoundCheck:
    return BoundCheck(desc, observed, required, observed == required)


def _le(desc: str, observed: int, required: int) -> BoundCheck:
    return BoundCheck(desc, observed, required, observed <= required)


@dataclass(frozen=True)
class LcmConfiguration:
    """Configuration label plus measured counts and evaluated bounds."""

    label: str
    s: int
    q: int
    q_pair: dict = field(compare=False)
    checks: tuple = ()

    @property
    def violations(self):
        return [c for c in self.checks if not c.holds]


def _q_pair_counts(pair: IdealPair, lcms) -> dict:
    c_masks = build_poset(pair).layer_masks(pair.d + 2)
    out = {}
    for ij, (w, _cls) in lcms.items():
        out[ij] = sum(1 for c in c_masks if c & w == w)
    return out


def classify_lcm_configuration(inst: IdealPair) -> LcmConfiguration:
    """Label the lcm configuration of a 2- or 3-generator instance and check
    the counting bounds provable for that configuration.

    Preconditions: exactly 2 or 3 generators, all of degree d, and every
    element of C is a multiple of some pairwise lcm; otherwise NotApplicable.
    """
    k = len(inst.degree_d_masks())
    if k not in (2, 3) or inst.extra_masks():
        raise NotApplicable(f"classifier needs 2 or 3 degree-d generators, got {k}")
    layers = build_poset(inst)
    s, q = layers.s, layers.q
    lcms = lcm_pairs(inst)
    w_masks = [w for w, _ in lcms.values()]
    for c in layers.layer_masks(inst.d + 2):
        if not any(c & w == w for w in w_masks):
            raise NotApplicable(f"C element {Monomial(c, inst.n)} avoids every pairwise lcm")
    qp = _q_pair_counts(inst, lcms)

    if k == 2:
        (w, cls) = lcms[(1, 2)]
        label = {
            LcmClass.IN_B: "k2-lcm-in-B",
            LcmClass.IN_C: "k2-lcm-in-C",
            LcmClass.IN_J: "k2-lcm-in-J",
            LcmClass.DEG_TOO_BIG: "k2-lcm-too-big",
        }[cls]
        checks = []
        if cls is LcmClass.IN_B:
            checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
        elif cls is LcmClass.IN_C:
            checks.append(_eq("q = 1", q, 1))
        else:
            checks.append(_eq("q = 0", q, 0))
        return LcmConfiguration(label, s, q, qp, tuple(checks))

    by_class: dict[LcmClass, list] = {}
    for ij, (w, cls) in lcms.items():
        by_class.setdefault(cls, []).append(ij)
    n_b = len(by_class.get(LcmClass.IN_B, ()))
    n_c = len(by_class.get(LcmClass.IN_C, ()))
    w_of = {ij: w for ij, (w, _) in lcms.items()}
    checks: list[BoundCheck] = []

    if n_b == 3:
        masks = {w_of[ij] for ij in by_class[LcmClass.IN_B]}
        if len(masks) == 1:
            label = "k3-all-B-equal"
            checks.append(_ge("s >= 3q+1", s, 3 * q + 1))
        else:
            # two equal and one different is impossible for lcms in B
            label = "k3-all-B-distinct"
    elif n_b == 2:
        b_pairs = by_class[LcmClass.IN_B]
        (other_ij,) = [ij for ij in lcms if ij not in b_pairs]
        other_cls = lcms[other_ij][1]
        qb1, qb2 = qp[b_pairs[0]], qp[b_pairs[1]]
        checks.append(_ge("s >= 2q_a+1", s, 2 * qb1 + 1))
        checks.append(_ge("s >= 2q_b+1", s, 2 * qb2 + 1))
        if other_cls is LcmClass.IN_C:
            label = "k3-two-B-one-C"
            checks.append(_eq("q = q_a+q_b-1", q, qb1 + qb2 - 1))
            checks.append(_ge("s >= q+max+2", s, q + max(qb1, qb2) + 2))
            if q > 2:
                checks.append(_ge("s > q+3", s, q + 4))
        elif other_cls is LcmClass.IN_J:
            label = "k3-two-B-one-J"
            checks.append(_eq("q = q_a+q_b", q, qb1 + qb2))
            checks.append(_ge("s >= q+max", s, q + max(qb1, qb2)))
        else:
            # unreachable for valid pairs: two lcms in B force the third
            # to have degree at most d+2
            label = "k3-two-B-one-big"
            checks.append(_eq("q = q_a+q_b", q, qb1 + qb2))
    elif n_b == 1:
        (b_ij,) = by_class[LcmClass.IN_B]
        qb = qp[b_ij]
        others = [ij for ij in lcms if ij != b_ij]
        other_classes = sorted(lcms[ij][1].value for ij in others)
        if all(lcms[ij][1] is LcmClass.IN_C for ij in others):
            if w_of[others[0]] == w_of[others[1]]:
                label = "k3-one-B-two-C-equal"
                checks.append(_eq("q = q_B", q, qb))
                checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
            else:
                label = "k3-one-B-two-C-distinct"
                checks.append(_eq("q = q_B+2", q, qb + 2))
                checks.append(_ge("s >= 2q", s, 2 * q))
                if q > 2:
                    checks.append(_ge("s >= q+4", s, q + 4))
        elif any(lcms[ij][1] is LcmClass.IN_C for ij in others):
            label = "k3-one-B-one-C-one-" + (
                "J" if LcmClass.IN_J.value in other_classes else "big"
            )
            checks.append(_eq("q = q_B+1", q, qb + 1))
            checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
        else:
            label = "k3-one-B-no-C"
            checks.append(_eq("q = q_B", q, qb))
            checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
    else:
        c_masks = {w_of[ij] for ij in by_class.get(LcmClass.IN_C, ())}
        if n_c == 3:
            if len(c_masks) == 3:
                label = "k3-all-C-distinct"
                checks.append(_eq("q = 3", q, 3))
                for ij in lcms:
                    checks.append(_eq(f"q_{ij[0]}{ij[1]} = 1", qp[ij], 1))
                checks.append(_ge("s >= 9", s, 9))
                if inst.d == 2:
                    checks.append(_ge("s >= 12 (disjoint generators)", s, 12))
            else:
                label = "k3-all-C-equal"
                checks.append(_le("q <= 2", q, 2))
        else:
            label = f"k3-no-B-{n_c}C"
            checks.append(_le(f"q <= {len(c_masks)}", q, len(c_masks)))
    return LcmConfiguration(label, s, q, qp, tuple(checks))


# ---------------------------------------------------------------------------
# configuration instance builders


def truncation_pair(n: int, gens: tuple[int, ...], kept_c: tuple[int, ...]) -> IdealPair:
    """Pair with I = (gens), C = exactly kept_c, nothing above degree d+2.

    J is generated by every degree-(d+2) monomial of I outside kept_c plus
    every degree-(d+3) monomial of I; those already covered are not minimal
    and ``from_masks`` drops them.  All of B survives.
    """
    d = min(g.bit_count() for g in gens)
    j_gens = [
        m
        for m in ideal_masks((1 << n) - 1, gens)
        if m.bit_count() == d + 3 or m.bit_count() == d + 2 and m not in kept_c
    ]
    return IdealPair.from_masks(n, gens, j_gens)


def _multiplier_sets(n: int, w_mask: int, banned: set[int]) -> list[int]:
    return [
        w_mask | 1 << t
        for t in range(n)
        if not w_mask >> t & 1 and w_mask | 1 << t not in banned
    ]


def configuration_instances(label: str, count: int):
    """Yield ``count`` instances classifying as ``label``, deterministically.

    Supported labels cover every configuration with an asserted bound plus
    the all-B-distinct shape.  Instances come from exhaustive scans of
    generator triples (or pairs) at growing (d, n) with truncated J.
    """
    produced = 0
    for d, n in _DN_ORDER:
        if produced >= count:
            return
        k = 2 if label.startswith("k2") else 3
        if math.comb(n, d) < k:
            continue
        for gens in itertools.combinations(degree_masks(n, d), k):
            if produced >= count:
                return
            for kept in _kept_choices(label, n, d, gens):
                pair = truncation_pair(n, gens, kept)
                try:
                    conf = classify_lcm_configuration(pair)
                except (NotApplicable, PosetEmpty):
                    continue
                if conf.label != label:
                    continue
                yield pair
                produced += 1
                if produced >= count:
                    return


_DN_ORDER = [
    (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5),
    (2, 6), (3, 6), (4, 6), (2, 7), (3, 7), (4, 7), (5, 7),
]


def _kept_choices(label: str, n: int, d: int, gens):
    """Candidate kept-C sets for a generator tuple, per configuration label."""
    ls = {
        (i, j): gens[i - 1] | gens[j - 1]
        for i, j in itertools.combinations(range(1, len(gens) + 1), 2)
    }
    b_ws = sorted({w for w in ls.values() if w.bit_count() == d + 1})
    c_ws = sorted({w for w in ls.values() if w.bit_count() == d + 2})

    if label in ("k2-lcm-in-B", "k3-all-B-equal", "k3-all-B-distinct"):
        if c_ws:
            return
        pool = sorted({m for w in b_ws for m in _multiplier_sets(n, w, set())})
        # small subsets keep the scan bounded; larger C arise at larger n
        for r in range(min(len(pool), 3) + 1):
            for kept in itertools.combinations(pool, r):
                yield kept
    elif label in ("k2-lcm-in-C", "k3-all-C-distinct", "k3-all-C-equal"):
        if b_ws:
            return
        yield tuple(c_ws)
    elif label == "k2-lcm-in-J":
        if b_ws or not c_ws:
            return
        yield ()
    elif label in ("k3-two-B-one-C", "k3-two-B-one-J"):
        if len(b_ws) != 2 or len(c_ws) != 1:
            return
        banned = set(c_ws)
        pool = sorted({m for w in b_ws for m in _multiplier_sets(n, w, banned)})
        base = tuple(c_ws) if label.endswith("C") else ()
        for r in range(min(len(pool), 2) + 1):
            for kept in itertools.combinations(pool, r):
                yield base + kept
    elif label.startswith("k3-one-B-two-C") or label.startswith("k3-one-B-one-C"):
        if len(b_ws) != 1:
            return
        c_set = [w for w in set(ls.values()) if w.bit_count() == d + 2]
        if label == "k3-one-B-two-C-equal" and len(c_set) != 1:
            return
        if label != "k3-one-B-two-C-equal" and len(c_set) != 2:
            return
        banned = set(c_ws)
        pool = _multiplier_sets(n, b_ws[0], banned)
        if label == "k3-one-B-one-C-one-J":
            c_kept = (min(c_ws),)
        else:
            c_kept = tuple(sorted(set(c_ws)))
        for r in range(min(len(pool), 2) + 1):
            for kept in itertools.combinations(pool, r):
                yield c_kept + kept
    elif label == "k3-one-B-no-C":
        if len(b_ws) != 1 or not c_ws:
            return
        pool = _multiplier_sets(n, b_ws[0], set(c_ws))
        for r in range(min(len(pool), 2) + 1):
            for kept in itertools.combinations(pool, r):
                yield kept
    else:
        raise ValueError(f"no builder for configuration {label!r}")


# ---------------------------------------------------------------------------
# h-maps and paths


@dataclass
class HMap:
    """Assignment b' -> c_{b'} read off a normalized partition of I_b/J_b."""

    b: Monomial
    assignments: dict

    @property
    def image(self):
        return sorted({c for c in self.assignments.values()}, key=lambda m: m.sort_key())


@dataclass(frozen=True)
class PathReport:
    """A divisor path through an h-map.

    ``is_bad``: the final image is a multiple of the removed element b.
    ``is_maximal``: the path cannot be extended (final image in (b), or all
    its B-divisors are used up or equal b).
    """

    path: tuple
    is_bad: bool
    is_maximal: bool


def removal_pair(inst: IdealPair, b: Monomial) -> IdealPair | None:
    """The derived pair I_b/J_b for b in B: I_b = (B \\ {b}), J_b = J cap I_b."""
    rest = [m for m in build_poset(inst).layer_masks(inst.d + 1) if m != b.mask]
    if not rest:
        return None
    jb = intersect_masks(inst.j_masks, tuple(rest))
    return IdealPair.from_masks(inst.n, tuple(rest), tuple(jb))


def extract_h_map(inst: IdealPair, b: Monomial, part) -> HMap:
    """Read h: B\\{b} -> C off a normalized sdepth-(d+2) partition of I_b/J_b.

    Every element of B\\{b} must head an interval ending in degree d+2;
    a top outside I/J, a non-injective h or an image larger than q raises
    InvariantError.
    """
    layers = build_poset(inst)
    rest = [Monomial(m, inst.n) for m in layers.layer_masks(inst.d + 1) if m != b.mask]
    if not rest:
        return HMap(b, {})
    by_lo = {iv.lo.mask: iv for iv in part.intervals}
    assignments = {}
    for bp in rest:
        iv = by_lo.get(bp.mask)
        if iv is None:
            raise NotNormalized(f"{bp} does not head an interval")
        if iv.hi.degree != inst.d + 2:
            raise NotNormalized(f"interval at {bp} ends at degree {iv.hi.degree}")
        if iv.hi.mask not in layers.index:
            raise InvariantError(f"interval top {iv.hi} leaves the original module")
        assignments[bp] = iv.hi
    image = {c.mask for c in assignments.values()}
    if len(image) != len(assignments):
        raise InvariantError("interval tops must be distinct")
    if len(image) > layers.q:
        raise InvariantError(f"image of size {len(image)} exceeds |C| = {layers.q}")
    return HMap(b, assignments)


def h_map_via_solver(inst: IdealPair, b: Monomial, budget: int = 10_000_000):
    """Build I_b/J_b, search a partition with tops at degree d+2, extract h.

    Returns None when no such partition exists (then s-1 > q or the layer
    structure obstructs; the pigeonhole direction is checked by callers).
    """
    sub = removal_pair(inst, b)
    if sub is None:
        return HMap(b, {})
    if inst.d + 2 > inst.n:
        return None
    part = sdepth_decision(sub, inst.d + 2, budget=budget)
    if part is None:
        return None
    return extract_h_map(inst, b, part)


def find_maximal_bad_paths(inst: IdealPair, h: HMap, max_reports: int = 100_000):
    """All maximal divisor paths through h, bad ones flagged, DFS order."""
    if not h.assignments:
        return []
    b_mask = h.b.mask
    starts = sorted(h.assignments, key=lambda m: m.sort_key())
    reports: list[PathReport] = []

    def dfs(path: list[Monomial], used: set[int]):
        if len(reports) >= max_reports:
            raise RuntimeError("path explosion; raise max_reports to continue")
        tail_image = h.assignments[path[-1]]
        if tail_image.mask & b_mask == b_mask:
            reports.append(PathReport(tuple(path), True, True))
            return
        extensions = [
            a
            for a in starts
            if a.mask not in used and tail_image.mask & a.mask == a.mask
        ]
        if not extensions:
            reports.append(PathReport(tuple(path), False, True))
            return
        for a in extensions:
            path.append(a)
            used.add(a.mask)
            dfs(path, used)
            used.discard(a.mask)
            path.pop()

    for a1 in starts:
        dfs([a1], {a1.mask})
    return reports


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


# ---------------------------------------------------------------------------
# short exact sequence splits


def split_modules(pair: IdealPair, subset_masks: tuple[int, ...]):
    """The two side modules of 0 -> I'/J' -> I/J -> I/(J+I') -> 0.

    ``subset_masks`` generate I' <= I with J' = J cap I'.  Returns
    (left, right) as pairs, either possibly None when the corresponding
    module vanishes.
    """
    if not subset_masks:
        raise ValueError("subset must be nonempty")
    left = subquotient_pair(pair.n, subset_masks, pair.j_masks)
    right = subquotient_pair(pair.n, pair.i_masks, sum_masks(pair.j_masks, subset_masks))
    return left, right
