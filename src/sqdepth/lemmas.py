"""The paper's two routes to the depth-step statement, and their tools.

* lcm configurations: classify the pairwise lcms of the degree-d
  generators (in B, C, J or above), label the configuration, check the
  counting bounds on s = |B| and q = |C| proved for it, and build
  instances of each label;
* injections h: B\\{b} -> C read off a normalized partition of the derived
  pair I_b/J_b, and the divisor paths through h;
* ``subquotient_pair``, which presents I_b/J_b and the two side modules of
  a short exact sequence split along generators as (num)/(den cap num).

Only the lcm classifier runs outside the tests, in the analysis report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

from .monomial import (
    IdealPair,
    InvariantError,
    Monomial,
    PosetEmpty,
    build_poset,
    degree_masks,
    ideal_masks,
    masks_contain,
    submasks,
)
from .partition import Interval, IntervalPartition, sdepth_decision


class NotApplicable(ValueError):
    """The lcm classifier preconditions fail for this instance."""


class NotNormalized(ValueError):
    """A partition interval headed by a B-element does not end in C."""


class NotNormalizable(ValueError):
    """Partition cannot be normalized to the requested target."""


# ---------------------------------------------------------------------------
# derived pairs


def subquotient_pair(n: int, num_masks, den_masks) -> IdealPair | None:
    """Present the module (num)/(den cap num) as a validated ideal pair.

    Generators of the numerator lying inside the denominator contribute no
    monomials to the difference and are dropped first; what remains always
    satisfies the degree rule for J. The lcms of the remaining generators
    with the denominator's generate their intersection; ``from_masks``
    minimalizes both lists. Returns None when the numerator sinks entirely
    into the denominator (the zero module).
    """
    live = [g for g in num_masks if not masks_contain(den_masks, g)]
    if not live:
        return None
    return IdealPair.from_masks(n, live, [g | h for g in live for h in den_masks])


# ---------------------------------------------------------------------------
# lcm configuration classifier


class LcmClass(Enum):
    """Where the lcm of two least-degree generators lands relative to I \\ J."""

    IN_B = "B"
    IN_C = "C"
    IN_J = "J"
    DEG_TOO_BIG = "big"


def lcm_pairs(pair: IdealPair) -> dict[tuple[int, int], tuple[int, LcmClass]]:
    """Classify lcm(f_i, f_j), as a mask, for the degree-d generators f_1 < f_2 < ... of I.

    Keys are 1-based (i, j) with i < j, indexing the canonically sorted
    degree-d generators. Two distinct degree-d generators have an lcm of
    degree at least d+1, so the lcm never equals a generator.
    """
    gens = pair.degree_d_masks()
    out: dict[tuple[int, int], tuple[int, LcmClass]] = {}
    for a, b in itertools.combinations(range(len(gens)), 2):
        w = gens[a] | gens[b]
        if masks_contain(pair.j_masks, w):
            cls = LcmClass.IN_J
        elif w.bit_count() == pair.d + 1:
            cls = LcmClass.IN_B
        elif w.bit_count() == pair.d + 2:
            cls = LcmClass.IN_C
        else:
            cls = LcmClass.DEG_TOO_BIG
        out[(a + 1, b + 1)] = (w, cls)
    return out


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
    return {ij: sum(1 for c in c_masks if c & w == w) for ij, (w, _cls) in lcms.items()}


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
    return itertools.islice(_configurations(label), count)


def _configurations(label: str):
    """Every scanned instance classifying as ``label``, in scan order."""
    k = 2 if label.startswith("k2") else 3
    for d, n in _DN_ORDER:
        if math.comb(n, d) < k:
            continue
        for gens in itertools.combinations(degree_masks(n, d), k):
            for kept in _kept_choices(label, n, d, gens):
                pair = truncation_pair(n, gens, kept)
                try:
                    conf = classify_lcm_configuration(pair)
                except (NotApplicable, PosetEmpty):
                    continue
                if conf.label == label:
                    yield pair


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
# partition normalization


def _split_box(base: int, free: tuple[int, ...], quota: int) -> list[tuple[int, int]]:
    """Partition {base | S : S subset of free} into intervals: every bottom
    with more than ``quota`` missing degrees gets topped exactly ``quota``
    steps up, the rest become singletons. Requires len(free) >= quota."""
    if quota <= 0:
        sub_all = 0
        for bit in free:
            sub_all |= 1 << bit
        return [(base | sub, base | sub) for sub in submasks(sub_all)]
    if len(free) == quota:
        top = base
        for bit in free:
            top |= 1 << bit
        return [(base, top)]
    z = free[-1]
    rest = free[:-1]
    return _split_box(base, rest, quota) + _split_box(base | 1 << z, rest, quota - 1)


def normalize_partition(
    pair: IdealPair, part: IntervalPartition, target: int | None = None
) -> IntervalPartition:
    """Rewrite a partition so low intervals end exactly at ``target``.

    Output shape: every interval whose bottom has degree < target has a top
    of degree exactly target; every other interval is a singleton. The
    rewrite happens inside each original member set, so validity and the
    sdepth guarantee (>= target) are preserved. Default target is d+2, the
    shape downstream interval-map extraction consumes.
    """
    if target is None:
        target = pair.d + 2
    if part.sdepth_value < target:
        raise NotNormalizable(
            f"partition has sdepth value {part.sdepth_value}, below target {target}"
        )
    n = pair.n
    out: list[Interval] = []
    for iv in part.intervals:
        if iv.lo.degree >= target:
            for m in iv.member_masks():
                mono = Monomial(m, n)
                out.append(Interval(mono, mono))
        elif iv.hi.degree == target:
            out.append(iv)
        else:
            free = tuple(v for v in range(n) if (iv.hi.mask >> v & 1) and not (iv.lo.mask >> v & 1))
            quota = target - iv.lo.degree
            for lo, hi in _split_box(iv.lo.mask, free, quota):
                out.append(Interval(Monomial(lo, n), Monomial(hi, n)))
    return IntervalPartition.from_intervals(out)


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
    return subquotient_pair(inst.n, rest, inst.j_masks)


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


def h_map_via_solver(inst: IdealPair, b: Monomial):
    """Build I_b/J_b, search a partition with tops at degree d+2, extract h.

    Returns None when no such partition exists (then s-1 > q or the layer
    structure obstructs; the pigeonhole direction is checked by callers).
    """
    sub = removal_pair(inst, b)
    if sub is None:
        return HMap(b, {})
    if inst.d + 2 > inst.n:
        return None
    part = sdepth_decision(sub, inst.d + 2)
    if part is None:
        return None
    return extract_h_map(inst, b, part)


MAX_PATH_REPORTS = 100_000


def find_maximal_bad_paths(h: HMap):
    """All maximal divisor paths through h, bad ones flagged, DFS order."""
    if not h.assignments:
        return []
    b_mask = h.b.mask
    starts = sorted(h.assignments, key=lambda m: m.sort_key())
    reports: list[PathReport] = []

    def dfs(path: list[Monomial], used: set[int]):
        if len(reports) >= MAX_PATH_REPORTS:
            raise RuntimeError(f"path explosion: over MAX_PATH_REPORTS = {MAX_PATH_REPORTS} paths")
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
    right = subquotient_pair(pair.n, pair.i_masks, (*pair.j_masks, *subset_masks))
    return left, right
