"""The machinery of the paper's proofs that only the tests run.

* ``subquotient_pair``, which presents I_b/J_b and the two side modules of
  a short exact sequence split along generators as (num)/(den cap num);
* instance builders for each lcm configuration of ``sqdepth.lemmas``;
* ``normalize_partition``, which rewrites a partition into the normal form
  the decision search explores;
* injections h: B\\{b} -> C, read off a matching that covers B\\{b}, and
  the divisor paths through h.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from sqdepth.lemmas import NotApplicable, classify_lcm_configuration
from sqdepth.matching import saturating_matching
from sqdepth.monomial import (
    IdealPair,
    Monomial,
    PosetEmpty,
    build_poset,
    degree_masks,
    ideal_masks,
    masks_contain,
    submasks,
)
from sqdepth.partition import Interval, IntervalPartition


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
    sdepth guarantee (>= target) are preserved. Default target is d+2.
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
    """Assignment b' -> c_{b'}: a normalized partition of I_b/J_b's lowest layer."""

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


def h_map(inst: IdealPair, b: Monomial) -> HMap | None:
    """An injection h: B\\{b} -> C with b' | h(b'), or None when none exists.

    The paper reads h off a partition of I_b/J_b with sdepth >= d+2. The
    least degree of I_b/J_b is d+1, and its degree-(d+1) layer is B\\{b},
    since no element of B lies in J. Its degree-(d+2) elements are the
    monomials of I \\ J of that degree divisible by some element of
    B\\{b}: exactly the C elements above B\\{b}, the parent poset's ``up``
    neighbours. The Hall condition is exact (see ``matching_upper_bound``):
    sdepth(I_b/J_b) >= d+2 holds exactly when B\\{b} matches into C along
    ``up``, and a saturating matching mu is the normalized partition
    {[b', mu(b')]} of that layer. So h is any matching that covers B\\{b},
    and it exists exactly when one does.
    """
    poset = build_poset(inst)
    lo, hi = poset.start[inst.d + 1], poset.start[inst.d + 2]
    rest = [i for i in range(lo, hi) if poset.elems[i] != b.mask]
    if not rest:
        return HMap(b, {})
    matching = saturating_matching([poset.up[i] for i in rest])
    if matching is None:
        return None
    return HMap(b, {
        Monomial(poset.elems[rest[u]], inst.n): Monomial(poset.elems[hi + v], inst.n)
        for u, v in matching.items()
    })


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
