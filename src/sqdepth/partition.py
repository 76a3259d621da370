"""Stanley depth of I/J via interval partitions of the divisibility poset.

sdepth(I/J) is the largest t such that the poset of squarefree monomials in
I \\ J splits into disjoint divisibility intervals [lo, hi] whose tops all
have degree >= t. The decision procedure here searches a normal form: every
interval whose bottom has degree < t ends at degree exactly t, and every
element of degree >= t not swallowed by such an interval stands alone. Any
valid partition can be rewritten into this form interval by interval (each
member set is a boolean lattice; split off the highest free variable and
recurse), so restricting the search loses nothing.

Within the search, the canonically first uncovered element of degree < t
must head its interval: any other candidate bottom would divide it, hence
be canonically earlier and still uncovered. Branching happens only there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .matching import hall_violator, hopcroft_karp
from .monomial import IdealPair, Monomial, PosetLayers, build_poset, mask_key

DEFAULT_NODE_BUDGET = 10_000_000


class InvalidTarget(ValueError):
    """Requested target outside d..n."""


class NotNormalizable(ValueError):
    """Partition cannot be normalized to the requested target."""


class BudgetExhausted(RuntimeError):
    """Search node budget ran out before the answer was decided."""

    def __init__(self, nodes: int, lower_bound: int | None = None, upper_bound: int | None = None):
        self.nodes = nodes
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        msg = f"node budget exhausted after {nodes} nodes"
        if lower_bound is not None and upper_bound is not None:
            msg += f"; {lower_bound} <= sdepth <= {upper_bound}"
        super().__init__(msg)


@dataclass(frozen=True)
class Interval:
    """The divisibility interval [lo, hi] = {m : lo | m and m | hi}."""

    lo: Monomial
    hi: Monomial

    def __post_init__(self) -> None:
        if not self.lo.divides(self.hi):
            raise ValueError(f"interval bottom {self.lo} does not divide top {self.hi}")

    def member_masks(self) -> list[int]:
        base = self.lo.mask
        free = self.hi.mask & ~base
        out = []
        sub = free
        while True:
            out.append(base | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
        return out

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class IntervalPartition:
    intervals: tuple[Interval, ...]
    sdepth_value: int

    @classmethod
    def from_intervals(cls, intervals) -> "IntervalPartition":
        ivs = tuple(sorted(intervals, key=lambda iv: iv.lo.sort_key()))
        if not ivs:
            raise ValueError("a partition needs at least one interval")
        return cls(ivs, min(iv.hi.degree for iv in ivs))


@dataclass(frozen=True)
class SdepthResult:
    value: int
    certificate: IntervalPartition
    nodes: int


@dataclass(frozen=True)
class HallCheck:
    """Necessary condition for sdepth >= d+1: the degree-d layer must match into B."""

    holds: bool
    matching: tuple[tuple[Monomial, Monomial], ...]
    deficient: tuple[Monomial, ...]


def partition_violations(pair: IdealPair, part: IntervalPartition) -> list[str]:
    """Diagnostics for an alleged interval partition; empty means valid."""
    layers = build_poset(pair)
    poset = set(layers.element_masks())
    problems: list[str] = []
    covered: dict[int, Interval] = {}
    for iv in part.intervals:
        if iv.lo.mask not in poset:
            problems.append(f"interval bottom {iv.lo} is not in I \\ J")
        if iv.hi.mask not in poset:
            problems.append(f"interval top {iv.hi} is not in I \\ J")
        for m in iv.member_masks():
            if m not in poset:
                problems.append(f"interval {iv} contains {Monomial(m, pair.n)} outside I \\ J")
            elif m in covered:
                problems.append(f"{Monomial(m, pair.n)} covered by both {covered[m]} and {iv}")
            else:
                covered[m] = iv
    missing = poset - covered.keys()
    for m in sorted(missing, key=mask_key):
        problems.append(f"{Monomial(m, pair.n)} is covered by no interval")
    if part.intervals:
        actual = min(iv.hi.degree for iv in part.intervals)
        if actual != part.sdepth_value:
            problems.append(f"declared sdepth value {part.sdepth_value}, recomputed {actual}")
    else:
        problems.append("partition has no intervals")
    return problems


def verify_partition(pair: IdealPair, part: IntervalPartition) -> bool:
    return not partition_violations(pair, part)


class _DecisionSearch:
    """One sdepth >= target decision over a fixed poset."""

    def __init__(self, layers: PosetLayers, target: int):
        self.n = layers.pair.n
        self.target = target
        elems = layers.element_masks()
        self.elems = elems
        self.index = {m: i for i, m in enumerate(elems)}
        self.degree = [m.bit_count() for m in elems]
        # canonical order is degree-major, so the low elements form a prefix
        self.n_low = sum(1 for deg in self.degree if deg < target)
        self.layer_range: dict[int, tuple[int, int]] = {}
        lo = 0
        for deg in range(self.n + 1):
            hi = lo
            while hi < len(elems) and self.degree[hi] == deg:
                hi += 1
            self.layer_range[deg] = (lo, hi)
            lo = hi
        self.poset_set = set(elems)
        self.candidates = [self._tops_for(i) for i in range(self.n_low)]
        self.dead: set[int] = set()
        self.nodes = 0
        self.committed: list[tuple[int, int]] = []

    def _tops_for(self, i: int) -> list[tuple[int, int]]:
        """(top mask, member index bitset) for each degree-target top over element i."""
        w = self.elems[i]
        need = self.target - self.degree[i]
        free = [v for v in range(self.n) if not w >> v & 1]
        tops = []
        for combo in itertools.combinations(free, need):
            v = w
            for bit in combo:
                v |= 1 << bit
            if v in self.poset_set:
                tops.append(v)
        tops.sort(key=mask_key)
        out = []
        for v in tops:
            bits = 0
            free_bits = v & ~w
            sub = free_bits
            while True:
                bits |= 1 << self.index[w | sub]
                if sub == 0:
                    break
                sub = (sub - 1) & free_bits
            out.append((v, bits))
        return out

    def _matching_dead(self, covered: int, scan_from: int) -> bool:
        """Prune: uncovered elements in the lowest active layer are all
        poset-minimal among uncovered, so each heads its own interval and
        needs a private uncovered multiple one degree up."""
        j0 = self.degree[scan_from]
        lo, hi = self.layer_range[j0]
        left = [i for i in range(max(lo, scan_from), hi) if not covered >> i & 1]
        if not left:
            return False
        lo1, hi1 = self.layer_range[j0 + 1]
        right = [i for i in range(lo1, hi1) if not covered >> i & 1]
        if len(right) < len(left):
            return True
        pos = {idx: p for p, idx in enumerate(right)}
        adjacency = []
        for i in left:
            w = self.elems[i]
            nbrs = []
            for v in range(self.n):
                if w >> v & 1:
                    continue
                j = self.index.get(w | 1 << v)
                if j is not None and j in pos:
                    nbrs.append(pos[j])
            adjacency.append(nbrs)
        return len(hopcroft_karp(adjacency, len(right))) < len(left)

    def run(self, budget: int | None) -> bool | None:
        """True = satisfiable, False = not, None = budget ran out."""
        result = self._search(0, 0, budget)
        return result

    def _search(self, covered: int, scan_from: int, budget: int | None) -> bool | None:
        self.nodes += 1
        if budget is not None and self.nodes > budget:
            return None
        i = scan_from
        while i < self.n_low and covered >> i & 1:
            i += 1
        if i >= self.n_low:
            return True
        if covered in self.dead:
            return False
        if self._matching_dead(covered, i):
            self.dead.add(covered)
            return False
        for top, bits in self.candidates[i]:
            if bits & covered:
                continue
            self.committed.append((self.elems[i], top))
            sub = self._search(covered | bits, i + 1, budget)
            if sub:
                return True
            self.committed.pop()
            if sub is None:
                return None
        self.dead.add(covered)
        return False

    def partition(self) -> IntervalPartition:
        n = self.n
        taken = 0
        intervals = []
        for w, v in self.committed:
            intervals.append(Interval(Monomial(w, n), Monomial(v, n)))
        for w, v in self.committed:
            free_bits = v & ~w
            sub = free_bits
            while True:
                taken |= 1 << self.index[w | sub]
                if sub == 0:
                    break
                sub = (sub - 1) & free_bits
        for i, m in enumerate(self.elems):
            if not taken >> i & 1:
                mono = Monomial(m, n)
                intervals.append(Interval(mono, mono))
        return IntervalPartition.from_intervals(intervals)


def sdepth_decision(
    pair: IdealPair, target: int, budget: int | None = DEFAULT_NODE_BUDGET
) -> IntervalPartition | None:
    """A partition with all tops of degree >= target, or None if none exists."""
    layers = build_poset(pair)
    if not pair.d <= target <= pair.n:
        raise InvalidTarget(f"target {target} outside {pair.d}..{pair.n}")
    search = _DecisionSearch(layers, target)
    outcome = search.run(budget)
    if outcome is None:
        raise BudgetExhausted(search.nodes)
    if not outcome:
        return None
    return search.partition()


def matching_upper_bound(pair: IdealPair) -> int:
    """Cheap upper bound for sdepth from layer matchings at the poset minima.

    A poset-minimal element of degree j heads its own interval in every
    partition; for sdepth >= t > j those intervals need pairwise distinct
    elements of degree j+1. The bound is the first j where that matching
    cannot saturate, or n if none fails.
    """
    layers = build_poset(pair)
    minimal = [g for g in pair.gens_i if pair.contains(g)]
    by_degree: dict[int, list[Monomial]] = {}
    for g in minimal:
        by_degree.setdefault(g.degree, []).append(g)
    for j in sorted(by_degree):
        ups = layers.layer(j + 1)
        pos = {m.mask: p for p, m in enumerate(ups)}
        adjacency = []
        for g in by_degree[j]:
            nbrs = []
            for v in range(pair.n):
                if g.mask >> v & 1:
                    continue
                p = pos.get(g.mask | 1 << v)
                if p is not None:
                    nbrs.append(p)
            adjacency.append(nbrs)
        if len(hopcroft_karp(adjacency, len(ups))) < len(adjacency):
            return j
    return pair.n


def sdepth_exact(pair: IdealPair, budget: int | None = DEFAULT_NODE_BUDGET) -> SdepthResult:
    """Exact Stanley depth with a certifying partition.

    Tries targets from the matching upper bound downward; the first
    satisfiable one is the answer (the decision is monotone in the target).
    The budget is shared across all targets; on exhaustion the raised
    BudgetExhausted carries the bracketing bounds.
    """
    layers = build_poset(pair)
    upper = matching_upper_bound(pair)
    nodes_total = 0
    for t in range(upper, pair.d - 1, -1):
        remaining = None if budget is None else budget - nodes_total
        search = _DecisionSearch(layers, t)
        outcome = search.run(remaining)
        nodes_total += search.nodes
        if outcome is None:
            raise BudgetExhausted(nodes_total, lower_bound=pair.d, upper_bound=t)
        if outcome:
            return SdepthResult(value=t, certificate=search.partition(), nodes=nodes_total)
    raise AssertionError("unreachable: target d is always satisfiable")


def hall_necessary_check(pair: IdealPair) -> HallCheck:
    """Matching from the degree-d layer into B; failure forces sdepth = d.

    Every degree-d monomial of I \\ J is poset-minimal, so in a partition
    witnessing sdepth >= d+1 each must own a distinct multiple in B. When no
    saturating matching exists the returned deficient set is a Hall violator:
    more degree-d elements than the union of their B-multiples can absorb.
    """
    layers = build_poset(pair)
    left = layers.layer(pair.d)
    right = layers.b_layer
    pos = {m.mask: p for p, m in enumerate(right)}
    adjacency = []
    for g in left:
        nbrs = []
        for v in range(pair.n):
            if g.mask >> v & 1:
                continue
            p = pos.get(g.mask | 1 << v)
            if p is not None:
                nbrs.append(p)
        adjacency.append(nbrs)
    matching = hopcroft_karp(adjacency, len(right))
    if len(matching) == len(left):
        pairs = tuple((left[u], right[v]) for u, v in sorted(matching.items()))
        return HallCheck(holds=True, matching=pairs, deficient=())
    violator = hall_violator(adjacency, len(right), matching)
    return HallCheck(holds=False, matching=(), deficient=tuple(left[u] for u in violator))


def _split_box(base: int, free: tuple[int, ...], quota: int) -> list[tuple[int, int]]:
    """Partition {base | S : S subset of free} into intervals: every bottom
    with more than ``quota`` missing degrees gets topped exactly ``quota``
    steps up, the rest become singletons. Requires len(free) >= quota."""
    if quota <= 0:
        out = []
        sub_all = 0
        for bit in free:
            sub_all |= 1 << bit
        sub = sub_all
        while True:
            out.append((base | sub, base | sub))
            if sub == 0:
                break
            sub = (sub - 1) & sub_all
        return out
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
