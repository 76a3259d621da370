"""Stanley depth of I/J via interval partitions of the divisibility poset.

sdepth(I/J) is the largest t such that the poset of squarefree monomials in
I \\ J splits into disjoint divisibility intervals [lo, hi] whose tops all
have degree >= t. The decision procedure here searches a normal form: every
interval whose bottom has degree < t ends at degree exactly t, and every
element of degree >= t not swallowed by such an interval stands alone. Any
valid partition can be rewritten into this form interval by interval (each
member set is a boolean lattice; split off the highest free variable and
recurse), so restricting the search loses nothing.

Within the search, let j0 be the lowest degree of an uncovered element
below t. Every uncovered element of degree j0 is minimal among the
uncovered elements (anything dividing it has lower degree, so is covered),
so it must head its own interval. That interval ends in degree t and lies
wholly in uncovered elements: call a degree-t top over the element live
when the interval up to it misses every covered element. The search
branches on the uncovered degree-j0 element with the fewest live tops,
ties going to the canonically first (the minimum-remaining-values rule of
Knuth's Algorithm X, "Dancing links", 2000). An element with no live top
refutes the node outright. Whether a node is refuted depends on its
covered set alone, so refuted covered sets are memoised.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .criteria import best_upper_bound
from .matching import hopcroft_karp
from .monomial import (
    IdealPair,
    InvariantError,
    Monomial,
    PosetLayers,
    build_poset,
    mask_key,
    submasks,
)

DEFAULT_NODE_BUDGET = 10_000_000


class InvalidTarget(ValueError):
    """Requested target outside d..n."""


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
        return [base | sub for sub in submasks(self.hi.mask & ~base)]

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


def partition_violations(pair: IdealPair, part: IntervalPartition) -> list[str]:
    """Diagnostics for an alleged interval partition; empty means valid."""
    poset = build_poset(pair).index
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
    missing = poset.keys() - covered.keys()
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
    """One sdepth >= target decision over a fixed poset.

    An interval from a low element up to a degree-target top is held as its
    member index bitset. Canonical order is degree-major, so the top is the
    member of highest index, ``elems[bits.bit_length() - 1]``.
    """

    def __init__(self, poset: PosetLayers, target: int):
        self.n = poset.pair.n
        self.target = target
        self.poset = poset
        self.elems = poset.elems
        self.index = poset.index
        # canonical order is degree-major, so the low elements form a prefix
        self.n_low = poset.start[target]
        self.candidates = self._tops()
        self.dead: set[int] = set()
        self.nodes = 0
        # (bottom index, member bitset) of each committed interval
        self.committed: list[tuple[int, int]] = []

    def _tops(self) -> list[list[int]]:
        """For each low element w, the member bitsets of the intervals from w
        to each degree-target top, in canonical order of the tops.

        Built top by top, one degree down at a time. The elements of
        I \\ J below a top v are closed upward within v's subsets, and the
        members of [w, v] are w and the members of [w + x, v] for each
        variable x in v but not in w.
        """
        index = self.index
        start = self.poset.start
        out: list[list[int]] = [[] for _ in range(self.n_low)]
        for top in range(start[self.target], start[self.target + 1]):
            v = self.elems[top]
            variables = [1 << x for x in range(self.n) if v >> x & 1]
            members = {v: 1 << top}
            layer = [v]
            while layer:
                below = {u ^ b for u in layer for b in variables if u & b}
                layer = [w for w in below if w in index]
                for w in layer:
                    bits = 1 << index[w]
                    for b in variables:
                        if not w & b:
                            bits |= members[w | b]
                    members[w] = bits
                    out[index[w]].append(bits)
        return out

    def _matching_dead(self, covered: int, scan_from: int) -> bool:
        """Prune: uncovered elements in the lowest active layer are all
        poset-minimal among uncovered, so each heads its own interval and
        needs a private uncovered multiple one degree up."""
        start = self.poset.start
        j0 = self.elems[scan_from].bit_count()
        lo, mid, hi = start[j0], start[j0 + 1], start[j0 + 2]
        # uncovered bits of layers j0 and j0 + 1, from index lo on
        free = ~(covered >> lo) & ((1 << (hi - lo)) - 1)
        left = [i for i in range(scan_from - lo, mid - lo) if free >> i & 1]
        free_up = free >> (mid - lo)
        if free_up.bit_count() < len(left):
            return True
        up = self.poset.up
        adjacency = [[p for p in up[lo + i] if free_up >> p & 1] for i in left]
        return len(hopcroft_karp(adjacency, hi - mid)) < len(left)

    def _branch_element(self, covered: int, first: int) -> int | None:
        """The uncovered element of the lowest uncovered degree with the
        fewest live tops (ties to the canonically first), or None when one
        of them has no live top left; ``first`` is the first uncovered index."""
        stop = min(self.poset.start[self.elems[first].bit_count() + 1], self.n_low)
        free = ~(covered >> first) & ((1 << (stop - first)) - 1)
        best, fewest = first, len(self.candidates[first]) + 1
        while free:
            low = free & -free
            free ^= low
            e = first + low.bit_length() - 1
            live = 0
            for bits in self.candidates[e]:
                if not bits & covered:
                    live += 1
                    if live == fewest:
                        break
            if live < fewest:
                best, fewest = e, live
                if live <= 1:
                    break
        return best if fewest else None

    def run(self, budget: int | None) -> bool | None:
        """True = satisfiable, False = not, None = budget ran out.

        Depth-first over an explicit stack, so the search depth (one level
        per committed interval) is not bounded by the recursion limit. Each
        open node on ``stack`` keeps its covered set, its first uncovered
        index, its branching element and an iterator over that element's
        untried tops; ``committed`` holds the interval chosen at every open
        node but the deepest. A node is dead when its branching element has
        no live top or the matching prune fails; dead covered sets are
        memoised in ``dead``.
        """
        stack: list[tuple[int, int, int, Iterator[int]]] = []
        covered, scan_from = 0, 0
        while True:
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                return None
            i = scan_from
            while i < self.n_low and covered >> i & 1:
                i += 1
            if i >= self.n_low:
                return True
            if covered not in self.dead:
                e = self._branch_element(covered, i)
                if e is None or self._matching_dead(covered, i):
                    self.dead.add(covered)
                else:
                    stack.append((covered, i, e, iter(self.candidates[e])))
            # descend into the next live top of the deepest open node,
            # closing (and memoising) every node whose tops are used up
            while stack:
                del self.committed[len(stack) - 1:]
                covered, i, e, tops = stack[-1]
                for bits in tops:
                    if not bits & covered:
                        break
                else:
                    stack.pop()
                    self.dead.add(covered)
                    continue
                self.committed.append((e, bits))
                covered, scan_from = covered | bits, i
                break
            else:
                return False

    def partition(self) -> IntervalPartition:
        n, elems = self.n, self.elems
        taken = 0
        intervals = []
        for e, bits in self.committed:
            top = elems[bits.bit_length() - 1]
            intervals.append(Interval(Monomial(elems[e], n), Monomial(top, n)))
            taken |= bits
        for i, m in enumerate(elems):
            if not taken >> i & 1:
                mono = Monomial(m, n)
                intervals.append(Interval(mono, mono))
        return IntervalPartition.from_intervals(intervals)


def sdepth_decision(
    pair: IdealPair, target: int, budget: int | None = DEFAULT_NODE_BUDGET
) -> IntervalPartition | None:
    """A partition with all tops of degree >= target, or None if none exists."""
    if not pair.d <= target <= pair.n:
        raise InvalidTarget(f"target {target} outside {pair.d}..{pair.n}")
    search = _DecisionSearch(build_poset(pair), target)
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

    At the least degree d the bound is exact (Hall's condition): the bound
    exceeds d exactly when sdepth >= d+1. The degree-d elements of I \\ J
    are the degree-d generators of I, so the first matching is the
    degree-d layer into B. If sdepth >= d+1, each degree-d element heads
    an interval that owns a distinct multiple in B, so that matching
    saturates. Conversely, a saturating matching mu gives a partition into
    the intervals [a, mu(a)] and the singletons of all other elements,
    each of degree >= d+1.
    """
    poset = build_poset(pair)
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for g in pair.i_masks:
        if g in poset.index:
            by_degree.setdefault(g.bit_count(), []).append(poset.up[poset.index[g]])
    for j in sorted(by_degree):
        adjacency = by_degree[j]
        n_up = poset.start[j + 2] - poset.start[j + 1]
        if len(hopcroft_karp(adjacency, n_up)) < len(adjacency):
            return j
    return pair.n


def sdepth_exact(pair: IdealPair, budget: int | None = DEFAULT_NODE_BUDGET) -> SdepthResult:
    """Exact Stanley depth with a certifying partition.

    Tries targets from an upper bound downward; the first satisfiable one
    is the answer (the decision is monotone in the target). The budget is
    shared across all targets; on exhaustion the raised BudgetExhausted
    carries the bracketing bounds.

    The search starts at the smaller of two upper bounds: the
    ``matching_upper_bound`` and the layer-count bound of
    ``criteria.best_upper_bound`` (n when no test fires). Neither dominates
    the other, so both are kept. The layer-count bound holds for sdepth:
    fix a target T and a partition in the normal form above, and let a_k be
    the number of intervals headed in degree k < T. Each such interval ends
    in degree T and holds C(T-j, k-j) elements of degree k when headed in
    degree j <= k, so rho_k = sum_{j<=k} C(T-j, k-j) a_j for k < T;
    inverting this unitriangular system gives

        a_k = sum_j (-1)^(k-j) C(T-j, k-j) rho_j.

    Each of these intervals also holds exactly one element of degree T, its
    top, so sum_{k<T} a_k <= rho_T. The binomial test at (T-1, k) fires
    exactly when the a_k above is negative, and the alternating test at
    T-1 (the binomial test at k = T) fires exactly when sum_{k<T} a_k,
    which equals alpha_{T-1}, exceeds rho_T. Either way no partition
    reaches target T, so a test fired at level t refutes target t+1 and,
    by monotonicity, every target above it: sdepth <= t.
    """
    poset = build_poset(pair)
    counted, _ = best_upper_bound(poset)
    upper = min(matching_upper_bound(pair), pair.n if counted is None else counted)
    nodes_total = 0
    for t in range(upper, pair.d - 1, -1):
        remaining = None if budget is None else budget - nodes_total
        search = _DecisionSearch(poset, t)
        outcome = search.run(remaining)
        nodes_total += search.nodes
        if outcome is None:
            raise BudgetExhausted(nodes_total, lower_bound=pair.d, upper_bound=t)
        if outcome:
            return SdepthResult(value=t, certificate=search.partition(), nodes=nodes_total)
    raise InvariantError("unreachable: target d is always satisfiable")

