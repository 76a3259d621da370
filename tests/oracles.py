"""Independent oracles for cross-checking the engines.

Nothing here imports solver internals: I \\ J is found by scanning every
mask, the sdepth oracle enumerates interval partitions directly over a
covered-set bitmask, the depth oracle assembles the one big squarefree
Koszul complex (no strand decomposition) and row reduces it with its own
elimination code, and the matching oracle tries every assignment
recursively.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from sqdepth import IdealPair


def difference_members(pair: IdealPair) -> list[int]:
    """The masks of I \\ J by a scan of all 2^n masks, ordered by degree and
    then lexicographically on the variable list."""

    def inside(gens, m):
        return any(g & m == g for g in gens)

    members = [
        m for m in range(1 << pair.n) if inside(pair.i_masks, m) and not inside(pair.j_masks, m)
    ]
    variables = lambda m: [v for v in range(pair.n) if m >> v & 1]
    return sorted(members, key=lambda m: (len(variables(m)), variables(m)))


# ---------------------------------------------------------------------------
# naive sdepth: branch over every admissible interval for the first
# uncovered element (which must head its own interval; any other head
# dividing it would be earlier in degree-major order and still uncovered)


def naive_sdepth(pair: IdealPair) -> int:
    elems = difference_members(pair)
    index = {m: i for i, m in enumerate(elems)}
    degree = [m.bit_count() for m in elems]
    n_elems = len(elems)
    multiples = []
    for m in elems:
        ups = []
        for other in elems:
            if other & m == m:
                ups.append(other)
        multiples.append(ups)
    interval_bits = {}
    for i, m in enumerate(elems):
        for top in multiples[i]:
            bits = 0
            for mid in multiples[i]:
                if top & mid == mid:
                    bits |= 1 << index[mid]
            interval_bits[(m, top)] = bits

    full = (1 << n_elems) - 1
    memo: dict[int, int] = {}

    def best(covered: int) -> int:
        if covered == full:
            return pair.n
        cached = memo.get(covered)
        if cached is not None:
            return cached
        # lowest uncovered index in degree-major order
        first = (covered + 1 & ~covered).bit_length() - 1
        m = elems[first]
        out = -1
        for top in multiples[first]:
            bits = interval_bits[(m, top)]
            if bits & covered:
                continue
            rest = best(covered | bits)
            value = min(top.bit_count(), rest)
            if value > out:
                out = value
        memo[covered] = out
        return out

    return best(0)


# ---------------------------------------------------------------------------
# full squarefree Koszul complex depth, one block matrix per index


def _rank_mod(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    if not rows or not rows[0]:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rank_exact(rows: list[list[int]]) -> int:
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv = rows[rank][c]
        rows[rank] = [v / piv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def full_koszul_homology(pair: IdealPair, char: int) -> list[int]:
    """Homology dimensions H_0..H_n of the whole squarefree Koszul complex.

    Basis of index i: pairs (tau, u) with |tau| = i, u a squarefree monomial
    of I \\ J, and tau disjoint from the support of u.  One matrix per index,
    no strand splitting.
    """
    n = pair.n
    members = set(difference_members(pair))
    subsets = [tuple(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    basis: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n + 1)]
    for tau in subsets:
        tau_mask = sum(1 << t for t in tau)
        for u in members:
            if u & tau_mask == 0:
                basis[len(tau)].append((tau, u))
    pos = [
        {key: i for i, key in enumerate(level)}
        for level in basis
    ]

    def boundary(i: int) -> list[list[int]]:
        # matrix of d_i : K_i -> K_{i-1}, rows = K_{i-1} basis, cols = K_i
        rows = [[0] * len(basis[i]) for _ in basis[i - 1]]
        for col, (tau, u) in enumerate(basis[i]):
            for j_pos, j in enumerate(tau):
                target_u = u | 1 << j
                if target_u not in members:
                    continue
                target_tau = tau[:j_pos] + tau[j_pos + 1:]
                row = pos[i - 1][(target_tau, target_u)]
                rows[row][col] = -1 if j_pos % 2 else 1
        return rows

    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        if basis[i] and basis[i - 1]:
            mat = boundary(i)
            ranks[i] = _rank_exact(mat) if char == 0 else _rank_mod(mat, char)
    return [len(basis[i]) - ranks[i] - ranks[i + 1] for i in range(n + 1)]


def full_koszul_depth(pair: IdealPair, char: int) -> int:
    hom = full_koszul_homology(pair, char)
    top = max(i for i, h in enumerate(hom) if h)
    return pair.n - top


# ---------------------------------------------------------------------------
# brute-force bipartite matching


def brute_matching_size(adjacency: list[list[int]], n_right: int) -> int:
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size + len(adjacency) - i <= best:
            return
        if i == len(adjacency):
            best = max(best, size)
            return
        rec(i + 1, used, size)
        for r in adjacency[i]:
            if not used >> r & 1:
                rec(i + 1, used | 1 << r, size + 1)

    rec(0, 0, 0)
    return best
