"""Bipartite matchings that cover the left side.

Left vertices are the indices of ``adjacency``; right vertices are whatever
integers its lists name. Every caller asks one yes/no question, whether some
matching covers the whole left side, so the search stops at the first left
vertex that no augmenting path reaches.
"""

from __future__ import annotations


def saturating_matching(adjacency: list[list[int]]) -> dict[int, int] | None:
    """A matching {left: right} that covers every left vertex, or None.

    Each left vertex in turn takes a free neighbour if it has one, and
    otherwise grows one augmenting path; None is returned at the first
    vertex that no augmenting path reaches.

    That early stop is sound whatever matching M has been built so far
    (Berge 1957): let u be a left vertex that M leaves free, and suppose some
    matching N covers the left side. The component of M Δ N at u is a path
    that starts with u's N-edge and alternates. Every left vertex on it
    leaves by its own N-edge, so the path ends at a right vertex that M
    leaves free, and it is an M-augmenting path from u. So when no such path
    starts at u, no covering matching exists.

    Each path search visits an edge at most once, so the worst case is
    O(V·E).
    """
    owner: dict[int, int] = {}
    for u, edges in enumerate(adjacency):
        for v in edges:
            if v not in owner:
                owner[v] = u
                break
        else:
            if not _augment(adjacency, owner, u):
                return None
    return {u: v for v, u in owner.items()}


def _augment(adjacency: list[list[int]], owner: dict[int, int], root: int) -> bool:
    """Depth-first search for an augmenting path from the free ``root``, on an
    explicit stack: ``path`` holds the left vertices, ``edges`` the untried
    edges of each, ``via`` the right vertex taken out of each but the last.
    Reaching a free right vertex flips the whole path into ``owner``."""
    path, via, edges, seen = [root], [], [iter(adjacency[root])], set()
    while path:
        for v in edges[-1]:
            if v in seen:
                continue
            seen.add(v)
            w = owner.get(v)
            via.append(v)
            if w is None:
                for left, right in zip(path, via):
                    owner[right] = left
                return True
            path.append(w)
            edges.append(iter(adjacency[w]))
            break
        else:
            path.pop()
            edges.pop()
            if via:
                via.pop()
    return False
