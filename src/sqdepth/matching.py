"""Maximum bipartite matching.

Vertices are integer indices: left side 0..len(adjacency)-1, right side
0..n_right-1. The solver calls this in its inner pruning loop, so the
implementation sticks to flat lists and deques.
"""

from __future__ import annotations

from collections import deque

_INF = float("inf")


def hopcroft_karp(adjacency: list[list[int]], n_right: int) -> dict[int, int]:
    """Maximum matching of a bipartite graph, as a {left: right} dict."""
    n_left = len(adjacency)
    match_l: list[int] = [-1] * n_left
    match_r: list[int] = [-1] * n_right
    dist: list[float] = [0.0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: int) -> None:
        """Layered depth-first search from a free left vertex, on an explicit
        stack: ``path`` holds the left vertices, ``edges`` the untried edges
        of each, ``via`` the right vertex taken out of each but the last.
        Reaching a free right vertex flips the whole path."""
        path, via, edges = [root], [], [iter(adjacency[root])]
        while path:
            u = path[-1]
            for v in edges[-1]:
                w = match_r[v]
                if w == -1:
                    via.append(v)
                    for left, right in zip(path, via):
                        match_l[left] = right
                        match_r[right] = left
                    return
                if dist[w] == dist[u] + 1:
                    path.append(w)
                    via.append(v)
                    edges.append(iter(adjacency[w]))
                    break
            else:
                dist[u] = _INF
                path.pop()
                edges.pop()
                if via:
                    via.pop()

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                augment(u)
    return {u: v for u, v in enumerate(match_l) if v != -1}

