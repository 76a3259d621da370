"""The saturating matcher against the brute-force oracle and on long paths.

``saturating_matching`` returns None exactly when no matching covers the
left side, and otherwise a matching that covers it.
"""

import random

import pytest
from oracles import brute_matching_size

from sqdepth.matching import saturating_matching


def assert_covers(adjacency, matching):
    """``matching`` is injective, runs along edges and covers every left vertex."""
    assert sorted(matching) == list(range(len(adjacency)))
    assert len(set(matching.values())) == len(matching)
    for u, v in matching.items():
        assert v in adjacency[u]


def chain(length):
    """Left vertex i meets right i and i+1; one extra left vertex, last, meets
    right 0, so the final augmenting path runs the whole chain."""
    return [[i, i + 1] for i in range(length)] + [[0]]


@pytest.mark.parametrize("length", [1_200, 5_000])
def test_augmenting_path_longer_than_the_recursion_limit(length):
    adjacency = chain(length)
    assert_covers(adjacency, saturating_matching(adjacency))


def test_random_graphs_match_the_oracle():
    rng = random.Random(7)
    for _ in range(400):
        n_left, n_right = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.random()
        adjacency = [
            [v for v in range(n_right) if rng.random() < density] for _ in range(n_left)
        ]
        matching = saturating_matching(adjacency)
        if brute_matching_size(adjacency) < n_left:
            assert matching is None
        else:
            assert_covers(adjacency, matching)


def test_empty_left_side_is_covered():
    assert saturating_matching([]) == {}


def test_left_vertex_without_edges_is_not_covered():
    assert saturating_matching([[0], [], [1]]) is None
