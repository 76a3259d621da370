"""Hopcroft-Karp matching against the brute-force oracle and on long paths."""

import random

import pytest
from oracles import brute_matching_size

from sqdepth.matching import hopcroft_karp


def assert_is_matching(adjacency, n_right, matching):
    assert len(set(matching.values())) == len(matching)
    for u, v in matching.items():
        assert v in adjacency[u] and 0 <= v < n_right


def chain(length):
    """Left vertex i meets right i and i+1; one extra left vertex, last, meets
    right 0, so the final augmenting path runs the whole chain."""
    return [[i, i + 1] for i in range(length)] + [[0]], length + 1


@pytest.mark.parametrize("length", [1_200, 5_000])
def test_augmenting_path_longer_than_the_recursion_limit(length):
    adjacency, n_right = chain(length)
    matching = hopcroft_karp(adjacency, n_right)
    assert len(matching) == length + 1
    assert_is_matching(adjacency, n_right, matching)


def test_random_graphs_match_the_oracle():
    rng = random.Random(7)
    for _ in range(400):
        n_left, n_right = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.random()
        adjacency = [
            [v for v in range(n_right) if rng.random() < density] for _ in range(n_left)
        ]
        matching = hopcroft_karp(adjacency, n_right)
        assert_is_matching(adjacency, n_right, matching)
        assert len(matching) == brute_matching_size(adjacency)
