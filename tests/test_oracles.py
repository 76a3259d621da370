"""Hand-checked values for the cross-checking oracles themselves."""

from oracles import brute_matching_size, full_koszul_depth, full_koszul_homology, naive_sdepth

from sqdepth.monomial import IdealPair


def pair(n, gens_i, gens_j=()):
    return IdealPair.from_variable_lists(n, gens_i, gens_j)


def test_naive_sdepth_hand_cases():
    assert naive_sdepth(pair(2, [[1, 2]])) == 2
    assert naive_sdepth(pair(2, [[1], [2]])) == 1
    assert naive_sdepth(pair(2, [[1], [2]], [[1, 2]])) == 1
    assert naive_sdepth(pair(1, [[]], [[1]])) == 0
    assert naive_sdepth(pair(2, [[]])) == 2


def test_naive_sdepth_maximal_ideal_formula():
    # sdepth of (x1..xn)/0 is ceil(n/2)
    for n in (1, 2, 3, 4):
        p = pair(n, [[i] for i in range(1, n + 1)])
        assert naive_sdepth(p) == (n + 1) // 2


def test_full_koszul_hand_cases():
    # rank one free module: single generator, nothing above it
    assert full_koszul_homology(pair(1, [[1]]), 0) == [1, 0]
    # the whole ring in one variable
    assert full_koszul_homology(pair(1, [[]]), 0) == [1, 0]
    # two isolated vertices: homology everywhere below the top
    for char in (0, 2, 3):
        assert full_koszul_homology(pair(2, [[1], [2]], [[1, 2]]), char) == [2, 2, 0]
    assert full_koszul_depth(pair(2, [[1], [2]], [[1, 2]]), 0) == 1
    assert full_koszul_depth(pair(3, [[1], [2], [3]]), 0) == 1
    assert full_koszul_depth(pair(3, [[1, 2, 3]]), 0) == 3


def test_brute_matching_hand_cases():
    assert brute_matching_size([]) == 0
    assert brute_matching_size([[0], [0]]) == 1
    assert brute_matching_size([[0, 1], [0]]) == 2
    assert brute_matching_size([[0, 1, 2], [1], [1]]) == 2
    assert brute_matching_size([[0], [1], [2]]) == 3
