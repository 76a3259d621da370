"""Monomial masks, ideal pair validation, poset layering, lcm classes."""

import itertools
import random

import pytest

from sqdepth.lab import enumerate_all_pairs
from sqdepth.monomial import (
    IdealPair,
    LcmClass,
    Monomial,
    PosetEmpty,
    ValidationError,
    build_poset,
    difference_masks,
    extend_pair,
    ideal_masks,
    intersect_masks,
    lcm_pairs,
    mask_key,
    mask_variables,
    masks_contain,
    minimalize_masks,
    poset_masks,
    subquotient_pair,
    sum_masks,
)


def mono(n, *variables):
    return Monomial.from_variables(variables, n)


def pair(n, gens_i, gens_j=()):
    return IdealPair.from_variable_lists(n, gens_i, gens_j)


# ---------------------------------------------------------------------------
# masks


def test_mask_helpers():
    assert mask_variables(0) == ()
    assert mask_variables(0b101) == (1, 3)
    # the integer key orders and separates masks exactly like (degree, variables)
    rng = random.Random(20261019)
    masks = {*range(1 << 12), 0, (1 << 24) - 1, *(rng.getrandbits(24) for _ in range(200_000))}
    by_key = sorted(masks, key=mask_key)
    assert by_key == sorted(masks, key=lambda m: (m.bit_count(), mask_variables(m)))
    assert len({mask_key(m) for m in masks}) == len(masks)


def test_canonical_mask_order():
    # degree-major, then lex on variable indices
    masks = [0b11, 0b1, 0b111, 0b100, 0b101, 0b10, 0b110]
    assert sorted(masks, key=mask_key) == [0b1, 0b10, 0b100, 0b11, 0b101, 0b110, 0b111]


# ---------------------------------------------------------------------------
# monomials


def test_monomial_basics():
    m = mono(4, 1, 3)
    assert m.mask == 0b101
    assert m.degree == 2
    assert m.variables == (1, 3)
    assert str(m) == "x1*x3"
    assert str(Monomial(0, 4)) == "1"


def test_monomial_divides_and_lcm():
    a = mono(4, 1, 3)
    b = mono(4, 1, 2, 3)
    assert a.divides(b)
    assert not b.divides(a)
    assert Monomial(0, 4).divides(a)


def test_monomial_validation():
    with pytest.raises(ValidationError):
        mono(3, 4)
    with pytest.raises(ValidationError):
        mono(3, 0)
    with pytest.raises(ValidationError):
        mono(3, 1, 1)
    with pytest.raises(ValidationError):
        Monomial(0b1000, 3)
    with pytest.raises(ValidationError):
        Monomial(1, 25)


def test_monomial_sort_order():
    ms = [mono(3, 1, 2), mono(3, 3), mono(3, 1), mono(3, 1, 3)]
    assert sorted(ms) == [mono(3, 1), mono(3, 3), mono(3, 1, 2), mono(3, 1, 3)]


# ---------------------------------------------------------------------------
# minimalization and membership


def test_minimalize_masks():
    assert minimalize_masks([0b1, 0b11, 0b1]) == (0b1,)
    assert minimalize_masks([0b11, 0b101, 0b111]) == (0b11, 0b101)
    assert minimalize_masks([]) == ()
    # unit mask swallows everything
    assert minimalize_masks([0b10, 0, 0b111]) == (0,)
    # output in canonical order, whatever the input order
    assert minimalize_masks([0b110, 0b11, 0b1]) == (0b1, 0b110)


def test_minimalize_monomials():
    # Monomial generators are minimalized through their masks and come back
    # as Monomials in canonical order
    gens = [mono(3, 1), mono(3, 1, 2), mono(3, 2, 3)]
    kept = tuple(Monomial(m, 3) for m in minimalize_masks(g.mask for g in gens))
    assert kept == (mono(3, 1), mono(3, 2, 3))
    assert pair(3, [[1], [1, 2], [2, 3]]).gens_i == (mono(3, 1), mono(3, 2, 3))
    assert minimalize_masks(g.mask for g in []) == ()


def test_masks_contain():
    gens = (0b11, 0b100)
    assert masks_contain(gens, 0b111)
    assert masks_contain(gens, 0b100)
    assert not masks_contain(gens, 0b1)
    assert masks_contain((0,), 0)


# ---------------------------------------------------------------------------
# ideal pairs


def test_pair_construction_minimalizes():
    p = IdealPair.from_masks(3, [0b1, 0b11], [0b111, 0b111])
    assert p.i_masks == (0b1,)
    assert p.j_masks == (0b111,)
    assert p.d == 1


def test_pair_unit_ideal():
    p = pair(1, [[]], [[1]])
    assert p.d == 0
    assert p.gens_i == (Monomial(0, 1),)
    assert p.j_masks == (0b1,)


def test_pair_validation_errors():
    with pytest.raises(ValidationError):
        IdealPair.from_masks(3, [], [])
    with pytest.raises(ValidationError):
        pair(2, [[1]], [[2]])  # J outside I
    with pytest.raises(ValidationError):
        pair(2, [[1]], [[1]])  # J equals I
    with pytest.raises(ValidationError):
        pair(3, [[1], [2]], [[3]])  # J gen outside I again
    with pytest.raises(ValidationError):
        pair(3, [[1, 2]], [[1, 2]])  # degree rule: J gen at degree d
    with pytest.raises(ValidationError):
        IdealPair.from_masks(0, [0b1], [])
    with pytest.raises(ValidationError):
        IdealPair.from_masks(25, [0b1], [])
    with pytest.raises(ValidationError):
        IdealPair.from_masks(2, [0b100], [])


def test_pair_generator_split():
    p = pair(4, [[1], [2, 3], [2, 4]])
    assert p.d == 1
    assert p.degree_d_masks() == (0b1,)
    assert p.extra_masks() == (0b110, 0b1010)


def test_pair_contains():
    members = poset_masks(pair(3, [[1], [2]], [[1, 2]]))
    assert 0b1 in members
    assert 0b101 in members
    assert 0b11 not in members
    assert 0b100 not in members


# ---------------------------------------------------------------------------
# poset layers


def test_poset_maximal_ideal_three_vars():
    p = pair(3, [[1], [2], [3]])
    layers = build_poset(p)
    assert layers.rho == (0, 3, 3, 1)
    assert layers.layer_masks(1) == (0b1, 0b10, 0b100)
    assert layers.layer_masks(2) == (0b11, 0b101, 0b110)
    assert layers.layer_masks(3) == (0b111,)
    assert (layers.d, layers.r, layers.s, layers.q) == (1, 3, 3, 1)
    assert len(layers.elems) == 7


def test_poset_split_pair():
    p = pair(2, [[1], [2]], [[1, 2]])
    layers = build_poset(p)
    assert layers.rho == (0, 2, 0)
    assert layers.s == 0 and layers.q == 0
    assert layers.elems == (0b1, 0b10)


def test_poset_quotient_layers():
    p = pair(3, [[1, 2]], [[1, 2, 3]])
    layers = build_poset(p)
    assert layers.rho == (0, 0, 1, 0)
    assert layers.layer_masks(2) == (0b11,)
    assert layers.layer_masks(7) == ()


def test_poset_masks_against_subset_scan():
    cases = [
        pair(3, [[1], [2], [3]]),
        pair(3, [[1], [2]], [[1, 2]]),
        pair(4, [[1, 2], [3, 4]], [[1, 2, 3, 4]]),
        pair(4, [[]], [[1, 2], [3, 4]]),
    ]
    for p in cases:
        brute = {
            m
            for m in range(1 << p.n)
            if masks_contain(p.i_masks, m) and not masks_contain(p.j_masks, m)
        }
        assert poset_masks(p) == brute
        ideal = {m for m in range(1 << p.n) if masks_contain(p.i_masks, m)}
        assert ideal_masks((1 << p.n) - 1, p.i_masks) == ideal
        assert poset_masks(IdealPair.from_masks(p.n, p.i_masks, ())) == ideal
        for ring in range(1 << p.n):
            under = {m for m in brute if m & ring == m}
            assert ideal_masks(ring, p.i_masks) == {m for m in ideal if m & ring == m}
            assert difference_masks(p, (ring,)) == under
            assert difference_masks(p, (ring, 0b101)) == under | {m for m in brute if m & 0b101 == m}
    assert ideal_masks(0b1111, ()) == set()
    assert difference_masks(cases[0], ()) == set()


def test_poset_layer_order_is_canonical():
    p = pair(4, [[2], [3], [4]], [[2, 3, 4]])
    layers = build_poset(p)
    for k in range(p.n + 1):
        keys = [mask_key(m) for m in layers.layer_masks(k)]
        assert keys == sorted(keys)


def test_poset_empty_raises():
    p = pair(2, [[1], [2]], [[1, 2]])
    object.__setattr__(p, "j_masks", p.i_masks)  # forge an invalid pair
    with pytest.raises(PosetEmpty):
        build_poset(p)


def test_poset_table_against_brute_force():
    """Canonical order, layer starts, index and upper covers of every pair
    with n <= 4, against a direct recomputation from the poset's masks."""
    count = 0
    for n in (1, 2, 3, 4):
        for p in enumerate_all_pairs(n):
            layers = build_poset(p)
            assert layers.elems == tuple(sorted(poset_masks(p), key=mask_key))
            assert layers.start == tuple(itertools.accumulate((*layers.rho, 0), initial=0))
            for i, m in enumerate(layers.elems):
                assert layers.index[m] == i
                above = layers.layer_masks(m.bit_count() + 1)
                covers = [m | 1 << v for v in range(n) if not m >> v & 1]
                assert layers.up[i] == tuple(above.index(c) for c in covers if c in above)
            for k in range(n + 1):
                assert layers.layer_masks(k) == tuple(m for m in layers.elems if m.bit_count() == k)
            count += 1
    assert count == 5526


# ---------------------------------------------------------------------------
# lcm classification


def test_lcm_pairs_in_b():
    p = pair(2, [[1], [2]])
    out = lcm_pairs(p)
    assert set(out) == {(1, 2)}
    w, cls = out[(1, 2)]
    assert w == 0b11
    assert cls is LcmClass.IN_B


def test_lcm_pairs_in_j():
    p = pair(2, [[1], [2]], [[1, 2]])
    assert lcm_pairs(p)[(1, 2)][1] is LcmClass.IN_J


def test_lcm_pairs_in_c():
    p = pair(4, [[1, 2], [3, 4]])
    w, cls = lcm_pairs(p)[(1, 2)]
    assert w == 0b1111
    assert cls is LcmClass.IN_C


def test_lcm_pairs_too_big():
    p = pair(6, [[1, 2, 3], [4, 5, 6]])
    assert lcm_pairs(p)[(1, 2)][1] is LcmClass.DEG_TOO_BIG


def test_lcm_pairs_indexing_follows_canonical_gens():
    p = pair(3, [[1], [2], [3]])
    out = lcm_pairs(p)
    assert set(out) == {(1, 2), (1, 3), (2, 3)}
    assert out[(1, 2)][0] == 0b11
    assert out[(1, 3)][0] == 0b101
    assert out[(2, 3)][0] == 0b110
    assert all(cls is LcmClass.IN_B for _, cls in out.values())


# ---------------------------------------------------------------------------
# ideal arithmetic


def test_intersect_masks():
    assert intersect_masks((0b1,), (0b10,)) == (0b11,)
    assert intersect_masks((0b1, 0b10), (0b100,)) == (0b101, 0b110)
    assert intersect_masks((0b11,), (0b1,)) == (0b11,)
    assert intersect_masks((), (0b1,)) == ()


def test_sum_masks():
    assert sum_masks((0b1,), (0b11, 0b10)) == (0b1, 0b10)
    assert sum_masks((), ()) == ()


def test_subquotient_pair():
    # (x2, x3) / (x1) inside K[x1..x3]
    p = subquotient_pair(3, (0b10, 0b100), (0b1,))
    assert p is not None
    assert p.i_masks == (0b10, 0b100)
    assert p.j_masks == (0b11, 0b101)
    # numerator sinks into the denominator
    assert subquotient_pair(3, (0b11,), (0b1,)) is None
    # zero denominator
    p = subquotient_pair(3, (0b1,), ())
    assert p is not None and p.j_masks == ()


def test_subquotient_drops_swallowed_generators():
    # x1 lies in the denominator, x2 survives
    p = subquotient_pair(3, (0b1, 0b10), (0b1,))
    assert p is not None
    assert p.i_masks == (0b10,)
    assert p.j_masks == (0b11,)


def test_extend_pair():
    p = pair(2, [[1], [2]], [[1, 2]])
    q = extend_pair(p)
    assert q.n == 3
    assert q.i_masks == p.i_masks
    assert q.j_masks == p.j_masks
    assert extend_pair(p, 2).n == 4
    with pytest.raises(ValidationError):
        extend_pair(p, -1)
