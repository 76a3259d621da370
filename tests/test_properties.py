"""Randomized invariant checks across the whole engine."""

import json

from hypothesis import assume, given, settings, strategies as st
from oracles import naive_sdepth
from paper_lemmas import normalize_partition, split_modules

from sqdepth.criteria import best_upper_bound
from sqdepth.ideal_io import pair_to_dict, pair_to_text, parse_ideal, parse_ideal_text
from sqdepth.koszul import FieldSpec, depth, depth_profile
from sqdepth.lab import permute_mask
from sqdepth.monomial import (
    IdealPair,
    ValidationError,
    build_poset,
    masks_contain,
    minimalize_masks,
    poset_masks,
)
from sqdepth.partition import (
    matching_upper_bound,
    sdepth_exact,
    verify_partition,
)

Q = FieldSpec(0)


@st.composite
def mask_lists(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=5)
    )
    return n, masks


@st.composite
def ideal_pairs(draw, max_n=4, max_gens=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = (1 << n) - 1
    gens_i = draw(
        st.lists(st.integers(min_value=1, max_value=top), min_size=1, max_size=max_gens, unique=True)
    )
    multiples = [m for m in range(1, top + 1) if any(m | g == m and m != g for g in gens_i)]
    gens_j = draw(
        st.lists(st.sampled_from(multiples), min_size=0, max_size=2, unique=True)
        if multiples
        else st.just([])
    )
    try:
        return IdealPair.from_masks(n, gens_i, gens_j)
    except ValidationError:
        assume(False)


@given(mask_lists())
@settings(max_examples=60, deadline=None)
def test_minimalize_is_idempotent_antichain(data):
    n, masks = data
    once = minimalize_masks(masks)
    assert minimalize_masks(once) == once
    for a in once:
        for b in once:
            assert a == b or (a | b != a and a | b != b)


@given(mask_lists())
@settings(max_examples=60, deadline=None)
def test_minimalize_preserves_the_ideal(data):
    n, masks = data
    reduced = minimalize_masks(masks)
    for m in range(1 << n):
        assert masks_contain(masks, m) == masks_contain(reduced, m)


@given(mask_lists(max_n=4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_minimalize_commutes_with_permutation(data, rng):
    n, masks = data
    perm = list(range(n))
    rng.shuffle(perm)
    perm = tuple(perm)
    direct = set(minimalize_masks(permute_mask(m, perm) for m in masks))
    routed = {permute_mask(m, perm) for m in minimalize_masks(masks)}
    assert direct == routed


@given(ideal_pairs())
@settings(max_examples=50, deadline=None)
def test_serialization_round_trips(p):
    assert parse_ideal_text(pair_to_text(p))[0] == p
    assert parse_ideal(json.dumps(pair_to_dict(p)))[0] == p


@given(ideal_pairs())
@settings(max_examples=40, deadline=None)
def test_certificate_is_valid_and_bounded(p):
    res = sdepth_exact(p)
    assert verify_partition(p, res.certificate)
    assert res.certificate.sdepth_value == res.value
    assert p.d <= res.value <= matching_upper_bound(p) <= p.n


@given(ideal_pairs(max_n=3))
@settings(max_examples=25, deadline=None)
def test_adding_a_free_variable_shifts_depths(p):
    q = IdealPair.from_masks(p.n + 1, p.i_masks, p.j_masks)
    assert q.n == p.n + 1
    assert sdepth_exact(q).value == sdepth_exact(p).value + 1
    assert depth(q, Q).depth == depth(p, Q).depth + 1


@given(ideal_pairs())
@settings(max_examples=50, deadline=None)
def test_layer_counts_sum_to_poset_size(p):
    layers = build_poset(p)
    assert sum(layers.rho) == len(poset_masks(p))
    assert layers.rho[p.d] == layers.r


@given(ideal_pairs())
@settings(max_examples=30, deadline=None)
def test_depth_stays_between_d_and_n(p):
    profile = depth_profile(p)
    for char, res in profile.items():
        assert p.d <= res.depth <= p.n
        assert res.depth == p.n - res.proj_dim
        if char:
            assert res.depth <= profile[0].depth


@given(ideal_pairs())
@settings(max_examples=40, deadline=None)
def test_hall_failure_pins_sdepth_at_d(p):
    assert (matching_upper_bound(p) > p.d) == (sdepth_exact(p).value > p.d)


@given(ideal_pairs())
@settings(max_examples=30, deadline=None)
def test_numeric_bound_dominates_sdepth(p):
    # sdepth_exact starts its search at this bound, so check it against the
    # exhaustive oracle instead
    bound, verdicts = best_upper_bound(build_poset(p))
    if bound is not None:
        assert naive_sdepth(p) <= bound
        assert any(v.fired and v.t == bound for v in verdicts)
    else:
        assert all(not v.fired for v in verdicts)


@given(ideal_pairs())
@settings(max_examples=30, deadline=None)
def test_normalization_keeps_partitions_valid(p):
    res = sdepth_exact(p)
    target = res.value
    norm = normalize_partition(p, res.certificate, target=target)
    assert verify_partition(p, norm)
    assert norm.sdepth_value >= target
    for box in norm.intervals:
        if box.lo.degree < target:
            assert box.hi.degree == target


@given(ideal_pairs(max_n=4), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_split_obeys_depth_lemma(p, rng):
    assume(len(p.gens_i) >= 2)
    k = rng.randrange(1, len(p.gens_i))
    subset = tuple(sorted(rng.sample(p.i_masks, k)))
    left, right = split_modules(p, subset)
    mid = depth(p, Q).depth
    if left is None:
        assert right is not None and depth(right, Q).depth == mid
        return
    if right is None:
        assert depth(left, Q).depth == mid
        return
    a, c = depth(left, Q).depth, depth(right, Q).depth
    assert mid >= min(a, c)
    assert a >= min(mid, c + 1)
    assert c >= min(a - 1, mid)
    assert sdepth_exact(p).value >= min(sdepth_exact(left).value, sdepth_exact(right).value)


@given(ideal_pairs(max_n=4), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_sdepth_is_permutation_invariant(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    perm = tuple(perm)
    moved = IdealPair.from_masks(
        p.n,
        [permute_mask(m, perm) for m in p.i_masks],
        [permute_mask(m, perm) for m in p.j_masks],
    )
    assert sdepth_exact(moved).value == sdepth_exact(p).value
    assert depth(moved, Q).depth == depth(p, Q).depth
