"""Koszul strand homology and depth over several coefficient fields."""

import functools
import itertools
import operator
import re
import tracemalloc

import pytest

from sqdepth import koszul
from sqdepth.koszul import (
    DepthResult,
    FieldSpec,
    StrandInvariantError,
    _check_complex,
    _strand_spaces,
    build_strand,
    depth,
    depth_profile,
)
from sqdepth.lab import enumerate_all_pairs
from sqdepth.monomial import IdealPair, Monomial, difference_masks, masks_contain, poset_masks

from oracles import full_koszul_depth


def pair(n, gens_i, gens_j=()):
    return IdealPair.from_variable_lists(n, gens_i, gens_j)


def mono(n, *variables):
    return Monomial.from_variables(variables, n)


def test_field_spec():
    assert str(FieldSpec(0)) == "Q"
    assert str(FieldSpec(2)) == "F2"
    assert str(FieldSpec(3)) == "F3"
    assert str(FieldSpec(5)) == "F5"
    for bad in (1, 4, 6, 9, -1, -2):
        with pytest.raises(ValueError):
            FieldSpec(bad)


def test_strand_invariant_error_is_assertion():
    assert issubclass(StrandInvariantError, AssertionError)


def test_check_complex_rejects_one_flipped_sign():
    # Koszul complex on x1, x2: d2(e12) = e2 - e1, d1(e1) = d1(e2) = e0.
    bases = [(0,), (1, 2), (3,)]
    _check_complex(bases, [[], [[1, 1]], [[-1], [1]]])
    with pytest.raises(StrandInvariantError, match=r"d_1 after d_2 is nonzero at \(0, 0\)"):
        _check_complex(bases, [[], [[1, 1]], [[1], [1]]])


def test_check_complex_checks_every_entry():
    # The full Koszul complex on four variables: flipping any single nonzero
    # entry breaks d d = 0, and the error names a nonzero entry of the product.
    bases, boundaries = _strand_spaces(poset_masks(pair(4, [[]])), 0b1111)
    _check_complex(bases, boundaries)
    for i in range(1, len(boundaries)):
        for r, row in enumerate(boundaries[i]):
            for c, x in enumerate(row):
                if not x:
                    continue
                broken = [[list(rw) for rw in m] for m in boundaries]
                broken[i][r][c] = -x
                with pytest.raises(StrandInvariantError) as err:
                    _check_complex(bases, broken)
                k, rr, cc = map(int, re.search(
                    r"d_(\d+) after d_\d+ is nonzero at \((\d+), (\d+)\)", str(err.value)
                ).groups())
                a, b = broken[k], broken[k + 1]
                assert sum(a[rr][m] * b[m][cc] for m in range(len(b))) != 0


# ---------------------------------------------------------------------------
# single strands


def test_strand_truncated_square():
    p = pair(2, [[]], [[1, 2]])
    strand = build_strand(p, mono(2, 1, 2))
    assert strand.dims == (0, 2, 1)
    assert strand.homology == (0, 1, 0)
    assert strand.sigma == mono(2, 1, 2)


def generator_scan_bases(p, sigma, squared):
    """Strand bases by the generator rule: tau is a basis element when the
    support of the multidegree sigma + squared - tau lies in I and not in J."""
    support = [v for v in range(p.n) if sigma >> v & 1]
    bases = []
    for size in range(len(support) + 1):
        basis = []
        for combo in itertools.combinations(support, size):
            tau = sum(1 << v for v in combo)
            m = sum(1 << v for v in support if 1 + (squared >> v & 1) - (tau >> v & 1) > 0)
            if masks_contain(p.i_masks, m) and not masks_contain(p.j_masks, m):
                basis.append(tau)
        bases.append(tuple(basis))
    return bases


def test_strand_bases_match_generator_scan():
    # The mask lookup gives the same bases, in the same order, as the
    # generator scan it replaced: every sigma of every pair with n <= 4,
    # squarefree and with one squared variable, reading all of I \ J (the
    # paranoid check) or only its masks under sigma (build_strand).
    for n in (1, 2, 3, 4):
        for p in enumerate_all_pairs(n):
            everything = poset_masks(p)
            for sigma in range(1 << n):
                under = difference_masks(p, (sigma,))
                for squared in [0] + [1 << v for v in range(n) if sigma >> v & 1]:
                    expected = generator_scan_bases(p, sigma, squared)
                    for members in (everything, under):
                        bases, _ = _strand_spaces(members, sigma, squared)
                        assert bases == expected, (p, sigma, squared)


def test_depth_reads_only_masks_under_the_lcm_lattices():
    # A principal I in 20 variables has 2^19 masks; the depth scan and a
    # single strand must read only the few under the generators' lcms.
    tracemalloc.start()
    try:
        result = depth_profile(pair(20, [[1]]))
        sparse = pair(20, [[1, 2]], [[1, 2, 3]])
        assert build_strand(sparse, mono(20, 1, 2, 3)).homology == (0, 1, 0, 0)
        assert {c: r.depth for c, r in depth_profile(sparse).items()} == {0: 19, 2: 19, 3: 19}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {c: r.depth for c, r in result.items()} == {0: 20, 2: 20, 3: 20}
    assert peak < 1 << 20


def test_strand_principal_generator():
    strand = build_strand(pair(1, [[1]]), mono(1, 1))
    assert strand.dims == (1, 0)
    assert strand.homology == (1, 0)


def test_strand_free_rank_one():
    strand = build_strand(pair(1, [[]]), mono(1, 1))
    assert strand.dims == (1, 1)
    assert strand.homology == (0, 0)


def test_strand_maximal_ideal_top_degree():
    strand = build_strand(pair(3, [[1], [2], [3]]), mono(3, 1, 2, 3))
    assert strand.dims == (1, 3, 3, 0)
    assert strand.homology == (0, 0, 1, 0)


def test_strand_field_choice_changes_homology_field_only():
    p = pair(2, [[]], [[1, 2]])
    q = build_strand(p, mono(2, 1, 2), FieldSpec(0))
    f2 = build_strand(p, mono(2, 1, 2), FieldSpec(2))
    assert q.homology == f2.homology
    assert f2.field == FieldSpec(2)


# ---------------------------------------------------------------------------
# depth values


def test_depth_frozen_values():
    assert depth(pair(3, [[]])).depth == 3
    assert depth(pair(2, [[1], [2]], [[1, 2]])).depth == 1
    assert depth(pair(4, [[]], [[1, 2], [3, 4]])).depth == 2
    assert depth(pair(3, [[1], [2], [3]])).depth == 1
    assert depth(pair(2, [[1]], [[1, 2]])).depth == 1
    assert depth(pair(1, [[]], [[1]])).depth == 0
    assert depth(pair(3, [[1, 2]], [[1, 2, 3]])).depth == 2
    assert depth(pair(2, [[1]])).depth == 2


def test_depth_result_fields():
    res = depth(pair(3, [[1], [2], [3]]))
    assert isinstance(res, DepthResult)
    assert res.depth == 1
    assert res.proj_dim == 2
    assert res.witness_index == 2
    assert res.witness_sigma == mono(3, 1, 2, 3)
    assert res.field == FieldSpec(0)
    strand = build_strand(pair(3, [[1], [2], [3]]), res.witness_sigma, res.field)
    assert strand.homology[res.witness_index] > 0


def test_depth_profile_keys_and_agreement():
    prof = depth_profile(pair(3, [[1], [2], [3]]))
    assert sorted(prof) == [0, 2, 3]
    assert {r.depth for r in prof.values()} == {1}
    assert prof[2].field == FieldSpec(2)


def test_depth_profile_custom_fields():
    prof = depth_profile(pair(2, [[1]]), fields=(FieldSpec(5),))
    assert sorted(prof) == [5]
    assert prof[5].depth == 2


def test_paranoid_matches_normal_on_small_pairs():
    for p in enumerate_all_pairs(2):
        assert depth(p, paranoid=True).depth == depth(p).depth
    p = pair(3, [[1, 2], [1, 3]])
    assert depth(p, paranoid=True).depth == depth(p).depth


def test_paranoid_catches_homology_off_the_scan(monkeypatch):
    # m_3 has homology at x1x2 (H_1); a scan that skipped it must be caught.
    monkeypatch.setattr(koszul, "_scan_masks", lambda p: [0b111])
    with pytest.raises(StrandInvariantError, match="off the lcm lattices"):
        depth(pair(3, [[1], [2], [3]]), paranoid=True)


def test_paranoid_refuses_large_rings():
    with pytest.raises(ValueError):
        depth(pair(7, [[1]]), paranoid=True)


def test_depth_bounds_and_semicontinuity_small():
    for n in (1, 2, 3):
        for p in enumerate_all_pairs(n):
            prof = depth_profile(p)
            d0 = prof[0].depth
            assert p.d <= d0 <= p.n
            for c in (2, 3):
                assert p.d <= prof[c].depth <= d0


def test_depth_against_independent_assembly():
    for n in (1, 2):
        for p in enumerate_all_pairs(n):
            for c in (0, 2, 3):
                assert depth(p, FieldSpec(c)).depth == full_koszul_depth(p, c)
    sample = list(enumerate_all_pairs(3))[::9]
    for p in sample:
        assert depth(p).depth == full_koszul_depth(p, 0)


def test_witness_strand_carries_top_homology():
    for p in list(enumerate_all_pairs(3))[::15]:
        res = depth(p)
        strand = build_strand(p, res.witness_sigma, res.field)
        assert strand.homology[res.witness_index] > 0
        assert res.depth == p.n - res.proj_dim


# ---------------------------------------------------------------------------
# the lcm-lattice reduction of the scan


def lcm_lattice(masks):
    """Every lcm (OR) of a nonempty subset of the generator masks."""
    return {
        functools.reduce(operator.or_, subset)
        for size in range(1, len(masks) + 1)
        for subset in itertools.combinations(masks, size)
    }


def test_homology_vanishes_off_lcm_lattices():
    fields = [FieldSpec(c) for c in (0, 2, 3)]
    for n in (1, 2, 3, 4):
        for p in enumerate_all_pairs(n):
            lattice = lcm_lattice(p.i_masks) | lcm_lattice(p.j_masks)
            assert set(koszul._scan_masks(p)) == lattice
            for mask in range(1 << n):
                if mask in lattice:
                    continue
                for f in fields:
                    assert not any(build_strand(p, Monomial(mask, n), f).homology), (p, mask, f)


@pytest.mark.parametrize("n", [8, 10, 12, 16])
def test_depth_of_path_ideal_with_free_variables(n):
    # Depth is 6 at n = 8 and each further free variable raises it by one.
    prof = depth_profile(pair(n, [[1, 2], [2, 3], [3, 4], [4, 5]]))
    assert {c: r.depth for c, r in prof.items()} == {c: 6 + (n - 8) for c in (0, 2, 3)}
