"""Interval partition solver: exact values, certificates, Hall check, normalization."""

import subprocess
import sys
from pathlib import Path

import pytest
from paper_lemmas import NotNormalizable, normalize_partition

import sqdepth
from sqdepth.monomial import IdealPair, Monomial
from sqdepth.partition import (
    DEFAULT_NODE_BUDGET,
    BudgetExhausted,
    Interval,
    IntervalPartition,
    InvalidTarget,
    matching_upper_bound,
    partition_violations,
    sdepth_decision,
    sdepth_exact,
    verify_partition,
)


def pair(n, gens_i, gens_j=()):
    return IdealPair.from_variable_lists(n, gens_i, gens_j)


def mono(n, *variables):
    return Monomial.from_variables(variables, n)


def interval(n, lo, hi):
    return Interval(mono(n, *lo), mono(n, *hi))


MAXIMAL = {n: pair(n, [[v] for v in range(1, n + 1)]) for n in (1, 2, 3, 4, 5)}


# ---------------------------------------------------------------------------
# exact values


def test_sdepth_frozen_values():
    assert sdepth_exact(MAXIMAL[1]).value == 1
    assert sdepth_exact(MAXIMAL[2]).value == 1
    assert sdepth_exact(MAXIMAL[3]).value == 2
    assert sdepth_exact(MAXIMAL[4]).value == 2
    assert sdepth_exact(MAXIMAL[5]).value == 3


def test_sdepth_small_quotients():
    assert sdepth_exact(pair(2, [[1], [2]], [[1, 2]])).value == 1
    assert sdepth_exact(pair(2, [[1]])).value == 2
    assert sdepth_exact(pair(3, [[1, 2]], [[1, 2, 3]])).value == 2
    assert sdepth_exact(pair(1, [[]], [[1]])).value == 0
    assert sdepth_exact(pair(3, [[]])).value == 3


def test_sdepth_result_fields():
    res = sdepth_exact(MAXIMAL[3])
    assert res.value == 2
    assert res.nodes > 0
    assert res.certificate.sdepth_value == 2
    assert verify_partition(MAXIMAL[3], res.certificate)


def test_certificate_intervals_in_canonical_order():
    res = sdepth_exact(MAXIMAL[3])
    keys = [iv.lo.sort_key() for iv in res.certificate.intervals]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# decision form


def test_decision_satisfiable_and_not():
    part = sdepth_decision(MAXIMAL[3], 2)
    assert part is not None
    assert min(iv.hi.degree for iv in part.intervals) >= 2
    assert verify_partition(MAXIMAL[3], part)
    assert sdepth_decision(MAXIMAL[3], 3) is None


def test_decision_at_d_always_satisfiable():
    for p in (MAXIMAL[2], MAXIMAL[4], pair(3, [[1, 2]], [[1, 2, 3]])):
        part = sdepth_decision(p, p.d)
        assert part is not None and verify_partition(p, part)


def test_decision_no_degree_two_elements():
    assert sdepth_decision(pair(2, [[1], [2]], [[1, 2]]), 2) is None


def test_decision_invalid_target():
    with pytest.raises(InvalidTarget):
        sdepth_decision(MAXIMAL[3], 0)
    with pytest.raises(InvalidTarget):
        sdepth_decision(MAXIMAL[3], 4)
    with pytest.raises(InvalidTarget):
        sdepth_decision(pair(3, [[1, 2]], [[1, 2, 3]]), 1)


def test_budget_exhaustion_carries_bounds():
    with pytest.raises(BudgetExhausted) as info:
        sdepth_exact(MAXIMAL[4], budget=1)
    exc = info.value
    assert exc.nodes >= 1
    assert exc.lower_bound == 1
    assert exc.upper_bound == 2
    assert "1 <= sdepth <= 2" in str(exc)


def test_budget_exhaustion_decision():
    with pytest.raises(BudgetExhausted) as info:
        sdepth_decision(MAXIMAL[4], 2, budget=1)
    assert info.value.lower_bound is None
    assert DEFAULT_NODE_BUDGET == 10_000_000


def test_unlimited_budget():
    assert sdepth_exact(MAXIMAL[4], budget=None).value == 2


def test_maximal_ideals_start_at_the_layer_count_bound():
    # sdepth(m_n) = ceil(n/2) (Biro-Howard-Keller-Trotter-Young 2010), the
    # layer-count bound; a search from the matching bound n refutes every
    # target above it first (about 532k nodes for m_8)
    assert sdepth_exact(pair(8, [[v] for v in range(1, 9)]), budget=100).value == 4
    for n, expected in ((10, 5), (11, 6)):
        p = pair(n, [[v] for v in range(1, n + 1)])
        res = sdepth_exact(p)
        assert res.value == expected
        assert verify_partition(p, res.certificate)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # the m_11 search commits about 250 intervals along one branch
    code = (
        "import sys\n"
        "from sqdepth.monomial import IdealPair\n"
        "from sqdepth.partition import sdepth_exact\n"
        "sys.setrecursionlimit(100)\n"
        "pair = IdealPair.from_masks(11, [1 << v for v in range(11)], [])\n"
        "print(sdepth_exact(pair).value)\n"
    )
    package_root = str(Path(sqdepth.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "6"


def test_heavy_tail_instance_within_a_small_budget():
    # refuting target 6 took 79,533 nodes when the search always branched on
    # the first uncovered element; branching on the fewest live tops takes
    # a few thousand
    p = pair(8, [[1, 3], [1, 8], [2, 4], [3, 5], [3, 6], [3, 7], [3, 8], [6, 8]])
    res = sdepth_exact(p, budget=20_000)
    assert res.value == 5
    assert verify_partition(p, res.certificate)


# ---------------------------------------------------------------------------
# matching upper bound


def test_matching_upper_bound():
    assert matching_upper_bound(pair(2, [[1], [2]], [[1, 2]])) == 1
    assert matching_upper_bound(MAXIMAL[3]) == 3
    deficient = pair(3, [[1], [2], [3]], [[1, 2], [1, 3], [2, 3]])
    assert matching_upper_bound(deficient) == 1
    assert sdepth_exact(deficient).value == 1


# ---------------------------------------------------------------------------
# Hall condition: matching_upper_bound(p) > d exactly when sdepth >= d+1


def test_hall_check_fails_without_b_layer():
    p = pair(2, [[1], [2]], [[1, 2]])
    assert matching_upper_bound(p) == p.d
    assert sdepth_exact(p).value == p.d


def test_hall_check_maximal_ideal():
    assert matching_upper_bound(MAXIMAL[3]) == 3
    assert sdepth_exact(MAXIMAL[3]).value == 2


def test_hall_check_principal():
    p = pair(2, [[1]])
    assert matching_upper_bound(p) == 2
    assert sdepth_exact(p).value == 2


def test_hall_failure_forces_floor():
    deficient = pair(3, [[1], [2], [3]], [[1, 2], [1, 3], [2, 3]])
    assert matching_upper_bound(deficient) == deficient.d
    assert sdepth_exact(deficient).value == deficient.d


# ---------------------------------------------------------------------------
# verification


def test_verify_partition_accepts():
    p1 = pair(1, [[1]])
    assert verify_partition(p1, IntervalPartition.from_intervals([interval(1, [1], [1])]))
    p2 = pair(2, [[1]])
    part = IntervalPartition.from_intervals([interval(2, [1], [1, 2])])
    assert part.sdepth_value == 2
    assert verify_partition(p2, part)


def test_verify_partition_rejects_double_cover():
    p = pair(2, [[1], [2]])
    part = IntervalPartition.from_intervals(
        [interval(2, [1], [1, 2]), interval(2, [2], [1, 2])]
    )
    problems = partition_violations(p, part)
    assert not verify_partition(p, part)
    assert any("covered by both" in msg for msg in problems)


def test_verify_partition_rejects_gaps_and_foreign_elements():
    p = pair(2, [[1], [2]])
    part = IntervalPartition.from_intervals([interval(2, [1], [1, 2])])
    problems = partition_violations(p, part)
    assert any("covered by no interval" in msg for msg in problems)

    quotient = pair(2, [[1], [2]], [[1, 2]])
    part = IntervalPartition.from_intervals(
        [interval(2, [1], [1, 2]), interval(2, [2], [2])]
    )
    problems = partition_violations(quotient, part)
    assert any("outside" in msg for msg in problems)


def test_verify_partition_recomputes_declared_value():
    p = pair(2, [[1], [2]])
    part = IntervalPartition(
        intervals=(interval(2, [1], [1, 2]), interval(2, [2], [2])), sdepth_value=2
    )
    problems = partition_violations(p, part)
    assert any("declared sdepth value 2, recomputed 1" in msg for msg in problems)


def test_interval_requires_divisibility():
    with pytest.raises(ValueError):
        interval(3, [1], [2, 3])


def test_interval_member_masks():
    iv = interval(3, [1], [1, 2, 3])
    assert sorted(iv.member_masks()) == [0b001, 0b011, 0b101, 0b111]
    assert str(iv) == "[x1, x1*x2*x3]"


# ---------------------------------------------------------------------------
# normalization


def test_normalize_already_normal():
    p = pair(3, [[1]])
    part = IntervalPartition.from_intervals([interval(3, [1], [1, 2, 3])])
    out = normalize_partition(p, part)
    assert out == part


def test_normalize_splits_long_interval():
    p = pair(4, [[1]])
    part = IntervalPartition.from_intervals([interval(4, [1], [1, 2, 3, 4])])
    out = normalize_partition(p, part)
    assert verify_partition(p, out)
    assert out.sdepth_value >= 3
    for iv in out.intervals:
        if iv.lo.degree < 3:
            assert iv.hi.degree == 3
        else:
            assert iv.lo == iv.hi


def test_normalize_rejects_low_partition():
    p = pair(2, [[1], [2]])
    part = IntervalPartition.from_intervals(
        [interval(2, [1], [1, 2]), interval(2, [2], [2])]
    )
    with pytest.raises(NotNormalizable):
        normalize_partition(p, part)


def test_normalize_custom_target():
    p = pair(4, [[1]])
    part = IntervalPartition.from_intervals([interval(4, [1], [1, 2, 3, 4])])
    out = normalize_partition(p, part, target=2)
    assert verify_partition(p, out)
    for iv in out.intervals:
        if iv.lo.degree < 2:
            assert iv.hi.degree == 2
        else:
            assert iv.lo == iv.hi
