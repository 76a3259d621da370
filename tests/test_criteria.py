"""Layer-count depth criteria: alternating and binomial inequality tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqdepth
from sqdepth.criteria import CriterionVerdict, best_upper_bound
from sqdepth.koszul import depth_profile
from sqdepth.lab import enumerate_all_pairs
from sqdepth.monomial import IdealPair, PosetLayers, build_poset

M3 = IdealPair.from_variable_lists(3, [[1], [2], [3]], [])


def pair(n, gens_i, gens_j=()):
    return IdealPair.from_variable_lists(n, gens_i, gens_j)


def fake_layers(n, d, rho):
    carrier = pair(n, [list(range(1, d + 1)) or []])
    assert carrier.d == d
    return PosetLayers(pair=carrier, elems=(), rho=tuple(rho))


def verdict(layers, kind, t, k=None):
    (found,) = [v for v in best_upper_bound(layers)[1] if (v.kind, v.t, v.k) == (kind, t, k)]
    return found


def test_alternating_layer_sum_on_given_profile():
    layers = fake_layers(5, 1, (0, 3, 5, 4, 0, 0))
    assert verdict(layers, "alternating", 1).rhs == 3
    assert verdict(layers, "alternating", 2).rhs == 2
    assert verdict(layers, "alternating", 3).rhs == 2
    assert verdict(layers, "alternating", 4).rhs == -2


def test_binomial_on_given_profile_does_not_fire():
    layers = fake_layers(4, 1, (0, 2, 7, 3, 0))
    found = verdict(layers, "binomial", 2, 2)
    assert found.lhs == 7
    assert found.rhs == 4
    assert not found.fired


def test_verdict_consistency_enforced():
    with pytest.raises(AssertionError):
        CriterionVerdict("alternating", 1, None, 3, 5, False)


def test_verdict_consistency_enforced_under_optimize():
    # python -O strips assert statements; the invariant must survive it.
    package_root = str(Path(sqdepth.__file__).resolve().parents[1])
    code = (
        "from sqdepth.criteria import CriterionVerdict\n"
        "try:\n"
        "    CriterionVerdict('alternating', 1, None, 3, 5, False)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr


def test_three_generator_verdict_table():
    bound, verdicts = best_upper_bound(build_poset(M3))
    assert bound == 2
    table = [(v.kind, v.t, v.k, v.lhs, v.rhs, v.fired) for v in verdicts]
    assert table == [
        ("alternating", 1, None, 3, 3, False),
        ("binomial", 1, 2, 3, 3, False),
        ("alternating", 2, None, 1, 0, False),
        ("binomial", 2, 2, 3, 6, True),
        ("binomial", 2, 3, 1, 0, False),
    ]
    fired = [v for v in verdicts if v.fired]
    assert len(fired) == 1 and fired[0].t == 2


def test_free_module_never_fires():
    bound, verdicts = best_upper_bound(build_poset(pair(3, [[]])))
    assert bound is None
    assert len(verdicts) == 9
    assert not any(v.fired for v in verdicts)


def test_missing_second_layer_fires_at_floor():
    bound, verdicts = best_upper_bound(build_poset(pair(2, [[1], [2]], [[1, 2]])))
    assert bound == 1
    assert [(v.kind, v.fired) for v in verdicts] == [
        ("alternating", True),
        ("binomial", True),
    ]

    deficient = pair(3, [[1], [2], [3]], [[1, 2], [1, 3], [2, 3]])
    bound, _ = best_upper_bound(build_poset(deficient))
    assert bound == deficient.d == 1


def test_binomial_at_top_index_collapses_to_alternating():
    for n in (1, 2, 3):
        for p in enumerate_all_pairs(n):
            _, verdicts = best_upper_bound(build_poset(p))
            alt = {v.t: v for v in verdicts if v.kind == "alternating"}
            for v in verdicts:
                if v.kind == "binomial" and v.k == v.t + 1:
                    a = alt[v.t]
                    assert (v.lhs, v.rhs, v.fired) == (a.lhs, a.rhs, a.fired)


def test_fired_bounds_are_sound_for_every_characteristic():
    for n in (1, 2, 3):
        for p in enumerate_all_pairs(n):
            bound, verdicts = best_upper_bound(build_poset(p))
            if bound is None:
                continue
            prof = depth_profile(p)
            for res in prof.values():
                assert res.depth <= bound
            for v in verdicts:
                if v.fired:
                    assert all(res.depth <= v.t for res in prof.values())
