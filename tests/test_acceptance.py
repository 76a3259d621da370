"""Full-corpus acceptance sweep.

Each test covers one release gate and prints a single summary line.
The corpora come from ``corpus.py``: the small corpus is every valid pair
with n <= 4 and the large one every canonical pair with n <= 5; the floor
and step sweep adds 1000 seeded random n = 6 pairs.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpus import SEED, canonical_pairs, n5_slice, small_pairs, small_results
from oracles import full_koszul_depth
from paper_lemmas import HMap, configuration_instances, h_map, removal_pair, split_modules

import sqdepth
from sqdepth.koszul import depth_profile
from sqdepth.lab import (
    Analysis,
    InstanceFamily,
    floor_statement,
    hunt_counterexamples,
    step_statement,
    HypothesisMismatch,
)
from sqdepth.lemmas import classify_lcm_configuration
from sqdepth.monomial import IdealPair, Monomial, ValidationError, build_poset, masks_contain
from sqdepth.partition import matching_upper_bound, sdepth_decision, sdepth_exact, verify_partition

CHARS = (0, 2, 3)

CONFIGURATION_LABELS = (
    "k2-lcm-in-B",
    "k2-lcm-in-C",
    "k2-lcm-in-J",
    "k3-all-B-equal",
    "k3-all-B-distinct",
    "k3-all-C-equal",
    "k3-all-C-distinct",
    "k3-two-B-one-C",
    "k3-two-B-one-J",
    "k3-one-B-two-C-equal",
    "k3-one-B-two-C-distinct",
    "k3-one-B-one-C-one-J",
    "k3-one-B-no-C",
)


def sample_random_pairs(n, count, seed, min_gens=1, max_gens=4, max_j=3):
    """Deterministic stream of valid pairs with noisy generator sets."""
    rng = random.Random(seed)
    top = (1 << n) - 1
    out = []
    while len(out) < count:
        gens = rng.sample(range(1, top + 1), rng.randint(min_gens, min(max_gens, top)))
        mults = [m for m in range(1, top + 1) if any(m | g == m and m != g for g in gens)]
        picked = rng.sample(mults, min(rng.randint(0, max_j), len(mults))) if mults else []
        try:
            out.append(IdealPair.from_masks(n, gens, picked))
        except ValidationError:
            continue
    return out


@pytest.fixture(scope="module")
def floor_step_sweep():
    """One pass over the large corpus feeding the floor and step gates."""
    t0 = time.monotonic()
    floor_counts = {"pass": 0, "fail": 0, "skip": 0}
    step_counts = {"pass": 0, "fail": 0, "skip": 0, "mismatch": 0}
    failures = []
    total = 0
    for inst in itertools.chain(canonical_pairs(), sample_random_pairs(6, 1000, SEED)):
        total += 1
        analysis = Analysis(inst)
        res = floor_statement(analysis)
        floor_counts[res.status] += 1
        if res.status == "fail":
            failures.append(("floor", inst, res.details))
        try:
            res = step_statement(analysis)
        except HypothesisMismatch:
            step_counts["mismatch"] += 1
            continue
        step_counts[res.status] += 1
        if res.status == "fail":
            failures.append(("step", inst, res.details))
    return {
        "total": total,
        "floor": floor_counts,
        "step": step_counts,
        "failures": failures,
        "elapsed": time.monotonic() - t0,
    }


def test_criterion_1_sdepth_matches_exhaustive_oracle():
    t0 = time.monotonic()
    checked = 0
    for r in small_results():
        pair, got = r.pair, r.sdepth.value
        assert got == r.naive, f"{pair}: engine {got} != oracle {r.naive}"
        assert pair.d <= got <= pair.n and got <= matching_upper_bound(pair), pair
        assert verify_partition(pair, r.sdepth.certificate), pair
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 5526
    assert elapsed < 600
    print(f"criterion 1: PASS - {checked} pairs agree with the brute-force "
          f"partition oracle in {elapsed:.1f}s")


def test_sdepth_decision_matches_oracle_at_every_target():
    # targets below the answer are never tried by sdepth_exact, yet every
    # prune of the decision search must be sound there too
    t0 = time.monotonic()
    decisions = 0
    for r in small_results():
        pair = r.pair
        for t in range(pair.d, pair.n + 1):
            part = sdepth_decision(pair, t)
            assert (part is not None) == (t <= r.naive), f"{pair} target {t}"
            if part is not None:
                assert verify_partition(pair, part), f"{pair} target {t}"
                assert part.sdepth_value >= t
            decisions += 1
    assert decisions == 20719
    print(f"sdepth decision: PASS - {decisions} (pair, target) decisions agree with "
          f"the brute-force partition oracle in {time.monotonic() - t0:.1f}s")


def test_criterion_2_depth_matches_full_koszul_oracle():
    t0 = time.monotonic()
    checked = 0
    for r in small_results():
        pair, profile = r.pair, r.profile
        for char in CHARS:
            expected = full_koszul_depth(pair, char)
            got = profile[char].depth
            assert got == expected, (
                f"{pair} char {char}: engine {got} != oracle {expected}"
            )
            # depth over Q bounds every characteristic's depth from above
            assert pair.d <= got <= profile[0].depth <= pair.n, (pair, char)
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 5526
    print(f"criterion 2: PASS - {checked} pairs x chars {list(CHARS)} agree "
          f"with the full complex oracle in {elapsed:.1f}s")


def test_criterion_3_sdepth_floor_forces_depth(floor_step_sweep):
    sweep = floor_step_sweep
    floor_fails = [f for f in sweep["failures"] if f[0] == "floor"]
    assert floor_fails == []
    assert sweep["floor"]["fail"] == 0
    assert sweep["floor"]["pass"] > 0
    assert sweep["total"] == 61838
    assert sweep["elapsed"] < 1800
    print(f"criterion 3: PASS - floor holds on {sweep['total']} instances "
          f"({sweep['floor']['pass']} tight, {sweep['floor']['skip']} above the floor) "
          f"in {sweep['elapsed']:.0f}s")


def test_criterion_4_sdepth_step_bounds_depth(floor_step_sweep):
    sweep = floor_step_sweep
    step_fails = [f for f in sweep["failures"] if f[0] == "step"]
    assert step_fails == []
    assert sweep["step"]["fail"] == 0
    assert sweep["step"]["pass"] > 0
    print(f"criterion 4: PASS - step bound holds on "
          f"{sweep['step']['pass'] + sweep['step']['skip']} matching instances "
          f"({sweep['step']['pass']} tight)")


def test_criterion_5_numeric_criteria_sound_and_sharp():
    t0 = time.monotonic()
    fired_seen = 0
    for r in small_results():
        pair, profile, verdicts = r.pair, r.profile, r.verdicts
        for v in verdicts:
            if not v.fired:
                continue
            fired_seen += 1
            for char in CHARS:
                dep = profile[char].depth
                assert dep <= v.t, f"{pair}: fired t={v.t} but depth_{char}={dep}"
                if dep >= v.t:
                    assert dep == v.t
        alt = {v.t: v for v in verdicts if v.kind == "alternating"}
        assert sorted(alt) == list(range(pair.d, pair.n))
        for t, a in alt.items():
            (degenerate,) = [v for v in verdicts if v.kind == "binomial" and (v.t, v.k) == (t, t + 1)]
            assert (degenerate.lhs, degenerate.rhs, degenerate.fired) == (a.lhs, a.rhs, a.fired)
    elapsed = time.monotonic() - t0
    assert fired_seen > 100
    print(f"criterion 5: PASS - {fired_seen} fired verdicts all sound; "
          f"degenerate binomial matches alternating bit for bit ({elapsed:.1f}s)")


def test_criterion_6_normalized_partitions_induce_injections():
    t0 = time.monotonic()
    solved = pigeonholed = 0
    for inst in canonical_pairs():
        if inst.d + 2 > inst.n:
            continue
        layers = build_poset(inst)
        s, q = layers.s, layers.q
        seen = set()
        for f in inst.degree_d_masks():
            for m in layers.layer_masks(inst.d + 1):
                if m | f != m or m in seen:
                    continue
                seen.add(m)
                b = Monomial(m, inst.n)
                h = h_map(inst, b)
                if s - 1 > q:
                    assert h is None, f"{inst}: pigeonhole breached at b={b}"
                    pigeonholed += 1
                    continue
                if h is None:
                    continue
                solved += 1
                assert len(h.assignments) == s - 1
                image = h.image
                assert len(image) == s - 1, f"{inst}: h not injective at b={b}"
                assert len(image) <= q
                for c in image:
                    assert c.degree == inst.d + 2
                    assert masks_contain(inst.i_masks, c.mask)
                    assert not masks_contain(inst.j_masks, c.mask)
    elapsed = time.monotonic() - t0
    assert solved > 1000
    assert pigeonholed > 100
    print(f"criterion 6: PASS - {solved} extracted injections, "
          f"{pigeonholed} pigeonhole blocks, zero violations ({elapsed:.0f}s)")


def test_h_map_matches_the_solver_route():
    # the solver route reads h off a d+2 partition of I_b/J_b; both routes
    # must agree on existence and on the domain, which is B minus b
    t0 = time.monotonic()
    checked = found = 0
    for inst in small_pairs() + n5_slice():
        d = inst.d
        b_layer = build_poset(inst).layer_masks(d + 1)
        for m in b_layer:
            b = Monomial(m, inst.n)
            h = h_map(inst, b)
            sub = removal_pair(inst, b)
            checked += 1
            if sub is None:
                assert h == HMap(b, {})
                continue
            part = None if d + 2 > inst.n else sdepth_decision(sub, d + 2)
            assert (h is None) == (part is None), f"{inst} at b={b}"
            if part is None:
                continue
            found += 1
            domain = {iv.lo.mask for iv in part.intervals if iv.lo.degree == d + 1}
            assert domain == {a.mask for a in h.assignments} == set(b_layer) - {m}
    elapsed = time.monotonic() - t0
    assert found > 1000
    print(f"h-maps: PASS - matching and solver agree on {checked} (pair, b) choices, "
          f"{found} injections ({elapsed:.1f}s)")


def test_criterion_7_configuration_count_bounds():
    t0 = time.monotonic()
    summary = {}
    for label in CONFIGURATION_LABELS:
        built = list(configuration_instances(label, 50))
        assert len(built) == 50, f"only {len(built)} instances for {label}"
        for inst in built:
            conf = classify_lcm_configuration(inst)
            assert conf.label == label
            bad = [c for c in conf.checks if not c.holds]
            assert bad == [], f"{label}: {bad} on {inst}"
        summary[label] = len(built)
    elapsed = time.monotonic() - t0
    assert len(summary) == 13
    print(f"criterion 7: PASS - 13 configuration classes x 50 instances, "
          f"all count bounds hold ({elapsed:.0f}s)")


def test_criterion_8_split_sequences_obey_depth_rules():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    done = 0
    while done < 500:
        n = rng.randint(2, 5)
        inst = sample_random_pairs(n, 1, rng.randrange(1 << 30), min_gens=2)[0]
        if len(inst.gens_i) < 2:
            continue
        k = rng.randrange(1, len(inst.gens_i))
        subset = tuple(sorted(rng.sample(inst.i_masks, k)))
        left, right = split_modules(inst, subset)
        mid_profile = depth_profile(inst)
        if left is None and right is None:
            continue
        if left is None:
            for char in CHARS:
                assert depth_profile(right)[char].depth == mid_profile[char].depth
            done += 1
            continue
        if right is None:
            for char in CHARS:
                assert depth_profile(left)[char].depth == mid_profile[char].depth
            done += 1
            continue
        left_profile = depth_profile(left)
        right_profile = depth_profile(right)
        for char in CHARS:
            a = left_profile[char].depth
            b = mid_profile[char].depth
            c = right_profile[char].depth
            assert b >= min(a, c), f"{inst} {subset} char {char}: {a},{b},{c}"
            assert a >= min(b, c + 1), f"{inst} {subset} char {char}: {a},{b},{c}"
            assert c >= min(a - 1, b), f"{inst} {subset} char {char}: {a},{b},{c}"
        s_mid = sdepth_exact(inst).value
        s_left = sdepth_exact(left).value
        s_right = sdepth_exact(right).value
        assert s_mid >= min(s_left, s_right), f"{inst} {subset}"
        done += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 8: PASS - 500 seeded splits satisfy the depth rules and "
          f"the sdepth inequality ({elapsed:.0f}s)")


def test_criterion_9_reports_are_deterministic():
    fam = InstanceFamily(5, 1, 3, j_policy="random")
    first = hunt_counterexamples(fam, "floor", limit=40, seed=7)
    second = hunt_counterexamples(fam, "floor", limit=40, seed=7)
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    cmd = [
        sys.executable, "-m", "sqdepth.cli",
        "hunt", "--check", "floor", "--n", "4", "--k", "2",
        "--samples", "25", "--seed", "13", "--json",
    ]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout

    corpus = Path(sqdepth.__file__).parent / "corpus" / "max-ideal-3.ideal"
    cmd = [sys.executable, "-m", "sqdepth.cli", "analyze", str(corpus), "--json"]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    print("criterion 9: PASS - same-seed hunts and repeated runs produce "
          "byte-identical reports")
