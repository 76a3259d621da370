"""Instance generation, theorem checks and hunts, the lcm classifier of
``sqdepth.lemmas``, and the proof machinery of ``paper_lemmas``: lcm
configuration instances, h-maps, splits."""

import itertools
from dataclasses import replace
from pathlib import Path

import pytest
from oracles import canonical_key, is_canonical
from paper_lemmas import (
    HMap,
    configuration_instances,
    find_maximal_bad_paths,
    h_map,
    removal_pair,
    split_modules,
    truncation_pair,
)

import sqdepth
from sqdepth import lab
from sqdepth.ideal_io import load_ideal
from sqdepth.koszul import depth
from sqdepth.lab import (
    Analysis,
    EmptyFamily,
    HypothesisMismatch,
    InstanceFamily,
    enumerate_all_pairs,
    enumerate_instances,
    floor_statement,
    hunt_counterexamples,
    permute_mask,
    sample_instances,
    step_open_statement,
    step_shape,
    step_statement,
)
from sqdepth.lemmas import NotApplicable, classify_lcm_configuration
from sqdepth.monomial import IdealPair, Monomial, ValidationError, build_poset, degree_masks
from sqdepth.partition import sdepth_exact
from sqdepth.report import build_analysis_report

CORPUS = Path(sqdepth.__file__).parent / "corpus"

M3 = IdealPair.from_variable_lists(3, [[1], [2], [3]], [])


def pair(n, gens_i, gens_j=()):
    return IdealPair.from_variable_lists(n, gens_i, gens_j)


def mono(n, *variables):
    return Monomial.from_variables(variables, n)


# ---------------------------------------------------------------------------
# symmetry helpers


def test_permute_mask():
    assert permute_mask(0b011, (1, 2, 0)) == 0b110
    assert permute_mask(0b001, (2, 0, 1)) == 0b100
    assert permute_mask(0b101, (0, 1, 2)) == 0b101
    assert permute_mask(0, (1, 0)) == 0


def test_canonical_key_orbit_invariant():
    a, b = pair(2, [[1]]), pair(2, [[2]])
    assert canonical_key(a) == canonical_key(b)
    assert is_canonical(a)
    assert not is_canonical(b)


def test_degree_masks_canonical_order():
    assert degree_masks(3, 2) == [0b011, 0b101, 0b110]
    assert degree_masks(3, 0) == [0]
    assert degree_masks(2, 3) == []


# ---------------------------------------------------------------------------
# families and enumeration


def test_family_validation():
    with pytest.raises(EmptyFamily):
        InstanceFamily(3, 0, 1)
    with pytest.raises(EmptyFamily):
        InstanceFamily(3, 4, 1)
    with pytest.raises(EmptyFamily):
        InstanceFamily(3, 1, 0)
    with pytest.raises(EmptyFamily):
        InstanceFamily(3, 1, 4)
    with pytest.raises(EmptyFamily):
        InstanceFamily(3, 1, 1, j_policy="weird")


def test_symmetry_rejected_on_sampled_family():
    with pytest.raises(EmptyFamily, match="--exhaustive"):
        InstanceFamily(5, 1, 2, j_policy="random", symmetry_reduction=True)


def test_enumerate_square_family():
    fam = InstanceFamily(2, 1, 2, j_policy="exhaustive")
    got = list(enumerate_instances(fam))
    assert len(got) == 2
    assert got[0].j_masks == ()
    assert got[1].j_masks == (0b11,)


def test_enumerate_zero_policy_single_instance():
    got = list(enumerate_instances(InstanceFamily(3, 1, 3)))
    assert got == [M3]


def test_enumerate_with_extras():
    got = list(enumerate_instances(InstanceFamily(3, 1, 1, with_e=True)))
    assert [tuple(str(g) for g in p.gens_i) for p in got] == [
        ("x1",),
        ("x1", "x2*x3"),
        ("x2",),
        ("x2", "x1*x3"),
        ("x3",),
        ("x3", "x1*x2"),
    ]


def test_enumerate_random_policy_rejected():
    with pytest.raises(EmptyFamily):
        enumerate_instances(InstanceFamily(3, 1, 1, j_policy="random"))


def test_sample_instances_deterministic():
    fam = InstanceFamily(3, 1, 2, j_policy="random")
    first = list(sample_instances(fam, 5, seed=7))
    second = list(sample_instances(fam, 5, seed=7))
    assert first == second
    assert len(first) == 5
    assert list(sample_instances(fam, 5, seed=8)) != first


def test_enumerate_all_pairs_counts():
    assert len(list(enumerate_all_pairs(1))) == 3
    assert len(list(enumerate_all_pairs(2))) == 12
    assert len(list(enumerate_all_pairs(3))) == 112


def brute_all_pairs(n):
    masks = range(1 << n)
    seen = {}
    for bits_i in range(1, 1 << (1 << n)):
        gens_i = tuple(m for m in masks if bits_i >> m & 1)
        try:
            base = IdealPair.from_masks(n, gens_i, ())
        except ValidationError:
            continue
        seen.setdefault((base.i_masks, base.j_masks), base)
        for bits_j in range(1, 1 << (1 << n)):
            gens_j = tuple(m for m in masks if bits_j >> m & 1)
            try:
                p = IdealPair.from_masks(n, gens_i, gens_j)
            except ValidationError:
                continue
            seen.setdefault((p.i_masks, p.j_masks), p)
    return set(seen)


def test_enumerate_all_pairs_against_brute_force():
    for n in (1, 2):
        fast = {(p.i_masks, p.j_masks) for p in enumerate_all_pairs(n)}
        assert fast == brute_all_pairs(n)
        assert len(list(enumerate_all_pairs(n))) == len(fast)


def test_symmetry_reduction_matches_filter():
    plain = [p for p in enumerate_all_pairs(3) if is_canonical(p)]
    reduced = list(enumerate_all_pairs(3, symmetry=True))
    assert reduced == plain
    assert len(reduced) == 39
    assert len(list(enumerate_all_pairs(2, symmetry=True))) == 9


def _family_or_error(*args, **kwargs):
    try:
        return list(enumerate_instances(InstanceFamily(*args, **kwargs)))
    except EmptyFamily as exc:
        return str(exc)


def test_family_symmetry_reduction_matches_filter():
    families = pairs = 0
    for n in range(1, 5):
        for d, k, with_e, policy in itertools.product(
            range(1, n + 1), range(1, 5), (False, True), ("zero", "exhaustive")
        ):
            plain = _family_or_error(n, d, k, with_e, policy)
            reduced = _family_or_error(n, d, k, with_e, policy, symmetry_reduction=True)
            if isinstance(plain, str):
                assert isinstance(reduced, str)
                continue
            assert reduced == [p for p in plain if is_canonical(p)]
            families += 1
            pairs += len(reduced)
    assert (families, pairs) == (96, 592)


@pytest.mark.parametrize(
    "n, d, k, with_e, count",
    [(5, 1, 2, False, 288), (5, 1, 3, False, 693), (5, 1, 4, False, 542), (4, 1, 2, True, 64)],
)
def test_symmetric_family_counts(n, d, k, with_e, count):
    fam = InstanceFamily(n, d, k, with_e, "exhaustive", symmetry_reduction=True)
    assert sum(1 for _ in enumerate_instances(fam)) == count


def test_symmetry_reduction_refused_above_eight_variables(monkeypatch):
    def no_table(*args):
        raise AssertionError("a permutation table was built")

    monkeypatch.setattr(lab, "permute_mask", no_table)
    fam = InstanceFamily(9, 1, 2, j_policy="exhaustive", symmetry_reduction=True)
    with pytest.raises(ValueError, match="limited to n <= 8"):
        enumerate_instances(fam)
    with pytest.raises(ValueError, match="limited to n <= 8"):
        next(enumerate_all_pairs(9, symmetry=True))


def test_symmetry_reduction_covers_all_orbits():
    keys = {canonical_key(p) for p in enumerate_all_pairs(3)}
    reduced_keys = {canonical_key(p) for p in enumerate_all_pairs(3, symmetry=True)}
    assert keys == reduced_keys


# ---------------------------------------------------------------------------
# statement checks


def test_floor_check_skips_above_floor():
    res = floor_statement(Analysis(M3))
    assert res.status == "skip"
    assert res.details == {"sdepth": 2}


def test_floor_check_passes_at_floor():
    res = floor_statement(Analysis(pair(2, [[1], [2]], [[1, 2]])))
    assert res.status == "pass"
    assert res.details["sdepth"] == 1
    assert res.details["depths"] == {0: 1, 2: 1, 3: 1}


def test_step_shape():
    assert step_shape(M3) == "few"
    assert step_shape(pair(2, [[1], [2]])) == "few"
    assert step_shape(pair(4, [[1], [2, 3], [2, 4]])) == "single"
    assert step_shape(pair(3, [[1, 2]], [[1, 2, 3]])) == "single"
    with pytest.raises(HypothesisMismatch):
        step_shape(pair(4, [[1], [2], [3], [4]]))
    with pytest.raises(HypothesisMismatch) as err:
        step_shape(pair(4, [[1], [2, 3, 4]]))
    assert str(err.value) == "1 degree-1 generators with extras ['x2*x3*x4']"
    with pytest.raises(HypothesisMismatch):
        step_shape(pair(4, [[1], [2], [3, 4]]))


def test_step_check():
    res = step_statement(Analysis(M3))
    assert res.status == "pass"
    assert res.details["shape"] == "few"
    assert res.details["depths"] == {0: 1, 2: 1, 3: 1}
    res = step_statement(Analysis(pair(2, [[1], [2]], [[1, 2]])))
    assert res.status == "skip"


def test_step_open_check():
    res = step_open_statement(Analysis(pair(2, [[1]])))
    assert res.status == "pass"
    res = step_open_statement(Analysis(pair(3, [[]])))
    assert res.status == "skip"
    assert res.details == {"sdepth": 3}


# ---------------------------------------------------------------------------
# configuration classifier


CORPUS_LABELS = {
    "split-pair": "k2-lcm-in-J",
    "max-ideal-3": "k3-all-B-distinct",
    "hall-deficient": "k3-no-B-0C",
    "lcm-pair-in-b": "k2-lcm-in-B",
    "lcm-pair-in-c": "k2-lcm-in-C",
    "lcm-pair-in-j": "k2-lcm-in-J",
    "lcm-triple-all-b-equal": "k3-all-B-equal",
    "lcm-triple-all-b-distinct": "k3-all-B-distinct",
    "lcm-two-b-one-c": "k3-two-B-one-C",
    "lcm-two-b-one-j": "k3-two-B-one-J",
    "lcm-one-b-two-c-equal": "k3-one-B-two-C-equal",
    "lcm-one-b-two-c-distinct": "k3-one-B-two-C-distinct",
    "lcm-one-b-one-c-one-j": "k3-one-B-one-C-one-J",
    "lcm-one-b-no-c": "k3-one-B-no-C",
    "lcm-all-c-equal": "k3-all-C-equal",
    "lcm-all-c-flat": "k3-all-C-distinct",
    "lcm-all-c-skew": "k3-all-C-distinct",
}

NOT_APPLICABLE_FILES = ("unit-ideal", "principal", "single-with-extras", "four-gen-open")


def test_corpus_labels():
    for stem, label in CORPUS_LABELS.items():
        inst, _ = load_ideal(CORPUS / f"{stem}.ideal")
        conf = classify_lcm_configuration(inst)
        assert conf.label == label, stem
        assert conf.violations == [], stem


def test_corpus_not_applicable():
    for stem in NOT_APPLICABLE_FILES:
        inst, _ = load_ideal(CORPUS / f"{stem}.ideal")
        with pytest.raises(NotApplicable):
            classify_lcm_configuration(inst)


def test_classifier_rejects_stray_c_element():
    with pytest.raises(NotApplicable):
        classify_lcm_configuration(pair(5, [[1, 2], [3, 4]]))


def test_two_b_one_c_bounds_are_tight_on_corpus_witness():
    inst, _ = load_ideal(CORPUS / "lcm-two-b-one-c.ideal")
    conf = classify_lcm_configuration(inst)
    assert (conf.s, conf.q) == (10, 5)
    assert conf.q_pair == {(1, 2): 3, (1, 3): 1, (2, 3): 3}
    by_desc = {c.description: c for c in conf.checks}
    tight = by_desc["s >= q+max+2"]
    assert (tight.observed, tight.required, tight.holds) == (10, 10, True)
    assert by_desc["q = q_a+q_b-1"].holds
    assert by_desc["s > q+3"].holds


def test_all_c_distinct_bounds_on_corpus_witnesses():
    skew, _ = load_ideal(CORPUS / "lcm-all-c-skew.ideal")
    conf = classify_lcm_configuration(skew)
    assert (conf.s, conf.q) == (9, 3)
    assert conf.q_pair == {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    descs = [c.description for c in conf.checks]
    assert "s >= 9" in descs
    assert "s >= 12 (disjoint generators)" not in descs

    flat, _ = load_ideal(CORPUS / "lcm-all-c-flat.ideal")
    conf = classify_lcm_configuration(flat)
    assert (conf.s, conf.q) == (12, 3)
    by_desc = {c.description: c for c in conf.checks}
    disjoint = by_desc["s >= 12 (disjoint generators)"]
    assert (disjoint.observed, disjoint.required, disjoint.holds) == (12, 12, True)


def test_truncation_pair():
    tp = truncation_pair(4, (0b0001, 0b0010), ())
    assert tp.i_masks == (0b0001, 0b0010)
    assert tp.j_masks == (0b0111, 0b1011, 0b1101, 0b1110)
    conf = classify_lcm_configuration(tp)
    assert (conf.label, conf.s, conf.q) == ("k2-lcm-in-B", 5, 0)

    tp2 = truncation_pair(4, (0b0001, 0b0010), (0b0111,))
    layers = build_poset(tp2)
    assert layers.layer_masks(3) == (0b0111,)
    assert classify_lcm_configuration(tp2).q == 1


def test_configuration_instances_build_their_label():
    for label in ("k2-lcm-in-B", "k3-two-B-one-C", "k3-all-C-distinct"):
        got = list(configuration_instances(label, 3))
        assert len(got) == 3
        for inst in got:
            assert classify_lcm_configuration(inst).label == label


def test_configuration_instances_unknown_label():
    with pytest.raises(ValueError):
        list(configuration_instances("k3-no-B-0C", 1))


# ---------------------------------------------------------------------------
# h-maps and paths


def test_removal_pair():
    sub = removal_pair(M3, mono(3, 1, 2))
    assert sub.i_masks == (0b101, 0b110)
    assert sub.j_masks == ()
    assert removal_pair(pair(2, [[1]]), mono(2, 1, 2)) is None


def test_h_map_on_principal_ideal():
    h = h_map(pair(3, [[1]]), mono(3, 1, 2))
    assert h is not None
    assert {str(k): str(v) for k, v in h.assignments.items()} == {"x1*x3": "x1*x2*x3"}
    assert [str(m) for m in h.image] == ["x1*x2*x3"]


def test_h_map_pigeonhole_blocks():
    layers = build_poset(M3)
    assert (layers.s, layers.q) == (3, 1)
    for m in layers.layer_masks(M3.d + 1):
        assert h_map(M3, Monomial(m, M3.n)) is None


def test_h_map_image_bound_on_generated_instances():
    for inst in configuration_instances("k2-lcm-in-B", 5):
        layers = build_poset(inst)
        for m in layers.layer_masks(inst.d + 1):
            h = h_map(inst, Monomial(m, inst.n))
            if h is None:
                assert layers.s - 1 > layers.q
                continue
            if h.assignments:
                assert len(h.assignments) == layers.s - 1
                assert len(h.image) == len(h.assignments) <= layers.q


def test_h_map_empty_when_b_is_alone():
    h = h_map(pair(2, [[1]]), mono(2, 1, 2))
    assert h.assignments == {}
    assert find_maximal_bad_paths(h) == []


def test_bad_path_dfs_order():
    h = HMap(
        mono(4, 1, 2),
        {mono(4, 1, 3): mono(4, 1, 3, 4), mono(4, 3, 4): mono(4, 1, 2, 3)},
    )
    reports = find_maximal_bad_paths(h)
    assert [
        ([str(a) for a in r.path], r.is_bad, r.is_maximal) for r in reports
    ] == [
        (["x1*x3", "x3*x4"], True, True),
        (["x3*x4"], True, True),
    ]


def test_good_path_terminates_clean():
    h = HMap(mono(4, 1, 2), {mono(4, 1, 3): mono(4, 1, 3, 4)})
    reports = find_maximal_bad_paths(h)
    assert len(reports) == 1
    assert not reports[0].is_bad
    assert reports[0].is_maximal


# ---------------------------------------------------------------------------
# hunts


def test_hunt_report_shape():
    report = hunt_counterexamples(InstanceFamily(3, 1, 3), "floor")
    assert report["family"] == {
        "n": 3,
        "d": 1,
        "k": 3,
        "with_e": False,
        "j_policy": "zero",
        "symmetry_reduction": False,
    }
    assert report["check"] == "floor"
    assert report["fields"] == ["Q", "F2", "F3"]
    assert report["counts"] == {"pass": 0, "fail": 0, "skip": 1}
    assert report["failures"] == []
    assert report["seed"] == 0
    assert report["elapsed_ms"] is None


def test_hunt_counts():
    fam = InstanceFamily(2, 1, 2, j_policy="exhaustive")
    assert hunt_counterexamples(fam, "floor")["counts"] == {"pass": 2, "fail": 0, "skip": 0}
    assert hunt_counterexamples(fam, "step")["counts"] == {"pass": 0, "fail": 0, "skip": 2}
    mismatch = hunt_counterexamples(InstanceFamily(4, 1, 4), "step")
    assert mismatch["counts"] == {"pass": 0, "fail": 0, "skip": 1}


def test_hunt_unknown_check():
    with pytest.raises(ValueError):
        hunt_counterexamples(InstanceFamily(2, 1, 1), "flop")


def test_hunt_limit_and_timing():
    fam = InstanceFamily(3, 1, 1, j_policy="exhaustive")
    report = hunt_counterexamples(fam, "floor", limit=5)
    assert sum(report["counts"].values()) == 5
    timed = hunt_counterexamples(fam, "floor", limit=2, timing=True)
    assert isinstance(timed["elapsed_ms"], int) and timed["elapsed_ms"] >= 0


def test_hunt_deterministic():
    fam = InstanceFamily(3, 1, 2, j_policy="exhaustive")
    assert hunt_counterexamples(fam, "floor") == hunt_counterexamples(fam, "floor")


# ---------------------------------------------------------------------------
# each engine runs once per instance


@pytest.fixture
def engine_calls(monkeypatch):
    calls = {"sdepth": 0, "depth": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(lab, "sdepth_exact", counted("sdepth", lab.sdepth_exact))
    monkeypatch.setattr(lab, "depth_profile", counted("depth", lab.depth_profile))
    return calls


def test_analysis_report_runs_each_engine_once(engine_calls):
    build_analysis_report(M3)
    assert engine_calls == {"sdepth": 1, "depth": 1}


def test_exhausted_budget_is_searched_once(engine_calls):
    doc = build_analysis_report(pair(4, [[1], [2], [3], [4]]), budget=1)
    assert "error" in doc["sdepth"]
    assert engine_calls["sdepth"] == 1
    assert doc["theorems"]["floor"]["status"] == "skip"
    assert doc["theorems"]["step"]["status"] == "skip"


def test_failure_record_reuses_the_search(engine_calls, monkeypatch):
    real_profile = lab.depth_profile

    def raised_depths(*args, **kwargs):
        return {c: replace(r, depth=r.depth + 1) for c, r in real_profile(*args, **kwargs).items()}

    monkeypatch.setattr(lab, "depth_profile", raised_depths)
    fam = InstanceFamily(2, 1, 2, j_policy="exhaustive")
    report = hunt_counterexamples(fam, "floor")
    emitted = sum(report["counts"].values())
    assert report["counts"]["fail"] == emitted == 2
    assert engine_calls["sdepth"] == emitted
    for rec, inst in zip(report["failures"], enumerate_instances(fam)):
        cert = sdepth_exact(inst).certificate
        assert rec["details"]["certificate"] == [[str(iv.lo), str(iv.hi)] for iv in cert.intervals]


# ---------------------------------------------------------------------------
# splits


def test_split_modules_frozen():
    left, right = split_modules(M3, (0b001,))
    assert (left.i_masks, left.j_masks) == ((0b001,), ())
    assert (right.i_masks, right.j_masks) == ((0b010, 0b100), (0b011, 0b101))


def test_split_modules_vanishing_side():
    left, right = split_modules(M3, (0b001, 0b010, 0b100))
    assert right is None
    assert (left.i_masks, left.j_masks) == (M3.i_masks, M3.j_masks)


def test_split_modules_empty_subset():
    with pytest.raises(ValueError):
        split_modules(M3, ())


def test_split_depth_and_sdepth_inequalities():
    left, right = split_modules(M3, (0b001,))
    depth_b = depth(M3).depth
    depth_a = depth(left).depth
    depth_c = depth(right).depth
    assert depth_b >= min(depth_a, depth_c)
    assert depth_a >= min(depth_b, depth_c + 1)
    assert sdepth_exact(M3).value >= min(sdepth_exact(left).value, sdepth_exact(right).value)
