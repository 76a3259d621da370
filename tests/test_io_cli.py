"""File formats, report documents, schema conformance, and the CLI."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import sqdepth
from sqdepth import koszul, lab
from sqdepth.cli import main
from sqdepth.ideal_io import (
    ParseError,
    load_ideal,
    pair_to_dict,
    pair_to_text,
    parse_ideal,
    parse_ideal_json,
    parse_ideal_text,
    partition_to_dict,
)
from sqdepth.monomial import IdealPair, ValidationError
from sqdepth.partition import sdepth_exact
from sqdepth.report import (
    SCHEMA_NAME,
    build_analysis_report,
    build_criteria_report,
    build_depth_report,
    build_sdepth_report,
    load_schema,
    render_text,
    wrap_hunt_report,
)

CORPUS = Path(sqdepth.__file__).parent / "corpus"
M3_FILE = str(CORPUS / "max-ideal-3.ideal")

M3 = IdealPair.from_variable_lists(3, [[1], [2], [3]], [])


def pair(n, gens_i, gens_j=()):
    return IdealPair.from_variable_lists(n, gens_i, gens_j)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# parsing


def test_parse_text_basic():
    p, warnings = parse_ideal_text("n = 3\nI = x1*x2, x2*x3\nJ = 0\n")
    assert p == pair(3, [[1, 2], [2, 3]])
    assert warnings == []


def test_parse_text_comments_and_blanks():
    text = "# an instance\n\nn = 2\nI = x1, x2   # generators\n\nJ = x1*x2\n"
    p, warnings = parse_ideal_text(text)
    assert p == pair(2, [[1], [2]], [[1, 2]])
    assert warnings == []


def test_parse_text_unit_ideal():
    p, _ = parse_ideal_text("n = 2\nI = 1\nJ = x1*x2\n")
    assert p.i_masks == (0,)
    assert p.d == 0


def test_parse_warnings_on_redundant_generators():
    p, warnings = parse_ideal_text("n = 3\nI = x1, x1*x2\nJ = 0\n")
    assert p.i_masks == (0b001,)
    assert warnings == ["I generators were not minimal; redundant ones dropped"]
    _, warnings = parse_ideal_text("n = 3\nI = x1\nJ = x1*x2, x1*x2*x3\n")
    assert warnings == ["J generators were not minimal; redundant ones dropped"]


def test_parse_text_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2: bad factor 'y'"):
        parse_ideal_text("n = 2\nI = x1*y\nJ = 0\n")
    with pytest.raises(ParseError, match="line 3: expected"):
        parse_ideal_text("n = 2\nI = x1\nJ\n")
    with pytest.raises(ParseError, match="line 1: unknown field 'K'"):
        parse_ideal_text("K = 1\n")
    with pytest.raises(ParseError, match="line 1: n must be an integer"):
        parse_ideal_text("n = two\nI = x1\nJ = 0\n")
    with pytest.raises(ParseError, match="missing field 'J'"):
        parse_ideal_text("n = 2\nI = x1\n")
    with pytest.raises(ParseError, match="line 2: empty generator"):
        parse_ideal_text("n = 2\nI = x1,,x2\nJ = 0\n")
    with pytest.raises(ParseError, match="line 3: field 'I' given twice"):
        parse_ideal_text("n = 3\nI = x1\nI = x2\nJ = 0\n")
    with pytest.raises(ParseError, match="line 2: field 'n' given twice"):
        parse_ideal_text("n = 3\nn = 2\nI = x1\nJ = 0\n")


def test_parse_semantic_errors_are_validation_errors():
    with pytest.raises(ValidationError):
        parse_ideal_text("n = 2\nI = x3\nJ = 0\n")
    with pytest.raises(ValidationError):
        parse_ideal_text("n = 2\nI = x1\nJ = x2\n")


def test_parse_json():
    p, warnings = parse_ideal_json('{"n": 3, "I": [[1], [2]], "J": [[1, 2]]}')
    assert p == pair(3, [[1], [2]], [[1, 2]])
    assert warnings == []


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_ideal_json("{bad")
    with pytest.raises(ParseError, match="must be an object"):
        parse_ideal_json("[1, 2]")
    with pytest.raises(ParseError, match="missing JSON field 'J'"):
        parse_ideal_json('{"n": 2, "I": [[1]]}')
    with pytest.raises(ParseError, match="'n' must be an integer"):
        parse_ideal_json('{"n": "2", "I": [[1]], "J": []}')
    with pytest.raises(ParseError, match="'I' must be a list of index lists"):
        parse_ideal_json('{"n": 2, "I": [1], "J": []}')
    with pytest.raises(ParseError, match="'n' must be an integer"):
        parse_ideal_json('{"n": true, "I": [[true]], "J": []}')
    with pytest.raises(ParseError, match="'I' must be a list of index lists"):
        parse_ideal_json('{"n": 3, "I": [[1, true]], "J": []}')


def test_parse_sniffs_json():
    p, _ = parse_ideal('  {"n": 1, "I": [[1]], "J": []}')
    assert p == pair(1, [[1]])
    p, _ = parse_ideal("n = 1\nI = x1\nJ = 0\n")
    assert p == pair(1, [[1]])


def test_corpus_loads_clean():
    files = sorted(CORPUS.glob("*.ideal"))
    assert len(files) == 22
    for path in files:
        p, warnings = load_ideal(path)
        assert warnings == [], path.name
        assert p.n >= 1


def test_round_trips_over_corpus():
    for path in sorted(CORPUS.glob("*.ideal")):
        p, _ = load_ideal(path)
        again, warnings = parse_ideal_text(pair_to_text(p))
        assert again == p and warnings == []
        via_json, warnings = parse_ideal(json.dumps(pair_to_dict(p)))
        assert via_json == p and warnings == []


def test_partition_serialization():
    res = sdepth_exact(M3)
    doc = partition_to_dict(res.certificate)
    assert doc == {
        "sdepth": 2,
        "intervals": [
            {"lo": [1], "hi": [1, 2]},
            {"lo": [2], "hi": [2, 3]},
            {"lo": [3], "hi": [1, 3]},
            {"lo": [1, 2, 3], "hi": [1, 2, 3]},
        ],
    }


# ---------------------------------------------------------------------------
# report documents


def test_schema_loads():
    schema = load_schema()
    assert schema["title"] == "sqdepth report"
    jsonschema.Draft7Validator.check_schema(schema)


def validate(doc):
    jsonschema.validate(instance=doc, schema=load_schema())


def test_sdepth_report_value_form():
    doc = build_sdepth_report(M3)
    assert doc["schema"] == SCHEMA_NAME
    assert doc["kind"] == "sdepth"
    assert doc["sdepth"]["value"] == 2
    assert doc["meta"]["elapsed_ms"] is None
    validate(doc)


def test_sdepth_report_target_form():
    doc = build_sdepth_report(M3, target=3)
    assert doc["sdepth"] == {"target": 3, "satisfiable": False, "certificate": None}
    validate(doc)
    doc = build_sdepth_report(M3, target=2)
    assert doc["sdepth"]["satisfiable"] is True
    assert doc["sdepth"]["certificate"]["sdepth"] == 2
    validate(doc)


def test_sdepth_report_budget_error_form():
    doc = build_sdepth_report(pair(4, [[1], [2], [3], [4]]), budget=1)
    assert "error" in doc["sdepth"]
    assert doc["sdepth"]["lower_bound"] == 1
    assert doc["sdepth"]["upper_bound"] == 2
    validate(doc)


def test_depth_report():
    doc = build_depth_report(M3, chars=(0, 2))
    assert sorted(doc["depth"]) == ["0", "2"]
    assert doc["depth"]["0"] == {
        "depth": 1,
        "proj_dim": 2,
        "witness": {"sigma": [1, 2, 3], "index": 2},
    }
    validate(doc)


def test_criteria_report():
    doc = build_criteria_report(M3)
    assert doc["criteria"]["bound"] == 2
    assert doc["poset"] == {"rho": [0, 3, 3, 1], "r": 3, "s": 3, "q": 1}
    assert len(doc["criteria"]["verdicts"]) == 5
    validate(doc)


def test_analysis_report():
    doc = build_analysis_report(M3)
    assert doc["kind"] == "analysis"
    assert doc["sdepth"]["value"] == 2
    assert doc["depth"]["0"]["depth"] == 1
    assert doc["criteria"]["bound"] == 2
    assert doc["lcm_configuration"]["label"] == "k3-all-B-distinct"
    assert doc["theorems"]["floor"] == {"status": "skip", "reason": "sdepth above the floor"}
    assert doc["theorems"]["step"] == {"status": "pass", "shape": "few"}
    validate(doc)


def test_analysis_report_not_applicable_configuration():
    doc = build_analysis_report(pair(1, [[1]]))
    assert "error" in doc["lcm_configuration"]
    validate(doc)


def test_hunt_report_wrapper():
    from sqdepth.lab import InstanceFamily, hunt_counterexamples

    doc = wrap_hunt_report(hunt_counterexamples(InstanceFamily(2, 1, 2), "floor"))
    assert doc["schema"] == SCHEMA_NAME
    assert doc["kind"] == "hunt"
    assert doc["version"] == sqdepth.__version__
    validate(doc)


def test_reports_are_deterministic():
    a = json.dumps(build_analysis_report(M3), sort_keys=True)
    b = json.dumps(build_analysis_report(M3), sort_keys=True)
    assert a == b


@pytest.mark.parametrize(
    "path, paranoid",
    [
        pytest.param(path, paranoid, id=path.stem + "-paranoid" * paranoid)
        for paranoid in (False, True)
        for path in sorted(CORPUS.glob("*.ideal"))
    ],
)
def test_analysis_report_matches_golden(path, paranoid):
    """The analysis report of each corpus file is byte-identical to its
    recorded golden file, also with the paranoid concentration check on (all
    corpus files have n <= 6). Regenerate them all from the repo root with

    PYTHONPATH=src python3 -c "import json, pathlib, sqdepth; from sqdepth.ideal_io import load_ideal; from sqdepth.report import build_analysis_report; [pathlib.Path('tests/golden/analyze', f.stem + '.json').write_text(json.dumps(build_analysis_report(load_ideal(f)[0]), sort_keys=True, indent=2) + '\\n') for f in (pathlib.Path(sqdepth.__file__).parent / 'corpus').glob('*.ideal')]"
    """
    golden = Path(__file__).parent / "golden" / "analyze" / f"{path.stem}.json"
    report = build_analysis_report(load_ideal(path)[0], paranoid=paranoid)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == golden.read_text()


HUNT_GOLDENS = {
    "verify_floor_n4_k2_exhaustive": ["verify", "floor", "--n", "4", "--k", "2", "--exhaustive"],
    "hunt_n5_k2_exhaustive_symmetry": ["hunt", "--n", "5", "--k", "2", "--exhaustive", "--symmetry"],
}


@pytest.mark.parametrize("name", sorted(HUNT_GOLDENS))
def test_family_report_matches_golden(name):
    """A family run's --json report is byte-identical to its recorded golden
    file. Regenerate one from the repo root with

    PYTHONPATH=src python3 -c "import sys; from sqdepth.cli import main; sys.exit(main(sys.argv[1:]))" <argv> --json > tests/golden/hunt/<name>.json
    """
    code, out, _ = run_cli(HUNT_GOLDENS[name] + ["--json"])
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "hunt" / f"{name}.json").read_text()


TEXT_GOLDENS = Path(__file__).parent / "golden" / "text"
SINGLE_REPORTS = {
    "sdepth": build_sdepth_report,
    "depth": build_depth_report,
    "criteria": build_criteria_report,
}


@pytest.mark.parametrize(
    "kind, stem",
    [("analyze", path.stem) for path in sorted(CORPUS.glob("*.ideal"))]
    + [(kind, "max-ideal-3") for kind in sorted(SINGLE_REPORTS)],
    ids=lambda v: v,
)
def test_render_text_matches_golden(kind, stem):
    """The text of each analysis golden report, and of the sdepth, depth and
    criteria reports of max-ideal-3, is byte-identical to its recorded file
    under tests/golden/text/<kind>/<stem>.txt. Regenerate them all from the
    repo root, after the analysis goldens, with

    PYTHONPATH=src python3 -c "import json, pathlib, sqdepth; from sqdepth.ideal_io import load_ideal; from sqdepth.report import build_criteria_report, build_depth_report, build_sdepth_report, render_text; t = pathlib.Path('tests/golden/text'); [(t / 'analyze' / (f.stem + '.txt')).write_text(render_text(json.loads(f.read_text()))) for f in pathlib.Path('tests/golden/analyze').glob('*.json')]; m3 = load_ideal(pathlib.Path(sqdepth.__file__).parent / 'corpus' / 'max-ideal-3.ideal')[0]; [(t / k / 'max-ideal-3.txt').write_text(render_text(b(m3))) for k, b in (('sdepth', build_sdepth_report), ('depth', build_depth_report), ('criteria', build_criteria_report))]"
    """
    if kind == "analyze":
        golden = Path(__file__).parent / "golden" / "analyze" / f"{stem}.json"
        report = json.loads(golden.read_text())
    else:
        report = SINGLE_REPORTS[kind](load_ideal(CORPUS / f"{stem}.ideal")[0])
    assert render_text(report) == (TEXT_GOLDENS / kind / f"{stem}.txt").read_text()


def test_render_text_is_pure():
    doc = build_sdepth_report(M3)
    assert render_text(doc) == render_text(doc)
    text = render_text(doc)
    assert "sdepth     2  (4 nodes)" in text
    assert "[x1, x1*x2]" in text
    assert render_text(doc, certificate=False).count("[x1, x1*x2]") == 0


def test_render_depth_witness_toggle():
    doc = build_depth_report(M3, chars=(0,))
    with_w = render_text(doc)
    assert "depth      char 0: 1  (H_2 at sigma = x1*x2*x3)" in with_w
    without = render_text(doc, witness=False)
    assert "H_2" not in without


def test_render_analysis_sections():
    text = render_text(build_analysis_report(M3))
    assert "poset      rho = [0, 3, 3, 1]  (r = 3, s = 3, q = 1)" in text
    assert "criteria   upper bound: 2" in text
    assert "lcm class  k3-all-B-distinct  (s = 3, q = 1)" in text
    assert "theorem    floor: skip  (sdepth above the floor)" in text
    assert "theorem    step: pass" in text


# ---------------------------------------------------------------------------
# command line


def test_cli_sdepth_text():
    code, out, err = run_cli(["sdepth", M3_FILE])
    assert code == 0
    assert "sdepth     2  (4 nodes)" in out
    assert err == ""


def test_cli_sdepth_json_valid():
    code, out, _ = run_cli(["sdepth", M3_FILE, "--json"])
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["sdepth"]["value"] == 2


def test_cli_sdepth_target():
    code, out, _ = run_cli(["sdepth", M3_FILE, "--target", "3"])
    assert code == 0
    assert "target 3: not achievable" in out
    code, _, err = run_cli(["sdepth", M3_FILE, "--target", "0"])
    assert code == 2
    assert "error: target 0 outside 1..3" in err


def test_cli_global_flags_in_both_positions():
    before = run_cli(["--json", "sdepth", M3_FILE])
    after = run_cli(["sdepth", M3_FILE, "--json"])
    assert before == after
    assert before[0] == 0


def test_cli_depth_char_selection():
    code, out, _ = run_cli(["depth", M3_FILE, "--chars", "2"])
    assert code == 0
    assert out.count("depth      char") == 1
    assert "char 2: 1" in out

    code, out, _ = run_cli(["depth", M3_FILE, "--chars", "0,5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["depth"]) == ["0", "5"]
    validate(doc)


def test_cli_chars_drop_duplicates(monkeypatch):
    code, out, _ = run_cli(["depth", M3_FILE, "--chars", "0,0", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["chars"] == [0]
    assert sorted(doc["depth"]) == ["0"]
    monkeypatch.setenv("SQDEPTH_CHARS", "3,0,3")
    code, out, _ = run_cli(["depth", M3_FILE, "--json"])
    assert code == 0
    assert json.loads(out)["meta"]["chars"] == [3, 0]


def test_cli_depth_rejects_composite_characteristic():
    code, _, err = run_cli(["depth", M3_FILE, "--chars", "0,4"])
    assert code == 2
    assert "characteristic must be 0 or prime" in err


def test_cli_chars_env(monkeypatch):
    monkeypatch.setenv("SQDEPTH_CHARS", "0,5")
    code, out, _ = run_cli(["depth", M3_FILE, "--json"])
    assert code == 0
    assert sorted(json.loads(out)["depth"]) == ["0", "5"]
    monkeypatch.setenv("SQDEPTH_CHARS", "6")
    code, _, err = run_cli(["depth", M3_FILE])
    assert code == 2


def test_cli_budget_exhaustion_exit(tmp_path):
    f = tmp_path / "m4.ideal"
    f.write_text("n = 4\nI = x1, x2, x3, x4\nJ = 0\n")
    code, out, _ = run_cli(["sdepth", str(f), "--budget", "1"])
    assert code == 3
    assert "node budget exhausted" in out
    assert "bounds: [1, 2]" in out
    code, out, _ = run_cli(["sdepth", str(f), "--budget", "1", "--json"])
    assert code == 3
    validate(json.loads(out))
    code, _, _ = run_cli(["analyze", str(f), "--budget", "1"])
    assert code == 3


def test_cli_family_checks_honour_budget():
    code, out, err = run_cli(["verify", "floor", "--n", "4", "--k", "4", "--budget", "1"])
    assert code == 3
    assert out == ""
    assert "node budget exhausted" in err
    code, _, _ = run_cli(["hunt", "--n", "4", "--k", "4", "--budget", "1"])
    assert code == 3
    code, out, _ = run_cli(["verify", "floor", "--n", "4", "--k", "4"])
    assert code == 0
    assert "fail = 0" in out


def test_cli_analyze():
    code, out, _ = run_cli(["analyze", M3_FILE])
    assert code == 0
    assert "theorem    floor: skip" in out
    assert "theorem    step: pass" in out
    code, out, _ = run_cli(["analyze", M3_FILE, "--json"])
    assert code == 0
    validate(json.loads(out))


def test_cli_criteria():
    code, out, _ = run_cli(["criteria", M3_FILE])
    assert code == 0
    assert "criteria   upper bound: 2" in out
    code, out, _ = run_cli(["criteria", M3_FILE, "--json"])
    validate(json.loads(out))


def test_cli_verify():
    code, out, _ = run_cli(["verify", "floor", "--n", "2", "--k", "2", "--exhaustive"])
    assert code == 0
    assert "counts     pass = 2, fail = 0, skip = 0" in out
    code, _, err = run_cli(["verify", "floor", "--n", "3", "--d", "0"])
    assert code == 2
    assert "degree d=0 impossible" in err


def test_cli_symmetry_needs_exhaustive_family():
    for argv in (["--k", "2", "--samples", "20"], []):
        code, out, err = run_cli(["hunt", "--n", "5", "--symmetry", "--json", *argv])
        assert code == 2
        assert out == ""
        assert "--exhaustive" in err


def test_cli_hunt_json_valid():
    code, out, _ = run_cli(
        ["hunt", "--check", "floor", "--n", "3", "--k", "2", "--samples", "4", "--seed", "3", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["seed"] == 3
    assert sum(doc["counts"].values()) == 4


def test_cli_timing_flag():
    code, out, _ = run_cli(["sdepth", M3_FILE, "--timing", "--json"])
    assert code == 0
    assert isinstance(json.loads(out)["meta"]["elapsed_ms"], int)


def test_cli_input_errors():
    assert run_cli(["sdepth", "/nonexistent/file.ideal"])[0] == 2


def test_cli_warns_on_redundant_input(tmp_path):
    f = tmp_path / "red.ideal"
    f.write_text("n = 3\nI = x1, x1*x2\nJ = 0\n")
    code, _, err = run_cli(["sdepth", str(f)])
    assert code == 0
    assert "warning: I generators were not minimal" in err


def test_cli_malformed_file(tmp_path):
    f = tmp_path / "bad.ideal"
    for text, message in [
        ("n = 2\nI = x1*y\nJ = 0\n", "bad factor"),
        ("n = 2\nJ = 0\nJ = x1\nI = 1\n", "line 3: field 'J' given twice"),
    ]:
        f.write_text(text)
        code, out, err = run_cli(["sdepth", str(f)])
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize("command", ["analyze", "depth"])
def test_cli_paranoid_refuses_large_rings(tmp_path, command):
    f = tmp_path / "seven.ideal"
    f.write_text("n = 7\nI = x1\nJ = 0\n")
    code, out, err = run_cli([command, str(f), "--paranoid"])
    assert (code, out) == (2, "")
    assert err == "error: paranoid concentration check is limited to n <= 6\n"


@pytest.mark.parametrize("command", ["analyze", "depth"])
def test_cli_paranoid_raises_on_homology_off_the_scan(monkeypatch, command):
    # m_3 has homology at x1x2 (H_1); a scan that skips it must stop both
    # commands alike, not turn into a report that exits 0.
    monkeypatch.setattr(koszul, "_scan_masks", lambda p: [(1 << p.n) - 1])
    with pytest.raises(koszul.StrandInvariantError, match="off the lcm lattices"):
        run_cli([command, M3_FILE, "--paranoid"])


def test_cli_symmetry_refuses_nine_variables(monkeypatch):
    def no_table(*args):
        raise AssertionError(f"a permutation table was built: permute_mask{args}")

    monkeypatch.setattr(lab, "permute_mask", no_table)
    code, out, err = run_cli(["verify", "step", "--n", "9", "--exhaustive", "--symmetry"])
    assert (code, out) == (2, "")
    assert err == "error: symmetry reduction is limited to n <= 8, got n = 9\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["criteria", M3_FILE, "--budget", "5"],
        ["sdepth", M3_FILE, "--chars", "4"],
        ["depth", M3_FILE, "--seed", "1"],
        ["--budget", "5", "analyze", M3_FILE],
    ],
    ids=["criteria-budget", "sdepth-chars", "depth-seed", "budget-before-command"],
)
def test_cli_rejects_flags_the_command_does_not_read(argv):
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "step", "--n", "5", "--samples", "-3"], id="-3"),
        pytest.param(["verify", "step", "--n", "5", "--samples", "0"], id="0"),
        pytest.param(["sdepth", M3_FILE, "--budget", "0"], id="sdepth-budget-0"),
        pytest.param(["sdepth", M3_FILE, "--budget", "-5"], id="sdepth-budget--5"),
        pytest.param(["verify", "step", "--n", "3", "--k", "2", "--budget", "0"], id="verify-budget-0"),
    ],
)
def test_cli_samples_must_be_positive(argv):
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        run_cli(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_cli(["sdepth"])
    assert info.value.code == 2


def test_cli_subprocess_determinism():
    cmd = [
        sys.executable, "-m", "sqdepth.cli",
        "hunt", "--check", "floor", "--n", "3", "--k", "2",
        "--samples", "3", "--seed", "11", "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["elapsed_ms"] is None


def test_cli_subprocess_env_chars():
    # A minimal environment, so nothing from the caller reaches the child;
    # PYTHONPATH points at the directory holding the sqdepth imported here,
    # so the child runs the same copy, installed or not.
    package_root = str(Path(sqdepth.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "sqdepth.cli", "depth", M3_FILE, "--json"],
        capture_output=True,
        text=True,
        env={"SQDEPTH_CHARS": "2", "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(proc.stdout)["depth"]) == ["2"]
