"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import workloads

sys.path.insert(0, str(workloads.SRC))

RUN = workloads.HERE / "run.py"
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd=workloads.ROOT, run=RUN):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} = {got['value']} {m['unit']}" in done.stdout
    machine = json.loads(lines[0].removeprefix("machine: "))
    assert {"python", "nproc", "cpu", "process"} <= set(machine)


def _first_output(name: str, seed: int = 0):
    workload = workloads.WORKLOADS[name]
    ops = workload.make_ops(seed, 1)[:1]
    outputs, _, _ = workloads.timed_pass(workload, ops)
    assert workloads.count_failures(workload, seed, ops, outputs)[0] == 0
    return workload, ops, outputs[0]


def _failures(workload, ops, pair, out, seed: int = 0) -> int:
    return workloads.count_failures(workload, seed, ops, [(pair, out, None)])[0]


def test_corrupted_certificate_counts_as_failure():
    workload, ops, (pair, res, _) = _first_output("sdepth-hard")
    cert = res.certificate
    dropped = dataclasses.replace(cert, intervals=cert.intervals[1:])
    assert _failures(workload, ops, pair, dataclasses.replace(res, certificate=dropped)) == 1
    raised = dataclasses.replace(cert, sdepth_value=cert.sdepth_value + 1)
    assert _failures(workload, ops, pair, dataclasses.replace(res, certificate=raised)) == 1


def test_wrong_sdepth_value_counts_as_failure():
    workload, ops, (pair, res, _) = _first_output("sdepth-hard")
    assert _failures(workload, ops, pair, dataclasses.replace(res, value=res.value - 1)) == 1


def test_wrong_depth_counts_as_failure():
    workload, ops, (pair, profile, _) = _first_output("depth-hard")
    r = profile[0]
    # depth no longer matches its witness index
    shifted = {**profile, 0: dataclasses.replace(r, depth=r.depth + 1)}
    assert _failures(workload, ops, pair, shifted) == 1
    # depth and witness index moved together: no homology there, or the reference differs
    moved = {**profile, 0: dataclasses.replace(r, depth=r.depth - 1, proj_dim=r.proj_dim + 1,
                                               witness_index=r.witness_index + 1)}
    assert _failures(workload, ops, pair, moved) == 1


def test_corrupted_analysis_report_counts_as_failure():
    workload, ops, (pair, report, _) = _first_output("analyze-stream")
    bad_cert = json.loads(json.dumps(report))
    bad_cert["sdepth"]["certificate"]["intervals"].pop()
    assert _failures(workload, ops, pair, bad_cert) == 1
    bad_depth = json.loads(json.dumps(report))
    bad_depth["depth"]["2"]["depth"] += 1
    assert _failures(workload, ops, pair, bad_depth) == 1
    bad_theorem = json.loads(json.dumps(report))
    bad_theorem["theorems"]["floor"] = {"status": "fail"}
    assert _failures(workload, ops, pair, bad_theorem) == 1
    assert _failures(workload, ops, pair, {"sdepth": {}}) == 1


def test_raised_exception_counts_as_failure():
    workload = workloads.WORKLOADS["depth-hard"]
    ops = [workloads.Op('{"n": 3, "I": [[1, 1]], "J": []}', 0)]
    outputs, _, _ = workloads.timed_pass(workload, ops)
    assert outputs[0][2].startswith("ValidationError")
    assert workloads.count_failures(workload, 1, ops, outputs)[0] == 1


def test_same_seed_gives_same_inputs():
    for workload in workloads.WORKLOADS.values():
        assert workload.make_ops(7, 2) == workload.make_ops(7, 2)
    assert workloads.analyze_ops(7, 2) != workloads.analyze_ops(8, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("sdepth-hard", 0, cwd=tmp_path, run=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
