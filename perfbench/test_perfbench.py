"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import run

assert run.prepare(), "hologate sources not found"

import workloads  # noqa: E402  (needs the import path set by run.prepare)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def call_and_outcome(call):
    return call.inspect(call.invoke())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload, tmp_path):
    assert workloads.entries(workload, 7) == workloads.entries(workload, 7)
    assert workloads.entries(workload, 7) != workloads.entries(workload, 8)
    workloads.build_calls(workload, 7, tmp_path / "a")
    workloads.build_calls(workload, 7, tmp_path / "b")
    first = sorted((tmp_path / "a" / "configs").iterdir())
    second = sorted((tmp_path / "b" / "configs").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    assert all(p.read_bytes() == q.read_bytes() for p, q in zip(first, second))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_values_not_work(workload):
    sizes = [[(e["op"], e["evals"]) for e in workloads.entries(workload, seed)] for seed in (1, 2, 3)]
    assert sizes[0] == sizes[1] == sizes[2]


def test_sweep_and_gate_checks_fail_on_perturbed_output(tmp_path):
    calls = workloads.build_calls("sweep", 3, tmp_path)
    # entries alternate sweep and gate; gate pair 0 is square then sine_squared
    sweep, square, _, sine = calls[:4]
    assert square.entry["config"]["envelope"] == "square"
    assert sine.entry["config"]["envelope"] == "sine_squared"
    outcomes = [call_and_outcome(c) for c in (sweep, square, sine)]
    assert [o.error for o in outcomes] == [None, None, None]

    order = sweep.entry["order"]
    low = dict(outcomes[0].outputs, slope=order - 0.2)
    assert workloads.check_sweep(low, order) is not None
    assert workloads.check_sweep(dict(low, slope=math.nan), order) is not None

    matrix = workloads.payload_matrix(outcomes[1].outputs["matrix"])
    bent = matrix.copy()
    bent[0, 0] *= 1.0 + 1e-6
    assert workloads.check_gate(bent, None) is not None
    shifted = matrix @ np.diag(np.exp(1j * 1e-6 * np.arange(len(matrix))))
    assert workloads.check_gate(shifted, None) is None
    assert workloads.check_gate(shifted, matrix) is not None


def test_dfs_check_fails_on_perturbed_output(tmp_path):
    entry = {"op": "dfs", "evals": 400,
             "config": {"kappa": 0.6, "distribution": "gaussian", "n_samples": 200, "seed": 5}}
    path = tmp_path / "dfs.json"
    path.write_text(json.dumps(entry["config"]))
    outcome = call_and_outcome(workloads.CliCall(entry, path, tmp_path / "out", {}))
    assert outcome.error is None
    good = outcome.outputs
    assert workloads.check_dfs(dict(good, encoded_min_fidelity=0.999)) is not None
    off = good["unencoded_closed_form"] + 6 * good["unencoded_std_error"]
    assert workloads.check_dfs(dict(good, unencoded_mean_fidelity=off)) is not None


def test_certify_checks_fail_on_perturbed_output(tmp_path):
    entries = workloads.entries("certify", 4)
    for entry in entries:
        if "samples_per_segment" in entry["config"]:
            entry["config"]["samples_per_segment"] = 8
    full, truncated = entries[0], entries[1]
    for i, entry in enumerate((full, truncated)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(entry["config"]))
        outcome = call_and_outcome(workloads.CliCall(entry, path, tmp_path / f"out{i}", {}))
        assert outcome.error is None
        assert outcome.outputs["passed"] is entry["expect"]
        assert workloads.check_verdict(not entry["expect"], entry["expect"]) is not None

    register = next(e for e in entries if e["op"] == "register")
    report = workloads.RegisterCall(register).invoke()
    assert report.passed
    assert workloads.check_verdict(False, True) is not None

    six = workloads.SixIonGateCall(entries[-1])
    gate = six.invoke()
    assert six.inspect(gate).error is None
    bent = gate.copy()
    bent[six.indices[0], six.indices[1]] += 1e-6
    assert six.inspect(bent).error is not None


def test_output_bytes_compared_against_reference(tmp_path):
    calls = workloads.build_calls("sweep", 3, tmp_path)[:1]
    first = run.run_loop(calls, cycles=1)
    assert not first.failures
    same = run.run_loop(calls, cycles=1, expected=first.fingerprints)
    assert not same.failures
    other = run.run_loop(calls, cycles=1, expected={0: b"epsilon,infidelity\n"})
    assert len(other.failures) == 1


def printed_result(argv, capsys) -> dict:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_printed_metrics_match_benchmark_json(tmp_path, monkeypatch, capsys):
    spec = json.loads(BENCHMARK_JSON.read_text())
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    args = ["--workload", "sweep", "--seed", "1", "--seconds", "0.1"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = printed_result(args + ["--trace", str(trace)], capsys)["metrics"]
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "dfs", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
