import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hologate import cli

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, check=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args],
        env=env, check=check, capture_output=True, text=True,
    )


def test_dfs_demo_writes_plain_numbers_with_default_kappas(tmp_path):
    run_script("dfs_protection_demo.py", "--n-samples", "5", "--out", str(tmp_path))
    header, *rows = (tmp_path / "dfs_protection.csv").read_text().splitlines()
    assert header == "kappa,encoded_fidelity,unencoded_fidelity,unencoded_closed_form"
    assert len(rows) == 11
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 4
        for cell in cells:
            float(cell)
    assert rows[1].split(",")[0] == "0.1"


def test_dfs_demo_row_is_the_cli_run_at_seed_plus_two_i(tmp_path, capsys):
    run_script(
        "dfs_protection_demo.py", "--n-samples", "40", "--seed", "3", "--kappas", "0.2", "0.7",
        "--distribution", "gaussian", "--out", str(tmp_path),
    )
    row = (tmp_path / "dfs_protection.csv").read_text().splitlines()[2]
    config = tmp_path / "dfs.json"
    config.write_text(json.dumps({"kappa": 0.7, "distribution": "gaussian", "n_samples": 40, "seed": 5}))
    assert cli.main(["dfs", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    cli_row = (tmp_path / "cli" / "dfs.csv").read_text().splitlines()[1]
    assert row.rsplit(",", 1)[0] == cli_row


@pytest.mark.parametrize(
    "name, args",
    [
        ("dfs_protection_demo.py", ["--seed", "-1"]),
        ("dfs_protection_demo.py", ["--kappas", "-0.1"]),
        ("dfs_protection_demo.py", ["--kappas", "nan"]),
        ("dfs_protection_demo.py", ["--n-samples", "0"]),
        ("scaling_study.py", ["--points", "0"]),
        ("scaling_study.py", ["--points", "-3"]),
        ("scaling_study.py", ["--points", "1"]),
        *(
            (name, [option, value])
            for name in ("dfs_protection_demo.py", "scaling_study.py")
            for option in ("--theta", "--phi")
            for value in ("nan", "inf")
        ),
    ],
    ids=[
        "seed", "kappa_negative", "kappa_nan", "n_samples", "points_zero", "points_negative",
        "points_one",
        *(
            f"{script}_{option}_{value}"
            for script in ("dfs", "scaling")
            for option in ("theta", "phi")
            for value in ("nan", "inf")
        ),
    ],
)
def test_script_bad_argument_exits_two_before_any_output(tmp_path, name, args):
    out = tmp_path / "out"
    result = run_script(name, *args, "--out", str(out), check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"{name}: error: ")
    if args[0] in ("--theta", "--phi"):
        # rejected at parse time, as get_number rejects the config key
        assert errors[0].startswith(f"{name}: error: argument {args[0]}: must be finite")
    if args[0] == "--points":
        # a power law needs two points: rejected at parse time, naming the option
        assert errors[0].startswith(f"{name}: error: argument --points: a sweep grid needs at least 2 points")
    assert not out.exists()


def test_dfs_demo_overflowing_kappa_exits_three_before_any_output(tmp_path):
    out = tmp_path / "out"
    result = run_script(
        "dfs_protection_demo.py", "--kappas", "1e308", "--n-samples", "5", "--out", str(out), check=False
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert not out.exists()


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2), (None, 0)])
def test_bench_writes_no_record_of_a_failing_run(tmp_path, monkeypatch, capsys, correct, failed):
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    result = {"correct": True, "failed": 0}
    runs = {"sweep": result, "dfs": {"correct": correct, "failed": failed}, "certify": result}
    monkeypatch.setattr(bench, "run_workload", lambda workload, seconds: ({"python": "3"}, runs[workload]))
    monkeypatch.setattr(bench, "kernel_timings", lambda: pytest.fail("timed the kernels of a failing run"))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--seconds", "1", "--out", str(out)])
    assert bench.main() == 1
    assert not out.exists()
    assert "dfs: a call failed or an output check did not pass" in capsys.readouterr().err
