import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hologate import cli, dfs, scaling

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        ("dfs_protection_demo.py", ["--kappas", "inf"]),
        ("dfs_protection_demo.py", ["--n-samples", "0"]),
        ("scaling_study.py", ["--points", "0"]),
        ("scaling_study.py", ["--points", "-3"]),
        ("scaling_study.py", ["--points", "1"]),
        # over the CLI's size limit; without it numpy would refuse these at once
        ("dfs_protection_demo.py", ["--n-samples", str(10**15)]),
        ("scaling_study.py", ["--points", str(10**15)]),
        *(
            (name, [option, value])
            for name in ("dfs_protection_demo.py", "scaling_study.py")
            for option in ("--theta", "--phi")
            for value in ("nan", "inf")
        ),
    ],
    ids=[
        "seed", "kappa_negative", "kappa_nan", "kappa_inf", "n_samples", "points_zero", "points_negative",
        "points_one", "n_samples_oversized", "points_oversized",
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
    if args[1] in ("nan", "inf"):
        # rejected at parse time, as get_number rejects the config key
        assert errors[0].startswith(f"{name}: error: argument {args[0]}: must be finite")
    if args[1] == str(10**15):
        assert errors[0].startswith(f"{name}: error: {args[0]!r} asks for about")
        assert errors[0].endswith("MB limit")
    elif args[0] == "--points":
        # a power law needs two points: rejected at parse time, naming the option
        assert errors[0].startswith(f"{name}: error: argument --points: a sweep grid needs at least 2 points")
    assert not out.exists()


def test_script_size_limits_are_the_cli_estimates(monkeypatch):
    checked = []
    monkeypatch.setattr(cli, "check_run_size", lambda key, n_bytes: checked.append((key, n_bytes)))
    monkeypatch.setattr(dfs, "protection_run", lambda *args: pytest.fail("ran past the size check"))
    monkeypatch.setattr(scaling, "default_epsilon_grid", lambda points: pytest.fail("ran past the size check"))
    demo, study = load_script("dfs_protection_demo.py"), load_script("scaling_study.py")
    with pytest.raises(pytest.fail.Exception):
        demo.protection_rows(demo.build_parser().parse_args(["--n-samples", "3000"]))
    with pytest.raises(pytest.fail.Exception):
        study.study(study.build_parser().parse_args(["--points", "40"]))
    schedule = dfs.logical_composite_schedule(math.pi / 4, 0.0)
    expected = []
    monkeypatch.setattr(cli, "check_run_size", lambda key, n_bytes: expected.append((key, n_bytes)))
    cli.check_dfs_size("--n-samples", schedule.n_segments, 3000)
    cli.check_sweep_size("--points", 40)
    assert checked == expected


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


@pytest.mark.parametrize(
    "name, args",
    [("scaling_study.py", ["--points", "3"]), ("dfs_protection_demo.py", ["--kappas", "0.1", "--n-samples", "10"])],
    ids=["scaling", "dfs"],
)
def test_script_unwritable_out_exits_two_before_any_output(tmp_path, name, args):
    # --out names an existing file: nothing can be written under it
    blocker = tmp_path / "out"
    blocker.write_text("keep")
    result = run_script(name, *args, "--out", str(blocker), check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"{name}: error: argument --out: cannot write {blocker}")
    assert blocker.read_text() == "keep"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_scaling_study_csvs_are_the_cli_sweeps(tmp_path, capsys):
    # both paths end in one scaling.sweep_samples call, at theta pi/4 and phi 0
    run_script("scaling_study.py", "--points", "4", "--out", str(tmp_path / "study"))
    for kind, mode in load_script("scaling_study.py").CASES:
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"gate_kind": kind, "error_mode": mode, "epsilons": {"points": 4}}))
        out = tmp_path / "cli" / f"{kind}_{mode}"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (tmp_path / "study" / f"{kind}_{mode}.csv").read_text() == (out / "sweep.csv").read_text()


def test_scaling_study_covers_every_error_mode_of_its_gates():
    cases = load_script("scaling_study.py").CASES
    expected = {(kind, mode) for kind, _ in cases for mode in scaling.GATES[kind].error_modes}
    assert len(set(cases)) == len(cases) and set(cases) == expected


@pytest.mark.parametrize(
    "error, code, line",
    [
        (ValueError("bad value"), 2, "scaling_study.py: error: bad value"),
        (np.linalg.LinAlgError("no convergence"), 3, "numerical failure: no convergence"),
    ],
    ids=["value_error", "linalg_error"],
)
def test_run_script_maps_work_exceptions_to_exit_codes(tmp_path, monkeypatch, capsys, error, code, line):
    # LinAlgError is a ValueError, so run_script must catch the numerical failures first
    out = tmp_path / "out"

    def fail(args):
        raise error

    monkeypatch.setattr(sys, "argv", ["scaling_study.py", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        cli.run_script(load_script("scaling_study.py").build_parser(), fail)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [text for text in captured.err.splitlines() if "error:" in text or "failure:" in text] == [line]
    if code == 3:
        assert captured.err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2), (None, 0)])
def test_bench_writes_no_record_of_a_failing_run(tmp_path, monkeypatch, capsys, correct, failed):
    bench = load_script("bench.py")
    result = {"correct": True, "failed": 0}
    runs = {"sweep": result, "dfs": {"correct": correct, "failed": failed}, "certify": result}
    monkeypatch.setattr(bench, "run_workload", lambda workload, seconds: ({"python": "3"}, runs[workload]))
    monkeypatch.setattr(bench, "kernel_timings", lambda: pytest.fail("timed the kernels of a failing run"))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--seconds", "1", "--out", str(out)])
    assert bench.main() == 1
    assert not out.exists()
    assert "dfs: a call failed or an output check did not pass" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["inf", "-inf", "nan", "0", "-1"])
def test_bench_rejects_a_duration_that_is_not_positive_and_finite(capsys, seconds):
    parser = load_script("bench.py").build_parser()
    assert parser.parse_args(["--out", "BENCH.json", "--seconds", "2.5"]).seconds == 2.5
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--out", "BENCH.json", f"--seconds={seconds}"])
    assert exc.value.code == 2
    assert "argument --seconds: must be positive and finite" in capsys.readouterr().err


def test_outputs_writes_every_benchmark_entry_once(tmp_path):
    out = tmp_path / "outputs"
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "outputs.py"), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["certify", "dfs", "scripts", "sweep"]
    # 45 entries per seed: 20 sweep, 12 dfs and 13 certify calls
    entries = list(out.glob("*/seed*/*"))
    assert len(entries) == 135
    assert {p.read_text() for p in out.rglob("exit_code")} == {"0\n"}
    assert len(list(out.rglob("certificate"))) == 6 and len(list(out.rglob("gate.bin"))) == 3
    for path in out.rglob("*.json"):
        assert "timestamp" not in json.loads(path.read_text())
    # both study scripts at their defaults, with no absolute path in what they print
    scripts = out / "scripts"
    assert sorted(p.name for p in scripts.iterdir()) == ["dfs_protection_demo", "scaling_study"]
    assert len(list((scripts / "scaling_study").glob("*.csv"))) == len(load_script("scaling_study.py").CASES)
    assert (scripts / "dfs_protection_demo" / "dfs_protection.csv").is_file()
    for script in scripts.iterdir():
        assert str(ROOT) not in (script / "stdout").read_text() and str(out) not in (script / "stdout").read_text()
    again = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "outputs.py"), "--out", str(out)], capture_output=True, text=True
    )
    assert again.returncode == 2 and "exists already" in again.stderr


def test_outputs_exits_one_when_a_holgate_call_fails(tmp_path, monkeypatch, capsys):
    outputs = load_script("outputs.py")
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in outputs.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: 3 if argv[0] == "dfs" else main(argv))
    monkeypatch.setattr(sys, "argv", ["outputs.py", "--out", str(tmp_path / "out")])
    assert outputs.main() == 1
    assert (tmp_path / "out" / "dfs" / "seed1" / "00_dfs" / "exit_code").read_text() == "3\n"
    assert (tmp_path / "out" / "sweep" / "seed1" / "00_sweep" / "exit_code").read_text() == "0\n"
    assert "a holgate call exited nonzero" in capsys.readouterr().err


def write_output_tree(root, fidelity=0.9999999999999982, passed=True, gate=(1.0, 0.5j)):
    """A small tree in the layout ``outputs.py --out`` writes."""
    entry = root / "dfs" / "seed1" / "00_dfs"
    entry.mkdir(parents=True)
    (entry / "exit_code").write_text("0\n")
    outputs = {"encoded_min_fidelity": fidelity, "n_kicks": 8}
    (entry / "stdout").write_text(json.dumps(outputs) + "\n")
    (entry / "dfs_result.json").write_text(json.dumps({"command": "dfs", "outputs": outputs}) + "\n")
    (entry / "dfs.csv").write_text(f"kappa,encoded_fidelity\n0.5,{fidelity!r}\n")
    certify = root / "certify" / "seed1"
    (certify / "10_register").mkdir(parents=True)
    (certify / "10_register" / "certificate").write_text(repr((3e-16, 4e-16, passed)) + "\n")
    (certify / "12_six_ion_gate").mkdir()
    (certify / "12_six_ion_gate" / "gate.bin").write_bytes(np.array(gate, dtype=complex).tobytes())


@pytest.mark.parametrize(
    "change, code, lines",
    [
        ({}, 0, ["6 files identical, 0 differ"]),
        (
            {"fidelity": 0.9999999999999994, "gate": (1.0, 0.5j + 1e-16)},
            0,
            [
                "2 files identical, 4 differ",
                "certify gate.bin  max relative difference 2e-16, absolute 1e-16",
                "dfs dfs.csv encoded_fidelity  max relative difference 1.22e-15, absolute 1.22e-15",
                "dfs dfs.csv kappa  max relative difference 0, absolute 0",
                "dfs dfs_result.json outputs.encoded_min_fidelity  max relative difference 1.22e-15, absolute 1.22e-15",
                "dfs stdout encoded_min_fidelity  max relative difference 1.22e-15, absolute 1.22e-15",
            ],
        ),
        (
            {"passed": False},
            1,
            [
                "5 files identical, 1 differ",
                "certify certificate  max relative difference 0, absolute 0",
                "DIFFERS certify/seed1/10_register/certificate True != False",
            ],
        ),
    ],
    ids=["identical", "perturbed_float", "flipped_verdict"],
)
def test_outputs_compare_passes_only_float_rounding(tmp_path, monkeypatch, capsys, change, code, lines):
    write_output_tree(tmp_path / "a")
    write_output_tree(tmp_path / "b", **change)
    monkeypatch.setattr(sys, "argv", ["outputs.py", "--compare", str(tmp_path / "a"), str(tmp_path / "b")])
    assert load_script("outputs.py").main() == code
    assert capsys.readouterr().out.splitlines() == lines


def test_outputs_compare_fails_on_a_file_only_one_tree_has(tmp_path, capsys):
    write_output_tree(tmp_path / "a")
    write_output_tree(tmp_path / "b")
    (tmp_path / "b" / "dfs" / "seed1" / "00_dfs" / "dfs.csv").unlink()
    (tmp_path / "b" / "dfs" / "seed1" / "00_dfs" / "extra").write_text("")
    outputs = load_script("outputs.py")
    assert outputs.compare(tmp_path / "a", tmp_path / "b") == 1
    assert capsys.readouterr().out.splitlines() == [
        "5 files identical, 0 differ",
        f"DIFFERS dfs/seed1/00_dfs/dfs.csv: only in {tmp_path / 'a'}",
        f"DIFFERS dfs/seed1/00_dfs/extra: only in {tmp_path / 'b'}",
    ]
