import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologate import cli, scaling, two_qubit


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main(args)


SRC = Path(cli.__file__).resolve().parents[1]


def run_process(cwd, args):
    """``python -m hologate.cli`` in a child process, warnings as errors: (exit code, stderr)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hologate.cli", *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stderr


def payload_to_matrix(payload):
    return np.array([[re + 1j * im for re, im in row] for row in payload])


def load_record(out_dir, name):
    return json.loads((out_dir / name).read_text())


def test_gate_elementary_reports_diagonal_frame_matrix(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"gate": "elementary", "theta": math.pi / 2, "phi": 0.0})
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = load_record(tmp_path, "gate_result.json")
    frame_matrix = payload_to_matrix(record["outputs"]["matrix_frame_basis"])
    assert np.max(np.abs(frame_matrix - np.diag([-1j, 1j, 1.0]))) < 1e-10
    assert record["outputs"]["frame_basis"] == ["e", "b", "d"]
    assert record["outputs"]["within_tolerance"] is True
    assert abs(record["outputs"]["fidelity_to_ideal"] - 1.0) < 1e-12

    summary = json.loads(capsys.readouterr().out)
    assert "matrix" not in summary
    assert summary["within_tolerance"] is True


def test_gate_composite4_trivial_angle_is_identity(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"gate": "composite4", "theta": math.pi / 2})
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = load_record(tmp_path, "gate_result.json")
    matrix = payload_to_matrix(record["outputs"]["matrix"])
    assert np.max(np.abs(matrix - np.eye(3))) < 1e-10


def test_gate_twoqubit_composite_diagonal(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"gate": "twoqubit_composite", "jk": "11"})
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = load_record(tmp_path, "gate_result.json")
    matrix = payload_to_matrix(record["outputs"]["matrix"])
    assert np.max(np.abs(matrix - np.diag([1, 1, 1, -1, -1]))) < 1e-10
    assert record["outputs"]["basis"] == ["00", "01", "10", "11", "a"]
    assert "matrix_frame_basis" not in record["outputs"]


def test_gate_with_error_misses_tolerance(tmp_path):
    cfg = write_cfg(
        tmp_path, "c.json",
        {"gate": "elementary", "theta": 0.9, "phi": 0.3, "error": {"eps0": 0.05, "eps1": -0.02}},
    )
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = load_record(tmp_path, "gate_result.json")
    assert record["outputs"]["infidelity"] > 1e-6
    assert record["outputs"]["within_tolerance"] is False
    matrix = payload_to_matrix(record["outputs"]["matrix"])
    assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(3))) < 1e-10


def test_gate_record_echoes_config_untouched(tmp_path):
    payload = {"gate": "composite2", "theta": 0.7, "phi": 0.1, "error": None}
    cfg = write_cfg(tmp_path, "c.json", payload)
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = load_record(tmp_path, "gate_result.json")
    assert record["config"] == payload
    assert record["command"] == "gate"
    assert "timestamp" in record and "version" in record
    # one JSON line
    assert (tmp_path / "gate_result.json").read_text().count("\n") == 1


def test_gate_envelope_choice_does_not_move_the_matrix(tmp_path):
    base = {"gate": "composite4", "theta": 0.8, "phi": 0.4}
    cfg_sq = write_cfg(tmp_path, "sq.json", base)
    cfg_sin = write_cfg(tmp_path, "sin.json", {**base, "envelope": "sine_squared"})
    out_sq, out_sin = tmp_path / "sq", tmp_path / "sin"
    assert run(["gate", "--config", cfg_sq, "--out", str(out_sq)]) == 0
    assert run(["gate", "--config", cfg_sin, "--out", str(out_sin)]) == 0
    m_sq = payload_to_matrix(load_record(out_sq, "gate_result.json")["outputs"]["matrix"])
    m_sin = payload_to_matrix(load_record(out_sin, "gate_result.json")["outputs"]["matrix"])
    assert np.max(np.abs(m_sq - m_sin)) < 1e-9


@pytest.mark.parametrize(
    "payload",
    [
        {"gate": "elementary", "typo_key": 1},
        {"gate": "pentuple"},
        {"gate": "elementary", "error": {"eps0": 0.1}},
        {"gate": "elementary", "error": {"eps_jk": 0.1}},
        {"gate": "twoqubit_composite", "error": {"eps0": 0.1, "eps1": 0.0}},
        {"gate": "elementary", "error": {"eps0": 2.0, "eps1": 0.0}},
        {"gate": "elementary", "theta": "wide"},
        {"gate": "elementary", "steps": 0},
        {"gate": "elementary", "theta": math.nan},
        {"gate": "elementary", "phi": math.inf},
        {"gate": "elementary", "error": {"eps0": math.nan, "eps1": 0.0}},
        {},
    ],
)
def test_gate_config_problems_exit_two(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def assert_removed_flag_exits_two(tmp_path, capsys, args):
    """A flag that is no longer an option stops argparse with exit 2 and writes nothing."""
    out = tmp_path / "flag_out"
    with pytest.raises(SystemExit) as exc:
        run(args + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: holgate") and "unrecognized arguments" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["nan", "inf", "-1", "0"])
def test_gate_meaningless_tolerance_flag_exits_two(tmp_path, capsys, flag):
    # the tolerance is the config key; the flag that used to set it is gone
    cfg = write_cfg(tmp_path, "c.json", {"gate": "elementary", "tolerance": float(flag)})
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "gate_result.json").exists()
    plain = write_cfg(tmp_path, "plain.json", {"gate": "elementary"})
    assert_removed_flag_exits_two(tmp_path, capsys, ["gate", "--config", plain, "--tolerance", flag])


def test_main_calls_do_not_share_parsed_options(tmp_path, capsys):
    error = {"eps0": 0.05, "eps1": 0.0}
    gate = write_cfg(tmp_path, "gate.json", {"gate": "elementary", "error": error})
    loose = write_cfg(tmp_path, "loose.json", {"gate": "elementary", "error": error, "tolerance": 10})
    noise = write_cfg(tmp_path, "dfs.json", {"kappa": 0.5, "n_samples": 20, "seed": 4})
    other = write_cfg(tmp_path, "dfs77.json", {"kappa": 0.5, "n_samples": 20, "seed": 77})

    def out(name):
        return ["--out", str(tmp_path / name)]

    assert run(["dfs", "--config", other] + out("a")) == 0
    assert run(["gate", "--config", gate] + out("b")) == 0
    assert run(["gate", "--config", loose] + out("c")) == 0
    assert run(["dfs", "--config", noise] + out("d")) == 0
    capsys.readouterr()
    assert load_record(tmp_path / "a", "dfs_result.json")["outputs"]["seed"] == 77
    assert load_record(tmp_path / "b", "gate_result.json")["outputs"]["within_tolerance"] is False
    assert load_record(tmp_path / "c", "gate_result.json")["outputs"]["within_tolerance"] is True
    assert load_record(tmp_path / "d", "dfs_result.json")["outputs"]["seed"] == 4


VALID_CONFIGS = {
    "gate": {"gate": "composite4", "theta": 0.7, "error": {"eps0": 0.05, "eps1": -0.02}, "tolerance": 10},
    "sweep": {"gate_kind": "composite2", "error_mode": "differential", "epsilons": {"points": 5}},
    "check-holonomy": {"schedule": "elementary", "samples_per_segment": 32, "tolerance": 1e-6},
    "dfs": {"kappa": 0.5, "n_samples": 50, "seed": 77},
}


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_a_record_config_reproduces_its_run(tmp_path, capsys, command):
    record_name = cli.COMMANDS[command][1]
    first = tmp_path / "first"
    assert run([command, "--config", write_cfg(tmp_path, "c.json", VALID_CONFIGS[command]),
                "--out", str(first)]) == 0
    record = load_record(first, record_name)
    again = tmp_path / "again"
    assert run([command, "--config", write_cfg(tmp_path, "r.json", record["config"]),
                "--out", str(again)]) == 0
    capsys.readouterr()
    rerun = load_record(again, record_name)
    assert rerun["config"] == record["config"] == VALID_CONFIGS[command]
    assert rerun["outputs"] == record["outputs"]
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in again.iterdir())
    for csv in first.glob("*.csv"):
        assert csv.read_bytes() == (again / csv.name).read_bytes()


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--tolerance", "1e-3"]], ids=["seed", "tolerance"])
@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_removed_flags_exit_two_on_every_command(tmp_path, capsys, command, flag):
    cfg = write_cfg(tmp_path, "c.json", VALID_CONFIGS[command])
    assert_removed_flag_exits_two(tmp_path, capsys, [command, "--config", cfg, *flag])


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_help_lists_only_config_and_out(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--config", "--out", "--help"}


def test_unreadable_and_malformed_configs_exit_two(tmp_path, capsys):
    assert run(["gate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["gate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert run(["gate", "--config", str(lst), "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # nesting deeper than the parser's recursion limit is a config error too
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["gate", "--config", str(deep), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "out").exists()


def assert_one_output_error(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error:")


def test_out_naming_a_file_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"gate": "elementary"})
    blocker = tmp_path / "out"
    blocker.write_text("keep")
    assert run(["gate", "--config", cfg, "--out", str(blocker)]) == 2
    assert_one_output_error(capsys)
    assert blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out"]


SWEEP_CFG = {"gate_kind": "composite4", "error_mode": "common", "epsilons": {"points": 4}}


def test_output_blocked_by_a_directory_writes_no_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", SWEEP_CFG)
    out = tmp_path / "out"
    (out / "sweep_result.json").mkdir(parents=True)
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert_one_output_error(capsys)
    assert [p.name for p in out.iterdir()] == ["sweep_result.json"]
    assert not any((out / "sweep_result.json").iterdir())


def test_failed_write_leaves_no_partial_or_temporary_file(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "c.json", SWEEP_CFG)
    out = tmp_path / "out"

    def full_disk(path, *args, **kwargs):
        if "sweep_result" in str(path):
            raise OSError(28, "No space left on device")
        return open(path, *args, **kwargs)

    # the name shadows the builtin inside the module under test only
    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert_one_output_error(capsys)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "error, code, line",
    [
        (ValueError("bad value"), 2, "config error: bad value"),
        (np.linalg.LinAlgError("no convergence"), 3, "numerical failure: no convergence"),
    ],
    ids=["value_error", "linalg_error"],
)
def test_main_maps_library_exceptions_to_exit_codes(tmp_path, capsys, monkeypatch, error, code, line):
    # LinAlgError is a ValueError, so main must catch the numerical failures first
    assert issubclass(np.linalg.LinAlgError, ValueError)
    cfg = write_cfg(tmp_path, "c.json", SWEEP_CFG)
    out = tmp_path / "out"

    def fail(*args):
        raise error

    monkeypatch.setattr(scaling, "sweep_samples", fail)
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_sweep_writes_csv_and_fit(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "c.json",
        {"gate_kind": "composite4", "error_mode": "common", "epsilons": {"points": 8}},
    )
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,infidelity"
    assert len(lines) == 9
    first_eps = float(lines[1].split(",")[0])
    assert abs(first_eps - 1e-3) < 1e-18
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["slope"] - 4.0) < 0.2
    assert summary["r_squared"] > 0.999
    record = load_record(tmp_path, "sweep_result.json")
    assert record["outputs"]["n_samples_total"] == 8


def test_sweep_accepts_explicit_epsilon_list(tmp_path):
    cfg = write_cfg(
        tmp_path, "c.json",
        {"gate_kind": "single", "error_mode": "common", "epsilons": [0.01, 0.02, 0.04]},
    )
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize(
    "payload",
    [
        {"gate_kind": "single", "error_mode": "common", "epsilons": []},
        {"gate_kind": "single", "error_mode": "common", "epsilons": [0.02, 0.01]},
        {"gate_kind": "single", "error_mode": "two_qubit"},
        {"gate_kind": "twoqubit_composite", "error_mode": "common"},
        {"gate_kind": "single", "error_mode": "common", "epsilons": {"points": 1}},
        {"gate_kind": "single", "error_mode": "common", "epsilons": "grid"},
        {"gate_kind": "single", "error_mode": "common", "epsilons": [0.01, math.nan]},
        {"gate_kind": "single", "error_mode": "common", "theta": math.inf},
        {"error_mode": "common"},
        {"gate_kind": "single", "error_mode": "common", "epsilons": [0.5, 1.5]},
        {"gate_kind": "single", "error_mode": "common", "epsilons": [1.0]},
        # one point can never be fitted, listed or asked for
        {"gate_kind": "single", "error_mode": "common", "epsilons": [0.01]},
    ],
)
def test_sweep_config_problems_exit_two(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert not out.exists()


def test_sweep_at_the_noise_floor_exits_three(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "c.json",
        {"gate_kind": "composite4", "error_mode": "common", "epsilons": [1e-9, 2e-9]},
    )
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_sweep_outputs_are_byte_stable(tmp_path):
    cfg = write_cfg(
        tmp_path, "c.json",
        {"gate_kind": "composite2", "error_mode": "differential", "epsilons": {"points": 5}},
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_check_holonomy_elementary_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": "elementary", "theta": 1.0, "phi": 0.2})
    assert run(["check-holonomy", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True
    assert summary["cond1_residual"] < 1e-10
    assert summary["cond2_max"] < 1e-10
    assert abs(summary["midpoint_displacement"] - math.sqrt(2)) < 1e-10
    assert summary["n_segments"] == 2


def test_check_holonomy_twoqubit_composite_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": "twoqubit_composite", "jk": "01"})
    assert run(["check-holonomy", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True
    assert summary["n_segments"] == 4
    assert "midpoint_displacement" not in summary


def test_check_holonomy_truncated_schedule_fails_but_exits_zero(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "c.json", {"schedule": "elementary", "truncate_segments": 1}
    )
    assert run(["check-holonomy", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is False
    assert summary["cond1_residual"] > 0.1


def test_check_holonomy_absurd_tolerance_reports_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": "composite4", "tolerance": 1e-30})
    assert run(["check-holonomy", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is False
    assert summary["tolerance"] == 1e-30


@pytest.mark.parametrize(
    "payload",
    [
        {"schedule": "warp"},
        {"schedule": "elementary", "truncate_segments": 3},
        {"schedule": "elementary", "truncate_segments": 0},
        {"schedule": "elementary", "samples_per_segment": 0},
        {"schedule": "elementary", "theta": math.nan},
        {"schedule": "composite4", "phi": math.inf},
        {"schedule": "elementary", "tolerance": -1},
        {"schedule": "elementary", "tolerance": math.nan},
        {"schedule": "elementary", "tolerance": 0.0},
        {},
    ],
)
def test_check_holonomy_config_problems_exit_two(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    assert run(["check-holonomy", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "holonomy_result.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["-1", "nan", "inf", "0"])
def test_check_holonomy_meaningless_tolerance_flag_exits_two(tmp_path, capsys, flag):
    # the tolerance is the config key; the flag that used to set it is gone
    cfg = write_cfg(tmp_path, "c.json", {"schedule": "elementary", "tolerance": float(flag)})
    assert run(["check-holonomy", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "holonomy_result.json").exists()
    plain = write_cfg(tmp_path, "plain.json", {"schedule": "elementary"})
    assert_removed_flag_exits_two(
        tmp_path, capsys, ["check-holonomy", "--config", plain, "--tolerance", flag]
    )


def parse_dfs_csv(out_dir):
    lines = (out_dir / "dfs.csv").read_text().splitlines()
    assert lines[0] == "kappa,encoded_fidelity,unencoded_fidelity"
    kappa, enc, unenc = (float(x) for x in lines[1].split(","))
    return kappa, enc, unenc


def test_dfs_zero_noise_gives_unit_fidelities(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"kappa": 0.0, "n_samples": 50, "seed": 3})
    assert run(["dfs", "--config", cfg, "--out", str(tmp_path)]) == 0
    kappa, enc, unenc = parse_dfs_csv(tmp_path)
    assert kappa == 0.0
    assert abs(enc - 1.0) < 1e-12
    assert abs(unenc - 1.0) < 1e-12


def test_dfs_protection_contrast(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"kappa": 0.5, "n_samples": 400, "seed": 9})
    assert run(["dfs", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, enc, unenc = parse_dfs_csv(tmp_path)
    assert abs(enc - 1.0) < 1e-12
    assert unenc < 0.95
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["encoded_min_fidelity"] - 1.0) < 1e-12
    assert summary["n_kicks"] == 8
    gap = abs(summary["unencoded_mean_fidelity"] - summary["unencoded_closed_form"])
    assert gap < 4 * summary["unencoded_std_error"]


def test_dfs_outputs_are_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"kappa": 0.5, "n_samples": 100, "seed": 4})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["dfs", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["dfs", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "dfs.csv").read_bytes() == (out2 / "dfs.csv").read_bytes()


def test_dfs_seed_chooses_the_random_stream(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"kappa": 0.5, "n_samples": 100, "seed": 4})
    other = write_cfg(tmp_path, "c77.json", {"kappa": 0.5, "n_samples": 100, "seed": 77})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["dfs", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["dfs", "--config", other, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "dfs.csv").read_bytes() != (out2 / "dfs.csv").read_bytes()
    record = load_record(out2, "dfs_result.json")
    assert record["outputs"]["seed"] == record["config"]["seed"] == 77


def test_dfs_config_problems_exit_two(tmp_path, capsys):
    for payload in (
        {"kappa": -0.5},
        {"distribution": "levy"},
        {"n_samples": 0},
        {"coupling_prefactor": 1.0},
        {"unknown": 1},
        {"kappa": math.nan},
        {"kappa": math.inf},
        {"seed": -1},
        {"seed": 1.5},
        {"theta": math.nan},
        {"phi": math.inf},
        {"coupling_prefactor": math.inf},
    ):
        cfg = write_cfg(tmp_path, "c.json", payload)
        assert run(["dfs", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "dfs.csv").exists()
    capsys.readouterr()
    cfg = write_cfg(tmp_path, "c.json", {"seed": -1})
    assert run(["dfs", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: seed must be nonnegative\n"


@pytest.mark.parametrize(
    "payload",
    [{"kappa": 1e308}, {"kappa": 1e308, "distribution": "gaussian"}, {"kappa": 5e307}],
)
def test_dfs_non_finite_numerics_exit_three(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, "c.json", dict(payload, n_samples=50))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["dfs", "--config", cfg, "--out", str(out)]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert "kappa" in lines[0]
    assert not out.exists()


# 401 digits: json writes it as an integer, and no float holds it
HUGE = 10**400 + 1


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("gate", {"gate": "elementary", "theta": HUGE}, "theta"),
        ("dfs", {"kappa": HUGE}, "kappa"),
        ("sweep", {"gate_kind": "elementary", "error_mode": "common", "epsilons": [0.01, -HUGE]}, "epsilons"),
        ("gate", {"gate": "elementary", "error": {"eps0": 0.01, "eps1": HUGE}}, "eps1"),
    ],
    ids=["top_level", "dfs_top_level", "epsilons_entry", "error_field"],
)
def test_integer_too_large_for_a_float_exits_two(tmp_path, capsys, command, payload, key):
    out = tmp_path / "out"
    assert run([command, "--config", write_cfg(tmp_path, "c.json", payload), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: config key {key!r} must be a finite float")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("dfs", {"n_samples": 10**10}),
        ("sweep", {"gate_kind": "twoqubit_composite", "error_mode": "two_qubit", "epsilons": {"points": 10**10}}),
        ("gate", {"gate": "composite4", "envelope": "sine_squared", "steps": 10**10}),
        ("gate", {"gate": "twoqubit_elementary", "steps": 10**10}),
        ("sweep", {"gate_kind": "elementary", "error_mode": "common", "epsilons": {"points": 10**10}}),
        # sizes whose byte estimate no float holds
        ("dfs", {"n_samples": 10**400}),
        ("gate", {"gate": "composite4", "steps": 10**400}),
        ("sweep", {"gate_kind": "single", "error_mode": "common", "epsilons": {"points": 10**400}}),
    ],
)
def test_oversized_runs_exit_two_before_allocating(tmp_path, capsys, command, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run([command, "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    assert "MB limit" in capsys.readouterr().err
    assert not out.exists()


def test_check_holonomy_samples_per_segment_allocates_nothing(tmp_path, capsys):
    # the certificate is exact: the sample count is checked but sizes no array
    cfg = write_cfg(tmp_path, "c.json", {"schedule": "twoqubit_composite", "samples_per_segment": 10**10})
    tracemalloc.start()
    try:
        code = run(["check-holonomy", "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_run_size_limit_is_inclusive():
    cli.check_run_size("n_samples", cli.MAX_RUN_BYTES)
    with pytest.raises(ValueError):
        cli.check_run_size("n_samples", cli.MAX_RUN_BYTES + 1)


@pytest.mark.parametrize("epsilons", [{"points": 6}, [0.001 * 2**k for k in range(6)]], ids=["grid", "list"])
def test_listed_epsilons_share_the_grid_size_limit(tmp_path, monkeypatch, capsys, epsilons):
    # at a limit of five sweep points, six exit 2 whether they are listed or asked for
    monkeypatch.setattr(cli, "MAX_RUN_BYTES", 4096 * 5)
    payload = {"gate_kind": "single", "error_mode": "common", "epsilons": epsilons}
    out = tmp_path / "out"
    assert run(["sweep", "--config", write_cfg(tmp_path, "c.json", payload), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:") and "MB limit" in lines[0]
    assert not out.exists()


SIZED_RUNS = [
    *(
        (command, name, payload)
        for command, payload in (
            ("gate", {"envelope": "sine_squared", "steps": 500}),
            ("sweep", {"epsilons": {"points": 2000}}),
        )
        for name in ("elementary", "composite4", "twoqubit_composite")
    ),
    ("dfs", None, {"kappa": 0.8, "distribution": "gaussian", "n_samples": 20000}),
]


@pytest.mark.parametrize(
    "command, name, payload", SIZED_RUNS, ids=["-".join(filter(None, case[:2])) for case in SIZED_RUNS]
)
def test_size_estimate_covers_the_measured_peak(tmp_path, monkeypatch, capsys, command, name, payload):
    # the byte estimate each size is checked against must bound what the run allocates
    estimates = []
    monkeypatch.setattr(cli, "check_run_size", lambda key, n_bytes: estimates.append(n_bytes))
    if command == "gate":
        payload = dict(payload, gate=name)
    elif command == "sweep":
        payload = dict(payload, gate_kind=name, error_mode=sorted(scaling.GATES[name].error_modes)[0])
    tracemalloc.start()
    try:
        assert run([command, "--config", write_cfg(tmp_path, "c.json", payload), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert len(estimates) == 1 and peak < estimates[0]


ALL_ERROR_MODES = {mode for gate in scaling.GATES.values() for mode in gate.error_modes}


@pytest.mark.parametrize("name", sorted(scaling.GATES))
def test_every_gate_name_runs_through_the_cli(tmp_path, capsys, name):
    gate = scaling.GATES[name]
    angles = {"theta": 0.7, "phi": 0.3, "jk": "01"}
    error = {key: 0.03 for key in gate.error_keys}
    matrices = {}
    for with_error in (False, True):
        for envelope in ("square", "sine_squared"):
            payload = dict(angles, gate=name, envelope=envelope)
            if with_error:
                payload["error"] = error
            out = tmp_path / f"gate_{with_error}_{envelope}"
            assert run(["gate", "--config", write_cfg(tmp_path, "g.json", payload), "--out", str(out)]) == 0
            outputs = load_record(out, "gate_result.json")["outputs"]
            assert outputs["basis"] == list(gate.labels)
            assert outputs["within_tolerance"] is not with_error
            assert ("matrix_frame_basis" in outputs) is not name.startswith("twoqubit")
            matrices[with_error, envelope] = payload_to_matrix(outputs["matrix"])
        gap = matrices[with_error, "square"] - matrices[with_error, "sine_squared"]
        assert np.max(np.abs(gap)) < 1e-9

    holonomy = dict(angles, schedule=name, samples_per_segment=32)
    assert run(["check-holonomy", "--config", write_cfg(tmp_path, "h.json", holonomy)]
               + ["--out", str(tmp_path / "whole")]) == 0
    whole = load_record(tmp_path / "whole", "holonomy_result.json")["outputs"]
    assert whole["passed"] is True
    cut = dict(holonomy, truncate_segments=whole["n_segments"] - 1)
    assert run(["check-holonomy", "--config", write_cfg(tmp_path, "t.json", cut)]
               + ["--out", str(tmp_path / "cut")]) == 0
    assert load_record(tmp_path / "cut", "holonomy_result.json")["outputs"]["passed"] is False

    for mode in sorted(ALL_ERROR_MODES):
        sweep = dict(angles, gate_kind=name, error_mode=mode, epsilons={"points": 4})
        out = tmp_path / f"sweep_{mode}"
        code = run(["sweep", "--config", write_cfg(tmp_path, "s.json", sweep), "--out", str(out)])
        assert code == (0 if mode in gate.error_modes else 2)
        assert (out / "sweep.csv").exists() is (code == 0)
    capsys.readouterr()


def test_matrix_payload_round_trips_losslessly(tmp_path):
    cfg = write_cfg(
        tmp_path, "c.json",
        {"gate": "elementary", "theta": 0.9, "phi": 0.3, "error": {"eps0": 0.05, "eps1": -0.02}},
    )
    assert run(["gate", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = load_record(tmp_path, "gate_result.json")
    expected = scaling.GATES["elementary"].build(0.9, 0.3, "11", [(0.05, -0.02)])[0]
    assert np.array_equal(payload_to_matrix(record["outputs"]["matrix"]), expected)


# Config values a user might get wrong.  Integers stay at most 64, or far
# above the size limit, so that no example allocates a large run.
ODD_VALUES = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -1, -0.5, 0, True, None,
         "", "uniform", [], [1.0], {}, {"points": 3}, 10**10, 2**63, -(10**30)]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 64),
    st.text(max_size=4),
)
ANGLE = st.floats(-10.0, 10.0)
EPS = st.floats(-1.5, 1.5)
FUZZED_KEYS = {
    "gate": {
        "gate": st.sampled_from(sorted(scaling.GATES)),
        "theta": ANGLE,
        "phi": ANGLE,
        "jk": st.sampled_from(two_qubit.COMPUTATIONAL_LABELS),
        "error": st.one_of(
            st.none(),
            st.fixed_dictionaries({"eps0": EPS, "eps1": EPS}),
            st.fixed_dictionaries({"eps_jk": EPS}),
        ),
        "envelope": st.sampled_from(["square", "sine_squared"]),
        "steps": st.integers(1, 64),
        "tolerance": st.floats(1e-12, 1.0),
    },
    "sweep": {
        "gate_kind": st.sampled_from(sorted(scaling.GATES)),
        "error_mode": st.sampled_from(sorted(ALL_ERROR_MODES)),
        "theta": ANGLE,
        "phi": ANGLE,
        "jk": st.sampled_from(two_qubit.COMPUTATIONAL_LABELS),
        "epsilons": st.one_of(
            st.lists(st.floats(-0.5, 1.5), max_size=6),
            st.fixed_dictionaries({"points": st.integers(-1, 16)}),
        ),
    },
    "check-holonomy": {
        "schedule": st.sampled_from(sorted(scaling.GATES)),
        "theta": ANGLE,
        "phi": ANGLE,
        "jk": st.sampled_from(two_qubit.COMPUTATIONAL_LABELS),
        "samples_per_segment": st.integers(1, 64),
        "tolerance": st.floats(1e-12, 1.0),
        "truncate_segments": st.integers(1, 8),
    },
    "dfs": {
        "kappa": st.floats(0.0, 3.0),
        "distribution": st.sampled_from(["uniform", "gaussian"]),
        "n_samples": st.integers(1, 200),
        "seed": st.integers(0, 2**32),
        "theta": ANGLE,
        "phi": ANGLE,
    },
}


REQUIRED_KEYS = {"gate", "gate_kind", "error_mode", "schedule"}


@st.composite
def fuzzed_config(draw, command):
    """A valid config with up to two keys, known or not, set to odd values."""
    keys = FUZZED_KEYS[command]
    # every dfs key is optional
    required = {k: v for k, v in keys.items() if k in REQUIRED_KEYS}
    optional = {k: v for k, v in keys.items() if k not in required}
    cfg = draw(st.fixed_dictionaries(required, optional=optional))
    odd = st.one_of(st.sampled_from(sorted(keys)), st.text(max_size=6))
    for key in draw(st.lists(odd, max_size=2)):
        cfg[key] = draw(ODD_VALUES)
    return cfg


@pytest.mark.parametrize("command", sorted(FUZZED_KEYS))
def test_fuzzed_configs_exit_zero_two_or_three(command):
    @settings(derandomize=True, max_examples=150)
    @given(cfg=st.one_of(fuzzed_config(command), fuzzed_config(command), ODD_VALUES))
    def check(cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            code = cli.main([command, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3)
            # a run that fails writes no file
            assert out.exists() == (code == 0)

    check()


@pytest.mark.parametrize(
    "command, payload, flags, code",
    [
        ("gate", {"gate": "composite4", "theta": 0.7}, [], 0),
        ("gate", {"gate": "composite8"}, [], 2),
        ("dfs", {"kappa": 0.5, "seed": "x"}, [], 2),
        ("dfs", {"kappa": 1e308, "distribution": "gaussian"}, [], 3),
        ("sweep", SWEEP_CFG, ["--seed", "5"], 2),
        ("dfs", {"kappa": 0.5}, ["--tolerance", "1"], 2),
    ],
    ids=["ok", "unknown_gate", "seed_not_an_integer", "kick_overflow", "sweep_seed_flag",
         "dfs_tolerance_flag"],
)
def test_holgate_process_exit_codes(tmp_path, command, payload, flags, code):
    out = tmp_path / "out"
    args = [command, "--config", write_cfg(tmp_path, "c.json", payload), "--out", str(out), *flags]
    returncode, stderr = run_process(tmp_path, args)
    assert returncode == code, stderr
    assert "Traceback" not in stderr
    if flags:
        assert stderr.startswith("usage: holgate")
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == ([f"{command}_result.json"] if code == 0 else [])


def test_holgate_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["holgate"] == "hologate.cli:main"
