import dataclasses
import json
import math

import numpy as np
import pytest

from hologate import cli, scaling


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main(args)


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


@pytest.mark.parametrize("flag", ["nan", "inf", "-1", "0"])
def test_gate_meaningless_tolerance_flag_exits_two(tmp_path, capsys, flag):
    cfg = write_cfg(tmp_path, "c.json", {"gate": "elementary"})
    args = ["gate", "--config", cfg, "--out", str(tmp_path), "--tolerance", flag]
    assert run(args) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "gate_result.json").exists()


def test_main_calls_do_not_share_parsed_options(tmp_path, capsys):
    gate = write_cfg(
        tmp_path, "gate.json", {"gate": "elementary", "error": {"eps0": 0.05, "eps1": 0.0}}
    )
    noise = write_cfg(tmp_path, "dfs.json", {"kappa": 0.5, "n_samples": 20, "seed": 4})

    def out(name):
        return ["--out", str(tmp_path / name)]

    assert run(["dfs", "--config", noise, "--seed", "77", "--tolerance", "10"] + out("a")) == 0
    assert run(["gate", "--config", gate] + out("b")) == 0
    assert run(["gate", "--config", gate, "--tolerance", "10"] + out("c")) == 0
    assert run(["dfs", "--config", noise] + out("d")) == 0
    capsys.readouterr()
    assert load_record(tmp_path / "a", "dfs_result.json")["outputs"]["seed"] == 77
    assert load_record(tmp_path / "b", "gate_result.json")["outputs"]["within_tolerance"] is False
    assert load_record(tmp_path / "c", "gate_result.json")["outputs"]["within_tolerance"] is True
    assert load_record(tmp_path / "d", "dfs_result.json")["outputs"]["seed"] == 4


def test_unreadable_and_malformed_configs_exit_two(tmp_path, capsys):
    assert run(["gate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["gate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert run(["gate", "--config", str(lst), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


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
    ],
)
def test_sweep_config_problems_exit_two(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


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
    cfg = write_cfg(tmp_path, "c.json", {"schedule": "elementary"})
    args = ["check-holonomy", "--config", cfg, "--out", str(tmp_path), "--tolerance", flag]
    assert run(args) == 2
    assert "tolerance" in capsys.readouterr().err


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


def test_dfs_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"kappa": 0.5, "n_samples": 100, "seed": 4})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["dfs", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["dfs", "--config", cfg, "--out", str(out2), "--seed", "77"]) == 0
    capsys.readouterr()
    assert (out1 / "dfs.csv").read_bytes() != (out2 / "dfs.csv").read_bytes()
    assert load_record(out2, "dfs_result.json")["outputs"]["seed"] == 77


def test_dfs_config_problems_exit_two(tmp_path, capsys):
    for payload in (
        {"kappa": -0.5},
        {"distribution": "levy"},
        {"n_samples": 0},
        {"coupling_prefactor": 0.0},
        {"unknown": 1},
        {"kappa": math.nan},
        {"kappa": math.inf},
        {"seed": -1},
        {"theta": math.nan},
        {"phi": math.inf},
        {"coupling_prefactor": math.inf},
    ):
        cfg = write_cfg(tmp_path, "c.json", payload)
        assert run(["dfs", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_cfg(tmp_path, "c.json", {"n_samples": 10})
    assert run(["dfs", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert not (tmp_path / "dfs.csv").exists()
    capsys.readouterr()


# the kick phases overflow on purpose here, and numpy says so
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize(
    "payload", [{"kappa": 1e308}, {"kappa": 1e308, "distribution": "gaussian"}]
)
def test_dfs_non_finite_numerics_exit_three(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, "c.json", dict(payload, n_samples=50))
    out = tmp_path / "out"
    assert run(["dfs", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


ALL_ERROR_MODES = {mode for gate in scaling.GATES.values() for mode in gate.error_modes}


@pytest.mark.parametrize("name", sorted(scaling.GATES))
def test_every_gate_name_runs_through_the_cli(tmp_path, capsys, name):
    gate = scaling.GATES[name]
    angles = {"theta": 0.7, "phi": 0.3, "jk": "01"}
    error = {f.name: 0.03 for f in dataclasses.fields(gate.error_model)}
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
            assert ("matrix_frame_basis" in outputs) is gate.rotated_frame
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
    from hologate import qutrit

    expected = qutrit.elementary_gate_with_error(
        qutrit.BrightDarkFrame(0.9, 0.3), qutrit.ErrorModel(0.05, -0.02)
    )
    assert np.array_equal(payload_to_matrix(record["outputs"]["matrix"]), expected)
