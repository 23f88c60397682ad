import json
import os
import subprocess
import sys
from pathlib import Path

from hologate import cli

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, check=True, capture_output=True, text=True,
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
