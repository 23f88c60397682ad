import os
import subprocess
import sys
from pathlib import Path

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
