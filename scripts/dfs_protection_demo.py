#!/usr/bin/env python3
"""Encoded vs bare register under collective phase kicks, across noise strengths.

For each kick strength the encoded logical state runs the full four-pulse
composite with a kick after every segment; the bare contrast state just sits
through the same number of kicks.  The encoded column should pin to 1 while
the bare column decays toward the closed-form kick average.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from hologate import cli, dfs


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/dfs", help="output directory")
    parser.add_argument(
        "--kappas", type=cli.finite_float, nargs="+", default=list(np.linspace(0.0, 1.0, 11))
    )
    parser.add_argument("--n-samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--theta", type=cli.finite_float, default=math.pi / 4)
    parser.add_argument("--phi", type=cli.finite_float, default=0.0)
    parser.add_argument("--distribution", choices=dfs.DISTRIBUTIONS, default="uniform")
    return parser


def protection_rows(args):
    """The CSV file and table of (kappa, encoded, bare, bare closed form); a bad argument raises ValueError."""
    schedule = dfs.logical_composite_schedule(args.theta, args.phi)
    cli.check_dfs_size("--n-samples", schedule.n_segments, args.n_samples)
    rows = []
    for i, kappa in enumerate(args.kappas):
        channel = dfs.DephasingChannel(kappa, args.distribution, args.n_samples)
        # row i is the CLI's dfs run at seed + 2i
        encoded, bare, exact = dfs.protection_run(schedule, channel, args.seed + 2 * i)
        rows.append((kappa, encoded.mean, bare.mean, exact))
    header = ("kappa", "encoded_fidelity", "unencoded_fidelity", "unencoded_closed_form")
    lines = [
        f"{'kappa':>6} {'encoded':>12} {'bare (MC)':>12} {'bare (exact)':>13}",
        *(f"{kappa:6.2f} {encoded:12.9f} {bare:12.9f} {exact:13.9f}" for kappa, encoded, bare, exact in rows),
        "",
        f"wrote {Path(args.out) / 'dfs_protection.csv'}",
    ]
    return {"dfs_protection.csv": cli.csv_text(rows, header)}, lines


if __name__ == "__main__":
    cli.run_script(build_parser(), protection_rows)
