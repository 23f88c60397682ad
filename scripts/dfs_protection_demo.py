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


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/dfs", help="output directory")
    parser.add_argument(
        "--kappas", type=float, nargs="+", default=list(np.linspace(0.0, 1.0, 11))
    )
    parser.add_argument("--n-samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--theta", type=float, default=math.pi / 4)
    parser.add_argument("--phi", type=float, default=0.0)
    parser.add_argument("--distribution", choices=("uniform", "gaussian"), default="uniform")
    return parser.parse_args()


def main():
    args = parse_args()
    out_dir = Path(args.out)

    encoding = dfs.three_ion_encoding()
    schedule = dfs.logical_composite_schedule(args.theta, args.phi)
    psi_enc = (encoding.logical_ket("0") + encoding.logical_ket("1")) / math.sqrt(2)
    psi_raw = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    n_kicks = schedule.n_segments

    rows = []
    print(f"{'kappa':>6} {'encoded':>12} {'bare (MC)':>12} {'bare (exact)':>13}")
    for i, kappa in enumerate(args.kappas):
        channel = dfs.DephasingChannel(kappa, args.distribution, args.n_samples)
        encoded = dfs.apply_collective_dephasing(
            schedule, psi_enc, channel, encoding, seed=args.seed + 2 * i
        )
        bare = dfs.idle_contrast_run(
            psi_raw, channel, n_kicks, encoding.n_ions, seed=args.seed + 2 * i + 1
        )
        exact = dfs.idle_contrast_closed_form(psi_raw, channel, n_kicks, encoding.n_ions)
        rows.append((kappa, encoded.mean, bare.mean, exact))
        print(f"{kappa:6.2f} {encoded.mean:12.9f} {bare.mean:12.9f} {exact:13.9f}")

    header = ("kappa", "encoded_fidelity", "unencoded_fidelity", "unencoded_closed_form")
    cli.write_files(out_dir, {"dfs_protection.csv": cli.csv_text(rows, header)})
    print(f"\nwrote {out_dir / 'dfs_protection.csv'}")


if __name__ == "__main__":
    main()
