#!/usr/bin/env python3
"""Sweep every gate/error-mode combination and tabulate the fitted orders.

Writes one epsilon,infidelity CSV per case plus a summary table on stdout.
The composite gates should come out near slope 4, the plain ones near 2.
"""

import argparse
import math
from pathlib import Path

from hologate import cli, scaling

CASES = (
    ("single", "common"),
    ("single", "differential"),
    ("single", "single_field"),
    ("composite2", "common"),
    ("composite2", "differential"),
    ("composite4", "common"),
    ("composite4", "differential"),
    ("composite4", "single_field"),
    ("twoqubit_single", "two_qubit"),
    ("twoqubit_composite", "two_qubit"),
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/scaling", help="output directory")
    parser.add_argument("--points", type=int, default=12, help="grid points per sweep")
    parser.add_argument("--theta", type=float, default=math.pi / 4)
    parser.add_argument("--phi", type=float, default=0.0)
    return parser.parse_args()


def main():
    args = parse_args()
    out_dir = Path(args.out)
    grid = scaling.default_epsilon_grid(args.points)

    print(f"{'gate':<20} {'mode':<14} {'slope':>8} {'r^2':>10} {'points':>7}")
    csvs = {}
    for kind, mode in CASES:
        spec = scaling.SweepSpec(
            gate_kind=kind,
            theta=args.theta,
            phi=args.phi,
            error_mode=mode,
            epsilons=grid,
        )
        samples = scaling.sweep_samples(spec)
        csvs[f"{kind}_{mode}.csv"] = cli.csv_text(samples, ("epsilon", "infidelity"))
        try:
            fit = scaling.fit_power_law(samples)
        except scaling.DegenerateFitError as exc:
            print(f"{kind:<20} {mode:<14} {'--':>8} {'--':>10}  {exc}")
            continue
        print(
            f"{kind:<20} {mode:<14} {fit.slope:8.3f} {fit.r_squared:10.6f}"
            f" {len(fit.samples):7d}"
        )
    cli.write_files(out_dir, csvs)
    print(f"\nCSV files in {out_dir}/")


if __name__ == "__main__":
    main()
