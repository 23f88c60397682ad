#!/usr/bin/env python3
"""Sweep every gate/error-mode combination and tabulate the fitted orders.

Writes one epsilon,infidelity CSV per case plus a summary table on stdout.
The composite gates should come out near slope 4, the plain ones near 2.
"""

import argparse
import math
import sys
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


def grid_points(text: str) -> int:
    """argparse type of --points: a power law needs a grid of at least two points."""
    points = int(text)
    if points < 2:
        raise argparse.ArgumentTypeError(f"a sweep grid needs at least 2 points, got {points}")
    return points


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/scaling", help="output directory")
    parser.add_argument("--points", type=grid_points, default=12, help="grid points per sweep")
    parser.add_argument("--theta", type=cli.finite_float, default=math.pi / 4)
    parser.add_argument("--phi", type=cli.finite_float, default=0.0)
    return parser


def study(args):
    """Each case's CSV text and summary line; a bad argument raises ValueError."""
    cli.check_sweep_size("--points", args.points)
    grid = scaling.default_epsilon_grid(args.points)
    csvs, lines = {}, []
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
            lines.append(f"{kind:<20} {mode:<14} {'--':>8} {'--':>10}  {exc}")
            continue
        lines.append(
            f"{kind:<20} {mode:<14} {fit.slope:8.3f} {fit.r_squared:10.6f}"
            f" {len(fit.samples):7d}"
        )
    return csvs, lines


def main():
    parser = build_parser()
    args = parser.parse_args()
    out_dir = Path(args.out)
    # every case runs, and its files are written, before anything is printed
    try:
        with cli.strict_numerics():
            csvs, lines = study(args)
    except cli.NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(cli.EXIT_NUMERIC)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        cli.write_files(out_dir, csvs)
    except OSError as exc:
        parser.error(f"argument --out: cannot write {out_dir}: {exc}")

    print(f"{'gate':<20} {'mode':<14} {'slope':>8} {'r^2':>10} {'points':>7}")
    for line in lines:
        print(line)
    print(f"\nCSV files in {out_dir}/")


if __name__ == "__main__":
    main()
