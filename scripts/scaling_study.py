#!/usr/bin/env python3
"""Sweep every gate/error-mode combination and tabulate the fitted orders.

Writes one epsilon,infidelity CSV per case plus a summary table on stdout.
The composite gates should come out near slope 4, the plain ones near 2.
"""

import argparse
import math
from pathlib import Path

from hologate import cli, scaling

KINDS = ("single", "composite2", "composite4", "twoqubit_single", "twoqubit_composite")
CASES = tuple((kind, mode) for kind in KINDS for mode in scaling.GATES[kind].error_modes)


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
    """Each case's CSV file and the summary table; a bad argument raises ValueError."""
    cli.check_sweep_size("--points", args.points)
    grid = scaling.default_epsilon_grid(args.points)
    csvs, lines = {}, [f"{'gate':<20} {'mode':<14} {'slope':>8} {'r^2':>10} {'points':>7}"]
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
    return csvs, [*lines, "", f"CSV files in {Path(args.out)}/"]


if __name__ == "__main__":
    cli.run_script(build_parser(), study)
