#!/usr/bin/env python3
"""Reproduce the three headline sweeps and drop figure-grade CSVs.

Writes transfer_error.csv, cphase_error.csv, detector_efficiency.csv
into --outdir (default ./figures) and prints the operating-point numbers
the CSVs hinge on; the transfer operating point is the config's
noise.kappa_hz and device.cbjj.dephasing_rate_hz. Pass --quick for a
fast low-sample pass. Exits 0 on success, 1 when the simulation fails
(as the tlrsim CLI does) and 2 on a bad option, config key or output path.
"""

import argparse
import os
import sys
from pathlib import Path

# one BLAS thread per process, as the tlrsim CLI sets it, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tlrsim.config import ConfigError, load_config
from tlrsim.sweeps import run_cphase_sweep, run_detector_sweep, run_transfer_sweep, write_csv


def write(result, path: Path) -> None:
    try:
        write_csv(result, path)
    except OSError as exc:
        raise ConfigError("--outdir", f"cannot write {path}: {exc.strerror or exc}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--outdir", default="figures", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed override")
    parser.add_argument(
        "--quick", action="store_true", help="150 Monte Carlo samples instead of the configured count"
    )
    args = parser.parse_args()
    if args.jobs < 1:  # the tlrsim CLI's rule, with its exit code 2
        parser.error("argument --jobs: must be a positive integer")
    try:
        run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:  # as the tlrsim CLI reports them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run(args) -> None:
    config = load_config(args.config)
    if args.seed is not None:
        config["noise"]["seed"] = args.seed
    if args.quick:
        config["noise"]["samples"] = 150
    config = load_config(config)  # range-checks the overridden leaves
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--outdir", f"cannot create {outdir}: {exc.strerror or exc}") from None

    transfer = run_transfer_sweep(config, jobs=args.jobs)
    write(transfer, outdir / "transfer_error.csv")
    point = (config["noise"]["kappa_hz"], config["device"]["cbjj"]["dephasing_rate_hz"])
    at = f"kappa/2pi={point[0]:g} Hz, Gamma2/2pi={point[1]:g} Hz"
    row = next((r for r in transfer.rows if r[:2] == point), None)
    if row is None:
        print(f"transfer grid has no point at {at}; no operating-point error printed")
    else:
        print(f"transfer error at {at}: {row[2]:.4e}")

    cphase = run_cphase_sweep(config, jobs=args.jobs)
    write(cphase, outdir / "cphase_error.csv")
    for row in cphase.rows:
        print(f"controlled-phase error at speed ratio {row[0]:>5.0f}: {row[1]:.4e} +- {row[2]:.1e}")

    detector = run_detector_sweep(config, jobs=args.jobs)
    write(detector, outdir / "detector_efficiency.csv")
    best = detector.rows[-1]
    print(f"detector efficiency at ratio {best[0]:.0f}: {best[1]:.6f}")

    print(f"CSVs written to {outdir}/")


if __name__ == "__main__":
    sys.exit(main())
