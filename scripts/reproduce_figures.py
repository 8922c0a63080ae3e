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
import sys
from pathlib import Path

# first: the CLI module pins one BLAS thread per process before numpy loads
from tlrsim.cli import checked_config, exit_code, positive_int
from tlrsim.config import ConfigError
from tlrsim.sweeps import render_csv, run_cphase_sweep, run_detector_sweep, run_transfer_sweep


def write(result, path: Path) -> None:
    try:
        path.write_text(render_csv(result))
    except OSError as exc:
        raise ConfigError("--outdir", f"cannot write {path}: {exc.strerror or exc}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--outdir", default="figures", help="output directory")
    parser.add_argument("--jobs", type=positive_int, default=1, help="worker processes")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed override")
    parser.add_argument(
        "--quick", action="store_true", help="150 Monte Carlo samples instead of the configured count"
    )
    args = parser.parse_args()
    return exit_code(lambda: run(args))


def run(args) -> None:
    config = checked_config(args.config, seed=args.seed, samples=150 if args.quick else None)
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
        print(f"controlled-phase error at speed ratio {row[0]:>5}: {row[1]:.4e} +- {row[2]:.1e}")

    detector = run_detector_sweep(config, jobs=args.jobs)
    write(detector, outdir / "detector_efficiency.csv")
    best = detector.rows[-1]
    print(f"detector efficiency at ratio {best[0]}: {best[1]:.6f}")

    print(f"CSVs written to {outdir}/")


if __name__ == "__main__":
    sys.exit(main())
