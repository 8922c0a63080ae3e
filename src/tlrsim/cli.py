"""Command line front end.

Subcommands map one-to-one onto the experiment layer: ``params`` prints
the derived operating point, the three sweep commands emit figure-grade
CSV, and ``validate`` runs the invariant suites. Exit codes: 0 success,
1 experiment or validation failure, 2 configuration error.

A subcommand imports only what it runs: every one loads ``config`` and
``device`` (and through ``config`` the ``detector`` and ``lindblad``
engine), the sweeps add ``sweeps``, the transfer and controlled-phase
sweeps ``protocols``, and ``validate`` adds ``validate`` and ``protocols``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before anything imports numpy. The
# engine's matrices are at most 36x36 (the detector's superoperator), where
# extra BLAS threads cost more than they save and contend with the --jobs
# workers, which inherit this setting. A value the user exported is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .config import ConfigError, fjs_params, load_config, tap_coupling, tlr_params
from .device import (
    effective_dephasing_rate,
    fjs_derive,
    induced_loss_rate,
    mode_frequency,
    thermal_occupancy,
    to_angular,
    to_linear,
    transfer_rate,
)

__all__ = ["main", "checked_config", "exit_code", "positive_int"]


def positive_int(text: str) -> int:
    """The ``--jobs`` type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def checked_config(path: str | None, seed: int | None = None, samples: int | None = None) -> dict:
    """The config at ``path`` with the given noise leaves written in, checked again."""
    config = load_config(path)
    for key, value in (("seed", seed), ("samples", samples)):
        if value is not None:
            config["noise"][key] = value
    return load_config(config)  # range-checks the overridden leaves


def exit_code(run) -> int:
    """0 or the code ``run()`` returns; 2 for a rejected config and 1 for a failed run,
    each printed to stderr as ``config error:`` or ``error:`` and the reason. An
    advisory ``UserWarning`` prints as one ``warning:`` line with its message."""
    with warnings.catch_warnings():
        show = warnings.showwarning

        def show_warning(message, category, *where):
            if issubclass(category, UserWarning):
                sys.stderr.write(f"warning: {message}\n")  # one write: workers share the stream
            else:
                show(message, category, *where)

        warnings.showwarning = show_warning
        try:
            return run() or 0
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlrsim",
        description="Dual-rail microwave-photon qubit simulator",
    )
    parser.add_argument("--version", action="version", version=f"tlrsim {__version__}")
    # each subcommand takes only the flags it reads; each layer adds to the one before
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", metavar="PATH", help="JSON config file")
    base.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[base])
    seeded.add_argument("--seed", type=int, help="override the sampling seed")
    sweep = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sweep.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp metadata line"
    )
    sweep.add_argument("--jobs", type=positive_int, default=1, help="worker processes")
    sampled = argparse.ArgumentParser(add_help=False, parents=[sweep])
    sampled.add_argument("--samples", type=int, help="Monte Carlo samples per point")
    sampled.add_argument(
        "--quick", action="store_true", help="allow sample counts below the authoritative minimum"
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("params", parents=[base], help="print derived device quantities")
    sub.add_parser("transfer-error", parents=[sweep], help="photon transfer error sweep")
    sub.add_parser("cphase-error", parents=[sampled], help="controlled-phase error sweep")
    sub.add_parser("detector", parents=[sweep], help="detection efficiency sweep")
    sub.add_parser("validate", parents=[seeded], help="run the invariant suites")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {out}: {exc.strerror or exc}") from None


def _human_freq(hz: float) -> str:
    mag = abs(hz)
    if mag >= 1e15:  # from 1e6 GHz on, fixed-point digits would run to hundreds
        return f"{hz / 1e9:+.4e} GHz"
    for unit, scale in (("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3)):
        if mag >= scale:
            return f"{hz / scale:+.4f} {unit}"
    return f"{hz:+.4f} Hz"


def _params_report(config: dict) -> str:
    tlr = tlr_params(config)
    omega0 = mode_frequency(tlr)
    g_left = tap_coupling(config, "left")
    g_right = tap_coupling(config, "right")
    delta = to_angular(config["experiments"]["transfer"]["detuning_hz"])
    rate = transfer_rate(g_left, delta)
    dephasing = effective_dephasing_rate(
        g_left, delta, to_angular(config["device"]["cbjj"]["dephasing_rate_hz"])
    )
    loss = induced_loss_rate(
        g_left, delta, to_angular(config["device"]["cbjj"]["decay_rate_hz"])
    )
    occupancy = thermal_occupancy(config["device"]["temperature_k"], omega0)
    derived = fjs_derive(fjs_params(config), tlr)

    rows = [
        ("mode_frequency_hz", to_linear(omega0), _human_freq(to_linear(omega0))),
        ("coupling_left_hz", to_linear(g_left), _human_freq(to_linear(g_left))),
        ("coupling_right_hz", to_linear(g_right), _human_freq(to_linear(g_right))),
        ("transfer_rate_hz", rate, _human_freq(rate)),
        ("effective_dephasing_hz", to_linear(dephasing), _human_freq(to_linear(dephasing))),
        ("induced_loss_hz", to_linear(loss), _human_freq(to_linear(loss))),
        ("thermal_occupancy", occupancy, "photons"),
        ("squid_chi_storage", derived.chi_c, "dimensionless"),
        ("squid_chi_interaction", derived.chi_d, "dimensionless"),
        ("squid_bias_phase_rad", derived.phi0, "rad"),
        ("squid_phase_spread_rad", derived.sigma_phi, "rad"),
        ("photon_shift_hz", to_linear(derived.omega_s), _human_freq(to_linear(derived.omega_s))),
        (
            "photon_shift_spread_hz",
            to_linear(derived.delta_omega_s),
            _human_freq(to_linear(derived.delta_omega_s)),
        ),
        (
            "photon_interaction_hz",
            to_linear(derived.omega_int),
            _human_freq(to_linear(derived.omega_int)),
        ),
        ("interaction_spread_rel", derived.delta_omega_int_rel, "dimensionless"),
    ]
    for name, value, _ in rows:
        if not math.isfinite(value):  # a tiny detuning: g^2 / delta overflows
            raise ValueError(f"params row {name} leaves the float range")
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{name:<{width}}  {value: .8e}  {note}" for name, value, note in rows]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return exit_code(lambda: _run(args))


def _run(args: argparse.Namespace) -> int:
    # params takes neither noise flag, validate no --samples
    config = checked_config(
        args.config, getattr(args, "seed", None), getattr(args, "samples", None)
    )

    if args.command == "params":
        _emit(_params_report(config), args.out)
        return 0

    if args.command == "validate":
        from .validate import has_failure, render_report, run_validation

        results = run_validation(config)
        _emit(render_report(results), args.out)
        return 1 if has_failure(results) else 0

    from .sweeps import render_csv, run_cphase_sweep, run_detector_sweep, run_transfer_sweep

    if args.command == "transfer-error":
        result = run_transfer_sweep(config, jobs=args.jobs)
    elif args.command == "cphase-error":
        result = run_cphase_sweep(config, jobs=args.jobs, quick=args.quick)
    else:
        result = run_detector_sweep(config, jobs=args.jobs)
    _emit(render_csv(result, timestamp=not args.no_timestamp), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
