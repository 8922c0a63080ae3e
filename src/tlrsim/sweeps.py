"""Figure-grade sweeps and CSV emission.

Every sweep is a pure function of its effective config, seed and sample
count included. It builds every point's spec in the calling process, maps
the protocol function over the specs, serially or in a worker pool, and
emits the rows strictly in grid order. Any Monte Carlo inside a point
draws its samples in order from one substream keyed on (seed, point
index), so the worker count can never change the bytes.

CSV layout: ``#`` metadata lines (tool version, config hash, seed,
optional timestamp, the full effective config for re-ingestion), then a
header row, then data rows with floats in 9-significant-digit lowercase
scientific notation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import __version__
from .config import (
    ConfigError,
    canonical_json,
    config_hash,
    detector_params,
    fjs_params,
    tap_coupling,
    tlr_params,
)
from .detector import detection_efficiency
from .device import fjs_derive, to_angular

__all__ = [
    "SweepResult",
    "run_transfer_sweep",
    "run_cphase_sweep",
    "run_detector_sweep",
    "render_csv",
    "read_config_comment",
]

AUTHORITATIVE_SAMPLES = 100  # Monte Carlo samples per point below which a run is quick


@dataclass(frozen=True)
class SweepResult:
    """One sweep: ordered rows plus everything needed to reproduce them."""

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config: dict
    quick: bool = False


def _map_points(fn, *columns, jobs: int) -> list:
    """``fn`` over the rows of ``columns``, results in row order."""
    points = len(columns[0])
    if jobs <= 1 or points <= 1:
        return list(map(fn, *columns))
    from concurrent.futures import ProcessPoolExecutor  # ~15 ms of import: serial runs skip it

    # fork starts every worker up front: never more than there are points
    with ProcessPoolExecutor(max_workers=min(jobs, points)) as pool:
        return list(pool.map(fn, *columns))


# ------------------------------------------------------------- transfer


def run_transfer_sweep(config: dict, jobs: int = 1) -> SweepResult:
    """Transfer-gate error over the loss/dephasing grid, loss rate slowest."""
    from .protocols import TransferSpec, transfer_gate_error  # the detector sweep skips protocols

    transfer = config["experiments"]["transfer"]
    coupling = tap_coupling(config, "left")
    detuning = to_angular(transfer["detuning_hz"])
    grid = [(k, g) for k in transfer["kappa_grid_hz"] for g in transfer["gamma2_grid_hz"]]
    specs = [TransferSpec(coupling, detuning, to_angular(k), to_angular(g)) for k, g in grid]
    errors = _map_points(transfer_gate_error, specs, jobs=jobs)
    # 0.0 - x, not -x: an error of 1 gives 0.0, not -0.0; 1e-300 floors an error of 0
    rows = [(*point, e, 0.0 - math.log10(max(e, 1e-300))) for point, e in zip(grid, errors)]
    return SweepResult(
        experiment="transfer-error",
        columns=("kappa_hz", "gamma2_hz", "error", "neg_log10_error"),
        rows=tuple(rows),
        config=config,
    )


# ------------------------------------------------------------- cphase


def run_cphase_sweep(config: dict, jobs: int = 1, quick: bool = False) -> SweepResult:
    """Controlled-phase error versus transfer speed ratio.

    Sample count and seed are ``noise.samples`` and ``noise.seed``.
    Authoritative results need at least ``AUTHORITATIVE_SAMPLES`` samples
    per point; smaller counts are only allowed with ``quick``, and the
    output is marked.
    """
    from .protocols import CphaseSpec, cphase_spin_echo_error

    n, seed = config["noise"]["samples"], config["noise"]["seed"]
    if n < AUTHORITATIVE_SAMPLES and not quick:
        raise ConfigError(
            "noise.samples",
            f"{n} samples below the authoritative minimum of {AUTHORITATIVE_SAMPLES}; pass --quick",
        )
    derived = fjs_derive(fjs_params(config), tlr_params(config))
    cphase = config["experiments"]["cphase"]
    kappa = to_angular(cphase["kappa_hz"])
    ideal_flips = cphase["flips"] == "ideal"
    ratios = cphase["speed_ratios"]
    specs = [CphaseSpec.from_fjs(derived, r, n, seed, kappa, ideal_flips) for r in ratios]
    results = _map_points(cphase_spin_echo_error, specs, range(len(specs)), jobs=jobs)
    rows = [(r, res["error"], res["std_error"], n, seed) for r, res in zip(ratios, results)]
    return SweepResult(
        experiment="cphase-error",
        columns=("ratio", "error", "std_err", "n_samples", "seed"),
        rows=tuple(rows),
        config=config,
        quick=n < AUTHORITATIVE_SAMPLES,
    )


# ------------------------------------------------------------- detector


def run_detector_sweep(config: dict, jobs: int = 1) -> SweepResult:
    """Detector efficiency versus escape-to-loss ratio at fixed loss."""
    base = detector_params(config)
    ratios = config["experiments"]["detector"]["gamma_over_kappa"]
    if any(r * base.photon_loss_rate == 0 for r in ratios):  # no escape: every row would be 0
        raise ValueError("detector sweep escape rate gamma_over_kappa x photon loss rate is 0")
    points = [replace(base, escape_rate=r * base.photon_loss_rate) for r in ratios]
    results = _map_points(detection_efficiency, points, jobs=jobs)
    rows = [
        (r, res.efficiency, 1.0 - res.efficiency, int(res.converged), res.t_final)
        for r, res in zip(ratios, results)
    ]
    return SweepResult(
        experiment="detector",
        columns=("gamma_over_kappa", "efficiency", "one_minus_eff", "converged", "t_final_s"),
        rows=tuple(rows),
        config=config,
    )


# ------------------------------------------------------------- emission


def _format_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.8e}"


def render_csv(result: SweepResult, timestamp: bool = True) -> str:
    lines = [
        f"# tool: tlrsim {__version__}",
        f"# experiment: {result.experiment}",
        f"# config_hash: {config_hash(result.config)}",
        f"# seed: {result.config['noise']['seed']}",
    ]
    if result.quick:
        lines.append("# quick: results below the authoritative sample minimum")
    if timestamp:
        from datetime import datetime, timezone  # only a timestamped run needs it

        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"# timestamp: {stamp}")
    lines.append(f"# config: {canonical_json(result.config)}")
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def read_config_comment(text: str) -> dict:
    """Recover the effective config embedded in a CSV's metadata block."""
    for line in text.splitlines():
        if line.startswith("# config: "):
            return json.loads(line[len("# config: ") :])
    raise ValueError("no config metadata line found")
