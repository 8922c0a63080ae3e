"""Workloads of the tlrsim benchmark and the checks on their outputs.

Each workload is a list of ``tlrsim`` command lines (one pass). Outputs
are checked against ``perfbench/reference``, recorded from the tree at the
default seed; see NOTES.md for why each workload exists.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 42  # noise.seed of the default config; the reference rows use it
LOSSY_SAMPLES = 2
LOSSLESS_SAMPLES = 3000
CPHASE_POINTS = 5  # experiments.cphase.speed_ratios
TRANSFER_POINTS = 25  # 5 x 5 loss/dephasing grid
DETECTOR_POINTS = 5
VALIDATE_TRAJECTORIES = 1000  # validation.mc_samples
INVOCATION_TIMEOUT_S = 60.0  # one invocation takes a few seconds; a run must end within 180 s

# Output check tolerance: |value - reference| <= ATOL + RTOL * |reference|.
RTOL = 1e-6
ATOL = 1e-12

WORKLOAD_CONFIGS = {
    "cphase_lossy": "cphase_lossy.json",
    "cphase_lossless": "default.json",
    "small_sweeps": "default.json",
}


@dataclass(frozen=True)
class Invocation:
    """One ``tlrsim`` command line and the work it completes."""

    kind: str  # names the reference file and the output check
    argv: tuple[str, ...]
    points: int
    trajectories: int


def config_path(workload: str) -> str:
    return str(CONFIGS / WORKLOAD_CONFIGS[workload])


def invocations(workload: str, seed: int, jobs: int = 1) -> list[Invocation]:
    """The CLI calls that make up one pass of ``workload``."""
    cfg = ("--config", config_path(workload))
    seeded = ("--seed", str(seed), "--no-timestamp")
    if workload == "cphase_lossy":
        argv = ("cphase-error", *cfg, *seeded, "--samples", str(LOSSY_SAMPLES), "--quick")
        return [
            Invocation(
                "cphase_lossy",
                (*argv, "--jobs", str(jobs)),
                CPHASE_POINTS,
                CPHASE_POINTS * LOSSY_SAMPLES,
            )
        ]
    if workload == "cphase_lossless":
        argv = ("cphase-error", *cfg, *seeded, "--samples", str(LOSSLESS_SAMPLES))
        return [
            Invocation("cphase_lossless", argv, CPHASE_POINTS, CPHASE_POINTS * LOSSLESS_SAMPLES)
        ]
    if workload == "small_sweeps":
        # validate stays at the default seed: its Monte Carlo check is a
        # 3-sigma test, and a workload seed must not be able to fail it
        return [
            Invocation("params", ("params", *cfg), 0, 0),
            Invocation("transfer", ("transfer-error", *cfg, *seeded), TRANSFER_POINTS, 0),
            Invocation("detector", ("detector", *cfg, *seeded), DETECTOR_POINTS, 0),
            Invocation("validate", ("validate", *cfg), 0, VALIDATE_TRAJECTORIES),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_invocation(workload: str) -> Invocation:
    return Invocation("params", ("params", "--config", config_path(workload)), 0, 0)


# ------------------------------------------------------------ output checks


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= ATOL + RTOL * abs(reference)


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a tlrsim CSV, ``#`` metadata lines skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _params_rows(text: str) -> list[tuple[str, float]]:
    rows = []
    for line in text.splitlines():
        name, value = line.split()[:2]
        rows.append((name, float(value)))
    return rows


def _reference(kind: str) -> str:
    return (REFERENCE / f"{kind}.txt").read_text()


def check_output(inv: Invocation, text: str, seed: int) -> str | None:
    """Why ``text`` is a wrong output of ``inv``, or None when it is right."""
    try:
        reference = _reference(inv.kind)
        if inv.kind == "params":
            got, want = _params_rows(text), _params_rows(reference)
            if [n for n, _ in got] != [n for n, _ in want]:
                return "params names differ from the reference"
            bad = [n for (n, v), (_, r) in zip(got, want) if not _close(v, r)]
            return f"params values off the reference: {bad}" if bad else None

        header, rows = _table(text)
        ref_header, ref_rows = _table(reference)
        if header != ref_header or len(rows) != len(ref_rows):
            return f"{inv.kind}: header or row count differs from the reference"
        if inv.kind == "validate":
            for row, ref in zip(rows, ref_rows):
                if row[:2] != ref[:2] or not math.isfinite(float(row[2])):
                    return f"validate row {row} differs from reference {ref[:2]}"
            return None
        if inv.kind in ("transfer", "detector") or seed == DEFAULT_SEED:
            for row, ref in zip(rows, ref_rows):
                if not all(_close(float(v), float(r)) for v, r in zip(row, ref)):
                    return f"{inv.kind} row {row} off reference {ref}"
            return None
        # Monte Carlo rows at another seed: range and bookkeeping checks
        samples = inv.trajectories // inv.points
        for row, ref in zip(rows, ref_rows):
            ratio, error, std_err, n_samples, row_seed = row
            if not (
                _close(float(ratio), float(ref[0]))
                and 0.0 <= float(error) <= 1.0
                and math.isfinite(float(std_err))
                and int(n_samples) == samples
                and int(row_seed) == seed
            ):
                return f"{inv.kind} row {row} fails the range check"
        return None
    except (ValueError, IndexError, OSError) as exc:
        return f"{inv.kind}: unreadable output ({exc})"


def config_hashes(outputs: dict[str, str]) -> dict[str, str]:
    """The effective-config hash each CSV output reports, by output kind."""
    hashes = {}
    for kind, text in outputs.items():
        for line in text.splitlines():
            if line.startswith("# config_hash: "):
                hashes[kind] = line.split(": ", 1)[1]
    return hashes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Tally:
    """Invocation counts, and the reason for the first failure seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or error


def another_pass(started: float, seconds: float, pass_times: list[float]) -> bool:
    """Whether a typical pass still ends within ``seconds`` of ``started``.

    The first pass always runs. Set-up and checks made since ``started``
    count against the budget, so a run lasts about ``seconds`` in all.
    """
    if not pass_times:
        return True
    return time.perf_counter() - started + statistics.median(pass_times) <= seconds
