"""Byte contract: pinned digests of the CLI's outputs.

A sweep is pinned by the md5 of its data rows (every line that does not
start with ``#``, header row included), at one and at two worker
processes; ``params`` and ``validate`` by the md5 of their whole output.
A change that moves a digit of any pinned output must say which row moved
and why, and re-pin the digest.  The same digests hold at two BLAS threads.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

LOSSY = {"experiments": {"cphase": {"kappa_hz": 1e3}}}
LOSSY_SIMULATED_FLIPS = {"experiments": {"cphase": {"kappa_hz": 1e3, "flips": "simulated"}}}

SWEEPS = {
    "cphase-samples-100": (
        None, ["cphase-error", "--samples", "100"], "1b0b0fc3b945fe1b3bb344b109e2ff98"
    ),
    "cphase-samples-120-seed-7": (
        None,
        ["cphase-error", "--samples", "120", "--seed", "7"],
        "ba8fc382b2351f9ec09bf5fbb12f803a",
    ),
    "cphase-lossy": (
        LOSSY,
        ["cphase-error", "--samples", "2", "--quick"],
        "743a08d41775912c34c7340fe6604c54",
    ),
    "cphase-lossy-simulated-flips": (
        LOSSY_SIMULATED_FLIPS,
        ["cphase-error", "--samples", "2", "--quick"],
        "6e1d7cf9e127525c4795ea5fe8ff77ec",
    ),
    "transfer-error": (None, ["transfer-error"], "a5dd0a39a68f5430e0e6c5b90cfa6ee5"),
    "detector": (None, ["detector"], "2d05596c2fca478b413ff50c603c19db"),
}

WHOLE_OUTPUTS = {
    "params": "c5152944a4363c91b1dedf1a60ab336a",
    "validate": "ee4626b4b74a6961f07c92552d32bf73",
}


# the CLI keeps a thread count the user exported (tests/test_cli.py checks it)
TWO_BLAS_THREADS = {
    var: "2" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "tlrsim", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=None if env is None else {**os.environ, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def sweep_rows_md5(tmp_path, name, jobs, env=None):
    overrides, args, _ = SWEEPS[name]
    if overrides is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides))
        args = [*args, "--config", str(config)]
    text = run_cli(*args, "--jobs", jobs, "--no-timestamp", env=env)
    return md5("".join(line + "\n" for line in text.splitlines() if not line.startswith("#")))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_data_rows(tmp_path, name, jobs):
    assert sweep_rows_md5(tmp_path, name, jobs) == SWEEPS[name][2]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_data_rows_at_two_blas_threads(tmp_path, name):
    assert sweep_rows_md5(tmp_path, name, "1", env=TWO_BLAS_THREADS) == SWEEPS[name][2]


@pytest.mark.parametrize("command", sorted(WHOLE_OUTPUTS))
def test_whole_output(command):
    assert md5(run_cli(command)) == WHOLE_OUTPUTS[command]


@pytest.mark.parametrize("command", sorted(WHOLE_OUTPUTS))
def test_whole_output_at_two_blas_threads(command):
    assert md5(run_cli(command, env=TWO_BLAS_THREADS)) == WHOLE_OUTPUTS[command]
