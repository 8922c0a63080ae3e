"""scripts/reproduce_figures.py: overrides pass the config checks and land in the CSVs."""

import json
import subprocess
import sys
from pathlib import Path

from tlrsim.sweeps import read_config_comment

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
# one point per sweep keeps the run short; the script prints the transfer
# row at the default noise.kappa_hz 10 kHz and cbjj dephasing 1 MHz
SMALL = {
    "experiments": {
        "transfer": {"kappa_grid_hz": [1e4], "gamma2_grid_hz": [1e6]},
        "cphase": {"speed_ratios": [20]},
        "detector": {"gamma_over_kappa": [1e4]},
    }
}


def run_script(tmp_path, *args, overrides=SMALL):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(overrides))
    argv = [sys.executable, str(SCRIPT), "--config", str(config), "--outdir", str(tmp_path)]
    return subprocess.run(argv + list(args), capture_output=True, text=True, timeout=300)


def test_quick_sample_count_is_the_embedded_config(tmp_path):
    proc = run_script(tmp_path, "--quick", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "cphase_error.csv").read_text()
    noise = read_config_comment(text)["noise"]
    assert (noise["samples"], noise["seed"]) == (150, 7)
    row = text.splitlines()[-1].split(",")
    assert row[3:] == ["150", "7"]


def test_bad_seed_exits_two_naming_the_key(tmp_path):
    proc = run_script(tmp_path, "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: noise.seed")
    assert "Traceback" not in proc.stderr


def test_operating_point_is_read_from_the_config(tmp_path):
    overrides = json.loads(json.dumps(SMALL))
    overrides["experiments"]["transfer"]["kappa_grid_hz"] = [1e4, 2e4]
    overrides["noise"] = {"kappa_hz": 2e4}
    proc = run_script(tmp_path, "--quick", overrides=overrides)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "transfer_error.csv").read_text().splitlines()[-2:]
    error = float(rows[1].split(",")[2])
    assert rows[1].startswith("2.00000000e+04,")
    assert f"kappa/2pi=20000 Hz, Gamma2/2pi=1e+06 Hz: {error:.4e}" in proc.stdout


def test_grid_without_the_operating_point_is_reported(tmp_path):
    overrides = json.loads(json.dumps(SMALL))
    overrides["experiments"]["transfer"]["kappa_grid_hz"] = [2e4]
    proc = run_script(tmp_path, "--quick", overrides=overrides)
    assert proc.returncode == 0, proc.stderr
    assert "transfer grid has no point at kappa/2pi=10000 Hz" in proc.stdout
    assert "Traceback" not in proc.stderr
    for name in ("transfer_error.csv", "cphase_error.csv", "detector_efficiency.csv"):
        assert (tmp_path / name).is_file()


def test_outdir_that_cannot_be_created_exits_two(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = blocker / "figures"
    proc = run_script(tmp_path, "--quick", "--outdir", str(outdir))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: --outdir: cannot create {outdir}:")
    assert "Traceback" not in proc.stderr


def test_csv_that_cannot_be_written_exits_two(tmp_path):
    outdir = tmp_path / "figures"
    blocker = outdir / "transfer_error.csv"
    blocker.mkdir(parents=True)  # a directory where the CSV goes
    proc = run_script(tmp_path, "--quick", "--outdir", str(outdir))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: --outdir: cannot write {blocker}:")
    assert "Traceback" not in proc.stderr


def test_simulation_failure_exits_one_without_traceback(tmp_path):
    overrides = json.loads(json.dumps(SMALL))
    overrides["device"] = {"tlr": {"inductance_h": 1e-200, "capacitance_f": 1e-200}}
    proc = run_script(tmp_path, "--quick", overrides=overrides)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: resonator L * C = 0.0 leaves the float range")
    assert "Traceback" not in proc.stderr


def test_non_positive_jobs_exits_two_naming_the_flag(tmp_path):
    proc = run_script(tmp_path, "--jobs", "-3")
    assert proc.returncode == 2
    assert "argument --jobs: must be a positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ratios_print_as_configured(tmp_path):
    overrides = json.loads(json.dumps(SMALL))
    overrides["experiments"]["cphase"]["speed_ratios"] = [1.24, 1.48, 20]
    overrides["experiments"]["detector"]["gamma_over_kappa"] = [0.5, 2.5]
    proc = run_script(tmp_path, "--quick", overrides=overrides)
    assert proc.returncode == 0, proc.stderr
    printed = [line.split(":")[0].split()[-1] for line in proc.stdout.splitlines() if " ratio " in line]
    assert [float(ratio) for ratio in printed] == [1.24, 1.48, 20.0, 2.5]  # the last detector row
