"""scripts/reproduce_figures.py: overrides pass the config checks and land in the CSVs."""

import json
import subprocess
import sys
from pathlib import Path

from tlrsim.sweeps import read_config_comment

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
# one point per sweep keeps the run short; the script reads the transfer
# row at kappa 10 kHz, gamma2 1 MHz
SMALL = {
    "experiments": {
        "transfer": {"kappa_grid_hz": [1e4], "gamma2_grid_hz": [1e6]},
        "cphase": {"speed_ratios": [20]},
        "detector": {"gamma_over_kappa": [1e4]},
    }
}


def run_script(tmp_path, *args):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL))
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
