import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tlrsim import cli
from tlrsim.config import (
    _LEAVES,
    DEFAULT_CONFIG,
    detector_params,
    fjs_params,
    load_config,
    tlr_params,
)

CMD = [sys.executable, "-m", "tlrsim"]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(*args, timeout=300, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=timeout, **kwargs
    )


def run_argv(argv):
    """Exit code, stdout and stderr of ``cli.main`` on ``argv``, in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("# timestamp"))


class TestParams:
    def test_defaults_exit_zero(self):
        proc = run_cli("params")
        assert proc.returncode == 0
        assert "mode_frequency_hz" in proc.stdout
        assert " 2.00000000e+10" in proc.stdout
        assert "transfer_rate_hz" in proc.stdout
        assert "interaction_spread_rel" in proc.stdout

    def test_empty_config_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        proc = run_cli("params", "--config", str(path))
        assert proc.returncode == 0
        assert proc.stdout == run_cli("params").stdout

    def test_out_flag_writes_file(self, tmp_path):
        dest = tmp_path / "report.txt"
        proc = run_cli("params", "--out", str(dest))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert "mode_frequency_hz" in dest.read_text()

    def test_notes_stay_short_at_an_extreme_spread(self):
        # a shift spread of 6.2e305 Hz once printed as a 310-character GHz note
        override = {"device": {"fjs": {"phi_sq_spread_scale": 1e300}}}
        code, stdout, _ = run_in_process("params", override)
        assert code == 0
        assert "-6.2015e+296 GHz" in stdout
        assert all(len(line.split(None, 2)[2]) <= 20 for line in stdout.splitlines())

    def test_unwritable_out_exits_two_naming_flag_and_path(self, tmp_path):
        dest = tmp_path / "missing" / "report.txt"
        proc = run_cli("params", "--out", str(dest))
        assert proc.returncode == 2
        assert f"config error: --out: cannot write {dest}:" in proc.stderr
        assert "Traceback" not in proc.stderr


def benchmark_invocations():
    """Each invocation of perfbench/workloads.py, at one and two jobs, and each set-up call."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass resolves annotations through here
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    found = []
    for workload in workloads.WORKLOAD_CONFIGS:
        found.append(workloads.setup_invocation(workload))
        for jobs in (1, 2):
            found += workloads.invocations(workload, 7, jobs=jobs)
    return found


def benchmark_command_lines():
    return [inv.argv for inv in benchmark_invocations()]


def sweep_rows(text):
    """Data rows of a sweep CSV by column name; output that is no sweep CSV has none."""
    if not text.startswith("# tool: tlrsim"):
        return []
    header, *rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


# the flags each subcommand does not read
REMOVED_FLAGS = {
    "params": (("--seed", "1"), ("--samples", "2"), ("--quick",), ("--no-timestamp",), ("--jobs", "1")),
    "validate": (("--samples", "2"), ("--quick",), ("--no-timestamp",), ("--jobs", "1")),
    "transfer-error": (("--samples", "2"), ("--quick",)),
    "detector": (("--samples", "2"), ("--quick",)),
}


class TestFlags:
    def test_benchmark_command_lines_parse(self, tmp_path):
        lines = benchmark_command_lines()
        assert {argv[0] for argv in lines} == {*REMOVED_FLAGS, "cphase-error"}
        for argv in lines:
            args = cli._build_parser().parse_args([*argv, "--out", str(tmp_path / "out")])
            assert args.command == argv[0]

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c, flags in REMOVED_FLAGS.items() for f in flags]
    )
    def test_flag_a_subcommand_does_not_read_exits_two(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli._build_parser().parse_args([command, *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestBenchmarkWorkCounts:
    def test_declared_counts_are_the_work_done(self):
        # points_per_s and trajectories_per_s divide these declared counts by wall time
        from tlrsim.validate import MC_SAMPLES

        for inv in dict.fromkeys(benchmark_invocations()):
            code, stdout, stderr = run_argv(inv.argv)
            assert code == 0, (inv.argv, stderr)
            rows = sweep_rows(stdout)
            assert inv.points == len(rows), inv.argv
            if inv.argv[0] == "cphase-error":
                done = sum(int(row["n_samples"]) for row in rows)
            else:
                done = MC_SAMPLES if inv.argv[0] == "validate" else 0
            assert inv.trajectories == done, inv.argv


class TestConfigErrors:
    def test_unknown_key_exits_two_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"device": {"tlr": {"indctance_h": 1.0}}}))
        proc = run_cli("params", "--config", str(path))
        assert proc.returncode == 2
        assert "device.tlr.indctance_h" in proc.stderr

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        proc = run_cli("validate", "--config", str(path))
        assert proc.returncode == 2

    def test_unknown_flag_exits_two(self):
        proc = run_cli("params", "--frobnicate")
        assert proc.returncode == 2

    def test_non_positive_jobs_exits_two_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["transfer-error", "--jobs", "0"])
        assert exit_.value.code == 2
        assert "argument --jobs: must be a positive integer" in capsys.readouterr().err

    def test_non_number_list_item_exits_two_with_path(self):
        override = {"experiments": {"cphase": {"speed_ratios": ["a"]}}}
        code, stdout, stderr = run_in_process("cphase-error", override)
        assert code == 2
        assert stdout == ""
        assert stderr == "config error: experiments.cphase.speed_ratios[0]: expected a number\n"

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("cphase-error", '{"noise": {"samples": 1e400}}', "noise.samples"),
            (
                "transfer-error",
                '{"experiments": {"transfer": {"detuning_hz": NaN}}}',
                "experiments.transfer.detuning_hz",
            ),
        ],
    )
    def test_non_finite_number_exits_two_with_path(self, tmp_path, command, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli(command, "--config", str(path), "--no-timestamp")
        assert proc.returncode == 2
        assert f"config error: {key}: expected a finite number" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"noise": {"seed": -3}}', "noise.seed"),
            ('{"noise": {"samples": 1e300}}', "noise.samples"),
            ('{"experiments": {"cphase": {"kappa_hz": -1}}}', "experiments.cphase.kappa_hz"),
            ('{"device": {"tlr": {"mode_index": 0}}}', "device.tlr.mode_index"),
            ('{"device": {"temperature_k": -1}}', "device.temperature_k"),
            (
                '{"experiments": {"transfer": {"kappa_grid_hz": [-1]}}}',
                "experiments.transfer.kappa_grid_hz[0]",
            ),
            (
                '{"experiments": {"cphase": {"speed_ratios": [-1]}}}',
                "experiments.cphase.speed_ratios[0]",
            ),
            (
                '{"experiments": {"detector": {"gamma_over_kappa": [10, -1]}}}',
                "experiments.detector.gamma_over_kappa[1]",
            ),
        ],
    )
    def test_out_of_range_exits_two_with_path(self, tmp_path, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli("cphase-error", "--config", str(path), "--no-timestamp")
        assert proc.returncode == 2
        assert f"config error: {key}: must be" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "params",
                '{"device": {"fjs": {"junction_critical_current_a": 0}}}',
                "device.fjs.junction_critical_current_a",
            ),
            ("params", '{"device": {"fjs": {"shunt_capacitance_f": -1}}}', "device.fjs.shunt_capacitance_f"),
            ("params", '{"device": {"fjs": {"mutual_inductance_d_h": 0}}}', "device.fjs.mutual_inductance_d_h"),
            ("detector", '{"device": {"detector": {"escape_rate_hz": -1}}}', "device.detector.escape_rate_hz"),
        ],
    )
    def test_device_leaf_out_of_range_exits_two_with_path(self, tmp_path, command, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli(command, "--config", str(path))
        assert proc.returncode == 2
        assert f"config error: {key}: must be" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"device": {"tlr": {"photon_loss_rate_hz": 1e4}}}', "device.tlr.photon_loss_rate_hz"),
            ('{"device": {"cbjj": {"level_splitting_hz": 2.2e10}}}', "device.cbjj.level_splitting_hz"),
            ('{"device": {"tlr": {"length_m": 4e-3}}}', "device.tlr.length_m"),
            ('{"noise": {"gamma2_hz": 1e6}}', "noise.gamma2_hz"),
        ],
    )
    def test_deleted_leaf_exits_two_with_path(self, tmp_path, text, key):
        path = tmp_path / "old.json"
        path.write_text(text)
        proc = run_cli("params", "--config", str(path))
        assert proc.returncode == 2
        assert f"config error: {key}: unknown key" in proc.stderr

    def test_samples_flag_past_cap_exits_two(self):
        proc = run_cli("cphase-error", "--samples", "100000000000", "--no-timestamp")
        assert proc.returncode == 2
        assert "config error: noise.samples: must be in [2, 10000000]" in proc.stderr

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--samples", "0", "noise.samples: must be in [2, 10000000], got 0"),
            ("--seed", "-1", "noise.seed: must be in [0, 18446744073709551615], got -1"),
        ],
    )
    def test_out_of_range_flag_exits_two_with_path(self, flag, value, message):
        proc = run_cli("cphase-error", flag, value, "--no-timestamp")
        assert proc.returncode == 2
        assert f"config error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_one_sample_exits_two_even_with_quick(self):
        # one sample has no standard error: it would print nan in every std_err cell
        proc = run_cli("cphase-error", "--samples", "1", "--quick", "--no-timestamp")
        assert proc.returncode == 2
        assert "config error: noise.samples: must be in [2, 10000000], got 1" in proc.stderr
        assert proc.stdout == ""

    def test_low_sample_count_needs_quick(self):
        proc = run_cli("cphase-error", "--samples", "50")
        assert proc.returncode == 2
        assert "quick" in proc.stderr
        proc = run_cli("cphase-error", "--samples", "50", "--quick", "--no-timestamp")
        assert proc.returncode == 0
        assert "# quick:" in proc.stdout


# Derived conditions that a config inside the accepted ranges can still
# reach: each exits 1 with this message (and the single leaf that gets there)
EXIT_ONE_CONDITIONS = (
    "bias current exceeds the critical tilt of the SQUID well",  # |bias_current_a|
    "resonator L * C = ",  # L * C under- or overflows: inductance_h, capacitance_f
    "resonator mode frequency overflows the float range",  # mode_index near 1e308
    "SQUID operating point leaves the float range",  # a derived quantity under- or overflows
    "tap coupling leaves the float range",  # C (C_J + 2 C_c) underflows: a subnormal capacitance_f
    "detuning must be nonzero",  # experiments.transfer.detuning_hz of 0
    "params row ",  # a params row past the float range: a detuning near 0
)

EXTREMES = (5e-324, 1e-300, 1e-30, 0.0, 1.0, 1e30, 1e300, sys.float_info.max)


def numeric_leaves(tree, prefix=()):
    for key, value in tree.items():
        path = (*prefix, key)
        if isinstance(value, dict):
            yield from numeric_leaves(value, path)
        elif not isinstance(value, (str, bool)):
            yield path, value


def accepted_values(path, default):
    """Values the config's range for ``path`` accepts, its extremes included."""
    _, (low, high, open_low) = _LEAVES[".".join(path)]
    if isinstance(default, int):
        return st.integers(max(low, -(2**64)), min(high, int(sys.float_info.max)))
    extremes = [sign * x for sign in (1, -1) for x in EXTREMES]
    accepted = [x for x in extremes if low <= x <= high and not (open_low and x == low)]
    floats = st.floats(
        min_value=low if math.isfinite(low) else None,
        max_value=high if math.isfinite(high) else None,
        exclude_min=open_low,
        allow_nan=False,
        allow_infinity=False,
    )
    values = st.one_of(st.sampled_from(accepted), floats)
    return st.lists(values, min_size=1, max_size=1) if isinstance(default, list) else values


@st.composite
def single_leaf_overrides(draw):
    path, default = draw(st.sampled_from(sorted(numeric_leaves(DEFAULT_CONFIG))))
    override = draw(accepted_values(path, default))
    for key in reversed(path):
        override = {key: override}
    return override


DETECTOR_UNSETTLED = "detector did not settle within 52 squarings of its step"
FAST_DETECTOR = {"coupling_hz": 3e306, "photon_loss_rate_hz": 3e306, "escape_rate_hz": 3e306}
ZERO_ESCAPE = "escape rate gamma_over_kappa x photon loss rate is 0"
EXPM_SQUARINGS = "needs more than 23 squarings"
CHECKPOINT_SQUARINGS = "repeated squarings: "  # then the state check's reason
PROPAGATOR_SQUARINGS = "squarings of the propagator: "
STIFF = "generator too stiff"
MAX = sys.float_info.max
QUICK_CPHASE = ["cphase-error", "--samples", "2", "--quick"]

# what transfer-error, a closed form, may also exit 1 with on a config
# the ranges accept
TRANSFER_EXIT_ONE_CONDITIONS = (
    *EXIT_ONE_CONDITIONS,
    "leaves the float range",
    "dispersive construction invalid",  # a detuning under the dispersive floor
)
# what the engine commands may also exit 1 with
ENGINE_EXIT_ONE_CONDITIONS = (
    *TRANSFER_EXIT_ONE_CONDITIONS,
    EXPM_SQUARINGS,
    CHECKPOINT_SQUARINGS,
    PROPAGATOR_SQUARINGS,
    DETECTOR_UNSETTLED,
    ZERO_ESCAPE,  # the detector sweep at zero photon loss
    STIFF,
    "no wait gives a conditional phase of pi",  # a cphase transfer too slow for its interaction
)


def run_in_process(command, override, *args):
    """Exit code, stdout and stderr of ``cli.main`` on a config file holding ``override``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as handle:
            json.dump(override, handle)
        return run_argv([command, "--config", path, *args])


class TestDerivedConditions:
    def test_detector_sweep_at_zero_photon_loss_exits_one(self):
        # each escape rate is gamma_over_kappa x the loss: 0 would fill every row with 0
        override = {"device": {"detector": {"photon_loss_rate_hz": 0}}}
        code, stdout, stderr = run_in_process("detector", override)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: detector sweep {ZERO_ESCAPE}")
        code, stdout, _ = run_in_process("validate", override)  # no sweep: every row passes
        assert code == 0
        assert ",fail," not in stdout and ",warn," not in stdout

    @pytest.mark.parametrize("command", ["params", "transfer-error", "validate"])
    def test_lc_underflow_exits_one_without_traceback(self, tmp_path, command):
        path = tmp_path / "underflow.json"
        path.write_text(
            json.dumps({"device": {"tlr": {"inductance_h": 1e-200, "capacitance_f": 1e-200}}})
        )
        proc = run_cli(command, "--config", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: resonator L * C = 0.0 leaves the float range" in proc.stderr

    @pytest.mark.parametrize(
        "override",
        [
            {"tlr": {"inductance_h": 1e100}},  # the cross-Kerr underflows to -0.0
            {"fjs": {"junction_critical_current_a": 1e300}},  # sigma_phi underflows
            {"fjs": {"junction_critical_current_a": 1e-30}},  # mean cos(phi) underflows
        ],
    )
    def test_squid_underflow_names_the_float_range(self, tmp_path, override):
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps({"device": override}))
        proc = run_cli("params", "--config", str(path))
        assert proc.returncode == 1
        assert "error: SQUID operating point leaves the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["transfer-error", "validate"])
    @pytest.mark.parametrize(
        "override, message",
        [
            # g is 2.8e-301 and g^2 underflows
            ({"coupler": {"coupling_capacitance_f": 5e-324}}, "transfer coupling squared"),
            # g^2 is a normal float, but pi |detuning| / (2 g^2) overflows to inf
            ({"cbjj": {"junction_capacitance_f": MAX}}, "transfer gate time"),
            # every input is positive, but the derived g underflows to 0
            ({"tlr": {"capacitance_f": MAX}}, "transfer coupling 0.0"),
            # a subnormal resonator capacitance: the coupling's denominator underflows to 0
            ({"tlr": {"capacitance_f": 2.2250738585e-313}}, "tap coupling"),
        ],
    )
    def test_derived_transfer_quantity_names_the_float_range(
        self, tmp_path, command, override, message
    ):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"device": override}))
        proc = run_cli(command, "--config", str(path))
        assert proc.returncode == 1
        assert f"error: {message} leaves the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv, override, quantity",
        [
            # the shift spread is 3.9e306 rad/s over a phi^2 spread of 1e-4
            (QUICK_CPHASE, {"device": {"fjs": {"phi_sq_spread_scale": 1e300}}}, "shift coefficient"),
            (["validate"], {"device": {"fjs": {"phi_sq_spread_scale": 1e300}}}, "shift coefficient"),
            # a subnormal transfer coupling: pi / (2 g) overflows to inf
            (QUICK_CPHASE, {"experiments": {"cphase": {"speed_ratios": [5e-324]}}}, "transfer time"),
            (QUICK_CPHASE, {"experiments": {"cphase": {"speed_ratios": [MAX]}}}, "transfer coupling"),
        ],
    )
    def test_derived_cphase_quantity_names_the_float_range(self, tmp_path, argv, override, quantity):
        # these configs once reached the echo: the exact stderr holds no numpy RuntimeWarning
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(override))
        proc = run_cli(*argv, "--config", str(path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: controlled-phase {quantity} leaves the float range\n"

    def test_frozen_legs_refuse_the_wait_in_one_line(self, tmp_path):
        # a huge shunt capacitance slows the legs to 8.7e-14 rad/s: no photon
        # reaches the cell, so the wait moves no phase; the wait solve's
        # polynomial is a constant, np.roots returns its roots as real zeros,
        # and a Newton step there divides by a zero slope
        path = tmp_path / "frozen.json"
        path.write_text(json.dumps({"device": {"fjs": {"shunt_capacitance_f": 1e30}}}))
        proc = run_cli(*QUICK_CPHASE, "--config", str(path))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: no wait gives a conditional phase of pi")

    @pytest.mark.parametrize(
        "command, override, message",
        [
            ("transfer-error", {"experiments": {"transfer": {"detuning_hz": 1e308}}}, "transfer"),
            ("validate", {"experiments": {"transfer": {"detuning_hz": 1e308}}}, "transfer"),
            ("validate", {"noise": {"kappa_hz": 1e308}}, "transfer"),
            ("detector", {"device": {"detector": {"coupling_hz": 1e308}}}, "detector"),
        ],
    )
    def test_rate_overflow_names_the_float_range(self, tmp_path, command, override, message):
        # inside the accepted range, but 2 pi x 1e308 Hz overflows to inf rad/s
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(override))
        proc = run_cli(command, "--config", str(path))
        assert proc.returncode == 1
        assert f"error: {message} rate or detuning leaves the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, override, message",
        [
            *(
                (command, {"device": {"detector": {"coupling_hz": hz}}}, CHECKPOINT_SQUARINGS)
                for hz in (1e20, 1e50, 1e100)
                for command in ("detector", "validate")
            ),
            # 10 x 2 pi x 1e307 rad/s overflows, so t0 = 0 and the step is the
            # identity: no checkpoint moves the state, and the count stops it
            *(
                (command, {"device": {"detector": {"coupling_hz": 1e307}}}, DETECTOR_UNSETTLED)
                for command in ("detector", "validate")
            ),
            # equal rates, a spread of 1, but 10 x 2 pi x 3e306 rad/s overflows too
            (
                "validate",
                {"device": {"detector": {**FAST_DETECTOR, "intra_well_decay_hz": 0, "dephasing_rate_hz": 0}}},
                DETECTOR_UNSETTLED,
            ),
            (
                "detector",
                {
                    "device": {
                        "detector": {**FAST_DETECTOR, "intra_well_decay_hz": 3e306, "dephasing_rate_hz": 3e306}
                    },
                    "experiments": {"detector": {"gamma_over_kappa": [1.0]}},
                },
                DETECTOR_UNSETTLED,
            ),
            ("validate", {"experiments": {"transfer": {"detuning_hz": 1e300}}}, EXPM_SQUARINGS),
            ("validate", {"noise": {"kappa_hz": 1e300}}, EXPM_SQUARINGS),
            # roundoff breaks a checkpoint state
            ("detector", {"device": {"detector": {"coupling_hz": 1e12}}}, f"{CHECKPOINT_SQUARINGS}trace"),
            (
                "detector",
                {"device": {"detector": {"coupling_hz": 8921720245250.0}}},
                f"{CHECKPOINT_SQUARINGS}Hermiticity",
            ),
            # under MAX_SQUARINGS, but roundoff breaks the propagated state
            (
                "validate",
                {"device": {"cbjj": {"dephasing_rate_hz": 1e16}}},
                "after 23 squarings of the propagator: trace",
            ),
        ],
    )
    def test_squaring_past_roundoff_is_refused_by_name(self, tmp_path, command, override, message):
        # in the accepted range, but repeated squaring compounds roundoff past
        # the state checks, or the checkpoints never settle: refused by name,
        # well inside the timeout
        path = tmp_path / "spread.json"
        path.write_text(json.dumps(override))
        proc = run_cli(command, "--config", str(path), timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["detector", "validate"])
    def test_detector_rates_spanning_1e12_run(self, command):
        # the rates span 1e12x, yet each point settles within 18 checkpoints
        override = {"device": {"detector": {"dephasing_rate_hz": 1e-4}}}
        code, stdout, stderr = run_in_process(command, override)
        assert (code, stderr) == (0, ""), stderr
        assert stdout

    @pytest.mark.parametrize(
        "override, low, high",
        [
            # the sweep's closed form takes no squarings: a gate time of 64 s
            # or a loss of 1e300 Hz loses the photon
            ({"experiments": {"transfer": {"detuning_hz": 1e19}}}, 1.0, 1.0),
            ({"experiments": {"transfer": {"detuning_hz": 1e300}}}, 1.0, 1.0),
            ({"experiments": {"transfer": {"kappa_grid_hz": [1e300]}}}, 1.0, 1.0),
            # dephasing this strong leaves about half the photon behind
            ({"experiments": {"transfer": {"gamma2_grid_hz": [2286582656260911.0]}}}, 0.50004, 0.50404),
        ],
    )
    def test_transfer_sweep_past_squaring_roundoff_reports_the_error(self, override, low, high):
        code, stdout, stderr = run_in_process("transfer-error", override, "--no-timestamp")
        assert (code, stderr) == (0, "")
        rows = sweep_rows(stdout)
        assert rows and all(low <= float(row["error"]) <= high for row in rows)
        assert "-0.00000000e+00" not in stdout

    @pytest.mark.parametrize(
        "override",
        [
            # a drawn detuning whose transfer asked for 1,939,651 RK4 steps
            {"experiments": {"transfer": {"detuning_hz": 4.78529833874339e16}}},
            {"noise": {"kappa_hz": 1e10}},  # 81,143 steps
        ],
    )
    def test_stiff_transfer_is_refused_by_name(self, tmp_path, override):
        # the RK4 cross-check refuses up front what would run for minutes
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(override))
        proc = run_cli("validate", "--config", str(path), timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {STIFF}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "override, row",
        [
            ({"experiments": {"transfer": {"detuning_hz": 1e-300}}}, "transfer_rate_hz"),
            ({"experiments": {"transfer": {"detuning_hz": 1e-160}}}, "effective_dephasing_hz"),
            # -inf, then inf x 0 = nan in the dephasing and loss rows
            (
                {
                    "experiments": {"transfer": {"detuning_hz": -1e-300}},
                    "device": {"cbjj": {"dephasing_rate_hz": 0, "decay_rate_hz": 0}},
                },
                "transfer_rate_hz",
            ),
        ],
    )
    def test_params_row_past_the_float_range_exits_one(self, override, row):
        code, stdout, stderr = run_in_process("params", override)
        assert (code, stdout) == (1, "")
        assert stderr == f"error: params row {row} leaves the float range\n"
        assert any(c in stderr for c in ENGINE_EXIT_ONE_CONDITIONS)

    @settings(max_examples=300, deadline=None)
    @given(single_leaf_overrides())
    def test_accepted_leaf_never_crashes_params(self, override):
        config = load_config(override)  # inside the range: no ConfigError
        tlr_params(config), fjs_params(config)
        try:
            detector_params(config)
        except ValueError as exc:  # a rate near 1e308 Hz overflows in angular units
            assert str(exc) == "detector rate or detuning leaves the float range"
        code, _, stderr = run_in_process("params", override)
        assert code in (0, 1)  # the config loaded, so never 2
        if code == 1:
            assert any(f"error: {c}" in stderr for c in EXIT_ONE_CONDITIONS), stderr

    # examples per engine command, at about 5, 13, 127 and 10 ms per in-process run
    @pytest.mark.parametrize(
        "command, args, examples",
        [
            ("transfer-error", (), 150),
            ("detector", (), 150),
            ("validate", (), 80),
            ("cphase-error", ("--samples", "2", "--quick"), 300),
        ],
    )
    def test_accepted_leaf_never_crashes_engines(self, command, args, examples):
        conditions = (
            TRANSFER_EXIT_ONE_CONDITIONS if command == "transfer-error" else ENGINE_EXIT_ONE_CONDITIONS
        )

        @settings(max_examples=examples, deadline=None)
        @given(single_leaf_overrides())
        def check(override):
            code, stdout, stderr = run_in_process(command, override, *args)
            assert code in (0, 1), stderr
            if code == 1 and not (command == "validate" and not stderr and ",fail," in stdout):
                # not a device the judge fails: a named derived condition
                assert stderr.startswith("error: "), stderr
                assert any(c in stderr for c in conditions), stderr

        check()


class TestCsvCommands:
    def test_transfer_error_deterministic_bytes(self):
        first = run_cli("transfer-error", "--no-timestamp")
        second = run_cli("transfer-error", "--no-timestamp")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert "kappa_hz,gamma2_hz,error,neg_log10_error" in first.stdout

    def test_timestamp_line_is_the_only_difference(self):
        timestamped = run_cli("transfer-error")
        bare = run_cli("transfer-error", "--no-timestamp")
        assert "# timestamp: " in timestamped.stdout
        assert strip_timestamp(timestamped.stdout) == bare.stdout.rstrip("\n")

    def test_jobs_flag_keeps_bytes(self):
        serial = run_cli("cphase-error", "--samples", "120", "--no-timestamp")
        parallel = run_cli("cphase-error", "--samples", "120", "--no-timestamp", "--jobs", "3")
        assert serial.returncode == 0 and parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_detector_csv_and_out(self, tmp_path):
        dest = tmp_path / "detector.csv"
        proc = run_cli("detector", "--no-timestamp", "--out", str(dest))
        assert proc.returncode == 0
        text = dest.read_text()
        assert "gamma_over_kappa,efficiency,one_minus_eff,converged,t_final_s" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 5

    def test_seed_flag_lands_in_metadata_and_rows(self):
        proc = run_cli("cphase-error", "--samples", "120", "--seed", "7", "--no-timestamp")
        assert proc.returncode == 0
        assert "# seed: 7" in proc.stdout
        assert proc.stdout.splitlines()[-1].endswith(",7")


    def test_spec_warning_prints_once_at_any_jobs(self, tmp_path):
        # specs are built in the parent, so a pooled sweep warns as a serial one does
        path = tmp_path / "close.json"
        path.write_text(json.dumps({"experiments": {"transfer": {"detuning_hz": 1.6e9}}}))
        args = ("transfer-error", "--config", str(path), "--no-timestamp")
        serial, pooled = (run_cli(*args, "--jobs", jobs) for jobs in ("1", "2"))
        for proc in (serial, pooled):
            assert proc.returncode == 0
            assert proc.stderr == "warning: detuning below 10x coupling; dispersive corrections grow\n"
        assert serial.stdout == pooled.stdout

    def test_cphase_points_near_the_phase_wrap_are_silent_at_any_jobs(self, tmp_path):
        # these ratios put calibration phases near +-pi, which an exact
        # calibration reads off without any wrap to warn about
        path = tmp_path / "wrap.json"
        path.write_text(json.dumps({"experiments": {"cphase": {"speed_ratios": [1.24, 1.48]}}}))
        args = (*QUICK_CPHASE, "--config", str(path), "--no-timestamp")
        serial, pooled = (run_cli(*args, "--jobs", jobs) for jobs in ("1", "2"))
        for proc in (serial, pooled):
            assert proc.returncode == 0
            assert proc.stderr == ""
        assert serial.stdout == pooled.stdout


class TestThreadPolicy:
    def test_lossy_bytes_independent_of_jobs_and_blas_threads(self, tmp_path):
        path = tmp_path / "lossy.json"
        path.write_text(json.dumps({"experiments": {"cphase": {"kappa_hz": 1e3}}}))
        args = ("cphase-error", "--config", str(path), "--samples", "2", "--quick",
                "--no-timestamp")
        serial = run_cli(*args, "--jobs", "1")
        pooled = run_cli(*args, "--jobs", "2")
        threaded = run_cli(*args, "--jobs", "1",
                           env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
        for proc in (serial, pooled, threaded):
            assert proc.returncode == 0, proc.stderr
        assert serial.stdout == pooled.stdout == threaded.stdout

    @pytest.mark.parametrize(
        "preset, expected",
        [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])],
    )
    def test_cli_import_defaults_blas_threads_keeping_user_values(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(preset)
        code = ("import os, tlrsim.cli; "
                f"print(*(os.environ.get(v) for v in {BLAS_THREAD_VARS!r}))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected


class TestValidateCommand:
    def test_default_passes(self):
        proc = run_cli("validate")
        assert proc.returncode == 0
        assert "trace-preservation,pass" in proc.stdout
        assert ",fail," not in proc.stdout

    def test_failing_device_exits_one(self, tmp_path):
        # a warmer resonator holds more thermal photons than the fixed bound allows
        path = tmp_path / "warm.json"
        path.write_text(json.dumps({"device": {"temperature_k": 0.05}}))
        proc = run_cli("validate", "--config", str(path))
        assert proc.returncode == 1
        assert "thermal-occupancy,fail,4.60109151e-09" in proc.stdout

    def test_config_cannot_loosen_a_bound(self, tmp_path):
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({"validation": {"trace_tol": 1e300}}))
        proc = run_cli("validate", "--config", str(path))
        assert proc.returncode == 2
        assert "config error: validation: unknown key" in proc.stderr
        assert proc.stdout == ""

    def test_low_detuning_warn_row(self, tmp_path):
        path = tmp_path / "close.json"
        path.write_text(json.dumps({"experiments": {"transfer": {"detuning_hz": 3.9374e8}}}))
        proc = run_cli("validate", "--config", str(path))
        assert proc.returncode == 0
        assert "dispersive-regime,warn" in proc.stdout
