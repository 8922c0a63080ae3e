import concurrent.futures
import math
import re

import pytest

from tlrsim.config import ConfigError, canonical_json, config_hash, load_config, tlr_params
from tlrsim.device import coupling_strength, mode_frequency, to_angular
from tlrsim.lindblad import propagate_expm
from tlrsim.protocols import TransferSpec, build_transfer_liouvillian, transfer_space
from tlrsim.sweeps import (
    AUTHORITATIVE_SAMPLES,
    read_config_comment,
    render_csv,
    run_cphase_sweep,
    run_detector_sweep,
    run_transfer_sweep,
)

CONFIG = load_config()


def noise_config(**noise):
    return load_config({"noise": noise})


class TestTransferSweep:
    def test_grid_order_first_axis_slowest(self):
        result = run_transfer_sweep(CONFIG)
        kappas = CONFIG["experiments"]["transfer"]["kappa_grid_hz"]
        gamma2s = CONFIG["experiments"]["transfer"]["gamma2_grid_hz"]
        assert len(result.rows) == len(kappas) * len(gamma2s)
        expected = [(k, g) for k in kappas for g in gamma2s]
        assert [(row[0], row[1]) for row in result.rows] == expected

    def test_operating_point_matches_closed_form(self):
        result = run_transfer_sweep(CONFIG)
        row = next(r for r in result.rows if r[0] == 1.0e4 and r[1] == 1.0e6)
        tlr = tlr_params(CONFIG)
        spec = TransferSpec(
            coupling=coupling_strength(mode_frequency(tlr), 5.0e-12, 2.3e-14, 5.0e-13),
            detuning=to_angular(2.0e9),
            photon_loss_rate=to_angular(1.0e4),
            dephasing_rate=to_angular(1.0e6),
        )
        left = transfer_space().basis_state([1, 0])
        engine = propagate_expm(build_transfer_liouvillian(spec), left, spec.gate_time)
        assert row[2] == pytest.approx(1.0 - engine.population(1), rel=1e-9)
        # the default tap coupling, 1.2369193e9 rad/s, sits 3e-6 above the
        # protocol tests' G_OP, so this row is not their 2.377374e-3
        assert row[2] == pytest.approx(2.3773699977402973e-03, rel=1e-9)

    def test_neg_log10_column(self):
        result = run_transfer_sweep(CONFIG)
        for row in result.rows:
            assert row[3] == pytest.approx(-math.log10(row[2]), rel=1e-12)

    def test_neg_log10_column_at_the_error_bounds(self):
        # an error of 1 reads 0.0, not -0.0; an error of 0 reads the 1e-300 floor
        lost = run_transfer_sweep(load_config({"experiments": {"transfer": {"kappa_grid_hz": [1e12]}}}))
        assert {row[2:] for row in lost.rows} == {(1.0, 0.0)}
        assert all(math.copysign(1.0, row[3]) == 1.0 for row in lost.rows)
        assert "-0.00000000e+00" not in render_csv(lost, timestamp=False)
        ideal = {"experiments": {"transfer": {"kappa_grid_hz": [0.0], "gamma2_grid_hz": [0.0]}}}
        assert run_transfer_sweep(load_config(ideal)).rows == ((0.0, 0.0, 0.0, 300.0),)

    def test_monotone_in_both_axes(self):
        result = run_transfer_sweep(CONFIG)
        table = {(row[0], row[1]): row[2] for row in result.rows}
        kappas = CONFIG["experiments"]["transfer"]["kappa_grid_hz"]
        gamma2s = CONFIG["experiments"]["transfer"]["gamma2_grid_hz"]
        for k0, k1 in zip(kappas, kappas[1:]):
            for g in gamma2s:
                assert table[(k1, g)] >= table[(k0, g)]
        for g0, g1 in zip(gamma2s, gamma2s[1:]):
            for k in kappas:
                assert table[(k, g1)] >= table[(k, g0)]

    def test_worker_count_does_not_change_bytes(self):
        serial = run_transfer_sweep(CONFIG, jobs=1)
        parallel = run_transfer_sweep(CONFIG, jobs=4)
        assert render_csv(serial, timestamp=False) == render_csv(parallel, timestamp=False)


class TestCphaseSweep:
    def test_row_shape_and_determinism(self):
        result = run_cphase_sweep(noise_config(samples=150))
        assert result.columns == ("ratio", "error", "std_err", "n_samples", "seed")
        assert [row[0] for row in result.rows] == [5.0, 10.0, 20.0, 40.0, 80.0]
        for row in result.rows:
            assert row[3] == 150 and row[4] == 42
        again = run_cphase_sweep(noise_config(samples=150))
        assert render_csv(result, timestamp=False) == render_csv(again, timestamp=False)

    def test_parallel_matches_serial(self):
        config = noise_config(samples=150)
        serial = run_cphase_sweep(config, jobs=1)
        parallel = run_cphase_sweep(config, jobs=3)
        assert render_csv(serial, timestamp=False) == render_csv(parallel, timestamp=False)

    def test_monotone_within_two_std_errors(self):
        result = run_cphase_sweep(CONFIG)
        rows = result.rows
        for prev, nxt in zip(rows, rows[1:]):
            slack = 2.0 * math.hypot(prev[2], nxt[2])
            assert nxt[1] <= prev[1] + slack

    def test_sample_floor_enforced(self):
        with pytest.raises(ConfigError, match="quick"):
            run_cphase_sweep(noise_config(samples=50))
        result = run_cphase_sweep(noise_config(samples=AUTHORITATIVE_SAMPLES - 1), quick=True)
        assert result.quick
        assert "# quick:" in render_csv(result, timestamp=False)
        # --quick at an authoritative count is not marked, and changes no byte
        result = run_cphase_sweep(noise_config(samples=AUTHORITATIVE_SAMPLES), quick=True)
        assert not result.quick
        plain = run_cphase_sweep(noise_config(samples=AUTHORITATIVE_SAMPLES))
        assert render_csv(result, timestamp=False) == render_csv(plain, timestamp=False)

    def test_seed_override_changes_output(self):
        base = run_cphase_sweep(noise_config(samples=150))
        other = run_cphase_sweep(noise_config(samples=150, seed=7))
        assert base.rows != other.rows
        assert all(row[4] == 7 for row in other.rows)


class TestDetectorSweep:
    def test_columns_and_reference_point(self):
        result = run_detector_sweep(CONFIG)
        assert result.columns == (
            "gamma_over_kappa",
            "efficiency",
            "one_minus_eff",
            "converged",
            "t_final_s",
        )
        row = next(r for r in result.rows if r[0] == 2000.0)
        assert row[1] > 0.99
        assert row[2] == pytest.approx(1.0 - row[1], abs=1e-15)
        assert row[3] == 1

    def test_efficiency_monotone_in_ratio(self):
        result = run_detector_sweep(CONFIG)
        effs = [row[1] for row in result.rows]
        assert effs == sorted(effs)
        # slow escape loses the branching race against the intra-well decay
        assert effs[0] < 0.6

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ConfigError, match="gamma_over_kappa"):
            run_detector_sweep(load_config({"experiments": {"detector": {"gamma_over_kappa": [0.0]}}}))

    def test_workers_capped_at_point_count(self, monkeypatch):
        # fork starts every worker up front; a stand-in pool records the
        # count it is asked for and maps serially, so no process starts
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        pooled = run_detector_sweep(load_config(), jobs=64)
        assert requested == [5]
        assert pooled.rows == run_detector_sweep(load_config(), jobs=1).rows


class TestCsvFormat:
    def test_metadata_block(self):
        result = run_detector_sweep(CONFIG)
        text = render_csv(result)
        lines = text.splitlines()
        assert lines[0] == "# tool: tlrsim 0.1.0"
        assert lines[1] == "# experiment: detector"
        assert lines[2].startswith("# config_hash: ")
        assert lines[3] == "# seed: 42"
        assert any(re.fullmatch(r"# timestamp: \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", l) for l in lines)
        assert render_csv(result, timestamp=False).count("# timestamp") == 0

    def test_float_cells_have_nine_significant_digits(self):
        result = run_transfer_sweep(CONFIG)
        body = render_csv(result, timestamp=False).splitlines()
        data = [l for l in body if not l.startswith("#")][1:]
        cell = re.compile(r"-?\d\.\d{8}e[+-]\d{2,3}")
        for line in data:
            for field in line.split(","):
                assert cell.fullmatch(field), field

    def test_integer_cells_stay_integers(self):
        result = run_cphase_sweep(noise_config(samples=120))
        data = [l for l in render_csv(result, timestamp=False).splitlines() if not l.startswith("#")][1:]
        for line in data:
            fields = line.split(",")
            assert fields[3] == "120"
            assert fields[4] == "42"

    def test_config_comment_reproduces_run(self):
        config = noise_config(samples=150)
        result = run_cphase_sweep(config)
        text = render_csv(result, timestamp=False)
        recovered = read_config_comment(text)
        assert canonical_json(recovered) == canonical_json(config)
        rerun = run_cphase_sweep(load_config(recovered))
        assert render_csv(rerun, timestamp=False) == text

    def test_config_is_the_only_source_of_samples_and_seed(self):
        config = noise_config(samples=150, seed=7)
        text = render_csv(run_cphase_sweep(config), timestamp=False)
        assert "# seed: 7" in text
        assert read_config_comment(text)["noise"] == {**CONFIG["noise"], "samples": 150, "seed": 7}
        assert all(line.endswith(",150,7") for line in text.splitlines()[-5:])
        rerun = run_cphase_sweep(load_config(read_config_comment(text)))
        assert render_csv(rerun, timestamp=False) == text
        with pytest.raises(TypeError):
            run_cphase_sweep(CONFIG, samples=150, seed=7)

    def test_missing_config_comment_raises(self):
        with pytest.raises(ValueError, match="config"):
            read_config_comment("a,b\n1,2\n")

    def test_provenance_fields(self):
        text = render_csv(run_transfer_sweep(CONFIG), timestamp=False)
        meta = dict(
            line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# ")
        )
        assert meta["tool"] == "tlrsim 0.1.0"
        assert meta["seed"] == "42"
        assert meta["config_hash"] == config_hash(CONFIG)
        assert len(meta["config_hash"]) == 64
