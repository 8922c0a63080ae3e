import hashlib
import struct
import warnings

import pytest

from tlrsim import detector, lindblad, validate
from tlrsim.config import load_config
from tlrsim.validate import CheckResult, has_failure, render_report, run_validation

RESULTS = run_validation(load_config())
BY_ID = {r.id: r for r in RESULTS}

EXPECTED_IDS = {
    "trace-preservation",
    "hermiticity",
    "hermiticity-raw",
    "positivity",
    "cross-integrator",
    "excitation-conservation",
    "rabi-return",
    "echo-independence",
    "mc-lindblad-agreement",
    "dispersive-peak",
    "dispersive-halving",
    "dispersive-regime",
    "thermal-occupancy",
}


class TestDefaultSuite:
    def test_every_check_present_once(self):
        ids = [r.id for r in RESULTS]
        assert len(ids) == len(set(ids))
        assert set(ids) == EXPECTED_IDS

    def test_all_pass_on_defaults(self):
        assert all(r.status == "pass" for r in RESULTS), render_report(RESULTS)
        assert not has_failure(RESULTS)

    def test_measured_values_have_headroom(self):
        # conserved quantities should sit far below their bounds, not
        # scrape them; a factor 10 guard catches slow numeric erosion
        assert BY_ID["trace-preservation"].measured < 1e-10
        assert BY_ID["cross-integrator"].measured < 1e-7
        assert BY_ID["excitation-conservation"].measured < 1e-10
        assert BY_ID["echo-independence"].measured < 1e-10

    def test_mc_agreement_is_sub_sigma(self):
        assert BY_ID["mc-lindblad-agreement"].measured < 3.0


    def test_each_propagator_built_once(self, monkeypatch):
        keys = []
        original = lindblad.propagator

        def counting(liouvillian, duration):
            key = liouvillian.matrix().tobytes() + struct.pack("<d", duration)
            keys.append(hashlib.sha256(key).digest())
            return original(liouvillian, duration)

        for module in (lindblad, validate, detector):
            monkeypatch.setattr(module, "propagator", counting)
        run_validation(load_config())
        assert len(keys) == len(set(keys)) == 8


class TestNegativeControls:
    def test_tampered_trace_bound_fails_controlled(self, monkeypatch):
        monkeypatch.setattr(validate, "TRACE_BOUND", 1e-15)
        results = run_validation(load_config())
        row = next(r for r in results if r.id == "trace-preservation")
        assert row.status == "fail"
        assert row.measured > 1e-15
        assert has_failure(results)

    def test_low_detuning_surfaces_warning_not_failure(self):
        # detuning at twice the coupling: far outside the dispersive
        # regime, inside the range the constructors reject outright
        config = load_config({"experiments": {"transfer": {"detuning_hz": 3.9374e8}}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_validation(config)
        row = next(r for r in results if r.id == "dispersive-regime")
        assert row.status == "warn"
        assert row.measured == pytest.approx(2.0, rel=1e-3)
        assert not has_failure(results)

    def test_marginal_detuning_also_warns(self):
        config = load_config({"experiments": {"transfer": {"detuning_hz": 1.4e9}}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_validation(config)
        row = next(r for r in results if r.id == "dispersive-regime")
        assert row.status == "warn"
        assert 5.0 < row.measured < 10.0


class TestZeroDephasing:
    # every draw is the same lossless exchange, so the Monte Carlo spread is 0
    CONFIG = {"device": {"cbjj": {"dephasing_rate_hz": 0}}}

    def mc_row(self, overrides):
        results = run_validation(load_config(overrides))
        return next(r for r in results if r.id == "mc-lindblad-agreement"), results

    def test_zero_spread_agrees_within_the_integrator_tolerance(self):
        row, results = self.mc_row(self.CONFIG)
        assert row.status == "pass"
        assert row.measured <= 1e-12
        assert row.bound == "<= 1.000e-06"
        assert not has_failure(results)
        assert render_report(results).count("\n") == len(EXPECTED_IDS) + 1

    def test_zero_spread_still_fails_past_the_tolerance(self, monkeypatch):
        # both sides run the same exponential and agree exactly, so the
        # floating point floor is 0 and a bound past it is negative
        monkeypatch.setattr(validate, "CROSS_INTEGRATOR_BOUND", -1e-30)
        row, _ = self.mc_row(self.CONFIG)
        assert row.status == "fail"


class TestReportFormat:
    def test_one_line_per_check_plus_header(self):
        text = render_report(RESULTS)
        lines = text.strip().splitlines()
        assert lines[0] == "id,status,measured,bound"
        assert len(lines) == len(RESULTS) + 1
        for line in lines[1:]:
            check_id, status, measured, bound = line.split(",", 3)
            assert check_id in EXPECTED_IDS
            assert status in ("pass", "warn", "fail")
            float(measured)
            assert bound

    def test_checkresult_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="status"):
            CheckResult("x", "maybe", 0.0, "<= 1")
