import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlrsim import detector
from tlrsim.config import detector_params, load_config
from tlrsim.detector import (
    CONVERGENCE_TOL,
    MAX_CHECKPOINTS,
    T_MAX_FACTOR,
    DetectorParams,
    build_detector_liouvillian,
    detection_efficiency,
    detector_space,
)
from tlrsim.device import TWO_PI
from tlrsim.lindblad import propagate_expm
from tlrsim.qcore import DensityMatrix
from tlrsim.sweeps import run_detector_sweep


# the default detector of the shipped config
DEFAULT = detector_params(load_config())


def bare_params(**overrides):
    defaults = dict(
        coupling=TWO_PI * 1.0e8,
        detuning=0.0,
        photon_loss_rate=0.0,
        escape_rate=0.0,
        intra_well_decay=0.0,
        dephasing_rate=0.0,
    )
    defaults.update(overrides)
    return DetectorParams(**defaults)


def closed_form_efficiency(p):
    """Click probability from integrating the block {|1,g>, |0,e>} to infinity."""
    total = p.escape_rate + p.intra_well_decay
    lam = (p.photon_loss_rate + total) / 2 + p.dephasing_rate
    r = 2 * p.coupling**2 * lam / (lam**2 + p.detuning**2)
    return p.escape_rate * r / (p.photon_loss_rate * total + r * (p.photon_loss_rate + total))


class TestLiouvillianStructure:
    def test_trace_functional_annihilated(self):
        liou = build_detector_liouvillian(DEFAULT)
        sup = liou.matrix()
        trace_row = np.eye(6).reshape(-1)  # the identity stacks the same by rows or columns
        residual = np.abs(trace_row @ sup).max()
        assert residual <= 1e-12 * np.abs(sup).max()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            replace(DEFAULT, escape_rate=-1.0)


class TestCoherentLimit:
    def test_full_rabi_return(self):
        # lossless resonant exchange: complete revival at t = pi / g
        g = TWO_PI * 1.0e8
        liou = build_detector_liouvillian(bare_params(coupling=g))
        space = detector_space()
        rho0 = space.basis_state([1, 0])
        final = propagate_expm(liou, rho0, math.pi / g)
        assert final.population(3) >= 1.0 - 1e-9

    def test_half_period_transfers_to_junction(self):
        g = TWO_PI * 1.0e8
        liou = build_detector_liouvillian(bare_params(coupling=g))
        space = detector_space()
        rho0 = space.basis_state([1, 0])
        final = propagate_expm(liou, rho0, math.pi / (2 * g))
        assert final.population(1) == pytest.approx(1.0, abs=1e-9)


class TestDephasingOnly:
    def test_coherence_decays_at_dephasing_rate(self):
        gamma_phi = TWO_PI * 1.0e6
        liou = build_detector_liouvillian(bare_params(dephasing_rate=gamma_phi))
        space = detector_space()
        amps = np.zeros(6, dtype=complex)
        amps[3] = 1.0 / math.sqrt(2)  # photon present, junction ground
        amps[1] = 1.0 / math.sqrt(2)  # photon absorbed, junction excited
        rho0 = DensityMatrix(space, np.outer(amps, amps.conj()))
        t = 3.0e-7
        final = propagate_expm(liou, rho0, t)
        expected = 0.5 * math.exp(-gamma_phi * t)
        assert abs(final.matrix[3, 1]) == pytest.approx(expected, abs=1e-9)
        assert final.population(3) == pytest.approx(0.5, abs=1e-9)
        assert final.population(1) == pytest.approx(0.5, abs=1e-9)


class TestUnreachableClick:
    def test_no_escape_channel_keeps_latched_empty(self):
        liou = build_detector_liouvillian(
            bare_params(
                coupling=TWO_PI * 1.0e8,
                photon_loss_rate=TWO_PI * 1.0e4,
                intra_well_decay=TWO_PI * 1.0e5,
            )
        )
        space = detector_space()
        rho0 = space.basis_state([1, 0])
        final = propagate_expm(liou, rho0, 2.0e-7)
        assert final.population(2) <= 1e-12
        assert final.population(5) <= 1e-12


class TestDetectionEfficiency:
    def test_operating_point_above_99_percent(self):
        result = detection_efficiency(DEFAULT)
        assert result.converged
        assert result.efficiency > 0.99
        assert result.efficiency < 1.0
        # branching estimate escape / (escape + relax + loss) ~ 0.9945
        assert result.efficiency == pytest.approx(0.9945, abs=2e-3)

    def test_click_probability_monotone_in_time(self):
        result = detection_efficiency(DEFAULT)
        latched = [row[3] for row in result.time_series]
        for earlier, later in zip(latched, latched[1:]):
            assert later >= earlier - 1e-9

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="each checkpoint maps the latest state by the squared step, so the row "
        "labelled t0 2^(k-1) holds the state at (2^k - 1) t0; the label feeds the "
        "t_final_s column, which the benchmark references pin",
    )
    def test_each_checkpoint_holds_the_state_at_its_time(self):
        params = replace(DEFAULT, escape_rate=10.0 * DEFAULT.photon_loss_rate)
        liou = build_detector_liouvillian(params)
        rho0 = detector_space().basis_state([1, 0])
        for t, *_, p_f, _ in detection_efficiency(params).time_series[1:]:
            final = propagate_expm(liou, rho0, t)
            assert p_f == pytest.approx(final.population(2) + final.population(5), rel=1e-9, abs=1e-15)

    def test_population_accounting_each_checkpoint(self):
        result = detection_efficiency(DEFAULT)
        for t, p_g, p_e, p_f, photon in result.time_series:
            assert p_g + p_e + p_f == pytest.approx(1.0, abs=1e-9)
            assert -1e-9 <= photon <= 1.0 + 1e-9

    def test_zero_coupling_short_circuit(self):
        result = detection_efficiency(
            bare_params(coupling=0.0, escape_rate=TWO_PI * 2.0e7)
        )
        assert result.efficiency == 0.0
        assert result.converged
        assert result.t_final == 0.0

    def test_zero_escape_short_circuit(self):
        result = detection_efficiency(
            bare_params(coupling=TWO_PI * 1.0e8, photon_loss_rate=TWO_PI * 1.0e4)
        )
        assert result.efficiency == 0.0
        assert result.converged

    def test_zero_loss_runs_to_the_time_cap_unconverged(self):
        # far detuned and lossless, the photon stays in the block past t_max
        p = bare_params(
            coupling=TWO_PI * 1.0e6, detuning=TWO_PI * 1.0e9, escape_rate=TWO_PI * 2.0e7
        )
        result = detection_efficiency(p)
        assert not result.converged
        assert result.t_final >= T_MAX_FACTOR / p.escape_rate
        assert result.t_final == pytest.approx(8.344e-6, rel=1e-4)
        assert result.efficiency == pytest.approx(2.0957e-3, rel=1e-4)

    def test_efficiency_monotone_nonincreasing_in_loss(self):
        ladder = [
            detection_efficiency(
                replace(DEFAULT, photon_loss_rate=scale * DEFAULT.photon_loss_rate)
            ).efficiency
            for scale in (1.0, 4.0, 16.0)
        ]
        assert ladder[0] >= ladder[1] >= ladder[2]

    def test_efficiency_monotone_nonincreasing_in_relaxation(self):
        ladder = [
            detection_efficiency(
                replace(DEFAULT, intra_well_decay=scale * DEFAULT.intra_well_decay)
            ).efficiency
            for scale in (1.0, 4.0, 16.0)
        ]
        assert ladder[0] >= ladder[1] >= ladder[2]

    def test_dephasing_influence_minor(self):
        base = detection_efficiency(DEFAULT).efficiency
        strong = detection_efficiency(replace(DEFAULT, dephasing_rate=TWO_PI * 1.0e7)).efficiency
        assert abs(strong - base) < 0.01

    def test_detuned_detector_is_worse(self):
        resonant = detection_efficiency(DEFAULT).efficiency
        detuned = detection_efficiency(replace(DEFAULT, detuning=TWO_PI * 1.0e9)).efficiency
        assert 0.0 < detuned < resonant


class TestCheckpointFailure:
    def test_first_checkpoint_failure_named(self, monkeypatch):
        # a step that doubles the trace breaks the very first checkpoint
        monkeypatch.setattr(detector, "propagator", lambda liouvillian, duration: 2.0 * np.eye(36))
        with pytest.raises(ValueError) as info:
            detection_efficiency(DEFAULT)
        assert str(info.value).startswith(
            "detector checkpoint 0 failed after 0 repeated squarings: trace (2+0j) deviates"
        )


CHECKPOINT_FAILED = re.compile(r"detector checkpoint (\d+) failed after \1 repeated squarings: ")
UNSETTLED = f"detector did not settle within {MAX_CHECKPOINTS} squarings of its step"


def wide_rate_params(count, seed):
    """Detectors whose rates span up to 16 decades, some of them 0."""
    rng = np.random.default_rng(seed)

    def rate():
        return TWO_PI * 10.0 ** rng.uniform(-3.0, 13.0)

    def rate_or_zero():
        return 0.0 if rng.random() < 0.5 else rate()

    for _ in range(count):
        coupling, loss, escape = rate(), rate(), rate()
        yield DetectorParams(coupling, rate_or_zero(), loss, escape, rate_or_zero(), rate_or_zero())


def test_wide_rates_match_the_closed_form_or_fail_by_name():
    settled = 0
    for p in wide_rate_params(400, seed=1):
        try:
            result = detection_efficiency(p)
        except ValueError as exc:
            assert CHECKPOINT_FAILED.match(str(exc)) or str(exc) == UNSETTLED, exc
            continue
        settled += 1
        assert result.converged
        assert abs(result.efficiency - closed_form_efficiency(p)) <= CONVERGENCE_TOL
    assert settled >= 200  # most of the scan is a real comparison


def test_slow_dephasing_sweep_matches_the_closed_form():
    # 1e-4 Hz dephasing under a 2e7 Hz escape: the rates span 1e12x
    config = load_config({"device": {"detector": {"dephasing_rate_hz": 1e-4}}})
    base = detector_params(config)
    for ratio, efficiency, *_ in run_detector_sweep(config).rows:
        p = replace(base, escape_rate=ratio * base.photon_loss_rate)
        assert efficiency == pytest.approx(closed_form_efficiency(p), abs=1e-6)


def log_rate(low=1e5, high=1e10):
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(math.exp)


@settings(deadline=None, max_examples=40)
@given(
    coupling=log_rate(),
    detuning=st.one_of(st.just(0.0), log_rate(), log_rate().map(lambda r: -r)),
    loss=log_rate(),
    escape=log_rate(),
    relax=st.one_of(st.just(0.0), log_rate()),
    dephasing=st.one_of(st.just(0.0), log_rate()),
)
def test_lossy_escaping_detector_converges_or_refuses(
    coupling, detuning, loss, escape, relax, dephasing
):
    # with loss and escape both positive, the excitation decays at least as
    # fast as the slowest dissipative rate, so by t_max it is below e^-1000
    p = DetectorParams(coupling, detuning, loss, escape, relax, dephasing)
    try:
        result = detection_efficiency(p)
    except ValueError as exc:  # a squared checkpoint, refused by name
        assert "repeated squarings" in str(exc)
        return
    assert result.converged
