"""Gate protocol tests: transfer, full-model validation, controlled-phase."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from tlrsim import lindblad, protocols
from tlrsim.config import fjs_params, load_config, tap_coupling, tlr_params
from tlrsim.device import fjs_derive
from tlrsim.lindblad import (
    LindbladTerm,
    Liouvillian,
    QuasiStaticNoise,
    apply_propagator,
    monte_carlo_quasistatic,
    propagate_expm,
    propagate_schedule,
    propagator,
    quasistatic_sigma,
)
from tlrsim.protocols import (
    IDEAL_CZ_PHASES,
    LOGICAL_FLAT,
    CphaseSpec,
    TransferSpec,
    build_transfer_liouvillian,
    cphase_ideal_leg_unitary,
    cphase_spin_echo_error,
    logical_phase_extract,
    transfer_full_model_error,
    transfer_gate_error,
    transfer_operators,
    transfer_space,
)
from tlrsim.qcore import NORM_TOL, TRACE_TOL, DensityMatrix, HilbertSpace, embed, projector
from tlrsim.sweeps import run_transfer_sweep

TWO_PI = 2.0 * math.pi

# operating point shared across the suite
G_OP = 1.2369158959412537e9
DELTA_OP = TWO_PI * 2e9
KAPPA_OP = TWO_PI * 1e4
GAMMA2_OP = TWO_PI * 1e6


def operating_spec(**overrides):
    kw = dict(
        coupling=G_OP,
        detuning=DELTA_OP,
        photon_loss_rate=KAPPA_OP,
        dephasing_rate=GAMMA2_OP,
    )
    kw.update(overrides)
    return TransferSpec(**kw)


def engine_transfer_error(spec):
    """The transfer's gate error from the Lindblad engine: the formula's reference."""
    left = transfer_space().basis_state([1, 0])
    return 1.0 - propagate_expm(build_transfer_liouvillian(spec), left, spec.gate_time).population(1)


def swap_fidelities(spec):
    """Fidelity of four inputs with the ideal full swap (left to -i right).

    Propagates every input through the engine here, since
    transfer_gate_error is the closed form for the photon-left input alone.
    """
    space, _, _, exchange = transfer_operators()
    t = spec.gate_time
    ideal_u = expm(-1j * exchange * spec.exchange_rate * t)
    superop = propagator(build_transfer_liouvillian(spec), t)
    root2 = math.sqrt(0.5)
    inputs = {
        "photon_left": [0, 0, 1, 0],
        "photon_right": [0, 1, 0, 0],
        "plus": [0, root2, root2, 0],
        "plus_i": [0, 1j * root2, root2, 0],
    }
    fids = {}
    for label, amps in inputs.items():
        psi = np.array(amps, dtype=complex)
        final = apply_propagator(superop, DensityMatrix(space, np.outer(psi, psi.conj())))
        target = ideal_u @ psi
        fids[label] = np.vdot(target, final.matrix @ target).real
    return fids


class TestTransferSpec:
    def test_gate_time_formula(self):
        spec = operating_spec()
        expected = math.pi * abs(spec.detuning) / (2.0 * spec.coupling**2)
        assert spec.gate_time == pytest.approx(expected, rel=1e-15)
        assert spec.gate_time == pytest.approx(1.2901773089929482e-08, rel=1e-12)

    def test_exchange_rate_signed(self):
        spec = operating_spec(detuning=-DELTA_OP)
        assert spec.exchange_rate < 0
        assert spec.gate_time > 0

    def test_rejects_small_detuning(self):
        with pytest.raises(ValueError) as info:
            TransferSpec(coupling=1e9, detuning=4.9e9)
        # both values are angular, and the message says so
        assert str(info.value) == (
            "detuning 4.9000e+09 rad/s below 5x coupling 1.0000e+09 rad/s; "
            "dispersive construction invalid"
        )

    def test_warns_in_marginal_band(self):
        with pytest.warns(UserWarning) as record:
            TransferSpec(coupling=1e9, detuning=7e9)
        assert record[0].filename == __file__  # the line that built the spec

    def test_no_warning_deep_dispersive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TransferSpec(coupling=1e9, detuning=1.2e10)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            operating_spec(photon_loss_rate=-1.0)
        with pytest.raises(ValueError):
            operating_spec(dephasing_rate=-1.0)


class TestTransferGateError:
    def test_lossless_swap_is_exact(self):
        spec = operating_spec(photon_loss_rate=0, dephasing_rate=0)
        assert transfer_gate_error(spec) < 1e-9
        for label, f in swap_fidelities(spec).items():
            assert f > 1.0 - 1e-9, label

    def test_operating_point_matches_closed_form(self):
        spec = operating_spec()
        error = transfer_gate_error(spec)
        assert error == pytest.approx(engine_transfer_error(spec), rel=1e-9)
        assert error == pytest.approx(2.377374496253526e-03, rel=1e-9)
        assert 3e-4 < error < 5e-3

    def test_loss_only_error(self):
        spec = operating_spec(dephasing_rate=0)
        expected = 1.0 - math.exp(-spec.photon_loss_rate * spec.gate_time)
        assert transfer_gate_error(spec) == pytest.approx(expected, rel=0.1)
        assert transfer_gate_error(spec) == pytest.approx(expected, rel=1e-6)

    def test_rail_exchange_symmetry(self):
        fids = swap_fidelities(operating_spec())
        assert fids["photon_left"] == pytest.approx(fids["photon_right"], abs=1e-12)

    def test_sweep_runs_no_exponential(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the transfer sweep took an exponential")

        monkeypatch.setattr(lindblad, "_expm", refuse)
        assert len(run_transfer_sweep(load_config()).rows) == 25

    def test_formula_matches_engine_on_seeded_grid(self):
        # log-uniform kappa 1 to 1e9 Hz and Gamma_2 1e3 to 1e15 Hz at the
        # default tap coupling and detuning
        coupling = tap_coupling(load_config(), "left")
        rng = np.random.default_rng(20260)
        kappas_hz = 10.0 ** rng.uniform(0.0, 9.0, 200)
        gamma2s_hz = 10.0 ** rng.uniform(3.0, 15.0, 200)
        for kappa_hz, gamma2_hz in zip(kappas_hz, gamma2s_hz):
            spec = operating_spec(
                coupling=coupling,
                photon_loss_rate=TWO_PI * kappa_hz,
                dephasing_rate=TWO_PI * gamma2_hz,
            )
            engine = engine_transfer_error(spec)
            assert abs(transfer_gate_error(spec) - engine) <= TRACE_TOL, (kappa_hz, gamma2_hz)

    def test_overflowing_exponents_give_physical_errors(self):
        # a gate time of 628 s: kappa T and 2 gamma T overflow to inf, and
        # each exponential is 0.0, never NaN
        lossy = TransferSpec(coupling=0.05, detuning=1.0, photon_loss_rate=1e308)
        dephased = TransferSpec(coupling=0.05, detuning=1.0, dephasing_rate=1e308)
        assert lossy.photon_loss_rate * lossy.gate_time == math.inf
        assert 2.0 * dephased.effective_dephasing * dephased.gate_time == math.inf
        assert transfer_gate_error(lossy) == 1.0
        assert transfer_gate_error(dephased) == 0.5

    def test_monotone_in_loss_and_dephasing(self):
        kappas = [0.0, KAPPA_OP, 4 * KAPPA_OP]
        gammas = [0.0, GAMMA2_OP, 4 * GAMMA2_OP]
        errors = {
            (k, gm): transfer_gate_error(
                operating_spec(photon_loss_rate=k, dephasing_rate=gm)
            )
            for k in kappas
            for gm in gammas
        }
        for gm in gammas:
            column = [errors[(k, gm)] for k in kappas]
            assert column == sorted(column)
        for k in kappas:
            row = [errors[(k, gm)] for gm in gammas]
            assert row == sorted(row)

    def test_detuning_sign_irrelevant_for_error(self):
        plus = transfer_gate_error(operating_spec())
        minus = transfer_gate_error(operating_spec(detuning=-DELTA_OP))
        assert plus == pytest.approx(minus, abs=1e-12)


def dispersive_spec(x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TransferSpec(coupling=x * DELTA_OP, detuning=DELTA_OP)


class TestFullModelValidation:
    def test_peak_junction_population_bounded(self):
        for x in (0.02, 0.05, 0.1):
            md = transfer_full_model_error(dispersive_spec(x))
            assert md["peak_junction_excitation"] <= 4.0 * x * x * 1.0001, x

    def test_deep_dispersive_fidelity_agreement(self):
        # at x = 0.02 the effective model is lossless and exact: the full
        # state keeps a fidelity |<eff|full>|^2 of at least 1 - 5e-3 to it
        # at every time of the gate, which in the gauge-aligned distance
        # sqrt(2 (1 - |<eff|full>|)) is a bound of 0.0708
        rep = transfer_full_model_error(dispersive_spec(0.02))
        assert rep["model_discrepancy"] <= math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - 5e-3)))

    def test_result_holds_the_two_validated_values(self):
        rep = transfer_full_model_error(dispersive_spec(0.1))
        assert sorted(rep) == ["model_discrepancy", "peak_junction_excitation"]

    def test_discrepancy_scales_linearly(self):
        d_coarse = transfer_full_model_error(dispersive_spec(0.1))["model_discrepancy"]
        d_fine = transfer_full_model_error(dispersive_spec(0.05))["model_discrepancy"]
        assert 1.5 <= d_coarse / d_fine <= 3.0

    def test_discrepancy_magnitude(self):
        md = transfer_full_model_error(dispersive_spec(0.1))
        assert md["model_discrepancy"] == pytest.approx(0.2, rel=0.15)


DERIVED = fjs_derive(fjs_params(load_config()), tlr_params(load_config()))


def cz_spec(ratio, n=1000, seed=42, **kw):
    return CphaseSpec.from_fjs(DERIVED, speed_ratio=ratio, sample_count=n, seed=seed, **kw)


def instant_wait():
    return math.pi / (2 * abs(DERIVED.omega_int))


def wrapped(x):
    return float(np.angle(np.exp(1j * x)))


def conditional_phase(phases):
    # theta00 - theta01 - theta10 + theta11: what no local Z can remove
    return phases[0] - phases[1] - phases[2] + phases[3]


def noiseless_echo(spec):
    """Output of the noiseless echo on the equal logical superposition, as a function of the wait.

    Rebuilt from the protocol description (leg, wait, leg, flip, twice)
    rather than from the module's internals; a simulated flip hops both
    photons between their resonators for one transfer time.
    """
    eye = np.eye(3)
    hop = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    hop_logical = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cross = np.zeros((9, 9))
    cross[8, 8] = -spec.interaction_strength  # both photons in the cell
    g, t = spec.transfer_coupling, spec.transfer_time
    leg = expm(-1j * (g * (np.kron(hop, eye) + np.kron(eye, hop)) + cross) * t)
    if spec.use_ideal_flips:
        flip_pair = np.kron(flip, flip)
    else:
        flip_pair = expm(-1j * (g * (np.kron(hop_logical, eye) + np.kron(eye, hop_logical)) + cross) * t)
    psi = np.zeros(9, dtype=complex)
    psi[list(LOGICAL_FLAT)] = 0.5

    def output(wait):
        half = flip_pair @ leg @ expm(-1j * cross * wait) @ leg
        return half @ half @ psi

    return output


def solved_wait_miss(spec):
    """How far the rebuilt echo at the solved wait misses a conditional phase of pi."""
    out = noiseless_echo(spec)(spec.wait_time)
    return wrapped(conditional_phase(np.angle(out[list(LOGICAL_FLAT)])) - math.pi)


class TestCphaseSpec:
    def test_from_fjs_wiring(self):
        spec = cz_spec(20.0)
        assert spec.transfer_coupling == pytest.approx(
            20.0 * abs(DERIVED.delta_omega_s), rel=1e-15
        )
        assert spec.interaction_strength == DERIVED.omega_int
        # the finite legs add cross-Kerr phase, so the wait that brings the
        # conditional phase to pi is shorter than the instantaneous-leg one
        assert 0.0 < spec.wait_time <= math.pi / (2 * abs(DERIVED.omega_int))
        phases = logical_phase_extract(noiseless_echo(spec)(spec.wait_time))
        assert abs(wrapped(conditional_phase(phases) - math.pi)) < 1e-9
        assert spec.transfer_time == pytest.approx(
            math.pi / (2 * spec.transfer_coupling), rel=1e-15
        )
        assert spec.phi_noise.mean == DERIVED.phi0
        assert spec.phi_noise.std == DERIVED.sigma_phi

    def test_too_slow_legs_rejected(self):
        # blockaded legs: no wait brings the conditional phase to pi
        with pytest.raises(ValueError, match="conditional phase of pi"):
            cz_spec(0.5).wait_time

    def test_lone_root_far_from_the_instant_wait_is_found(self):
        # near pi / (2 |omega_int|) the |00> amplitude passes near zero and the
        # miss swings across 0 without a root; the only root in the period
        # lies near 2.73 pi / (2 |omega_int|)
        spec = cz_spec(0.921, n=2)
        assert abs(solved_wait_miss(spec)) < 1e-9
        assert spec.wait_time / instant_wait() == pytest.approx(2.73, abs=0.01)

    @pytest.mark.parametrize("ideal_flips", [True, False])
    @pytest.mark.parametrize("ratio", [0.9105, 1.0316, 1.7263, 2.0, 20.0])
    def test_solved_wait_is_the_root_nearest_the_instant_wait(self, ratio, ideal_flips):
        # every wait in one period whose conditional phase is pi, found on the
        # rebuilt echo by a dense sign scan of the miss and a bracketed solve
        spec = cz_spec(ratio, n=2, use_ideal_flips=ideal_flips)
        output = noiseless_echo(spec)

        def miss(u):  # u: the wait in units of pi / (2 |omega_int|)
            out = output(u * instant_wait())
            return wrapped(conditional_phase(np.angle(out[list(LOGICAL_FLAT)])) - math.pi)

        grid = np.linspace(0.0, 4.0, 1025)
        misses = [miss(u) for u in grid]
        roots = [
            brentq(miss, a, b, xtol=1e-15)
            for a, b, fa, fb in zip(grid, grid[1:], misses, misses[1:])
            if fa * fb <= 0.0 and abs(fa - fb) < math.pi  # not a wrap of the phase
        ]
        roots = [u for u in roots if abs(miss(u)) <= 1e-9]
        nearest = min(roots, key=lambda u: abs(u - 1.0))
        assert spec.wait_time / instant_wait() == pytest.approx(nearest, rel=1e-9)

    def test_tie_between_roots_at_both_ends_of_the_period_goes_nearer(self):
        # ratio 1.74 with ideal flips has roots at 0.017 and 1.949 in units of
        # pi / (2 |omega_int|): the second is nearer the instantaneous-leg wait
        spec = cz_spec(1.74, n=2)
        assert spec.wait_time / instant_wait() == pytest.approx(1.949, abs=1e-3)

    @pytest.mark.parametrize("ideal_flips", [True, False])
    def test_every_solved_wait_gives_a_conditional_phase_of_pi(self, ideal_flips):
        ratios = np.random.default_rng(11).uniform(0.9, 3.0, size=200)
        solved = 0
        for ratio in ratios:
            spec = cz_spec(float(ratio), n=2, use_ideal_flips=ideal_flips)
            try:
                wait = spec.wait_time
            except ValueError as exc:
                assert "no wait gives a conditional phase of pi" in str(exc)
                continue
            assert wait > 0.0
            assert abs(solved_wait_miss(spec)) < 1e-9, ratio
            solved += 1
        assert solved >= 150  # only simulated flips below about 0.91 are refused

    def test_shift_deviation_statistics(self):
        # deviation is linear in phi^2; std must reproduce shift_std
        spec = cz_spec(20.0)
        rng = np.random.default_rng(5)
        phis = spec.phi_noise.mean + spec.phi_noise.std * rng.standard_normal(200_000)
        devs = np.array([spec.shift_deviation(p) for p in phis])
        assert np.mean(devs) == pytest.approx(0.0, abs=3 * spec.shift_std / 400)
        assert np.std(devs) == pytest.approx(spec.shift_std, rel=0.02)

    def test_validation(self):
        noise = QuasiStaticNoise(mean=0.0, std=1e-3, label="squid_phase", sample_count=2, seed=0)
        with pytest.raises(ValueError):
            CphaseSpec(
                transfer_coupling=0.0,
                interaction_strength=-1e6,
                shift_std=1e5,
                phi_noise=noise,
                photon_loss_rate=0.0,
                use_ideal_flips=True,
            )
        with pytest.raises(ValueError):
            CphaseSpec(
                transfer_coupling=1e7,
                interaction_strength=0.0,
                shift_std=1e5,
                phi_noise=noise,
                photon_loss_rate=0.0,
                use_ideal_flips=True,
            )


class TestCphaseError:
    def test_ideal_limit(self):
        noise = QuasiStaticNoise(
            mean=DERIVED.phi0, std=0.0, label="squid_phase", sample_count=4, seed=7
        )
        spec = CphaseSpec(
            transfer_coupling=1e4 * abs(DERIVED.omega_int),
            interaction_strength=DERIVED.omega_int,
            shift_std=0.0,
            phi_noise=noise,
            photon_loss_rate=0.0,
            use_ideal_flips=True,
        )
        assert cphase_spin_echo_error(spec, 0)["error"] < 1e-5

    def test_operating_point_frozen(self):
        rep = cphase_spin_echo_error(cz_spec(20.0), 0)
        assert rep["error"] == pytest.approx(4.9034e-03, rel=2e-3)
        assert rep["std_error"] < 5e-4

    def test_noiseless_error_decomposition(self):
        # zero phase spread isolates the deterministic leg imperfection;
        # the solved wait leaves no entangling phase residual, so what is
        # left is the two-photon leg amplitude loss
        noise = QuasiStaticNoise(
            mean=DERIVED.phi0, std=0.0, label="squid_phase", sample_count=2, seed=0
        )
        spec = CphaseSpec(
            transfer_coupling=20.0 * abs(DERIVED.delta_omega_s),
            interaction_strength=DERIVED.omega_int,
            shift_std=abs(DERIVED.delta_omega_s),
            phi_noise=noise,
            photon_loss_rate=0.0,
            use_ideal_flips=True,
        )
        rep = cphase_spin_echo_error(spec, 0)
        assert rep["error"] == pytest.approx(3.1107e-03, rel=1e-3)
        assert max(abs(r) for r in rep["calibration_residual"]) < 1e-12
        assert abs(wrapped(rep["conditional_phase"] - math.pi)) < 1e-9
        retention_11 = rep["retention"][3]
        # with the phases matched, fidelity is the squared mean logical
        # amplitude; the 00 and 11 amplitudes shrink by the retention of
        # their two-photon half.  Amplitude that leaks into the cell pair
        # in one half and returns in the other adds a smaller share.
        leg_term = 1 - ((1 + math.sqrt(retention_11)) / 2) ** 2
        assert leg_term < rep["error"] < 1.5 * leg_term

    def test_monotone_in_speed_ratio(self):
        errors = [
            cphase_spin_echo_error(cz_spec(r, n=400), 0)["error"]
            for r in (5, 10, 20, 40, 80)
        ]
        assert errors == sorted(errors, reverse=True)

    @pytest.mark.parametrize("ideal_flips", [True, False])
    def test_lossless_block_split_leaves_samples_unchanged(self, monkeypatch, ideal_flips):
        # a block of 9 stacks (9, 9) wait phases next to the (9, 9) kicks
        runs = []  # per call: the fidelities the model returned, and the result
        original = protocols.monte_carlo_scalar

        def recording(model, *args, **kwargs):
            seen = []

            def recorded(draws):
                seen.append(model(draws))
                return seen[-1]

            runs.append((seen, original(recorded, *args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(protocols, "monte_carlo_scalar", recording)
        spec = cz_spec(20.0, n=20, use_ideal_flips=ideal_flips)
        reports = []
        for block in (lindblad.SAMPLE_BLOCK, 3, 9):
            monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", block)
            reports.append(cphase_spin_echo_error(spec, 0))
        values = [np.concatenate(seen) for seen, _ in runs]
        for (_, stat), vals, report in zip(runs[1:], values[1:], reports[1:]):
            assert np.array_equal(vals, values[0])
            assert stat.mean == runs[0][1].mean
            assert report["error"] == reports[0]["error"]

    @pytest.mark.parametrize("ideal_flips, builds", [(True, 2), (False, 4)])
    def test_echo_built_once(self, monkeypatch, ideal_flips, builds):
        # one zero-shift leg (and simulated flip) shared by the wait solve and
        # the calibration, and one per Monte Carlo block
        calls = []
        original = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cphase_spin_echo_error(cz_spec(20.0, n=2, use_ideal_flips=ideal_flips), 0)
        assert len(calls) == builds
        assert calls[-1] == (2, 9, 9)  # the block's two draws in one batched call

    def test_deterministic_given_seed(self):
        a = cphase_spin_echo_error(cz_spec(20.0, n=200), 0)
        b = cphase_spin_echo_error(cz_spec(20.0, n=200), 0)
        assert a == b

    def test_seed_variation_within_noise(self):
        a = cphase_spin_echo_error(cz_spec(20.0, seed=42), 0)
        b = cphase_spin_echo_error(cz_spec(20.0, seed=7), 0)
        spread = math.hypot(a["std_error"], b["std_error"])
        assert abs(a["error"] - b["error"]) < 4 * spread

    def test_basis_states_reported(self):
        r00, r01, r10, r11 = cphase_spin_echo_error(cz_spec(20.0, n=50), 0)["retention"]
        # single-photon legs are exact; two-photon legs lose amplitude
        assert r01 > 1 - 1e-9
        assert r10 > 1 - 1e-9
        assert r00 == pytest.approx(r11, abs=1e-6)
        assert 0.98 < r11 < 1.0

    def test_result_holds_measured_values_only(self):
        # no echo of the spec's inputs, and plain data a JSON sidecar can hold
        rep = cphase_spin_echo_error(cz_spec(20.0, n=10, photon_loss_rate=TWO_PI * 1e3), 0)
        assert list(rep) == [
            "error",
            "std_error",
            "wait_time",
            "conditional_phase",
            "calibration_global_phase",
            "calibration_z_first",
            "calibration_z_second",
            "calibration_residual",
            "retention",
        ]
        assert len(rep["calibration_residual"]) == len(rep["retention"]) == 4
        assert json.loads(json.dumps(rep))["retention"] == list(rep["retention"])

    def test_loss_free_paths_agree(self):
        # a vanishing loss rate must reproduce the lossless error
        lossless = cphase_spin_echo_error(cz_spec(20.0, n=25), 0)
        lossy = cphase_spin_echo_error(cz_spec(20.0, n=25, photon_loss_rate=1e-3), 0)
        assert lossy["error"] == pytest.approx(lossless["error"], abs=1e-6)

    def test_photon_loss_increases_error(self):
        lossless = cphase_spin_echo_error(cz_spec(20.0, n=25), 0)
        lossy = cphase_spin_echo_error(
            cz_spec(20.0, n=25, photon_loss_rate=TWO_PI * 1e4), 0
        )
        assert lossy["error"] > lossless["error"]
        # uniform loss over the protocol duration sets the scale
        spec = cz_spec(20.0)
        duration = 2 * (2 * spec.transfer_time + spec.wait_time)
        floor = 1 - math.exp(-TWO_PI * 1e4 * duration)
        assert lossy["error"] > 0.5 * floor

    @pytest.mark.parametrize("ideal_flips", [True, False])
    def test_loss_scales_the_lossless_fidelity_by_both_photons_surviving(self, ideal_flips):
        kappa = TWO_PI * 1e3
        lossless = cphase_spin_echo_error(cz_spec(20.0, n=40, use_ideal_flips=ideal_flips), 0)
        spec = cz_spec(20.0, n=40, photon_loss_rate=kappa, use_ideal_flips=ideal_flips)
        lossy = cphase_spin_echo_error(spec, 0)
        legs = 4 if ideal_flips else 6  # a simulated flip lasts one leg
        survival = math.exp(-2.0 * kappa * 2.0 * (legs / 2 * spec.transfer_time + spec.wait_time))
        assert lossy["error"] == pytest.approx(
            1.0 - survival * (1.0 - lossless["error"]), rel=0, abs=1e-15
        )
        assert lossy["std_error"] == pytest.approx(survival * lossless["std_error"], rel=1e-12)

    def test_simulated_flips_supported(self):
        ideal = cphase_spin_echo_error(cz_spec(20.0, n=25), 0)
        sim = cphase_spin_echo_error(cz_spec(20.0, n=25, use_ideal_flips=False), 0)
        assert 0.0 < sim["error"] < 1.0
        assert abs(sim["error"] - ideal["error"]) < 1e-2
        # the wait is solved with the simulated flips in place
        assert sim["wait_time"] != ideal["wait_time"]
        assert abs(wrapped(sim["conditional_phase"] - math.pi)) < 1e-9
        assert max(abs(r) for r in sim["calibration_residual"]) < 1e-12


@dataclasses.dataclass(frozen=True)
class FrozenShiftSpec(CphaseSpec):
    """A controlled-phase spec whose every draw sees one shift deviation."""

    frozen_shift: float

    def shift_deviation(self, phi):
        return self.frozen_shift + 0.0 * phi


def frozen_shift_spec(spec, shift):
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(CphaseSpec)}
    return FrozenShiftSpec(**fields, frozen_shift=shift)


VACUUM_SPACE = HilbertSpace([("rail1", 4), ("rail2", 4)])
VACUUM_LOGICAL = (0, 1, 4, 5)  # logical 00, 01, 10, 11 with level 3 the vacuum


def on_rails(single):
    """A 3-level single-rail matrix, padded by the vacuum, summed over both rails."""
    padded = np.zeros((4, 4), dtype=complex)
    padded[:3, :3] = single
    return np.kron(padded, np.eye(4)) + np.kron(np.eye(4), padded)


def vacuum_schedule(spec, x):
    """The lossy echo with a vacuum level per rail, rebuilt from the protocol description.

    Each rail loses its photon to level 3 at ``photon_loss_rate`` from
    every level; every evolution adds the cell shift at coefficient ``x``.
    """
    cell = np.diag([0.0, 0.0, 1.0, 0.0])
    cross = -spec.interaction_strength * np.kron(cell, cell)
    hop = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    hop_logical = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    shift = on_rails(cell[:3, :3])
    jumps = tuple(
        LindbladTerm(embed(projector(3, level, 4), VACUUM_SPACE, rail), spec.photon_loss_rate)
        for rail in ("rail1", "rail2")
        for level in (0, 1, 2)
    )

    def evolve(h, duration):
        return Liouvillian(VACUUM_SPACE, h + x * shift, jumps), duration

    g = spec.transfer_coupling
    leg = evolve(g * on_rails(hop) + cross, spec.transfer_time)
    wait = evolve(cross, spec.wait_time)
    if spec.use_ideal_flips:
        swap = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        flip = np.kron(swap, swap)
    else:
        h_flip = g * on_rails(hop_logical) + cross
        flip = evolve(h_flip, spec.transfer_time)
    return [leg, wait, leg, flip] * 2


def vacuum_start():
    psi = np.zeros(16, dtype=complex)
    psi[list(VACUUM_LOGICAL)] = 0.5
    return DensityMatrix(VACUUM_SPACE, np.outer(psi, psi.conj()))


def reported_target(report):
    """The calibrated controlled-phase target rebuilt from a report's calibration phases."""
    g, z1, z2 = (report[f"calibration_{k}"] for k in ("global_phase", "z_first", "z_second"))
    local = np.array([g, g + z2, g + z1, g + z1 + z2])
    target = np.zeros(16, dtype=complex)
    target[list(VACUUM_LOGICAL)] = 0.5 * np.exp(1j * (np.array(IDEAL_CZ_PHASES) + local))
    return target


class TestLossySchedule:
    @pytest.mark.parametrize("ideal_flips", [True, False])
    @pytest.mark.parametrize("ratio", [5.0, 20.0])
    @pytest.mark.parametrize("shift_in_std", [0.0, 0.7])
    def test_closed_form_matches_vacuum_lindblad(self, ideal_flips, ratio, shift_in_std):
        base = cz_spec(ratio, n=2, photon_loss_rate=TWO_PI * 1e4, use_ideal_flips=ideal_flips)
        spec = frozen_shift_spec(base, shift_in_std * base.shift_std)
        report = cphase_spin_echo_error(spec, 0)
        final = propagate_schedule(vacuum_schedule(spec, spec.frozen_shift), vacuum_start())
        target = reported_target(report)
        fidelity = np.vdot(target, final.matrix @ target)
        assert abs(fidelity.imag) < 1e-12
        assert 1.0 - report["error"] == pytest.approx(fidelity.real, rel=0, abs=1e-12)
        assert report["std_error"] == 0.0

    @pytest.mark.parametrize("ideal_flips, distinct", [(True, 2), (False, 3)])
    def test_each_distinct_propagator_built_once(self, monkeypatch, ideal_flips, distinct):
        spec = cz_spec(20.0, n=2, photon_loss_rate=TWO_PI * 1e4, use_ideal_flips=ideal_flips)
        segments = vacuum_schedule(spec, 0.3 * spec.shift_std)
        assert len(segments) == 8
        built = []
        original = lindblad.propagator

        def counting(liouvillian, duration):
            built.append(duration)
            return original(liouvillian, duration)

        monkeypatch.setattr(lindblad, "propagator", counting)
        propagate_schedule(segments, vacuum_start())
        assert len(built) == distinct

    def test_block_split_leaves_samples_unchanged(self, monkeypatch):
        spec = cz_spec(20.0, n=8, photon_loss_rate=TWO_PI * 1e4, use_ideal_flips=False)
        whole = cphase_spin_echo_error(spec, 0)
        monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", 3)
        assert cphase_spin_echo_error(spec, 0) == whole


class TestEchoCancellation:
    def test_static_shift_cancels_exactly(self):
        spec = cz_spec(20.0, n=10, seed=1)
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = 0.5
        extracted = []
        for shift in (0.0, 3.2 * abs(DERIVED.delta_omega_s)):
            out = cphase_ideal_leg_unitary(spec, shift) @ psi
            extracted.append(logical_phase_extract(out))
        for a, b in zip(*extracted):
            assert abs(a - b) < 1e-9

    def test_ideal_output_phase_pattern(self):
        spec = cz_spec(20.0, n=10, seed=1)
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = 0.5
        out = cphase_ideal_leg_unitary(spec, 0.0) @ psi
        phases = logical_phase_extract(out)
        for got, want in zip(phases, IDEAL_CZ_PHASES):
            assert abs(np.angle(np.exp(1j * (got - want)))) < 1e-9
        # entangling: a conditional phase of pi, not a product of local Z
        assert abs(wrapped(conditional_phase(phases) - math.pi)) < 1e-9


class TestLogicalPhaseExtract:
    def test_identity_gives_zero_phases(self):
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = 0.5
        phases = logical_phase_extract(psi)
        assert all(abs(p) < 1e-12 for p in phases)

    def test_z_rotation_pattern(self):
        theta = 0.7
        psi = np.zeros(9, dtype=complex)
        for k, flat in enumerate(LOGICAL_FLAT):
            first_bit = k // 2
            psi[flat] = 0.5 * np.exp(1j * theta * (1 - first_bit))
        phases = logical_phase_extract(psi)
        # relative pattern: first-qubit-0 states share one phase, the
        # rest share another, separated by theta
        assert abs(phases[0] - phases[1]) < 1e-12
        assert abs(phases[2] - phases[3]) < 1e-12
        assert abs(abs(np.angle(np.exp(1j * (phases[0] - phases[2])))) - theta) < 1e-12

    def test_leakage_raises(self):
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = math.sqrt(0.9 / 4)
        psi[2] = math.sqrt(0.1)
        with pytest.raises(ValueError, match="population"):
            logical_phase_extract(psi)

    def test_norm_enforced(self):
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = 0.5 + 2 * NORM_TOL
        with pytest.raises(ValueError, match="norm"):
            logical_phase_extract(psi)

    def test_nan_norm_rejected(self):
        with pytest.raises(ValueError, match="norm nan"):
            logical_phase_extract(np.full(9, np.nan))

    def test_vanishing_reference_rejected(self):
        psi = np.zeros(9, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(ValueError, match="reference"):
            logical_phase_extract(psi)


class TestQuasiStaticEquivalence:
    def test_sampled_detuning_matches_dephasing_rate(self):
        # quasi-static exchange-detuning noise, calibrated at the gate
        # time, must reproduce the Lindblad collective-dephasing result
        spec = operating_spec(photon_loss_rate=0.0)
        t = spec.gate_time
        sigma = quasistatic_sigma(spec.coupling, spec.detuning, spec.dephasing_rate, t)
        space, _, _, exchange = transfer_operators()
        weight = (spec.coupling / spec.detuning) ** 2
        # a sample's exchange rate is g^2/Delta - weight * delta
        exchange_only = Liouvillian(space, hamiltonian=exchange * spec.exchange_rate)
        noise = QuasiStaticNoise(
            mean=0.0, std=sigma, label="exchange_detuning", sample_count=1000, seed=11
        )
        rho0 = _left_photon_state(space)
        stat = monte_carlo_quasistatic(
            exchange_only,
            t,
            -weight * exchange,
            noise,
            rho0,
            lambda states: states[:, 1, 1].real,
        )

        lindblad_final = propagate_expm(build_transfer_liouvillian(spec), rho0, t)
        reference = lindblad_final.population(1)
        assert abs(stat.mean - reference) < 3 * stat.std_error


def _left_photon_state(space):
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    return DensityMatrix(space, np.outer(amps, amps.conj()))


@settings(max_examples=20, deadline=None)
@given(
    kappa=st.floats(min_value=0.0, max_value=1e6),
    gamma2=st.floats(min_value=0.0, max_value=1e8),
)
def test_transfer_error_stays_physical(kappa, gamma2):
    spec = operating_spec(photon_loss_rate=kappa, dephasing_rate=gamma2)
    error = transfer_gate_error(spec)
    assert 0.0 <= error <= 1.0
    assert error == pytest.approx(engine_transfer_error(spec), abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(theta=st.floats(min_value=-3.0, max_value=3.0))
def test_phase_extract_wraps_into_principal_branch(theta):
    psi = np.zeros(9, dtype=complex)
    psi[list(LOGICAL_FLAT)] = 0.5 * np.exp(1j * np.array([theta, 0.0, 2 * theta, -theta]))
    phases = logical_phase_extract(psi)
    assert all(-math.pi - 1e-12 <= p <= math.pi + 1e-12 for p in phases)
    assert phases[1] == 0.0
