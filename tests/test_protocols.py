"""Gate protocol tests: transfer, full-model validation, phase, controlled-phase."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from tlrsim import lindblad, protocols
from tlrsim.config import fjs_params, load_config, tlr_params
from tlrsim.device import fjs_derive
from tlrsim.lindblad import (
    Evolve,
    Liouvillian,
    QuasiStaticNoise,
    apply_propagator,
    monte_carlo_quasistatic,
    propagate_expm,
    propagate_schedule,
    propagator,
    quasistatic_sigma,
    trace_distance,
)
from tlrsim.protocols import (
    IDEAL_CZ_PHASES,
    LOGICAL_FLAT,
    CphaseSpec,
    PhaseSpec,
    TransferSpec,
    build_transfer_liouvillian,
    cphase_ideal_leg_unitary,
    cphase_schedule,
    cphase_space,
    cphase_spin_echo_error,
    logical_phase_extract,
    phase_gate_report,
    phase_gate_time,
    transfer_full_model_error,
    transfer_gate_error,
    transfer_operators,
    transfer_space,
)
from tlrsim.qcore import DensityMatrix, StateVector, fidelity

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


def analytic_transfer_error(spec):
    # uniform loss factorizes; collective dephasing closes the +/- coherence
    t = spec.gate_time
    x2 = (spec.coupling / spec.detuning) ** 2
    return 1.0 - math.exp(-spec.photon_loss_rate * t) * 0.5 * (
        1.0 + math.exp(-4.0 * x2 * spec.dephasing_rate * t)
    )


def swap_fidelities(spec):
    """Fidelity of four inputs with the ideal full swap (left to -i right).

    Applies the gate's propagator to every input here, since
    transfer_gate_error reads only the photon-left population.
    """
    space, _, _, exchange = transfer_operators()
    t = spec.gate_time
    ideal_u = expm(-1j * exchange.matrix * spec.exchange_rate * t)
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
        psi = StateVector(space, np.array(amps, dtype=complex))
        final = apply_propagator(superop, psi.to_density_matrix())
        fids[label] = fidelity(final, StateVector(space, ideal_u @ psi.amplitudes))
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
        with pytest.raises(ValueError):
            TransferSpec(coupling=1e9, detuning=4.9e9)

    def test_warns_in_marginal_band(self):
        with pytest.warns(UserWarning):
            TransferSpec(coupling=1e9, detuning=7e9)

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
        assert error == pytest.approx(analytic_transfer_error(spec), rel=1e-9)
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

    def test_one_input_one_exponential(self, monkeypatch):
        # only the photon-left input is propagated, and no ideal unitary is built
        calls = []

        def counting(name):
            original = getattr(lindblad, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("expm", "apply_propagator"):
            monkeypatch.setattr(lindblad, name, counting(name))
        spec = operating_spec()
        error = transfer_gate_error(spec)
        assert calls == ["expm", "apply_propagator"]
        assert type(error) is float
        left = transfer_space().basis_state([1, 0]).to_density_matrix()
        superop = propagator(build_transfer_liouvillian(spec), spec.gate_time)
        assert error == 1.0 - apply_propagator(superop, left).population(1)

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


class TestPhaseGate:
    def spec(self, phase):
        shift = TWO_PI * 2e7
        return PhaseSpec(
            coupling=math.sqrt(shift * DELTA_OP), detuning=DELTA_OP, phase=phase
        )

    def test_pi_gate_time(self):
        assert phase_gate_time(self.spec(math.pi)) == pytest.approx(25e-9, rel=1e-9)

    def test_zero_phase_zero_time(self):
        assert phase_gate_time(self.spec(0.0)) == 0.0

    def test_sign_constraint(self):
        with pytest.raises(ValueError):
            self.spec(-math.pi)

    def test_pi_flips_coherence_sign(self):
        rep = phase_gate_report(self.spec(math.pi))
        assert rep["error"] < 1e-9
        assert math.cos(rep["relative_phase"]) == pytest.approx(-1.0, abs=1e-9)

    def test_half_gates_compose(self):
        half = phase_gate_report(self.spec(math.pi / 2))["relative_phase"]
        full = phase_gate_report(self.spec(math.pi))["relative_phase"]
        mismatch = np.angle(np.exp(1j * (2 * half - full)))
        assert abs(mismatch) < 1e-10


DERIVED = fjs_derive(fjs_params(load_config()), tlr_params(load_config()))


def cz_spec(ratio, n=1000, seed=42, **kw):
    return CphaseSpec.from_fjs(DERIVED, speed_ratio=ratio, sample_count=n, seed=seed, **kw)


def wrapped(x):
    return float(np.angle(np.exp(1j * x)))


def conditional_phase(phases):
    # theta00 - theta01 - theta10 + theta11: what no local Z can remove
    return phases[0] - phases[1] - phases[2] + phases[3]


def noiseless_echo_phases(spec, wait):
    """Logical output phases of the noiseless echo with ideal flips.

    Rebuilt from the protocol description (leg, wait, leg, flip, twice)
    rather than from the module's internals.
    """
    eye = np.eye(3)
    hop = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cross = np.zeros((9, 9))
    cross[8, 8] = -spec.interaction_strength  # both photons in the cell
    h_leg = spec.transfer_coupling * (np.kron(hop, eye) + np.kron(eye, hop)) + cross
    leg = expm(-1j * h_leg * spec.transfer_time)
    half = np.kron(flip, flip) @ leg @ expm(-1j * cross * wait) @ leg
    psi = np.zeros(9, dtype=complex)
    psi[list(LOGICAL_FLAT)] = 0.5
    return logical_phase_extract(StateVector(cphase_space(), half @ half @ psi))


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
        phases = noiseless_echo_phases(spec, spec.wait_time)
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
        assert cphase_spin_echo_error(spec)["error"] < 1e-5

    def test_operating_point_frozen(self):
        rep = cphase_spin_echo_error(cz_spec(20.0))
        assert rep["error"] == pytest.approx(5.0876e-03, rel=2e-3)
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
        rep = cphase_spin_echo_error(spec)
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
            cphase_spin_echo_error(cz_spec(r, n=400))["error"]
            for r in (5, 10, 20, 40, 80)
        ]
        assert errors == sorted(errors, reverse=True)

    @pytest.mark.parametrize("ideal_flips", [True, False])
    def test_lossless_block_split_leaves_samples_unchanged(self, monkeypatch, ideal_flips):
        # a block of 9 stacks (9, 9) wait phases next to the (9, 9) kicks
        stats = []
        original = protocols.monte_carlo_scalar

        def recording(*args, **kwargs):
            stats.append(original(*args, **kwargs))
            return stats[-1]

        monkeypatch.setattr(protocols, "monte_carlo_scalar", recording)
        spec = cz_spec(20.0, n=20, use_ideal_flips=ideal_flips)
        reports = []
        for block in (lindblad.SAMPLE_BLOCK, 3, 9):
            monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", block)
            reports.append(cphase_spin_echo_error(spec))
        for stat, report in zip(stats[1:], reports[1:]):
            assert np.array_equal(stat.values, stats[0].values)
            assert stat.mean == stats[0].mean
            assert report["error"] == reports[0]["error"]

    def test_deterministic_given_seed(self):
        a = cphase_spin_echo_error(cz_spec(20.0, n=200))
        b = cphase_spin_echo_error(cz_spec(20.0, n=200))
        assert a == b

    def test_seed_variation_within_noise(self):
        a = cphase_spin_echo_error(cz_spec(20.0, seed=42))
        b = cphase_spin_echo_error(cz_spec(20.0, seed=7))
        spread = math.hypot(a["std_error"], b["std_error"])
        assert abs(a["error"] - b["error"]) < 4 * spread

    def test_basis_states_reported(self):
        r00, r01, r10, r11 = cphase_spin_echo_error(cz_spec(20.0, n=50))["retention"]
        # single-photon legs are exact; two-photon legs lose amplitude
        assert r01 > 1 - 1e-9
        assert r10 > 1 - 1e-9
        assert r00 == pytest.approx(r11, abs=1e-6)
        assert 0.98 < r11 < 1.0

    def test_result_holds_measured_values_only(self):
        # no echo of the spec's inputs, and plain data a JSON sidecar can hold
        rep = cphase_spin_echo_error(cz_spec(20.0, n=10, photon_loss_rate=TWO_PI * 1e3))
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
        # a vanishing loss rate must reproduce the pure-state fast path
        fast = cphase_spin_echo_error(cz_spec(20.0, n=25))
        dense = cphase_spin_echo_error(cz_spec(20.0, n=25, photon_loss_rate=1e-3))
        assert dense["error"] == pytest.approx(fast["error"], abs=1e-6)

    def test_photon_loss_increases_error(self):
        lossless = cphase_spin_echo_error(cz_spec(20.0, n=25))
        lossy = cphase_spin_echo_error(
            cz_spec(20.0, n=25, photon_loss_rate=TWO_PI * 1e4)
        )
        assert lossy["error"] > lossless["error"]
        # uniform loss over the protocol duration sets the scale
        spec = cz_spec(20.0)
        duration = 2 * (2 * spec.transfer_time + spec.wait_time)
        floor = 1 - math.exp(-TWO_PI * 1e4 * duration)
        assert lossy["error"] > 0.5 * floor

    def test_simulated_flips_supported(self):
        ideal = cphase_spin_echo_error(cz_spec(20.0, n=25))
        sim = cphase_spin_echo_error(cz_spec(20.0, n=25, use_ideal_flips=False))
        assert 0.0 < sim["error"] < 1.0
        assert abs(sim["error"] - ideal["error"]) < 1e-2
        # the wait is solved with the simulated flips in place
        assert sim["wait_time"] != ideal["wait_time"]
        assert abs(wrapped(sim["conditional_phase"] - math.pi)) < 1e-9
        assert max(abs(r) for r in sim["calibration_residual"]) < 1e-12


def _lossy_start():
    psi = np.zeros(9, dtype=complex)
    psi[list(LOGICAL_FLAT)] = 0.5
    return DensityMatrix(cphase_space(), np.outer(psi, psi.conj()))


def _distinct_evolutions(segments):
    return list({id(s): s for s in segments if isinstance(s, Evolve)}.values())


class TestLossySchedule:
    @pytest.mark.parametrize("ideal_flips, distinct", [(True, 2), (False, 3)])
    def test_each_distinct_propagator_built_once(self, monkeypatch, ideal_flips, distinct):
        spec = cz_spec(20.0, n=5, photon_loss_rate=TWO_PI * 1e4, use_ideal_flips=ideal_flips)
        segments = cphase_schedule(spec)
        rho0 = _lossy_start()
        assert len(segments) == 8
        assert len(_distinct_evolutions(segments)) == distinct

        generators = []
        original_matrix = Liouvillian.matrix

        def counting_matrix(liouvillian):
            generators.append(liouvillian)
            return original_matrix(liouvillian)

        monkeypatch.setattr(Liouvillian, "matrix", counting_matrix)
        finals = []

        def record(states):
            finals.extend(states.copy())
            return states[:, 0, 0].real

        p00 = monte_carlo_quasistatic(
            segments, spec.phi_noise, rho0, record, coefficient=spec.shift_deviation
        )
        # G0 of each distinct evolution and G1 of their shared shift term,
        # once for all five samples
        assert len(generators) == distinct + 1

        built = []
        original = lindblad.propagator

        def counting(liouvillian, duration):
            built.append(duration)
            return original(liouvillian, duration)

        monkeypatch.setattr(lindblad, "propagator", counting)
        folded = []
        for i in range(5):
            x = spec.shift_deviation(spec.phi_noise.draw(0, i))
            folded.append(propagate_schedule(segments, rho0, x))
            assert trace_distance(finals[i], folded[-1]) <= 1e-12
        assert len(built) == 5 * distinct
        assert np.allclose(p00.values, [f.population(0) for f in folded], rtol=0, atol=1e-12)

    def test_block_split_leaves_samples_unchanged(self, monkeypatch):
        spec = cz_spec(20.0, n=8, photon_loss_rate=TWO_PI * 1e4, use_ideal_flips=False)

        def run():
            return monte_carlo_quasistatic(
                cphase_schedule(spec),
                spec.phi_noise,
                _lossy_start(),
                lambda states: states[:, 0, 0].real,
                coefficient=spec.shift_deviation,
            )

        whole = run()
        monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", 3)
        split = run()
        assert np.array_equal(whole.values, split.values)
        assert whole.mean == split.mean


class TestSectors:
    # sectors: the leg 9 (largest 25), the wait 49 (largest 9), a
    # simulated flip like the leg
    @pytest.mark.parametrize("ideal_flips", [True, False])
    def test_sector_blocks_reassemble_full_expm(self, ideal_flips):
        spec = cz_spec(20.0, n=2, photon_loss_rate=TWO_PI * 1e4, use_ideal_flips=ideal_flips)
        x = spec.shift_deviation(spec.phi_noise.draw(0, 0))
        expected = [(9, 25), (49, 9)] + ([] if ideal_flips else [(9, 25)])
        for segment, (count, largest) in zip(
            _distinct_evolutions(cphase_schedule(spec)), expected
        ):
            shift = Liouvillian(segment.generator.space, segment.shift).matrix()
            stacks = lindblad._sector_stacks(
                segment.generator.matrix() * segment.duration, shift * segment.duration
            )
            sizes = [idx.shape[1] for idx, _, _ in stacks for _ in idx]
            assert (len(sizes), max(sizes), sum(sizes)) == (count, largest, 81)
            full = lindblad.expm(segment.at(x).matrix() * segment.duration)
            blocks = np.zeros_like(full)
            for idx, props in lindblad._sector_propagators(stacks, np.array([x])):
                for k, sector in enumerate(idx):
                    blocks[np.ix_(sector, sector)] = props[0, k]
            assert np.max(np.abs(blocks - full)) <= 1e-12


class TestEchoCancellation:
    def test_static_shift_cancels_exactly(self):
        spec = cz_spec(20.0, n=10, seed=1)
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = 0.5
        space = cphase_space()
        extracted = []
        for shift in (0.0, 3.2 * abs(DERIVED.delta_omega_s)):
            out = cphase_ideal_leg_unitary(spec, shift) @ psi
            extracted.append(logical_phase_extract(StateVector(space, out)))
        for a, b in zip(*extracted):
            assert abs(a - b) < 1e-9

    def test_ideal_output_phase_pattern(self):
        spec = cz_spec(20.0, n=10, seed=1)
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = 0.5
        out = cphase_ideal_leg_unitary(spec, 0.0) @ psi
        phases = logical_phase_extract(StateVector(cphase_space(), out))
        for got, want in zip(phases, IDEAL_CZ_PHASES):
            assert abs(np.angle(np.exp(1j * (got - want)))) < 1e-9
        # entangling: a conditional phase of pi, not a product of local Z
        assert abs(wrapped(conditional_phase(phases) - math.pi)) < 1e-9


class TestLogicalPhaseExtract:
    def test_identity_gives_zero_phases(self):
        psi = np.zeros(9, dtype=complex)
        psi[list(LOGICAL_FLAT)] = 0.5
        phases = logical_phase_extract(StateVector(cphase_space(), psi))
        assert all(abs(p) < 1e-12 for p in phases)

    def test_z_rotation_pattern(self):
        theta = 0.7
        psi = np.zeros(9, dtype=complex)
        for k, flat in enumerate(LOGICAL_FLAT):
            first_bit = k // 2
            psi[flat] = 0.5 * np.exp(1j * theta * (1 - first_bit))
        phases = logical_phase_extract(StateVector(cphase_space(), psi))
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
            logical_phase_extract(StateVector(cphase_space(), psi))

    def test_vanishing_reference_rejected(self):
        psi = np.zeros(9, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(ValueError, match="reference"):
            logical_phase_extract(StateVector(cphase_space(), psi))


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
        schedule = [
            Evolve(Liouvillian(space, hamiltonian=exchange * spec.exchange_rate), t, exchange)
        ]
        noise = QuasiStaticNoise(
            mean=0.0, std=sigma, label="exchange_detuning", sample_count=1000, seed=11
        )
        rho0 = _left_photon_state(space)
        stat = monte_carlo_quasistatic(
            schedule,
            noise,
            rho0,
            lambda states: states[:, 1, 1].real,
            coefficient=lambda delta: -weight * delta,
        )

        lindblad_final = propagate_expm(build_transfer_liouvillian(spec), rho0, t)
        reference = lindblad_final.population(1)
        assert abs(stat.mean - reference) < 3 * stat.std_error


def _left_photon_state(space):
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    return StateVector(space, amps).to_density_matrix()


@settings(max_examples=20, deadline=None)
@given(
    kappa=st.floats(min_value=0.0, max_value=1e6),
    gamma2=st.floats(min_value=0.0, max_value=1e8),
)
def test_transfer_error_stays_physical(kappa, gamma2):
    error = transfer_gate_error(operating_spec(photon_loss_rate=kappa, dephasing_rate=gamma2))
    assert 0.0 <= error <= 1.0
    assert error == pytest.approx(
        analytic_transfer_error(
            operating_spec(photon_loss_rate=kappa, dephasing_rate=gamma2)
        ),
        abs=1e-9,
    )


@settings(max_examples=15, deadline=None)
@given(theta=st.floats(min_value=-3.0, max_value=3.0))
def test_phase_extract_wraps_into_principal_branch(theta):
    psi = np.zeros(9, dtype=complex)
    psi[list(LOGICAL_FLAT)] = 0.5 * np.exp(1j * np.array([theta, 0.0, 2 * theta, -theta]))
    phases = logical_phase_extract(StateVector(cphase_space(), psi))
    assert all(-math.pi - 1e-12 <= p <= math.pi + 1e-12 for p in phases)
    assert phases[1] == 0.0
