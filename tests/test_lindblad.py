import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from tlrsim import lindblad
from tlrsim.config import load_config
from tlrsim.lindblad import (
    IntegrationError,
    LindbladTerm,
    Liouvillian,
    MonteCarloError,
    QuasiStaticNoise,
    apply_superoperator,
    monte_carlo_quasistatic,
    monte_carlo_scalar,
    propagate_expm,
    propagate_rk4,
    propagate_schedule,
    propagator,
    quasistatic_sigma,
    substream_rng,
    trace_distance,
)
from tlrsim.qcore import DensityMatrix, HilbertSpace, annihilation, embed
from tlrsim.sweeps import run_cphase_sweep
from tlrsim.validate import run_validation


# the Hamiltonian of a qubit generator made of jump terms alone
NO_HAMILTONIAN = np.zeros((2, 2))


def qubit_tools():
    return HilbertSpace([("q", 2)]), annihilation(2)


def plus_state(space):
    return DensityMatrix(space, np.full((2, 2), 0.5, dtype=complex))


def recording(fn):
    """``fn`` wrapped to keep what it returns, and the list it keeps it in."""
    seen = []

    def wrapper(arg):
        seen.append(np.asarray(fn(arg), dtype=float))
        return seen[-1]

    return wrapper, seen


def scalar_run(model, noise, **kwargs):
    """``monte_carlo_scalar``'s result and every value ``model`` returned, in order."""
    recorded, seen = recording(model)
    return monte_carlo_scalar(recorded, noise, **kwargs), np.concatenate(seen)


def point_draws(noise, point_index=0):
    """The values one point draws: its substream's normals in order, scaled."""
    normals = substream_rng(noise.seed, point_index).standard_normal(noise.sample_count)
    return (noise.mean + noise.std * normals).tolist()


def random_matrices(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestVectorization:
    def test_sandwich_identity(self):
        # column stacking: vec(A rho B) = (B^T kron A) vec(rho)
        a, b, rho = random_matrices(np.random.default_rng(7), 3, 3, 3)
        out = apply_superoperator(np.kron(b.T, a), rho)
        assert out.shape == (3, 3)
        assert np.allclose(out, a @ rho @ b, atol=1e-12)

    def test_stack_gives_each_single_result(self):
        rng = np.random.default_rng(11)
        superops = random_matrices(rng, 2, 3, 9, 9)
        rho = random_matrices(rng, 3, 3)
        stacked = apply_superoperator(superops, rho)
        assert stacked.shape == (2, 3, 3, 3)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(stacked[i, j], apply_superoperator(superops[i, j], rho))


class TestExpm:
    # Pade degree thresholds on the 1-norm (Higham 2005): 3 up to 0.015,
    # 5 up to 0.25, 7 up to 0.95, 9 up to 2.1, 13 up to 5.37, then scaling
    @pytest.mark.parametrize("dim", [9, 16, 81])
    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 4.0, 100.0])
    def test_matches_scipy(self, dim, norm):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= norm / np.linalg.norm(a, 1)
        ref = scipy.linalg.expm(a)
        assert np.linalg.norm(lindblad._expm(a) - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)

    def test_zero_gives_identity(self):
        assert np.array_equal(lindblad._expm(np.zeros((9, 9), dtype=complex)), np.eye(9))

    def test_diagonal(self):
        d = np.random.default_rng(3).normal(size=16) * 5 + 1j * np.linspace(-20, 20, 16)
        assert np.allclose(lindblad._expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-13, atol=0)

    def test_inverse(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a *= 3.0 / np.linalg.norm(a, 1)
        assert np.allclose(lindblad._expm(a) @ lindblad._expm(-a), np.eye(16), rtol=0, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            lindblad._expm(np.ones((2, 3)))

    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 4.0, 100.0])
    def test_stack_matches_slices(self, norm):
        # one norm per Pade degree (3, 5, 7, 9, 13) and the scaling branch
        rng = np.random.default_rng(17)
        a = rng.normal(size=(2, 3, 9, 9)) + 1j * rng.normal(size=(2, 3, 9, 9))
        a *= norm * np.linspace(0.9, 1.0, 6).reshape(2, 3, 1, 1) / np.linalg.norm(
            a, 1, axis=(-2, -1), keepdims=True
        )
        stacked = lindblad._expm(a)
        assert stacked.shape == a.shape
        for i, j in np.ndindex(2, 3):
            ref = lindblad._expm(a[i, j])
            assert np.linalg.norm(stacked[i, j] - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)

    def test_mixed_degree_stack_is_bitwise_per_slice(self):
        # each matrix picks its own degree and scaling, so a slice's result
        # does not depend on the other matrices of the stack
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
        norms = np.array([1e-3, 0.1, 0.5, 1.5, 4.0, 100.0])
        a *= (norms / np.linalg.norm(a, 1, axis=(1, 2)))[:, None, None]
        stacked = lindblad._expm(a)
        for i in range(6):
            assert np.array_equal(stacked[i], lindblad._expm(a[i]))
        assert np.array_equal(lindblad._expm(a[3]), lindblad._expm(a[3][None])[0])

    def test_refuses_more_squarings_than_the_trace_tolerance_allows(self):
        # 2^23 unit roundoffs stay within the 1e-9 trace tolerance, 2^24 do not
        rotation = np.diag([1j, -1j])  # unitary exponential: no overflow at any norm
        limit = lindblad._THETA_13 * 2.0**lindblad.MAX_SQUARINGS
        u = lindblad._expm(rotation * limit)
        assert np.allclose(u @ u.conj().T, np.eye(2), rtol=0, atol=1e-8)
        overflowed = np.array([[np.inf, 0.0], [0.0, 0.0]])
        for a in (rotation * 1.01 * limit, np.stack([rotation, rotation * 2.0 * limit]), overflowed):
            with pytest.raises(ValueError, match="more than 23 squarings"):
                lindblad._expm(a)

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, tlrsim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestAmplitudeDamping:
    # Canonical rate gamma empties the excited state as exp(-gamma t)
    # and shrinks coherence as exp(-gamma t / 2).

    def setup_method(self):
        self.space, lower = qubit_tools()
        self.liou = Liouvillian(self.space, NO_HAMILTONIAN, terms=(LindbladTerm(lower, 2.0),))

    def test_population_decay_expm(self):
        rho0 = self.space.basis_state([1])
        final = propagate_expm(self.liou, rho0, 0.7)
        assert final.population(1) == pytest.approx(math.exp(-1.4), abs=1e-12)
        assert final.population(0) == pytest.approx(1 - math.exp(-1.4), abs=1e-12)

    def test_population_decay_rk4(self):
        rho0 = self.space.basis_state([1])
        final = propagate_rk4(self.liou, rho0, 0.7)
        assert final.population(1) == pytest.approx(math.exp(-1.4), abs=1e-8)

    def test_coherence_half_rate(self):
        final = propagate_expm(self.liou, plus_state(self.space), 0.7)
        assert abs(final.matrix[0, 1]) == pytest.approx(0.5 * math.exp(-0.7), abs=1e-12)


class TestPureDephasing:
    def test_projector_pair_rate(self):
        # Jumps |0><0| and |1><1| at rate gamma each: coherence decays at
        # exactly gamma while populations stay put.
        space, _ = qubit_tools()
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        gamma = 3.0
        liou = Liouvillian(
            space, NO_HAMILTONIAN, terms=(LindbladTerm(p0, gamma), LindbladTerm(p1, gamma))
        )
        final = propagate_expm(liou, plus_state(space), 0.4)
        assert abs(final.matrix[0, 1]) == pytest.approx(0.5 * math.exp(-1.2), abs=1e-12)
        assert final.population(0) == pytest.approx(0.5, abs=1e-12)
        assert final.population(1) == pytest.approx(0.5, abs=1e-12)


class TestUnitaryLimit:
    def test_rabi_oscillation(self):
        space, lower = qubit_tools()
        g = 1.3
        h = (lower + lower.conj().T) * g
        liou = Liouvillian(space, hamiltonian=h)
        rho0 = space.basis_state([0])
        t = 0.3 / g
        final = propagate_expm(liou, rho0, t)
        assert final.population(1) == pytest.approx(math.sin(0.3) ** 2, abs=1e-12)
        purity = np.trace(final.matrix @ final.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-10)


def transfer_like_generator():
    """Two coupled rails with loss and collective dephasing, real scales."""
    space = HilbertSpace([("a", 2), ("b", 2)])
    a = embed(annihilation(2), space, "a")
    b = embed(annihilation(2), space, "b")
    j_ex = 1.217e8
    h = (a.conj().T @ b + b.conj().T @ a) * j_ex
    kappa = 6.283e4
    gamma_c = 7.75e4
    cross = a.conj().T @ b + a @ b.conj().T
    terms = (
        LindbladTerm(a, kappa),
        LindbladTerm(b, kappa),
        LindbladTerm(cross, gamma_c),
    )
    return Liouvillian(space, hamiltonian=h, terms=terms), space


class TestIntegratorCrossCheck:
    def test_expm_vs_rk4_on_transfer_generator(self):
        liou, space = transfer_like_generator()
        rho0 = space.basis_state([1, 0])
        t = 1.29e-8
        via_expm = propagate_expm(liou, rho0, t)
        via_rk4 = propagate_rk4(liou, rho0, t)
        assert trace_distance(via_expm, via_rk4) <= 1e-6

    def test_rk4_fourth_order_convergence(self):
        liou, space = transfer_like_generator()
        rho0 = space.basis_state([1, 0])
        t = 1.29e-8
        reference = propagate_expm(liou, rho0, t)
        coarse, fine = (lindblad._rk4_run(liou, rho0.matrix, t, steps) for steps in (40, 80))
        ratio = trace_distance(reference, coarse) / trace_distance(reference, fine)
        assert 8.0 <= ratio <= 32.0

    def test_zero_duration_leaves_the_state_exactly(self):
        # the Pade exponential of a zero generator is the identity, and RK4 steps of dt = 0
        # add nothing
        liou, space = transfer_like_generator()
        rho0 = space.basis_state([1, 0])
        for propagate in (propagate_expm, propagate_rk4):
            assert np.array_equal(propagate(liou, rho0, 0.0).matrix, rho0.matrix)

    def test_semigroup_property(self):
        liou, _ = transfer_like_generator()
        p1 = propagator(liou, 4.0e-9)
        p2 = propagator(liou, 9.0e-9)
        p12 = propagator(liou, 1.3e-8)
        assert np.linalg.norm(p2 @ p1 - p12, ord=np.inf) <= 1e-9


class TestRk4StepControl:
    def setup_method(self):
        self.space, lower = qubit_tools()
        # strongly damped qubit: gamma t = 1000 is far past steady state
        self.liou = Liouvillian(self.space, NO_HAMILTONIAN, terms=(LindbladTerm(lower, 1.0e6),))
        self.rho0 = self.space.basis_state([1])

    def test_unstable_step_raises_with_the_state_check(self, monkeypatch):
        # the step rule asks for 1 step here, so the run takes the floor of
        # 16, where gamma dt = 62.5 is far past RK4's stability limit
        monkeypatch.setattr(lindblad, "_STEP_FRACTION", 1.0e3)
        with pytest.raises(
            IntegrationError, match=r"^RK4 state failed after 16 steps: trace .* deviates from 1"
        ):
            propagate_rk4(self.liou, self.rho0, 1.0e-3)

    def test_step_cap_raises(self):
        # the step rule asks for 50,000 steps
        with pytest.raises(IntegrationError, match="too stiff"):
            propagate_rk4(self.liou, self.rho0, 1.0e-3)


class TestLiouvillianValidation:
    def test_non_hermitian_hamiltonian_rejected(self):
        space, lower = qubit_tools()
        with pytest.raises(ValueError, match="^hamiltonian must be Hermitian$"):
            Liouvillian(space, hamiltonian=lower)

    def test_space_mismatch_rejected(self):
        space, _ = qubit_tools()
        other = annihilation(3)
        with pytest.raises(ValueError, match="^hamiltonian lives on a different space$"):
            Liouvillian(space, hamiltonian=other + other.conj().T)
        with pytest.raises(ValueError, match="^jump operator lives on a different space$"):
            Liouvillian(space, NO_HAMILTONIAN, terms=(LindbladTerm(other, 1.0),))

    @pytest.mark.parametrize(
        "rate, message",
        [
            (float("nan"), "jump rate must be finite, got nan"),
            (float("inf"), "jump rate must be finite, got inf"),
            (-1.0, "jump rate must be nonnegative, got -1.0"),
        ],
    )
    def test_bad_rate_rejected_by_name(self, rate, message):
        _, lower = qubit_tools()
        with pytest.raises(ValueError) as info:
            LindbladTerm(lower, rate)
        assert str(info.value) == message

    def test_zero_rate_term_is_dropped(self):
        space, lower = qubit_tools()
        h = lower + lower.conj().T
        kept = (LindbladTerm(lower, 2.0),)
        bare = Liouvillian(space, hamiltonian=h, terms=kept)
        padded = Liouvillian(space, hamiltonian=h, terms=(*kept, LindbladTerm(lower.T, 0.0)))
        assert padded.terms == bare.terms
        rho = plus_state(space).matrix
        assert padded.matrix().tobytes() == bare.matrix().tobytes()
        assert padded.apply(rho).tobytes() == bare.apply(rho).tobytes()


class TestSchedule:
    def test_apply_then_evolve_matches_manual(self):
        space, lower = qubit_tools()
        x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
        liou = Liouvillian(space, NO_HAMILTONIAN, terms=(LindbladTerm(lower, 2.0),))
        rho0 = space.basis_state([0])
        final = propagate_schedule([x_gate, (liou, 0.7), x_gate], rho0)
        # flip, decay, flip back: ground population is now exp(-1.4)
        assert final.population(0) == pytest.approx(math.exp(-1.4), abs=1e-12)

    def test_rk4_method_agrees(self):
        space, lower = qubit_tools()
        liou = Liouvillian(space, NO_HAMILTONIAN, terms=(LindbladTerm(lower, 2.0),))
        rho0 = space.basis_state([1])
        a = propagate_schedule([(liou, 0.7)], rho0)
        b = propagate_rk4(liou, rho0, 0.7)
        assert trace_distance(a, b) <= 1e-7

    def test_non_unitary_apply_rejected(self):
        space, lower = qubit_tools()
        rho0 = space.basis_state([0])
        with pytest.raises(ValueError, match="^schedule kick needs a unitary operator$"):
            propagate_schedule([lower], rho0)
        with pytest.raises(ValueError, match="unitary"):
            # off the identity by 2e-9 > NORM_TOL
            propagate_schedule([np.diag([1.0, 1.0 + 1e-9])], rho0)

    def test_wrong_shape_unitary_rejected(self):
        space, _ = qubit_tools()
        with pytest.raises(ValueError, match="^unitary lives on a different space$"):
            propagate_schedule([np.eye(3)], space.basis_state([0]))

    def test_generator_on_another_space_rejected(self):
        space, _ = qubit_tools()
        qutrit = Liouvillian(HilbertSpace([("t", 3)]), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="^state lives on a different space$"):
            propagate_schedule([(qutrit, 0.7)], space.basis_state([0]))


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        space, _ = qubit_tools()
        zero = space.basis_state([0])
        one = space.basis_state([1])
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-14)


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = substream_rng(42, 3).standard_normal(5)
        b = substream_rng(42, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = substream_rng(42, 3).standard_normal(5)
        b = substream_rng(42, 4).standard_normal(5)
        c = substream_rng(43, 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_each_point_seeds_one_substream(self, monkeypatch):
        keys = []

        def counting(seed, point_index):
            keys.append((seed, point_index))
            return substream_rng(seed, point_index)

        monkeypatch.setattr(lindblad, "substream_rng", counting)
        config = load_config()
        run_cphase_sweep(config)
        assert len(config["experiments"]["cphase"]["speed_ratios"]) == 5
        assert keys == [(42, i) for i in range(5)]
        keys.clear()
        run_validation(config)
        assert len(keys) == 1


class TestScalarMonteCarlo:
    def test_bitwise_reproducible(self):
        noise = QuasiStaticNoise(mean=0.0, std=1.0, label="detuning", sample_count=64, seed=11)
        r1, v1 = scalar_run(np.cos, noise, point_index=2)
        r2, v2 = scalar_run(np.cos, noise, point_index=2)
        assert np.array_equal(v1, v2)
        assert r1.mean == r2.mean
        _, v3 = scalar_run(np.cos, noise, point_index=3)
        assert not np.array_equal(v1, v3)

    @pytest.mark.parametrize("block", [1, 32, 70])
    def test_sample_prefix_stable_under_count(self, monkeypatch, block):
        # growing the sample budget must not reshuffle earlier draws, at any block
        monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", block)
        _, small = scalar_run(
            np.cos, QuasiStaticNoise(0.0, 1.0, "detuning", sample_count=45, seed=5), point_index=3
        )
        noise = QuasiStaticNoise(0.0, 1.0, "detuning", sample_count=70, seed=5)
        _, large = scalar_run(np.cos, noise, point_index=3)
        assert np.array_equal(large[:45], small)
        assert np.array_equal(large, np.cos(point_draws(noise, 3)))

    def test_values_are_the_model_at_each_draw(self):
        noise = QuasiStaticNoise(mean=0.2, std=1.5, label="detuning", sample_count=70, seed=4)
        result, values = scalar_run(np.cos, noise, point_index=1)
        assert np.array_equal(values, [math.cos(x) for x in point_draws(noise, 1)])
        assert result.mean == float(values.mean())

    def test_gaussian_dephasing_against_analytic(self):
        # E[cos(delta t)] over delta ~ N(0, sigma^2) is exp(-sigma^2 t^2 / 2).
        sigma, t = 0.8, 1.25
        noise = QuasiStaticNoise(
            mean=0.0, std=sigma, label="detuning", sample_count=1000, seed=2024
        )
        result = monte_carlo_scalar(lambda d: np.cos(d * t), noise)
        exact = math.exp(-0.5 * sigma * sigma * t * t)
        assert abs(result.mean - exact) <= 3.0 * result.std_error

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QuasiStaticNoise(0.0, 1.0, "detuning", sample_count=0, seed=0)

    def test_rejects_a_single_sample(self):
        # one sample has no standard error, as noise.samples and validation.mc_samples say
        with pytest.raises(ValueError, match="at least 2"):
            QuasiStaticNoise(0.0, 1.0, "detuning", sample_count=1, seed=0)

    def test_failure_reports_index_and_value(self):
        def broken(values):
            raise RuntimeError("boom")

        noise = QuasiStaticNoise(mean=0.5, std=0.0, label="tilt", sample_count=3, seed=9)
        with pytest.raises(MonteCarloError, match=r"sample 0 \(tilt=0\.5\) failed: boom"):
            monte_carlo_scalar(broken, noise)

    def test_failure_inside_a_block_names_that_sample(self):
        noise = QuasiStaticNoise(mean=0.0, std=1.0, label="tilt", sample_count=80, seed=3)
        draws = point_draws(noise)
        k = 45  # inside the second block, neither its first nor its last sample
        assert 0 < k % lindblad.SAMPLE_BLOCK < lindblad.SAMPLE_BLOCK - 1

        def model(values):
            if np.any(values == draws[k]):
                raise ValueError("unphysical draw")
            return np.cos(values)

        with pytest.raises(MonteCarloError) as err:
            monte_carlo_scalar(model, noise)
        assert str(err.value) == f"sample {k} (tilt={draws[k]!r}) failed: unphysical draw"


def coherence(states):
    return np.abs(states[:, 0, 1])


class TestStateMonteCarlo:
    def setup_method(self):
        self.space, self.lower = qubit_tools()
        self.rho0 = plus_state(self.space)
        # quasi-static frequency offset rotating the qubit coherence
        self.offset = np.diag([0.0, 1.0]).astype(complex)

    def model(self, detuning):
        return Liouvillian(self.space, hamiltonian=self.offset * detuning)

    def run(self, duration, noise, observable, generator=None):
        """Monte Carlo with each draw itself the coefficient of the offset.

        ``generator`` defaults to free evolution.  Returns the result and
        every value ``observable`` returned, in order.
        """
        generator = generator or Liouvillian(self.space, NO_HAMILTONIAN)
        recorded, seen = recording(observable)
        stat = monte_carlo_quasistatic(
            generator,
            duration,
            self.offset,
            noise,
            self.rho0,
            recorded,
        )
        return stat, np.concatenate(seen)

    def test_zero_std_matches_deterministic_run(self):
        noise = QuasiStaticNoise(mean=0.7, std=0.0, label="detuning", sample_count=5, seed=3)
        direct = propagate_expm(self.model(0.7), self.rho0, 1.1)

        def distance(states):
            return [trace_distance(state, direct) for state in states]

        _, values = self.run(1.1, noise, distance)
        assert np.max(values) <= 1e-12

    def test_mean_state_dephases_like_gaussian(self):
        sigma, t = 0.9, 1.3
        noise = QuasiStaticNoise(mean=0.0, std=sigma, label="detuning", sample_count=400, seed=21)

        def real_parts(states):
            return states[:, 0, 1].real

        def population(states):
            return states[:, 0, 0].real

        # ensemble-averaged coherence shrinks toward the Gaussian
        # free-induction value, populations untouched
        stat, _ = self.run(t, noise, real_parts)
        exact = 0.5 * math.exp(-0.5 * sigma * sigma * t * t)
        assert stat.mean == pytest.approx(exact, abs=0.05)
        pop, _ = self.run(t, noise, population)
        assert pop.mean == pytest.approx(0.5, abs=1e-12)

    def test_observable_stats_recorded(self):
        noise = QuasiStaticNoise(mean=0.0, std=0.4, label="detuning", sample_count=32, seed=8)
        stat, values = self.run(1.0, noise, coherence)
        assert values.shape == (32,)
        assert stat.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert stat.std_error == pytest.approx(float(values.std(ddof=1)) / math.sqrt(32))

    def test_draw_scales_the_shift(self):
        noise = QuasiStaticNoise(mean=0.4, std=0.0, label="detuning", sample_count=3, seed=1)
        direct = propagate_expm(self.model(-1.0), self.rho0, 1.0)
        observable, seen = recording(lambda s: [trace_distance(x, direct) for x in s])
        free = Liouvillian(self.space, NO_HAMILTONIAN)
        monte_carlo_quasistatic(free, 1.0, -2.5 * self.offset, noise, self.rho0, observable)
        assert np.max(np.concatenate(seen)) <= 1e-12

    def test_zero_duration_leaves_the_state_exactly(self):
        # the Pade exponential of a zero generator is the identity, bit for bit
        noise = QuasiStaticNoise(mean=0.0, std=2.0, label="detuning", sample_count=4, seed=2)
        _, values = self.run(0.0, noise, lambda s: s[:, 0, 1].real)
        assert np.array_equal(values, np.full(4, 0.5))

    def test_bad_input_refused_before_any_sample(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample ran")

        monkeypatch.setattr(lindblad, "monte_carlo_scalar", refuse)
        noise = QuasiStaticNoise(mean=0.0, std=1.0, label="tilt", sample_count=2, seed=1)
        free = Liouvillian(self.space, NO_HAMILTONIAN)
        qutrit = Liouvillian(HilbertSpace([("t", 3)]), np.zeros((3, 3)))
        cases = [
            (free, -1.0, self.offset, "^duration must be nonnegative$"),
            (qutrit, 1.0, self.offset, "^state lives on a different space$"),
            (free, 1.0, np.eye(3), "^hamiltonian lives on a different space$"),
            (free, 1.0, self.lower, "^hamiltonian must be Hermitian$"),
        ]
        for generator, duration, shift, message in cases:
            with pytest.raises(ValueError, match=message):
                monte_carlo_quasistatic(generator, duration, shift, noise, self.rho0, coherence)

    def test_non_physical_sample_reported_by_index_and_value(self, monkeypatch):
        # the offset's superoperator has 1-norm 1, so a draw's exponent has
        # 1-norm |x|: an exponential that halves past 1.5 breaks those states
        exact = lindblad._expm

        def lossy(a):
            norms = np.linalg.norm(a, 1, axis=(-2, -1))
            return exact(a) * np.where(norms > 1.5, 0.5, 1.0)[:, None, None]

        monkeypatch.setattr(lindblad, "_expm", lossy)
        noise = QuasiStaticNoise(mean=0.3, std=1.0, label="tilt", sample_count=40, seed=5)
        draws = point_draws(noise)
        first = next(i for i, x in enumerate(draws) if abs(x) > 1.5)
        assert first > 0
        with pytest.raises(MonteCarloError) as err:
            monte_carlo_quasistatic(
                Liouvillian(self.space, NO_HAMILTONIAN),
                1.0,
                self.offset,
                noise,
                self.rho0,
                coherence,
            )
        assert str(err.value).startswith(f"sample {first} (tilt={draws[first]!r}) failed: trace")

    def test_block_split_leaves_samples_unchanged(self, monkeypatch):
        decay = (LindbladTerm(self.lower, 0.3),)
        decaying = Liouvillian(self.space, NO_HAMILTONIAN, terms=decay)
        noise = QuasiStaticNoise(mean=0.0, std=3.0, label="detuning", sample_count=8, seed=12)
        whole, whole_values = self.run(2.0, noise, coherence, decaying)
        monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", 3)
        split, split_values = self.run(2.0, noise, coherence, decaying)
        assert np.array_equal(whole_values, split_values)
        assert whole.mean == split.mean


class TestQuasistaticSigma:
    def test_formula(self):
        g, delta, gamma2, t = 1.2369159e9, 1.2566371e10, 6.2831853e6, 1.2901917e-8
        expected = (delta / g) * math.sqrt(2.0 * gamma2 / t)
        assert quasistatic_sigma(g, delta, gamma2, t) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quasistatic_sigma(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            quasistatic_sigma(1.0, 1.0, -1.0, 1.0)


@st.composite
def random_liouvillian_and_state(draw):
    dim = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    space = HilbertSpace([("s", dim)])
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (raw + raw.conj().T)
    jump = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rate = draw(st.floats(min_value=0.0, max_value=2.0))
    liou = Liouvillian(space, hamiltonian=h, terms=(LindbladTerm(jump, rate),))
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    rho = np.outer(amps, amps.conj())
    rho = rho / np.trace(rho).real
    duration = draw(st.floats(min_value=0.0, max_value=1.0))
    return liou, DensityMatrix(space, rho), duration


@settings(deadline=None, max_examples=40)
@given(random_liouvillian_and_state())
def test_evolution_preserves_state_validity(case):
    liou, rho0, duration = case
    final = propagate_expm(liou, rho0, duration)
    # DensityMatrix construction already enforces trace, hermiticity and
    # positivity tolerances; check purity stays physical on top.
    assert np.trace(final.matrix @ final.matrix).real <= 1.0 + 1e-9
    assert abs(np.trace(final.matrix) - 1.0) <= 1e-9


@settings(deadline=None, max_examples=15)
@given(random_liouvillian_and_state())
def test_integrators_agree_on_random_generators(case):
    liou, rho0, duration = case
    a = propagate_expm(liou, rho0, duration)
    b = propagate_rk4(liou, rho0, duration)
    assert trace_distance(a, b) <= 1e-6


def kron_superoperator(liou):
    """The superoperator written with np.kron, as the reference for Liouvillian.matrix."""
    d = liou.space.dim
    eye = np.eye(d)
    h = liou.hamiltonian
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for term in liou.terms:
        l = term.operator
        ldl = l.conj().T @ l
        sup += term.rate * (
            np.kron(l.conj(), l) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)
        )
    return sup


@settings(deadline=None, max_examples=60)
@given(
    dim=st.integers(min_value=2, max_value=9),
    jumps=st.integers(min_value=0, max_value=4),
    with_hamiltonian=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_superoperator_is_the_kron_formula_bit_for_bit(dim, jumps, with_hamiltonian, seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace([("s", dim)])
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (raw + raw.conj().T) if with_hamiltonian else np.zeros((dim, dim))
    terms = tuple(
        LindbladTerm(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
            float(rng.uniform(0.0, 3.0)),
        )
        for _ in range(jumps)
    )
    liou = Liouvillian(space, hamiltonian=h, terms=terms)
    assert np.array_equal(liou.matrix(), kron_superoperator(liou))


@settings(deadline=None, max_examples=60)
@given(
    dim=st.integers(min_value=2, max_value=6),
    jumps=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_superoperator_norm_is_at_most_twice_the_spectral_scale(dim, jumps, seed):
    # what keeps RK4 stable at its step rule: dt ||L|| <= 2 * _STEP_FRACTION
    rng = np.random.default_rng(seed)
    space = HilbertSpace([("s", dim)])
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    terms = tuple(
        LindbladTerm(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
            float(rng.uniform(0.0, 3.0)),
        )
        for _ in range(jumps)
    )
    liou = Liouvillian(space, hamiltonian=0.5 * (raw + raw.conj().T), terms=terms)
    assert np.linalg.norm(liou.matrix(), 2) <= 2.0 * liou.spectral_scale() * (1.0 + 1e-12)
