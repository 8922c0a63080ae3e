"""Gate constructions on dual-rail photonic qubits.

Covers the dispersive photon transfer between two resonators, its
validation against the full three-body model, and the two-qubit
controlled-phase protocol that shuttles photons into a shared nonlinear
cell with a spin-echo wrapped wait.  The transfer's gate error is a closed
form; its Lindblad generator is the reference that ``validate`` and the tests run.

Controlled-phase state space: each rail is a 3-level system
(0 = photon parked in the passive resonator = logical 0,
 1 = photon in the active resonator = logical 1,
 2 = photon moved into the interaction cell); the pair forms a 9-dim
space with logical basis at flat indices (0, 1, 3, 4).  A lost photon
leaves this space for the vacuum, which no Hamiltonian here couples back.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .device import DISPERSIVE_FLOOR, DISPERSIVE_SAFE, effective_dephasing_rate
from .lindblad import (
    LindbladTerm,
    Liouvillian,
    QuasiStaticNoise,
    monte_carlo_scalar,
)
from .qcore import NORM_TOL, HilbertSpace, annihilation, embed, projector

__all__ = [
    "TransferSpec",
    "CphaseSpec",
    "transfer_space",
    "transfer_operators",
    "build_transfer_liouvillian",
    "transfer_gate_error",
    "transfer_full_model_error",
    "cphase_spin_echo_error",
    "cphase_ideal_leg_unitary",
    "logical_phase_extract",
    "equal_superposition",
    "LOGICAL_FLAT",
    "IDEAL_CZ_PHASES",
]


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, float(x)))


def _validate_dispersive(coupling: float, detuning: float) -> None:
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    if abs(detuning) < DISPERSIVE_FLOOR * coupling:
        raise ValueError(
            f"detuning {detuning:.4e} rad/s below {DISPERSIVE_FLOOR:g}x coupling "
            f"{coupling:.4e} rad/s; dispersive construction invalid"
        )
    if abs(detuning) < DISPERSIVE_SAFE * coupling:
        warnings.warn(
            f"detuning below {DISPERSIVE_SAFE:g}x coupling; dispersive corrections grow",
            stacklevel=4,  # the line that built the spec, past __post_init__ and __init__
        )


# ---------------------------------------------------------------- transfer


@dataclass(frozen=True)
class TransferSpec:
    """Dispersive photon transfer between two resonators via one junction.

    ``dephasing_rate`` is the raw junction dephasing; the rate passed to
    the photon is reduced by the virtual-excitation weight 2(g/Delta)^2.
    The gate is a full swap.
    """

    coupling: float
    detuning: float
    photon_loss_rate: float = 0.0
    dephasing_rate: float = 0.0

    def __post_init__(self):
        # a rate past the float range (1e308 Hz is inf rad/s) would reach the
        # engine as a NaN trace
        values = (self.coupling, self.detuning, self.photon_loss_rate, self.dephasing_rate)
        if not all(map(math.isfinite, values)):
            raise ValueError("transfer rate or detuning leaves the float range")
        if self.coupling == 0:  # a coupling derived from positive inputs underflowed
            raise ValueError("transfer coupling 0.0 leaves the float range")
        _validate_dispersive(self.coupling, self.detuning)
        # g^2 sets the gate time and the exchange rate: a square that under-
        # or overflows, or a gate time pi |Delta| / (2 g^2) that overflows,
        # would surface as a division by zero or a non-finite generator
        if not sys.float_info.min <= self.coupling * self.coupling < math.inf:
            raise ValueError("transfer coupling squared leaves the float range")
        if self.gate_time == math.inf:
            raise ValueError("transfer gate time leaves the float range")
        if self.photon_loss_rate < 0 or self.dephasing_rate < 0:
            raise ValueError("rates must be nonnegative")

    @property
    def exchange_rate(self) -> float:
        """Signed effective hop rate g^2 / Delta (rad/s)."""
        return self.coupling**2 / self.detuning

    @property
    def gate_time(self) -> float:
        """Evolution time of a full swap: pi |Delta| / (2 g^2)."""
        return math.pi * abs(self.detuning) / (2.0 * self.coupling**2)

    @property
    def effective_dephasing(self) -> float:
        """Collective-mode dephasing rate seen by the photon."""
        return effective_dephasing_rate(self.coupling, self.detuning, self.dephasing_rate)


def transfer_space() -> HilbertSpace:
    return HilbertSpace([("left", 2), ("right", 2)])


def transfer_operators():
    """Transfer space, both rails' annihilators and the exchange operator."""
    space = transfer_space()
    a = embed(annihilation(2), space, "left")
    b = embed(annihilation(2), space, "right")
    exchange = a.conj().T @ b + b.conj().T @ a
    return space, a, b, exchange


def build_transfer_liouvillian(spec: TransferSpec) -> Liouvillian:
    """Exchange Hamiltonian with loss on both rails and collective dephasing."""
    space, a, b, exchange = transfer_operators()
    h = exchange * spec.exchange_rate
    terms = (
        LindbladTerm(a, spec.photon_loss_rate),
        LindbladTerm(b, spec.photon_loss_rate),
        LindbladTerm(exchange, spec.effective_dephasing),
    )
    return Liouvillian(space, hamiltonian=h, terms=terms)


def transfer_gate_error(spec: TransferSpec) -> float:
    """Gate error of the dispersive transfer under loss and dephasing.

    One minus the right-resonator population after the full swap of a photon
    from the left one.  In the one-photon block the dephasing jump is the
    exchange operator, which commutes with the Hamiltonian, and loss empties
    the block at kappa: the error is 1 - exp(-kappa T) (1 + exp(-2 gamma T)) / 2.
    Both exponents are at most 0, so a product that overflows gives 0.0, not NaN.
    """
    t = spec.gate_time
    dephased = math.exp(-2.0 * spec.effective_dephasing * t)
    return 1.0 - math.exp(-spec.photon_loss_rate * t) * 0.5 * (1.0 + dephased)


_TIME_RESOLUTION = 16  # grid steps per fast dispersive period


def transfer_full_model_error(spec: TransferSpec) -> dict:
    """Validate the effective transfer against the three-body model.

    Simulates both resonators plus the two-level junction coherently in
    the rotating frame (junction detuned by Delta) on a grid over the
    gate time and returns:

    - ``peak_junction_excitation``: largest transient junction population,
    - ``model_discrepancy``: the largest gauge-aligned distance
      max_t ||psi_full - e^{i theta} psi_eff x ground|| over the gate,
      an amplitude-level metric that scales linearly in g/|Delta|.
    """
    g, delta = spec.coupling, spec.detuning
    space = HilbertSpace([("left", 2), ("right", 2), ("junction", 2)])
    rails = embed(annihilation(2), space, "left") + embed(annihilation(2), space, "right")
    raise_j = embed(projector(1, 0, 2), space, "junction")
    p_excited = embed(projector(1, 1, 2), space, "junction")
    h = p_excited * delta + (rails @ raise_j + rails.conj().T @ raise_j.conj().T) * g

    evals, evecs = np.linalg.eigh(h)
    psi0 = np.zeros(8, dtype=complex)
    psi0[4] = 1.0  # photon left, junction ground
    c0 = evecs.conj().T @ psi0

    fast_period = 2.0 * math.pi / math.sqrt(delta**2 + 8.0 * g**2)
    dt = fast_period / _TIME_RESOLUTION
    times = np.arange(math.floor(spec.gate_time / dt) + 1) * dt

    amps = evecs @ (np.exp(-1j * np.outer(evals, times)) * c0[:, None])
    p_junction = np.sum(np.abs(amps[1::2, :]) ** 2, axis=0)

    # effective-model amplitudes on the same grid, junction in ground
    jt = spec.exchange_rate * times
    overlap = np.cos(jt) * np.conj(amps[4, :]) + (1j * np.sin(jt)) * np.conj(amps[2, :])
    discrepancy = float(np.max(np.sqrt(2.0 * np.clip(1.0 - np.abs(overlap), 0.0, None))))

    return {
        "peak_junction_excitation": float(np.max(p_junction)),
        "model_discrepancy": discrepancy,
    }


# -------------------------------------------------- controlled-phase gate

LOGICAL_FLAT = (0, 1, 3, 4)
# logical output phases of the equal superposition under the
# instantaneous-leg echo at its conditional-phase-pi wait (negative
# interaction strength; the other sign differs by local Z only)
IDEAL_CZ_PHASES = (-math.pi / 2, 0.0, 0.0, -math.pi / 2)

_N_CELL = np.diag([0.0, 0.0, 1.0])
_HOP_CELL = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
_HOP_LOGICAL = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
_FLIP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
_EYE3 = np.eye(3)

_SHIFT_PAIR = np.kron(_N_CELL, _EYE3) + np.kron(_EYE3, _N_CELL)
_SHIFT_DIAG = np.diag(_SHIFT_PAIR).copy()
_CROSS_DIAG = np.diag(np.kron(_N_CELL, _N_CELL)).copy()
_HOP_PAIR = np.kron(_HOP_CELL, _EYE3) + np.kron(_EYE3, _HOP_CELL)
_HOP_LOGICAL_PAIR = np.kron(_HOP_LOGICAL, _EYE3) + np.kron(_EYE3, _HOP_LOGICAL)
_FLIP_PAIR = np.kron(_FLIP, _FLIP).astype(complex)

# exact instantaneous swap into the cell: |1> -> -i|2>, |2> -> -i|1>
_SWAP_CELL = np.array(
    [[1, 0, 0], [0, 0, -1j], [0, -1j, 0]], dtype=complex
)
_SWAP_PAIR = np.kron(_SWAP_CELL, _SWAP_CELL)

# theta00 - theta01 - theta10 + theta11: the phase no local Z can remove
_CONDITIONAL_CONTRAST = np.array([1.0, -1.0, -1.0, 1.0])
_WAIT_GRID = 32  # bracketing intervals per period of the wait
_WAIT_STEPS = 40  # false-position steps; 3 to 7 in the usual regime
_WAIT_TOL = 1e-14  # rad: where false position stops
_WAIT_MISS = 1e-9  # rad: the largest conditional-phase miss a returned wait may have


@dataclass(frozen=True)
class CphaseSpec:
    """Spin-echo controlled-phase through the shared nonlinear cell.

    The interaction cells are pre-detuned by the mean single-photon
    shift, so only the quasi-static deviation (set by the sampled phase
    ``phi_noise``, scaled to ``shift_std``) and the cross-Kerr
    ``interaction_strength`` act during the protocol.  The wait in each
    echo half is solved so that the noiseless protocol, with its
    finite-speed legs and configured flips, has a conditional phase of
    pi; with instantaneous legs that wait is pi / (2 |interaction_strength|).
    """

    transfer_coupling: float
    interaction_strength: float
    shift_std: float
    phi_noise: QuasiStaticNoise
    photon_loss_rate: float
    use_ideal_flips: bool

    def __post_init__(self):
        if self.transfer_coupling <= 0:
            raise ValueError("transfer coupling must be positive")
        if self.interaction_strength == 0:
            raise ValueError("interaction strength must be nonzero")
        if self.shift_std < 0 or self.photon_loss_rate < 0:
            raise ValueError("rates must be nonnegative")
        # past the float range, these reach the echo as a NaN eigensolve
        for name in ("transfer_coupling", "transfer_time", "shift_coefficient"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"controlled-phase {name.replace('_', ' ')} leaves the float range")

    @cached_property
    def wait_time(self) -> float:
        return _solve_wait(self)

    @cached_property
    def _zero_shift_legs(self) -> tuple[np.ndarray, np.ndarray]:
        """Leg and flip at zero shift deviation, shared by the wait solve and the calibration."""
        return _leg_unitaries(self, np.zeros(1))

    @property
    def transfer_time(self) -> float:
        return math.pi / (2.0 * self.transfer_coupling)

    @classmethod
    def from_fjs(
        cls,
        derived,
        speed_ratio: float,
        sample_count: int,
        seed: int,
        photon_loss_rate: float = 0.0,
        use_ideal_flips: bool = True,
    ) -> "CphaseSpec":
        """Operating point from a derived SQUID working point.

        ``speed_ratio`` is the transfer coupling in units of the shift
        spread |delta omega_s|.
        """
        if speed_ratio <= 0:
            raise ValueError("speed ratio must be positive")
        noise = QuasiStaticNoise(
            mean=derived.phi0,
            std=derived.sigma_phi,
            label="squid_phase",
            sample_count=sample_count,
            seed=seed,
        )
        return cls(
            transfer_coupling=speed_ratio * abs(derived.delta_omega_s),
            interaction_strength=derived.omega_int,
            shift_std=abs(derived.delta_omega_s),
            phi_noise=noise,
            photon_loss_rate=photon_loss_rate,
            use_ideal_flips=use_ideal_flips,
        )

    @cached_property
    def shift_coefficient(self) -> float:
        """Shift deviation per unit of phi^2: the deviation std is ``shift_std``
        under the Gaussian phase distribution (0 when either spread is 0)."""
        mean, std = self.phi_noise.mean, self.phi_noise.std
        spread = math.sqrt(2.0 * std**4 + 4.0 * mean**2 * std**2)
        return 0.0 if spread == 0.0 or self.shift_std == 0.0 else -(self.shift_std / spread)

    def shift_deviation(self, phi):
        """Cell shift deviation, linear in phi^2, for a phase value or array of them."""
        mean, std = self.phi_noise.mean, self.phi_noise.std
        return self.shift_coefficient * (phi * phi - (mean * mean + std * std))


def _leg_unitaries(spec: CphaseSpec, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leg and flip unitaries at each shift deviation of ``shifts``.

    A leg hops both photons between resonator and cell for one transfer
    time; a simulated flip hops them between the two resonators.  Each
    Hamiltonian, (g hop + cross) + x shift, is Hermitian, so a stack of n
    deviations takes one batched ``eigh`` and gives an (n, 9, 9) stack.
    The ideal flip is the constant kick.
    """
    x = np.asarray(shifts, dtype=float)[:, None, None]
    cross = np.diag(-spec.interaction_strength * _CROSS_DIAG)

    def evolve(hop: np.ndarray) -> np.ndarray:
        evals, evecs = np.linalg.eigh(spec.transfer_coupling * hop + cross + x * _SHIFT_PAIR)
        phases = np.exp(-1j * evals * spec.transfer_time)[:, None, :]
        return (evecs * phases) @ evecs.conj().swapaxes(1, 2)

    return evolve(_HOP_PAIR), _FLIP_PAIR if spec.use_ideal_flips else evolve(_HOP_LOGICAL_PAIR)


def _echo(spec: CphaseSpec, leg, flip, shifts, waits) -> np.ndarray:
    """The echo protocol, leg, wait, leg, flip, run twice: (n, 9, 9).

    ``leg`` and ``flip`` are unitaries or (n, 9, 9) stacks of them;
    ``shifts`` and ``waits`` are shift deviations and wait durations, as
    scalars or (n,) arrays.  The wait's Hamiltonian is diagonal, so it
    is a phase per basis state.
    """
    # cross term when both cells are occupied; a wait of w gives |22> the
    # phase interaction * w, and the echo adds it in both halves, so the
    # conditional phase is 2 * interaction * w plus what the finite legs
    # pick up
    cross = -spec.interaction_strength * _CROSS_DIAG
    x, w = np.asarray(shifts)[..., None], np.asarray(waits)[..., None]
    u = flip @ (leg @ (np.exp(-1j * (x * _SHIFT_DIAG + cross) * w)[..., None] * leg))
    return u @ u


def _instant_leg_wait(spec: CphaseSpec) -> float:
    return math.pi / (2.0 * abs(spec.interaction_strength))


def _conditional_phase(output: np.ndarray) -> float:
    """Conditional phase of a 9-dim output state, wrapped to (-pi, pi]."""
    theta = np.angle(output[list(LOGICAL_FLAT)])
    return float(_wrap_phase(theta @ _CONDITIONAL_CONTRAST))


def _solve_wait(spec: CphaseSpec) -> float:
    """Wait giving the noiseless protocol a conditional phase of pi.

    The wait only multiplies |22> by exp(i interaction w), so the echo is
    periodic in w with period 2 pi / |interaction|.  Sign changes of the
    phase miss on a grid over one period bracket the roots; false position
    refines them nearest the instantaneous-leg root pi / (2 |interaction|)
    first, so the wait joins that root smoothly as the legs get faster.  A
    bracket may hold no root (where a logical amplitude passes near zero,
    the miss swings across it without wrapping), so the first wait whose
    miss is within ``_WAIT_MISS`` is returned.
    """
    psi = equal_superposition()

    def misses_at(waits: np.ndarray) -> list[float]:
        outs = _echo(spec, *spec._zero_shift_legs, 0.0, waits) @ psi
        return [float(_wrap_phase(_conditional_phase(out) - math.pi)) for out in outs]

    w_instant = _instant_leg_wait(spec)
    grid = np.linspace(0.0, 4.0 * w_instant, _WAIT_GRID + 1)
    misses = misses_at(grid)
    # a wrap of the phase also flips the sign, but as a jump of about 2 pi
    brackets = [
        (a, b, fa, fb)
        for a, b, fa, fb in zip(grid, grid[1:], misses, misses[1:])
        if fa * fb <= 0.0 and abs(fa - fb) < math.pi
    ]
    for a, b, fa, fb in sorted(brackets, key=lambda br: abs(br[0] + br[1] - 2.0 * w_instant)):
        # false position: the miss is close to linear across one grid step
        wait, f_wait = a, fa
        for _ in range(_WAIT_STEPS):
            if fa == fb:
                break
            wait = b - fb * (b - a) / (fb - fa)
            f_wait = misses_at(np.array([wait]))[0]
            if abs(f_wait) <= _WAIT_TOL:
                break
            if fa * f_wait <= 0.0:
                b, fb = wait, f_wait
            else:
                a, fa = wait, f_wait
        if abs(f_wait) <= _WAIT_MISS:
            return float(wait)
    raise ValueError(
        f"no wait gives a conditional phase of pi: transfer coupling "
        f"{spec.transfer_coupling:.4e} is too slow for interaction "
        f"{spec.interaction_strength:.4e}"
    )


def cphase_ideal_leg_unitary(spec: CphaseSpec, shift_dev: float) -> np.ndarray:
    """Protocol unitary with instantaneous (exact swap) transfer legs.

    The always-on terms then act only during the waits, each of
    pi / (2 |interaction_strength|), the instantaneous-leg root of the
    conditional-phase-pi condition; used to check that the echo cancels
    a static shift deviation exactly.
    """
    return _echo(spec, _SWAP_PAIR, _FLIP_PAIR, np.array([shift_dev]), _instant_leg_wait(spec))[0]


def equal_superposition() -> np.ndarray:
    """Equal superposition of the four logical states of the 9-dim pair."""
    psi = np.zeros(9, dtype=complex)
    psi[list(LOGICAL_FLAT)] = 0.5
    return psi


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    return np.angle(np.exp(1j * np.asarray(x)))


def _calibrated_target(u_cal: np.ndarray) -> tuple[np.ndarray, dict]:
    """Calibration on the noiseless protocol fixing global and per-qubit Z phases.

    With q the logical output phases of ``u_cal`` less the ideal
    controlled-phase pattern, the global phase is q00, the first qubit's Z
    is q10 - q00 and the second's q01 - q00, which fixes the 11 phase.  Its
    miss, the conditional phase's miss of pi, no local Z can absorb: it
    stays in the gate error as the last ``calibration_residual``, and the
    solved wait makes it vanish.  Phases enter only through exp(i .), so no
    wrap can spoil the calibration.
    """
    out = u_cal @ equal_superposition()
    q = _wrap_phase(np.angle(out[list(LOGICAL_FLAT)]) - np.array(IDEAL_CZ_PHASES))
    local = np.array([q[0], q[1], q[2], q[1] + q[2] - q[0]])
    target = np.zeros(9, dtype=complex)
    target[list(LOGICAL_FLAT)] = 0.5 * np.exp(1j * (np.array(IDEAL_CZ_PHASES) + local))
    info = {
        "conditional_phase": float(np.mod(_conditional_phase(out), 2.0 * math.pi)),
        "calibration_global_phase": float(q[0]),
        "calibration_z_first": float(q[2] - q[0]),
        "calibration_z_second": float(q[1] - q[0]),
        "calibration_residual": (0.0, 0.0, 0.0, float(_wrap_phase(q[3] - local[3]))),
    }
    return target, info


def cphase_spin_echo_error(spec: CphaseSpec, point_index: int) -> dict:
    """Monte Carlo gate error of the echo-wrapped controlled-phase.

    ``error`` is one minus the mean fidelity of the equal logical
    superposition against the calibrated controlled-phase target, over
    quasi-static draws of the cell phase, and ``std_error`` its Monte
    Carlo standard error.  Alongside come the solved ``wait_time``, the
    calibration of :func:`_calibrated_target`, and ``retention``: the
    population each logical basis state (00, 01, 10, 11) keeps under the
    noiseless protocol, its fidelity there since phases cancel.
    ``point_index`` keys the substream the draws come from, in order:
    each sweep point has its own.

    Photon loss sends each rail's photon to the vacuum at
    ``photon_loss_rate`` from every level.  Both Hamiltonians keep each
    rail's photon, nothing returns from the vacuum and the target has no
    support there, so each draw's fidelity is the lossless one times the
    chance that both photons survive the protocol, exp(-2 kappa T).
    """
    u_cal = _echo(spec, *spec._zero_shift_legs, 0.0, np.array([spec.wait_time]))[0]
    target, cal_info = _calibrated_target(u_cal)
    psi_in = equal_superposition()
    t_leg = spec.transfer_time
    flip_time = () if spec.use_ideal_flips else (t_leg,)  # a simulated flip lasts one leg
    duration = 2.0 * sum((t_leg, spec.wait_time, t_leg, *flip_time))
    survival = math.exp(-2.0 * spec.photon_loss_rate * duration)  # exactly 1.0 without loss

    def fidelities(phis: np.ndarray) -> np.ndarray:
        shifts = spec.shift_deviation(phis)
        outs = _echo(spec, *_leg_unitaries(spec, shifts), shifts, spec.wait_time) @ psi_in
        # one np.vdot per state: a matmul reduction rounds the last digit differently
        return survival * np.array([_clip01(abs(np.vdot(target, out)) ** 2) for out in outs])

    stat = monte_carlo_scalar(fidelities, spec.phi_noise, point_index=point_index)
    return {
        "error": _clip01(1.0 - stat.mean),
        "std_error": stat.std_error,
        "wait_time": spec.wait_time,
        **cal_info,
        "retention": tuple(_clip01(abs(u_cal[flat, flat]) ** 2) for flat in LOGICAL_FLAT),
    }


def logical_phase_extract(output: np.ndarray) -> tuple[float, ...]:
    """Phases of a 9-dim pure state's logical amplitudes relative to the second (|01>).

    Raises ValueError on a norm off 1 by more than ``NORM_TOL``, or when
    more than 1% of the population left the logical subspace.
    """
    norm = float(np.linalg.norm(output))
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"state vector norm {norm} deviates from 1 by more than {NORM_TOL}")
    amps = output[list(LOGICAL_FLAT)]
    logical_population = float(np.sum(np.abs(amps) ** 2))
    leakage = 1.0 - logical_population
    if leakage > 0.01:
        raise ValueError(
            f"logical subspace holds only {logical_population:.6f} of the "
            f"population (leakage {leakage:.3e})"
        )
    if abs(amps[1]) ** 2 < 1e-12:
        raise ValueError("reference amplitude vanishes; phases undefined")
    phases = _wrap_phase(np.angle(amps * np.conj(amps[1])))
    phases[1] = 0.0
    return tuple(float(p) for p in phases)
