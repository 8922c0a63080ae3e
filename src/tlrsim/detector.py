"""Single-photon detection by a metastable three-level junction.

The photon mode (truncated to one excitation) exchanges its quantum with
the g-e transition of the junction; from e the junction either tunnels
irreversibly into the latched level f (the click), relaxes back to g, or
the photon is lost first.  Efficiency is the asymptotic population of f,
reached by propagating over geometrically doubled checkpoints so that
slow tails cost only one superoperator squaring per octave.

Junction level order: 0 = ground, 1 = excited, 2 = latched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladTerm, Liouvillian, apply_superoperator, propagator
from .qcore import DensityMatrix, HilbertSpace, annihilation, embed, number, projector

__all__ = [
    "DetectorParams",
    "DetectionResult",
    "detector_space",
    "build_detector_liouvillian",
    "detection_efficiency",
]

# convergence knobs: efficiency step and residual excitation per checkpoint
CONVERGENCE_TOL = 1e-6
T0_RATE_FACTOR = 10.0
T_MAX_FACTOR = 1.0e3
MAX_CHECKPOINTS = 52  # squarings of the step: past them, 2^k unit roundoffs reach order one

GROUND, EXCITED, LATCHED = 0, 1, 2


@dataclass(frozen=True)
class DetectorParams:
    """Operating point of the detector.

    All rates are angular (rad/s).  ``detuning`` is photon frequency
    minus junction transition frequency; 0 is resonant.
    """

    coupling: float
    detuning: float
    photon_loss_rate: float
    escape_rate: float
    intra_well_decay: float
    dephasing_rate: float

    def __post_init__(self):
        rates = (
            self.coupling,
            self.photon_loss_rate,
            self.escape_rate,
            self.intra_well_decay,
            self.dephasing_rate,
        )
        if any(r < 0 for r in rates):
            raise ValueError("detector rates must be nonnegative")
        # a rate past the float range (1e308 Hz is inf rad/s) would reach the
        # engine as a non-Hermitian Hamiltonian
        if not all(map(math.isfinite, (*rates, self.detuning))):
            raise ValueError("detector rate or detuning leaves the float range")


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection run.

    ``time_series`` holds one row per checkpoint:
    (t, P_ground, P_excited, P_latched, photon population).
    """

    efficiency: float
    time_series: tuple[tuple[float, float, float, float, float], ...]
    converged: bool

    @property
    def t_final(self) -> float:
        """Time of the last checkpoint (s)."""
        return self.time_series[-1][0]


def detector_space() -> HilbertSpace:
    return HilbertSpace([("photon", 2), ("junction", 3)])


def build_detector_liouvillian(p: DetectorParams) -> Liouvillian:
    """Exchange Hamiltonian plus the four incoherent channels.

    Jumps: photon loss at kappa; irreversible escape |latched><excited|
    at the escape rate; relaxation |ground><excited| at the intra-well
    rate; pure g/e dephasing via the two level projectors.
    """
    space = detector_space()
    a = embed(annihilation(2), space, "photon")
    n_photon = embed(number(2), space, "photon")
    lower = embed(projector(GROUND, EXCITED, 3), space, "junction")
    escape = embed(projector(LATCHED, EXCITED, 3), space, "junction")
    p_ground = embed(projector(GROUND, GROUND, 3), space, "junction")
    p_excited = embed(projector(EXCITED, EXCITED, 3), space, "junction")

    h = n_photon * p.detuning + (a.conj().T @ lower + a @ lower.conj().T) * p.coupling

    terms = (
        LindbladTerm(a, p.photon_loss_rate),
        LindbladTerm(escape, p.escape_rate),
        LindbladTerm(lower, p.intra_well_decay),
        LindbladTerm(p_ground, p.dephasing_rate),
        LindbladTerm(p_excited, p.dephasing_rate),
    )
    return Liouvillian(space, hamiltonian=h, terms=terms)


def _populations(rho: np.ndarray) -> tuple[float, float, float, float]:
    # flat index = photon * 3 + junction
    diag = np.real(np.diag(rho))
    p_g = float(diag[GROUND] + diag[3 + GROUND])
    p_e = float(diag[EXCITED] + diag[3 + EXCITED])
    p_f = float(diag[LATCHED] + diag[3 + LATCHED])
    photon = float(diag[3] + diag[4] + diag[5])
    return p_g, p_e, p_f, photon


def detection_efficiency(p: DetectorParams) -> DetectionResult:
    """Propagate |1 photon, ground> until the click probability settles.

    Checkpoint k squares the step k times and maps the latest state by it,
    so reaching the hard time cap costs a logarithmic number of dense
    multiplications.  Row k of ``time_series`` (row 0 is the initial
    state) holds the state at (2^k - 1) t0 but is labelled t0 2^(k-1);
    that label is what ``t_final`` reports and what the time cap is tested
    against, and the efficiency, the settled latched population, does not
    depend on it.  Converged means the latched population moved less than
    1e-6 over the last doubling and the surviving excitation (photon plus
    excited junction) is below 1e-6; otherwise, which takes zero photon
    loss, the best estimate is returned with converged False.  ValueError
    names a checkpoint state that the squarings broke, and a run that
    neither settles nor reaches the cap within ``MAX_CHECKPOINTS`` squarings.
    """
    if p.coupling == 0 or p.escape_rate == 0:
        # photon never couples, or the latched level is unreachable
        return DetectionResult(
            efficiency=0.0,
            time_series=((0.0, 1.0, 0.0, 0.0, 1.0),),
            converged=True,
        )

    rates = (p.photon_loss_rate, p.escape_rate, p.intra_well_decay, p.dephasing_rate)
    t0 = 1.0 / (T0_RATE_FACTOR * max(p.coupling, *rates, abs(p.detuning)))
    t_max = T_MAX_FACTOR / min(r for r in rates if r > 0)

    space = detector_space()
    rho = space.basis_state([1, GROUND])
    step = propagator(build_detector_liouvillian(p), t0)

    series = [(0.0, 1.0, 0.0, 0.0, 1.0)]
    for k in range(MAX_CHECKPOINTS + 1):
        if k:
            step = step @ step
        try:
            rho = DensityMatrix(space, apply_superoperator(step, rho.matrix))
        except ValueError as exc:  # the squarings compounded roundoff past the state checks
            raise ValueError(f"detector checkpoint {k} failed after {k} repeated squarings: {exc}")
        p_g, p_e, p_f, photon = _populations(rho.matrix)
        t = t0 * 2.0**k
        series.append((t, p_g, p_e, p_f, photon))
        converged = p_f - series[-2][3] < CONVERGENCE_TOL and photon + p_e < CONVERGENCE_TOL
        if converged or t >= t_max:
            break
    else:
        raise ValueError(f"detector did not settle within {MAX_CHECKPOINTS} squarings of its step")

    return DetectionResult(
        efficiency=min(1.0, max(0.0, p_f)),
        time_series=tuple(series),
        converged=converged,
    )
