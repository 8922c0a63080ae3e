"""Cross-module invariant suite behind the ``validate`` subcommand.

Each check measures one conserved quantity or regression bound on a
representative evolution and reports id, status, measured value, and
bound. The bounds are the module constants below, one per row, so no
config can loosen the judge; a test that tightens one past the floating
point floor gets a controlled failure, not a crash.

Status semantics: ``fail`` means a violated invariant and flips the exit
code; ``warn`` flags advisory conditions (operating outside the safe
dispersive band) without failing the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import detector_params, fjs_params, tap_coupling, tlr_params
from .detector import DetectorParams, build_detector_liouvillian, detection_efficiency, detector_space
from .device import DISPERSIVE_SAFE, fjs_derive, mode_frequency, thermal_occupancy, to_angular
from .lindblad import (
    Liouvillian,
    QuasiStaticNoise,
    apply_propagator,
    apply_superoperator,
    monte_carlo_quasistatic,
    propagate_expm,
    propagate_rk4,
    propagator,
    quasistatic_sigma,
    squaring_roundoff,
    trace_distance,
)
from .protocols import (
    CphaseSpec,
    TransferSpec,
    build_transfer_liouvillian,
    cphase_ideal_leg_unitary,
    equal_superposition,
    logical_phase_extract,
    transfer_full_model_error,
    transfer_operators,
    transfer_space,
)
from .qcore import DensityMatrix

__all__ = ["CheckResult", "run_validation", "render_report", "has_failure"]

# The report's bounds.  They are written out, not imported from the engines'
# tolerances, so loosening an engine tolerance cannot loosen the check on it.
TRACE_BOUND = 1.0e-9
HERMITICITY_BOUND = 1.0e-9
PRE_HERMITIZE_BOUND = 1.0e-7
POSITIVITY_BOUND = 1.0e-8
CROSS_INTEGRATOR_BOUND = 1.0e-6
EXCITATION_BOUND = 1.0e-9
RABI_RETURN_BOUND = 1.0e-9
ECHO_BOUND = 1.0e-9
MC_SIGMA = 3.0
MC_SAMPLES = 1000
HALVING_BAND = (1.5, 3.0)  # full/effective discrepancy ratio when g/|detuning| halves
THERMAL_OCCUPANCY_BOUND = 1.0e-10


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single invariant check."""

    id: str
    status: str
    measured: float
    bound: str

    def __post_init__(self):
        if self.status not in ("pass", "warn", "fail"):
            raise ValueError(f"unknown status {self.status!r}")


def _leq(check_id: str, measured: float, bound: float) -> CheckResult:
    status = "pass" if measured <= bound else "fail"
    return CheckResult(check_id, status, measured, f"<= {bound:.3e}")


def _operating_transfer(config: dict) -> TransferSpec:
    # engine checks need a well-posed operating point even when the
    # configured detuning violates the dispersive floor, so clamp it to the
    # safe ratio; the dispersive-regime row reports the configured value itself
    coupling = tap_coupling(config, "left")
    detuning = to_angular(config["experiments"]["transfer"]["detuning_hz"])
    if abs(detuning) < DISPERSIVE_SAFE * coupling:
        detuning = math.copysign(DISPERSIVE_SAFE * coupling, detuning if detuning else 1.0)
    return TransferSpec(
        coupling=coupling,
        detuning=detuning,
        photon_loss_rate=to_angular(config["noise"]["kappa_hz"]),
        dephasing_rate=to_angular(config["device"]["cbjj"]["dephasing_rate_hz"]),
    )


def _final_states(config: dict, spec: TransferSpec, rho0: DensityMatrix):
    """Final density matrices of the representative dissipative runs.

    Returns (raw_asymmetry, trace_drifts, fin_expm, fin_rk4) where
    raw_asymmetry is the pre-symmetrization Hermiticity defect of a bare
    propagator application, trace_drifts collects |tr - 1| per run, and
    the finals are the transfer integrated two ways.
    """
    liou = build_transfer_liouvillian(spec)
    superop = propagator(liou, spec.gate_time)
    raw = apply_superoperator(superop, rho0.matrix)
    raw_asym = float(np.max(np.abs(raw - raw.conj().T)))

    try:  # the squarings may have compounded roundoff past the state checks
        fin_expm = apply_propagator(superop, rho0)
    except ValueError as exc:
        raise squaring_roundoff(liou, spec.gate_time, exc) from exc
    fin_rk4 = propagate_rk4(liou, rho0, spec.gate_time)
    drifts = [np.trace(m) - 1.0 for m in (raw, fin_expm.matrix, fin_rk4.matrix)]

    det = detection_efficiency(detector_params(config))
    drifts += [pg + pe + pf - 1.0 for (_, pg, pe, pf, _) in det.time_series]

    return raw_asym, [float(abs(d)) for d in drifts], fin_expm, fin_rk4


def _check_excitation(
    exchange_only: Liouvillian, rho0: DensityMatrix, gate_time: float
) -> CheckResult:
    # lossless exchange: total photon number is an exact constant
    n_total = np.diag([0.0, 1.0, 1.0, 2.0])
    worst = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        fin = propagate_expm(exchange_only, rho0, frac * gate_time)
        worst = max(worst, abs(float(np.trace(fin.matrix @ n_total).real) - 1.0))
    return _leq("excitation-conservation", worst, EXCITATION_BOUND)


def _check_rabi() -> CheckResult:
    g = to_angular(1.0e8)
    params = DetectorParams(
        coupling=g,
        detuning=0.0,
        photon_loss_rate=0.0,
        escape_rate=0.0,
        intra_well_decay=0.0,
        dephasing_rate=0.0,
    )
    liou = build_detector_liouvillian(params)
    space = detector_space()
    rho0 = space.basis_state([1, 0])
    final = propagate_expm(liou, rho0, math.pi / g)  # resonant lossless revival
    miss = 1.0 - final.population(3)
    return _leq("rabi-return", miss, RABI_RETURN_BOUND)


def _check_echo(spec: CphaseSpec) -> CheckResult:
    # a static level shift under instantaneous legs: photon loss never enters
    psi = equal_superposition()
    phase_sets = [
        logical_phase_extract(cphase_ideal_leg_unitary(spec, shift) @ psi)
        for shift in (0.0, 3.2 * spec.shift_std)
    ]
    worst = max(abs(a - b) for a, b in zip(*phase_sets))
    return _leq("echo-independence", worst, ECHO_BOUND)


def _check_mc_agreement(
    spec: TransferSpec, exchange_only: Liouvillian, rho0: DensityMatrix, seed: int
) -> CheckResult:
    lossless = replace(spec, photon_loss_rate=0.0)
    t = lossless.gate_time
    sigma = quasistatic_sigma(
        lossless.coupling, lossless.detuning, lossless.dephasing_rate, t
    )
    exchange = transfer_operators()[3]
    weight = (lossless.coupling / lossless.detuning) ** 2
    # the exchange rate seen by a sample is g^2/Delta - weight * delta
    noise = QuasiStaticNoise(
        mean=0.0,
        std=sigma,
        label="exchange_detuning",
        sample_count=MC_SAMPLES,
        seed=seed,
    )
    stat = monte_carlo_quasistatic(
        exchange_only,
        t,
        -weight * exchange,
        noise,
        rho0,
        lambda states: states[:, 1, 1].real,
    )
    reference = propagate_expm(build_transfer_liouvillian(lossless), rho0, t).population(1)
    difference = abs(stat.mean - reference)
    if stat.std_error == 0.0:
        # no dephasing: every draw is the same lossless exchange, so both
        # sides run one evolution through the same exponential
        return _leq("mc-lindblad-agreement", difference, CROSS_INTEGRATOR_BOUND)
    pull = difference / stat.std_error
    status = "pass" if pull <= MC_SIGMA else "fail"
    return CheckResult("mc-lindblad-agreement", status, pull, f"<= {MC_SIGMA:.1f} sigma")


def _check_dispersive(g: float) -> list[CheckResult]:
    models = {
        x: transfer_full_model_error(TransferSpec(coupling=g, detuning=g / x)) for x in (0.1, 0.05)
    }
    # intermediary occupation at g/|detuning| = 0.1
    peak = models[0.1]["peak_junction_excitation"]
    bound = 4 * 0.1**2
    status = "pass" if peak <= bound * (1 + 1e-9) else "fail"
    peak_check = CheckResult("dispersive-peak", status, peak, f"<= {bound:.3e}")
    # full/effective discrepancy contraction under g/|detuning| halving
    lo, hi = HALVING_BAND
    ratio = models[0.1]["model_discrepancy"] / models[0.05]["model_discrepancy"]
    status = "pass" if lo <= ratio <= hi else "fail"
    ratio_check = CheckResult("dispersive-halving", status, ratio, f"in [{lo:g}, {hi:g}]")
    return [peak_check, ratio_check]


def _check_regime(config: dict, coupling: float) -> CheckResult:
    # the configured transfer detuning: the dispersive approximation
    # degrades below the safe ratio, an advisory condition, not a failure
    spec_ratio = abs(to_angular(config["experiments"]["transfer"]["detuning_hz"])) / coupling
    status = "pass" if spec_ratio >= DISPERSIVE_SAFE else "warn"
    return CheckResult("dispersive-regime", status, spec_ratio, f">= {DISPERSIVE_SAFE:g}")


def run_validation(config: dict) -> list[CheckResult]:
    """Run every invariant suite and return one result per check."""
    results: list[CheckResult] = []
    transfer = _operating_transfer(config)
    rho_left = transfer_space().basis_state([1, 0])  # photon in the left rail
    exchange_only = build_transfer_liouvillian(
        replace(transfer, photon_loss_rate=0.0, dephasing_rate=0.0)
    )
    cz = CphaseSpec.from_fjs(
        fjs_derive(fjs_params(config), tlr_params(config)),
        speed_ratio=20.0,
        sample_count=10,
        seed=config["noise"]["seed"],
    )

    raw_asym, drifts, fin_expm, fin_rk4 = _final_states(config, transfer, rho_left)
    finals = (fin_expm, fin_rk4)
    # worst |tr - 1| across the transfer and detector runs
    results.append(_leq("trace-preservation", max(drifts), TRACE_BOUND))
    post_asym = max(float(np.max(np.abs(f.matrix - f.matrix.conj().T))) for f in finals)
    results.append(_leq("hermiticity", post_asym, HERMITICITY_BOUND))
    # bare propagator output, before symmetrization
    results.append(_leq("hermiticity-raw", raw_asym, PRE_HERMITIZE_BOUND))
    min_eig = min(float(np.linalg.eigvalsh(f.matrix).min()) for f in finals)
    status = "pass" if min_eig >= -POSITIVITY_BOUND else "fail"
    results.append(CheckResult("positivity", status, min_eig, f">= {-POSITIVITY_BOUND:.3e}"))
    # expm against RK4 at the transfer operating point
    results.append(
        _leq("cross-integrator", trace_distance(fin_expm, fin_rk4), CROSS_INTEGRATOR_BOUND)
    )

    results.append(_check_excitation(exchange_only, rho_left, transfer.gate_time))
    results.append(_check_rabi())
    results.append(_check_echo(cz))
    results.append(_check_mc_agreement(transfer, exchange_only, rho_left, config["noise"]["seed"]))
    results.extend(_check_dispersive(transfer.coupling))
    results.append(_check_regime(config, transfer.coupling))

    occupancy = thermal_occupancy(
        config["device"]["temperature_k"], mode_frequency(tlr_params(config))
    )
    # equilibrium photons at the operating point
    results.append(_leq("thermal-occupancy", occupancy, THERMAL_OCCUPANCY_BOUND))
    return results


def has_failure(results: list[CheckResult]) -> bool:
    return any(r.status == "fail" for r in results)


def render_report(results: list[CheckResult]) -> str:
    lines = ["id,status,measured,bound"]
    for r in results:
        lines.append(f"{r.id},{r.status},{r.measured:.8e},{r.bound}")
    return "\n".join(lines) + "\n"
