"""Circuit parameters of the chip and the formulas that derive operating numbers.

Inputs are SI (henry, farad, ampere, kelvin, meter).  Derived frequencies
and rates are angular (rad/s) unless the function name says otherwise;
human-facing configuration uses linear Hz and converts through
:func:`to_angular` / :func:`to_linear`.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

__all__ = [
    "TWO_PI",
    "DISPERSIVE_FLOOR",
    "DISPERSIVE_SAFE",
    "to_angular",
    "to_linear",
    "TlrParams",
    "FjsParams",
    "FjsDerived",
    "mode_frequency",
    "coupling_strength",
    "transfer_rate",
    "effective_dephasing_rate",
    "induced_loss_rate",
    "thermal_occupancy",
    "fjs_derive",
]

TWO_PI = 2.0 * math.pi

# CODATA constants used by the derivations (SI)
HBAR = 1.054_571_817e-34
E_CHARGE = 1.602_176_634e-19
K_B = 1.380_649e-23
FLUX_QUANTUM = math.pi * HBAR / E_CHARGE  # h / 2e

# |Delta| / g of a dispersive tap: below the floor the construction is
# rejected (and the rate formula warns); below the safe ratio its
# corrections are large enough to warn about
DISPERSIVE_FLOOR = 5.0
DISPERSIVE_SAFE = 10.0


def to_angular(frequency_hz: float) -> float:
    """Linear frequency in Hz to angular frequency in rad/s."""
    return frequency_hz * TWO_PI


def to_linear(omega: float) -> float:
    """Angular frequency in rad/s back to linear Hz.

    Implemented as division by the same 2 pi constant used in
    :func:`to_angular`.  The pair round-trips exactly for the frequency
    values this package feeds through it (checked in the test suite);
    exact inversion for every binary64 input is impossible because
    multiplication by an irrational constant is not injective in floating
    point.
    """
    return omega / TWO_PI


@dataclass(frozen=True)
class TlrParams:
    """Transmission line resonator: lumped totals plus the operating mode."""

    inductance: float
    capacitance: float
    mode_index: int

    def __post_init__(self):
        if self.inductance <= 0 or self.capacitance <= 0:
            raise ValueError("TLR inductance and capacitance must be positive")
        if self.mode_index < 1:
            raise ValueError("mode index must be a positive integer")


@dataclass(frozen=True)
class FjsParams:
    """Four-junction SQUID interaction device.

    ``mutual_inductance_d`` may be ``None``, in which case it is solved so
    that both resonator couplings are equal (see :func:`fjs_derive`).
    ``phi_sq_spread_scale`` multiplies the phase-variance spread used for
    the frequency-shift uncertainty; 1.0 means one standard deviation.
    """

    junction_critical_current: float
    junction_capacitance: float
    shunt_capacitance: float
    squid_self_inductance: float
    loop_inductance: float
    mutual_inductance_c: float
    mutual_inductance_d: float | None
    bias_current: float
    phi_sq_spread_scale: float

    def __post_init__(self):
        if self.junction_critical_current <= 0:
            raise ValueError("critical current must be positive")
        if self.junction_capacitance <= 0 or self.shunt_capacitance < 0:
            raise ValueError("capacitances must be positive")
        if self.squid_self_inductance <= 0 or self.loop_inductance < 0:
            raise ValueError("inductances must be positive")
        if self.mutual_inductance_c <= 0:
            raise ValueError("mutual inductance must be positive")
        if self.mutual_inductance_d is not None and self.mutual_inductance_d <= 0:
            raise ValueError("mutual inductance must be positive")
        if self.phi_sq_spread_scale <= 0:
            raise ValueError("spread scale must be positive")


@dataclass(frozen=True)
class FjsDerived:
    """Derived operating point of the four-junction SQUID.

    Angular frequencies keep the sign produced by the defining formulas:
    ``omega_int`` and ``omega_s`` are negative for ``cos(phi0) > 0``
    (energy shifts point down), and ``delta_omega_s`` carries the same
    sign convention; magnitudes are what enter speed-ratio settings.
    """

    phi0: float
    sigma_phi: float
    chi_c: float
    chi_d: float
    omega_int: float
    omega_s: float
    delta_omega_s: float
    delta_omega_int_rel: float


def mode_frequency(tlr: TlrParams) -> float:
    """Angular frequency of the selected standing-wave mode, n pi / sqrt(LC).

    Positive inputs of extreme size can push L * C or the frequency out of
    the float range; that raises ValueError instead of dividing by zero.
    """
    product = tlr.inductance * tlr.capacitance
    if not 0.0 < product < math.inf:
        raise ValueError(f"resonator L * C = {product!r} leaves the float range")
    omega = tlr.mode_index * math.pi / math.sqrt(product)
    if omega == math.inf:
        raise ValueError("resonator mode frequency overflows the float range")
    return omega


def zero_point_current(tlr: TlrParams) -> float:
    """Zero-point current amplitude sqrt(hbar * omega / L) of the mode."""
    return math.sqrt(HBAR * mode_frequency(tlr) / tlr.inductance)


def coupling_strength(
    omega: float,
    tlr_capacitance: float,
    coupling_capacitance: float,
    junction_capacitance: float,
) -> float:
    """Angular resonator-junction coupling g for a capacitive tap.

    g = omega * C_c / sqrt(2 C (C_J + 2 C_c)).  Warns when the coupling
    capacitor is not small against the resonator capacitance, where the
    lumped derivation starts to bend.
    """
    if min(omega, tlr_capacitance, coupling_capacitance, junction_capacitance) <= 0:
        raise ValueError("all arguments must be positive")
    if coupling_capacitance > 0.1 * tlr_capacitance:
        warnings.warn(
            "coupling capacitance above C/10; lumped coupling formula degrades",
            stacklevel=2,
        )
    denom = math.sqrt(2.0 * tlr_capacitance * (junction_capacitance + 2.0 * coupling_capacitance))
    if denom == 0.0:  # the capacitance product underflowed
        raise ValueError("tap coupling leaves the float range")
    return omega * coupling_capacitance / denom


def transfer_rate(g: float, delta: float) -> float:
    """Linear photon transfer rate g^2 / (2 pi Delta) in Hz.

    ``g`` and ``delta`` are angular.  Warns when |Delta| is below
    ``DISPERSIVE_FLOOR`` g, outside the dispersive regime the formula
    assumes.
    """
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    if abs(delta) < DISPERSIVE_FLOOR * g:
        warnings.warn(
            f"detuning below {DISPERSIVE_FLOOR:g} g; dispersive transfer rate unreliable",
            stacklevel=2,
        )
    return g * g / (TWO_PI * delta)


def effective_dephasing_rate(g: float, delta: float, gamma2: float) -> float:
    """Dephasing rate 2 (g/Delta)^2 Gamma_2 passed to the photon during transfer."""
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    if gamma2 < 0:
        raise ValueError("dephasing rate must be nonnegative")
    ratio = g / delta
    return 2.0 * ratio * ratio * gamma2


def induced_loss_rate(g: float, delta: float, gamma1: float) -> float:
    """Photon loss rate (g/Delta)^2 Gamma_1 induced by junction decay."""
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    if gamma1 < 0:
        raise ValueError("decay rate must be nonnegative")
    ratio = g / delta
    return ratio * ratio * gamma1


def thermal_occupancy(temperature: float, omega: float) -> float:
    """Bose occupation 1 / (exp(hbar omega / k_B T) - 1).

    Returns 0 for zero temperature.  Uses expm1 so the classical limit
    k_B T >> hbar omega comes out accurate.
    """
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    if omega <= 0:
        raise ValueError("mode frequency must be positive")
    k_t = K_B * temperature
    if k_t == 0.0:  # zero, or so cold that k_B T underflows
        return 0.0
    x = HBAR * omega / k_t
    # exp(-x) / (1 - exp(-x)) == 1 / (exp(x) - 1) without overflow at large x
    return math.exp(-x) / -math.expm1(-x)


def _require_float_range(*values: float) -> None:
    """Reject a quantity that inputs of extreme size pushed out of the normal float range.

    Below the smallest normal float a value has underflowed (to 0 or a
    subnormal), and above it overflowed to inf; either leaves the derived
    operating point meaningless.
    """
    if not all(sys.float_info.min <= abs(v) < math.inf for v in values):
        raise ValueError("SQUID operating point leaves the float range")


def _cos_fluctuation(phi0: float, var: float) -> tuple[float, float]:
    """Mean and standard deviation of cos(phi) for phi ~ N(phi0, var).

    Exact Gaussian moments, written with expm1 to survive the tiny
    variances this device produces.
    """
    mean = math.cos(phi0) * math.exp(-var / 2.0)
    cos_sq = math.cos(phi0) ** 2
    variance = -0.5 * math.expm1(-2.0 * var) + cos_sq * math.exp(-var) * math.expm1(-var)
    return mean, math.sqrt(max(variance, 0.0))


def fjs_derive(fjs: FjsParams, tlr: TlrParams) -> FjsDerived:
    """Operating point of the four-junction SQUID coupling two resonators.

    The SQUID phase sits in a harmonic well of width sigma_phi around the
    bias-set minimum phi0.  Resonator currents couple through chi factors
    set by the mutual inductances; when ``mutual_inductance_d`` is unset
    it is solved so both chi factors are equal.  The photon-photon
    interaction strength and the quasi-static spread of the single-photon
    frequency shift follow from the quartic and quadratic well terms.
    """
    e_j = HBAR * fjs.junction_critical_current / (2.0 * E_CHARGE)
    total_cap = fjs.junction_capacitance + fjs.shunt_capacitance
    e_c = (2.0 * E_CHARGE) ** 2 / (4.0 * total_cap)
    i_0 = zero_point_current(tlr)  # both resonators are built alike
    _require_float_range(e_j, e_c, i_0)  # each is a denominator below

    sin_phi0 = HBAR * fjs.bias_current / (8.0 * E_CHARGE * e_j)
    if abs(sin_phi0) >= 1.0:
        raise ValueError("bias current exceeds the critical tilt of the SQUID well")
    phi0 = math.asin(sin_phi0)

    alpha = (4.0 * e_j * math.cos(phi0) / e_c) ** 0.25
    sigma_phi = 1.0 / (alpha * math.sqrt(2.0))

    i_crit = fjs.junction_critical_current

    denom_c = math.pi * fjs.squid_self_inductance * i_crit + FLUX_QUANTUM
    chi_c = math.pi * fjs.mutual_inductance_c * i_0 / denom_c

    denom_d = (
        math.pi * (fjs.squid_self_inductance + fjs.loop_inductance) * i_crit + FLUX_QUANTUM
    )
    if fjs.mutual_inductance_d is None:
        m_d = chi_c * denom_d / (math.pi * i_0)
    else:
        m_d = fjs.mutual_inductance_d
    chi_d = math.pi * m_d * i_0 / denom_d

    var = sigma_phi * sigma_phi
    phi_sq_mean = phi0 * phi0 + var
    phi_sq_spread = fjs.phi_sq_spread_scale * math.sqrt(
        2.0 * var * var + 4.0 * phi0 * phi0 * var
    )

    chi_sq_c = chi_c * chi_c
    chi_sq_d = chi_d * chi_d
    omega_s = -2.0 * e_j * (phi_sq_mean * chi_sq_c + chi_sq_c * chi_sq_d) / HBAR
    delta_omega_s = -2.0 * e_j * chi_sq_c * phi_sq_spread / HBAR
    omega_int = -4.0 * e_j * chi_sq_c * chi_sq_d * math.cos(phi0) / HBAR

    cos_mean, cos_std = _cos_fluctuation(phi0, var)
    # the echo needs an interaction and a shift spread; cos_std < 1, so a
    # normal cos_mean keeps the spread ratio finite
    _require_float_range(alpha, sigma_phi, omega_int, delta_omega_s, cos_mean)
    delta_omega_int_rel = cos_std / abs(cos_mean)

    return FjsDerived(
        phi0=phi0,
        sigma_phi=sigma_phi,
        chi_c=chi_c,
        chi_d=chi_d,
        omega_int=omega_int,
        omega_s=omega_s,
        delta_omega_s=delta_omega_s,
        delta_omega_int_rel=delta_omega_int_rel,
    )
