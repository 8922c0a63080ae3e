import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlrsim.config import fjs_params, load_config, tlr_params
from tlrsim.device import (
    TWO_PI,
    coupling_strength,
    effective_dephasing_rate,
    fjs_derive,
    induced_loss_rate,
    mode_frequency,
    thermal_occupancy,
    to_angular,
    to_linear,
    transfer_rate,
    zero_point_current,
)

# CODATA constants (SI), written out here so the oracles below do not read
# them from the module under test
HBAR = 1.054_571_817e-34
E_CHARGE = 1.602_176_634e-19
K_B = 1.380_649e-23

# Values every figure in this suite hangs off: the qubit resonator and the
# junction coupler at their standard operating point.
TLR = tlr_params(load_config())
FJS = fjs_params(load_config())
OMEGA0 = mode_frequency(TLR)
G_COUPLER = coupling_strength(OMEGA0, 5.0e-12, 2.3e-14, 5.0e-13)
DELTA = TWO_PI * 2.0e9


class TestModeFrequency:
    def test_default_is_twenty_ghz(self):
        # n pi / sqrt(LC) with n = 2, L = 0.5 nH, C = 5 pF.
        assert to_linear(OMEGA0) == pytest.approx(2.0e10, rel=1e-3)

    def test_quarter_lc_doubles_frequency(self):
        quarter = replace(TLR, inductance=0.5e-9 / 2, capacitance=5.0e-12 / 2)
        assert mode_frequency(quarter) == pytest.approx(2 * OMEGA0, rel=1e-12)

    def test_linear_in_mode_index(self):
        third = replace(TLR, mode_index=3)
        assert mode_frequency(third) == pytest.approx(1.5 * OMEGA0, rel=1e-12)


class TestZeroPoint:
    def test_current_magnitude(self):
        # sqrt(hbar omega / L) at the default point, about 0.16 uA.
        oracle = math.sqrt(HBAR * OMEGA0 / 0.5e-9)
        i0 = zero_point_current(TLR)
        assert i0 == pytest.approx(oracle, rel=1e-12)
        assert i0 == pytest.approx(1.628e-7, rel=1e-3)

    def test_quarter_inductance_doubles_current(self):
        # omega doubles and L quarters, so sqrt(hbar omega / L) grows 2 sqrt(2)
        # ... with C also quartered; check pure scaling against the formula.
        quarter = replace(TLR, inductance=0.5e-9 / 4)
        ratio = zero_point_current(quarter) / zero_point_current(TLR)
        # omega scales by 2, L by 1/4: sqrt(2 * 4) = 2 sqrt(2).
        assert ratio == pytest.approx(2 * math.sqrt(2), rel=1e-12)


class TestCoupling:
    def test_coupler_value(self):
        # omega C_c / sqrt(2 C (C_J + 2 C_c)) at the standard point,
        # about 2 pi x 197 MHz.
        oracle = OMEGA0 * 2.3e-14 / math.sqrt(2 * 5.0e-12 * (5.0e-13 + 2 * 2.3e-14))
        assert G_COUPLER == pytest.approx(oracle, rel=1e-12)
        assert to_linear(G_COUPLER) == pytest.approx(1.97e8, rel=5e-3)

    def test_large_coupler_warns(self):
        with pytest.warns(UserWarning):
            coupling_strength(OMEGA0, 5.0e-12, 1.0e-12, 5.0e-13)


class TestTransferRate:
    def test_operating_point_rate(self):
        # g^2 / (2 pi Delta): lands between 19 and 20 MHz.
        rate = transfer_rate(G_COUPLER, DELTA)
        assert 1.9e7 <= rate <= 2.0e7

    def test_quadratic_in_g(self):
        assert transfer_rate(2 * G_COUPLER, DELTA) == pytest.approx(
            4 * transfer_rate(G_COUPLER, DELTA), rel=1e-12
        )

    def test_small_detuning_warns(self):
        with pytest.warns(UserWarning):
            transfer_rate(G_COUPLER, 2 * G_COUPLER)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            transfer_rate(G_COUPLER, 0.0)


class TestNoiseRates:
    def test_effective_dephasing_value(self):
        # 2 (g/Delta)^2 Gamma_2 with Gamma_2 = 2 pi x 1 MHz: about 2 pi x 19.4 kHz.
        gamma2 = TWO_PI * 1.0e6
        rate = effective_dephasing_rate(G_COUPLER, DELTA, gamma2)
        oracle = 2 * (G_COUPLER / DELTA) ** 2 * gamma2
        assert rate == pytest.approx(oracle, rel=1e-12)
        assert to_linear(rate) == pytest.approx(1.94e4, rel=2e-2)

    def test_induced_loss_below_kappa(self):
        # (g/Delta)^2 Gamma_1 with Gamma_1 = 2 pi x 0.1 MHz stays below the
        # 2 pi x 10 kHz photon loss rate.
        gamma1 = TWO_PI * 1.0e5
        rate = induced_loss_rate(G_COUPLER, DELTA, gamma1)
        assert rate == pytest.approx((G_COUPLER / DELTA) ** 2 * gamma1, rel=1e-12)
        assert rate < TWO_PI * 1.0e4

    def test_quadratic_vanishing_with_g(self):
        gamma2 = TWO_PI * 1.0e6
        full = effective_dephasing_rate(G_COUPLER, DELTA, gamma2)
        half = effective_dephasing_rate(G_COUPLER / 2, DELTA, gamma2)
        quarter = effective_dephasing_rate(G_COUPLER / 4, DELTA, gamma2)
        assert full / half == pytest.approx(4.0, rel=1e-9)
        assert half / quarter == pytest.approx(4.0, rel=1e-9)


class TestThermalOccupancy:
    def test_dilution_fridge_occupancy_negligible(self):
        n = thermal_occupancy(0.04, OMEGA0)
        assert n < 1e-10

    def test_classical_limit(self):
        # hbar omega / k_B T = 1e-3: occupation within 0.1% of k_B T / hbar omega.
        t = HBAR * OMEGA0 / (K_B * 1e-3)
        n = thermal_occupancy(t, OMEGA0)
        classical = 1e3
        assert n == pytest.approx(classical, rel=1e-3)

    def test_zero_temperature(self):
        assert thermal_occupancy(0.0, OMEGA0) == 0.0


class TestUnitHelpers:
    def test_round_trip_on_operating_values(self):
        # Exactness for the default operating frequencies of the package.
        for f in [
            1.0e4,
            1.0e5,
            1.0e6,
            1.0e7,
            2.0e7,
            2.0e9,
            2.0e10,
            2.2e10,
            2.3e7,
        ]:
            assert to_linear(to_angular(f)) == f

    def test_round_trip_misses_by_at_most_one_ulp(self):
        # Universal exactness is impossible for multiply/divide by an
        # irrational constant; 1 kHz is a known one-ulp miss.
        f = 1.0e3
        rt = to_linear(to_angular(f))
        assert rt != f
        assert abs(rt - f) <= math.ulp(f)

    def test_factor(self):
        assert to_angular(1.0) == TWO_PI


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=1e-3, max_value=1e15))
def test_round_trip_error_bounded(f):
    assert abs(to_linear(to_angular(f)) - f) <= 2 * math.ulp(f)


def oracle_fjs():
    """Independent evaluation of the SQUID operating point with local arithmetic."""
    hbar, e = HBAR, E_CHARGE
    flux_quantum = math.pi * hbar / e
    e_j = hbar * 50e-6 / (2 * e)
    e_c = (2 * e) ** 2 / (4 * 20e-12)
    alpha = (4 * e_j / e_c) ** 0.25
    var = 1.0 / (2 * alpha * alpha)
    i0 = math.sqrt(hbar * OMEGA0 / 0.5e-9)
    chi = math.pi * 80e-12 * i0 / (math.pi * 10e-12 * 50e-6 + flux_quantum)
    omega_int = -4 * e_j * chi**4 / hbar
    delta_omega_s = -2 * e_j * chi * chi * math.sqrt(2) * var / hbar
    omega_s = -2 * e_j * (var * chi * chi + chi**4) / hbar
    return e_j, e_c, alpha, var, chi, omega_int, delta_omega_s, omega_s


class TestFjsDerive:
    def setup_method(self):
        self.derived = fjs_derive(FJS, TLR)

    def test_zero_bias_has_symmetric_well(self):
        assert self.derived.phi0 == 0.0

    def test_alpha_and_sigma(self):
        _, _, _, var, *_ = oracle_fjs()
        assert self.derived.sigma_phi == pytest.approx(math.sqrt(var), rel=1e-12)
        # a well-width parameter alpha of about 84.6
        assert self.derived.sigma_phi == pytest.approx(1.0 / (84.6 * math.sqrt(2)), rel=1e-2)

    def test_chi_factors_match_and_solve_m_d(self):
        *_, chi, _, _, _ = oracle_fjs()
        assert self.derived.chi_c == pytest.approx(chi, rel=1e-12)
        assert self.derived.chi_d == pytest.approx(chi, rel=1e-12)
        # The solved mutual inductance, about 4.254e-10 H, set explicitly.
        explicit = fjs_derive(replace(FJS, mutual_inductance_d=4.254e-10), TLR)
        assert explicit.chi_d == pytest.approx(self.derived.chi_c, rel=1e-3)

    def test_interaction_strength(self):
        *_, omega_int_oracle, _, _ = oracle_fjs()
        assert self.derived.omega_int == pytest.approx(omega_int_oracle, rel=1e-12)
        # About 2 pi x 1.6 MHz, within a factor 2 of 1 MHz.
        lin = abs(to_linear(self.derived.omega_int))
        assert 0.5e6 <= lin <= 2.0e6

    def test_shift_and_spread(self):
        *_, delta_omega_s_oracle, omega_s_oracle = oracle_fjs()
        assert self.derived.delta_omega_s == pytest.approx(delta_omega_s_oracle, rel=1e-12)
        assert self.derived.omega_s == pytest.approx(omega_s_oracle, rel=1e-12)
        # Shift spread is comparable to the interaction strength.
        assert abs(self.derived.delta_omega_s) == pytest.approx(3.897e6, rel=1e-3)

    def test_interaction_spread_tiny(self):
        # Second-order spread of cos(phi) at phi0 = 0: var^2 / 2 under the
        # square root, so std/mean is sigma^2/sqrt(2); about 5e-5 and within
        # a factor 3 of 1e-4.
        var = self.derived.sigma_phi**2
        oracle = var / math.sqrt(2)
        assert self.derived.delta_omega_int_rel == pytest.approx(oracle, rel=1e-3)
        assert 1e-4 / 3 <= self.derived.delta_omega_int_rel <= 3e-4

    def test_bias_tilts_well(self):
        tilted = fjs_derive(replace(FJS, bias_current=2.0e-5), TLR)
        assert tilted.phi0 == pytest.approx(math.asin(2.0e-5 / (4 * 50e-6)), rel=1e-12)
        assert tilted.phi0 > 0
        # First-order spread takes over: much larger relative uncertainty.
        assert tilted.delta_omega_int_rel > self.derived.delta_omega_int_rel

    def test_overtilted_bias_rejected(self):
        with pytest.raises(ValueError):
            fjs_derive(replace(FJS, bias_current=2.1e-4), TLR)

    def test_determinism(self):
        again = fjs_derive(fjs_params(load_config()), tlr_params(load_config()))
        assert again == self.derived

    def test_spread_scale_passthrough(self):
        doubled = fjs_derive(replace(FJS, phi_sq_spread_scale=2.0), TLR)
        assert doubled.delta_omega_s == pytest.approx(2 * self.derived.delta_omega_s, rel=1e-12)


class TestValidationErrors:
    def test_bad_tlr(self):
        with pytest.raises(ValueError):
            replace(TLR, inductance=-1e-9)
        with pytest.raises(ValueError):
            replace(TLR, mode_index=0)

    def test_bad_cbjj(self):
        # the junction capacitance only enters through the coupling formula
        with pytest.raises(ValueError):
            coupling_strength(OMEGA0, 5.0e-12, 2.3e-14, 0.0)

    def test_bad_coupler(self):
        with pytest.raises(ValueError):
            coupling_strength(OMEGA0, 5.0e-12, 0.0, 5.0e-13)

    def test_bad_fjs(self):
        with pytest.raises(ValueError):
            replace(FJS, junction_critical_current=0.0)


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=1e-12, max_value=1e14))
def test_thermal_occupancy_nonnegative(f):
    assert thermal_occupancy(0.05, TWO_PI * f) >= 0.0


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=1e-10, max_value=1e-8),
    st.floats(min_value=1e-13, max_value=1e-11),
)
def test_mode_frequency_scaling_law(l, c):
    # omega sqrt(LC) is the fixed geometry constant n pi.
    tlr = replace(TLR, inductance=l, capacitance=c)
    assert mode_frequency(tlr) * math.sqrt(l * c) == pytest.approx(2 * math.pi, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=1e-14, max_value=1e-10))
def test_sigma_phi_shrinks_with_total_capacitance(extra):
    # Larger shunt capacitance lowers the charging energy and squeezes the
    # phase spread: sigma_phi must decrease monotonically.
    base = fjs_derive(FJS, TLR)
    bigger = fjs_derive(replace(FJS, shunt_capacitance=1.9e-11 + extra), TLR)
    assert bigger.sigma_phi <= base.sigma_phi
