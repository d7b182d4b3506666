import math

import numpy as np
import pytest

from cyclesense import (DomainError, GeneratorMoments, Grid, KickVector, Moments,
                        NetworkGeometry,
                        NoiseModel, PolarizationState, PostSelection,
                        PostSelectionError, ProbeSpec, ReadoutModel, RegimeError,
                        first_order_momentum_shift,
                        half_wave_plate, make_gaussian, max_difference_up_to_phase,
                        min_detectable_tilt, moments, momentum_readout,
                        probe_alone_qfi_at_origin, qpd_signal, quarter_wave_plate, rotation_z,
                        sandwich_jones, snr_model, waveplate_compensation,
                        weak_value, wva_final_probe)
LAB_WAVE_NUMBER = 2.0 * math.pi / 780e-9


def lab_setup(n_sensors, lead_in=0.325, num_points=1 << 14):
    spec = ProbeSpec(2e-3, LAB_WAVE_NUMBER)
    geom = NetworkGeometry.uniform(n_sensors, 0.2, lead_in=lead_in,
                                   wave_number=LAB_WAVE_NUMBER)
    psi = make_gaussian(spec, Grid.for_probe(spec, geom.z_total, num_points))
    return spec, geom, psi


class TestWeakValue:
    def test_balanced_post_selection(self):
        assert weak_value(PostSelection(math.pi / 4)) == pytest.approx(1j)

    def test_rig_magnitude_seven(self):
        # |A_w| = 7 corresponds to epsilon = arccot(7) = 0.1419 rad
        ps = PostSelection.from_weak_value_magnitude(7.0)
        assert ps.epsilon == pytest.approx(0.1419, abs=1e-4)
        assert abs(weak_value(ps)) == pytest.approx(7.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
    def test_small_angle_reciprocal_approximation(self, eps):
        aw = weak_value(PostSelection(eps))
        assert abs(aw - 1j / eps) / abs(aw) < 0.01

    def test_singular_post_selection_rejected(self):
        with pytest.raises(PostSelectionError):
            PostSelection(0.0)
        with pytest.raises(PostSelectionError):
            PostSelection(math.pi / 2)

    def test_polarization_norm_enforced(self):
        with pytest.raises(ValueError):
            PolarizationState(1.0, 1.0)


UNIT_GEOM = NetworkGeometry.uniform(1, 1.0, wave_number=1.0)
READOUT = ReadoutModel(0.25, 1e4, 0.2e-3)
DETECTED = make_gaussian(ProbeSpec(2.0, 1.0, center_p=0.1), Grid(256, 24.0))


@pytest.mark.parametrize("call", [
    lambda: PolarizationState(1.0, 1.0),
    lambda: PolarizationState(math.nan, 0.0),
    lambda: PostSelection.from_weak_value_magnitude(0.0),
    lambda: ReadoutModel(0.25, 0.0, 0.2e-3),
    lambda: ReadoutModel(0.25, 1e4, 0.2e-3, position_slope=0.0),
    lambda: ReadoutModel(0.25, 1e4, 0.2e-3, position_slope=math.nan),
    lambda: ReadoutModel(math.inf, 1e4, 0.2e-3),
    lambda: Moments(math.nan, 0.0, 1.0, 1.0, 0.0),
    lambda: Moments(0.0, math.inf, 1.0, 1.0, 0.0),
    lambda: Moments(0.0, 0.0, 1.0, 1.0, math.nan),
    lambda: Moments(0.0, 0.0, math.inf, 1.0, 0.0),
    # the method is checked before any of the other arguments is read
    lambda: wva_final_probe(None, None, None, None, method="second_order"),
    lambda: min_detectable_tilt(UNIT_GEOM, 0.0, PostSelection(0.1)),
    lambda: min_detectable_tilt(UNIT_GEOM, math.inf, PostSelection(0.1)),
    lambda: first_order_momentum_shift(UNIT_GEOM, 1.0, PostSelection(0.1), math.nan),
    lambda: first_order_momentum_shift(UNIT_GEOM, 1.0, PostSelection(0.1), math.inf),
    lambda: first_order_momentum_shift(UNIT_GEOM, -1.0, PostSelection(0.1), 0.01),
    lambda: first_order_momentum_shift(UNIT_GEOM, math.nan, PostSelection(0.1), 0.01),
    lambda: first_order_momentum_shift(UNIT_GEOM, math.inf, PostSelection(0.1), 0.01),
    lambda: qpd_signal(1e-6, UNIT_GEOM, 0.0, PostSelection(0.1), READOUT),
    lambda: qpd_signal(1e-6, UNIT_GEOM, math.nan, PostSelection(0.1), READOUT),
    lambda: qpd_signal(math.nan, UNIT_GEOM, 1e-3, PostSelection(0.1), READOUT),
    lambda: qpd_signal(math.inf, UNIT_GEOM, 1e-3, PostSelection(0.1), READOUT),
    lambda: snr_model(math.nan, UNIT_GEOM, 1e-3, PostSelection(0.1), READOUT,
                      NoiseModel(1.0)),
    lambda: waveplate_compensation(math.nan),
    # finite inputs whose results leave the float range
    lambda: qpd_signal(1e308, UNIT_GEOM, 1e-3, PostSelection(0.1), READOUT),
    lambda: snr_model(1e308, UNIT_GEOM, 1e-3, PostSelection(0.1), READOUT,
                      NoiseModel(1.0)),
    lambda: snr_model(1e-6, UNIT_GEOM, 1e-3, PostSelection(0.1), READOUT,
                      NoiseModel(5e-324)),
    lambda: min_detectable_tilt(UNIT_GEOM, 5e-324, PostSelection(0.1)),
    lambda: min_detectable_tilt(NetworkGeometry.uniform(1, 0.2, wave_number=1.0),
                                5e-324, PostSelection(0.1)),
    lambda: first_order_momentum_shift(UNIT_GEOM, 1e300, PostSelection(0.1), 1e300),
    lambda: momentum_readout(DETECTED, ReadoutModel(1e308, 1.0, 1.0), 1e-10),
    lambda: momentum_readout(DETECTED, READOUT, math.nan),
    lambda: momentum_readout(DETECTED, READOUT, -1.0),
    lambda: momentum_readout(DETECTED, READOUT, 0.0),
    lambda: momentum_readout(DETECTED, READOUT, math.inf),
], ids=["jones-norm", "jones-nan", "weak-value-magnitude", "readout-constants",
        "readout-slope-zero", "readout-slope-nan", "readout-focal-inf", "moments-mean-nan",
        "moments-mean-inf", "moments-cov-nan", "moments-var-inf", "final-probe-method",
        "min-tilt-delta-p", "min-tilt-delta-p-inf", "shift-theta-nan", "shift-theta-inf",
        "shift-var-p-negative", "shift-var-p-nan", "shift-var-p-inf", "qpd-waist-zero",
        "qpd-waist-nan", "qpd-phi-nan", "qpd-phi-inf", "snr-phi-nan", "waveplate-nan",
        "qpd-signal-overflow", "snr-signal-overflow", "snr-floor-overflow",
        "min-tilt-overflow", "min-tilt-underflowed-divisor", "shift-overflow",
        "readout-scale-overflow", "readout-k-nan", "readout-k-negative", "readout-k-zero",
        "readout-k-inf"])
def test_inputs_out_of_domain(call):
    # DomainError is what the CLI reports with exit code 3
    with pytest.raises(DomainError):
        call()


class TestFinalProbe:
    def test_no_signal_success_probability(self):
        # oracle: |<f|i>|^2 = sin^2(eps)
        _, geom, psi = lab_setup(2)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        _, prob = wva_final_probe(psi, geom, KickVector.uniform(2, 0.0), ps)
        assert prob == pytest.approx(math.sin(ps.epsilon) ** 2, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_mean_momentum_matches_linear_response(self, n):
        spec, geom, psi = lab_setup(n)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        tbar = 0.46 / (n**2 + 4.25 * n)
        chi, prob = wva_final_probe(psi, geom, KickVector.uniform(n, tbar), ps)
        predicted = first_order_momentum_shift(geom, spec.delta_p**2, ps, tbar)
        assert moments(chi).mean_p == pytest.approx(predicted, rel=1e-3)
        # the reciprocal-epsilon shorthand is itself good to one percent here
        shorthand = 2.0 / ps.epsilon * spec.delta_p**2 * (
            geom.z_bar / (2 * LAB_WAVE_NUMBER) * n**2
            + (geom.z_bar / (2 * LAB_WAVE_NUMBER) + geom.lead_in / LAB_WAVE_NUMBER) * n
        ) * tbar
        assert moments(chi).mean_p == pytest.approx(shorthand, rel=1e-2)
        assert prob == pytest.approx(math.sin(ps.epsilon) ** 2, rel=1e-2)

    def test_first_order_state_matches_exact_grid(self):
        # agreement within 1% while N^2 tbar zbar VarP / k stays below 0.01
        spec, geom, psi = lab_setup(3)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        tbar = 0.01 * LAB_WAVE_NUMBER / (9 * geom.z_bar * spec.delta_p**2)
        kicks = KickVector.uniform(3, tbar)
        exact, p_exact = wva_final_probe(psi, geom, kicks, ps, method="exact_grid")
        linear, p_lin = wva_final_probe(psi, geom, kicks, ps, method="first_order")
        assert moments(linear).mean_p == pytest.approx(moments(exact).mean_p, rel=1e-2)
        assert p_lin == pytest.approx(p_exact, rel=1e-2)

    def test_guards_reject_large_signals(self):
        _, geom, psi = lab_setup(3)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        with pytest.raises(RegimeError):
            wva_final_probe(psi, geom, KickVector.uniform(3, 40.0), ps,
                            method="first_order")

    def test_saturation_beyond_linear_response(self, unit_grid):
        # driving at the closed-form threshold tilt is far outside linear
        # response: the measured signal-to-spread ratio falls well under 1
        spec = ProbeSpec(2.0, 1.0)
        geom = NetworkGeometry.uniform(3, 1.3, wave_number=1.0)
        psi = make_gaussian(spec, unit_grid)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        theta_min, _ = min_detectable_tilt(geom, spec.delta_p, ps)
        chi, _ = wva_final_probe(psi, geom, KickVector.uniform(3, theta_min), ps)
        m = moments(chi)
        ratio = m.mean_p / math.sqrt(m.var_p)
        assert 0.3 < ratio < 0.95


class TestReadout:
    def test_unkicked_probe_reads_zero(self):
        spec, geom, psi = lab_setup(1)
        rm = ReadoutModel(0.25, 1e4, 0.2e-3)
        mean, spread = momentum_readout(psi, rm, spec.wave_number)
        assert abs(mean) < 1e-12
        # received beam radius on the detector is 2 f / (w0 k)
        assert 2 * spread == pytest.approx(2 * 0.25 / (2e-3 * spec.wave_number),
                                           rel=1e-9)

    def test_scales_with_focal_length(self):
        spec, geom, psi = lab_setup(1)
        m1 = momentum_readout(psi, ReadoutModel(0.1, 1e4, 0.2e-3), spec.wave_number)
        m2 = momentum_readout(psi, ReadoutModel(0.2, 1e4, 0.2e-3), spec.wave_number)
        assert m2[1] == pytest.approx(2 * m1[1], rel=1e-12)


class TestMinDetectableTilt:
    def test_unit_example(self):
        # k = 1, zbar = 1, DeltaP = 1, eps = 0.1, no lead-in, N = 1: 0.1/2
        geom = NetworkGeometry.uniform(1, 1.0, wave_number=1.0)
        d_theta, d_phi = min_detectable_tilt(geom, 1.0, PostSelection(0.1))
        assert d_theta == pytest.approx(0.05, rel=1e-12)
        assert d_phi == pytest.approx(0.05, rel=1e-12)

    def test_no_lead_in_denominator(self):
        geom = NetworkGeometry.uniform(4, 1.0, wave_number=1.0)
        d_theta, _ = min_detectable_tilt(geom, 1.0, PostSelection(0.1))
        assert d_theta == pytest.approx(0.1 / (16 + 4), rel=1e-12)

    def test_doubling_sensors_gain(self):
        ps = PostSelection(0.1)
        g10 = NetworkGeometry.uniform(10, 1.0, wave_number=1.0)
        g20 = NetworkGeometry.uniform(20, 1.0, wave_number=1.0)
        r10 = min_detectable_tilt(g10, 1.0, ps)[0]
        r20 = min_detectable_tilt(g20, 1.0, ps)[0]
        assert r10 / r20 == pytest.approx(420.0 / 110.0, rel=1e-12)


class TestReadoutAgainstBound:
    """No readout beats the quantum Cramer-Rao bound of its own input state.

    Take the probe after the lead-in z_in (waist w0, Delta P, so Var X =
    w0^2/4 + (z_in/k)^2 Var P and Cov = (z_in/k) Var P) and the in-network
    length S = (N+1) zbar + 2 z_in.  The threshold min_detectable_tilt is
    theta_min = k eps / (zbar Delta P [N^2 + (1 + 2 z_in/zbar) N])
              = k eps / (Delta P N S).
    A fraction sin^2 eps of the photons is post-selected, so per input photon
    the readout resolves theta_min / |sin eps|.  The bound it must not beat
    is probe_alone_qfi_at_origin, which both switched bounds equal at g = 0:
    1 / (N^2 (N+1)^2 zbar^2 Var H0), H0 = P/k + 2X/((N+1) zbar).  With the
    moments above, (N+1)^2 zbar^2 Var H0 = Var P S^2 / k^2 + w0^2, so
        R = (theta_min / |sin eps|) / sqrt(bound)
          = (eps / sin eps) sqrt(1 + (k w0 / (Delta P S))^2),
    which is at least eps / sin eps > 1 and tends to it as N or z_in grows.
    Both sides scale as 1/N^2 at large N.

    Caveat: the readout's reverse arm is parity-sandwiched, and the bound
    families do not model that arm.  The derivation relates the two closed
    forms, not the QFI of the sandwiched state, so for that arm R >= eps /
    sin eps is an observed invariant of the closed forms, not a theorem.
    """

    N_VALUES = (1, 2, 5, 20, 200, 2000, 100000)

    @staticmethod
    def ratio(waist, ps, n, z_in):
        spec = ProbeSpec(waist, LAB_WAVE_NUMBER)
        geom = NetworkGeometry.uniform(n, 0.2, lead_in=z_in, wave_number=LAB_WAVE_NUMBER)
        m = Moments(0.0, 0.0, spec.delta_x**2, spec.delta_p**2, 0.0).propagated(
            z_in / LAB_WAVE_NUMBER)
        bound = probe_alone_qfi_at_origin(GeneratorMoments.from_moments(
            m, LAB_WAVE_NUMBER, geom.z_bar, n))
        theta_min = min_detectable_tilt(geom, spec.delta_p, ps)[0]
        return theta_min / abs(math.sin(ps.epsilon)) / math.sqrt(bound)

    @pytest.mark.parametrize("gain", [0.3, 1.0, 7.0, 100.0])
    @pytest.mark.parametrize("waist", [2e-3, 5e-4])
    def test_ratio_is_the_derived_closed_form_above_its_limit(self, waist, gain):
        ps = PostSelection.from_weak_value_magnitude(gain)
        limit = ps.epsilon / math.sin(ps.epsilon)
        k_w0_dp = LAB_WAVE_NUMBER * waist**2            # k w0 / Delta P, Delta P = 1/w0
        for z_in in (0.0, 0.325, 1e4):
            ratios = [self.ratio(waist, ps, n, z_in) for n in self.N_VALUES]
            for n, r in zip(self.N_VALUES, ratios):
                span = (n + 1) * 0.2 + 2.0 * z_in
                assert r == pytest.approx(limit * math.sqrt(1.0 + (k_w0_dp / span)**2),
                                          rel=1e-12, abs=0)
                assert r > limit
            assert ratios == sorted(ratios, reverse=True)    # falls towards the limit
            assert ratios[-1] / limit - 1.0 < 1e-5           # and reaches it at large N

    def test_lab_default_values(self):
        # z_in = 0.325 m, |A_w| = 7: far above the bound at N = 1, near it at N = 200
        ps = PostSelection.from_weak_value_magnitude(7.0)
        assert [round(self.ratio(2e-3, ps, n, 0.325), 1) for n in (1, 9, 200)] == [
            30.8, 12.2, 1.3]


class TestQpdSignal:
    RM = ReadoutModel(0.25, 1e4, 0.2e-3)

    def test_zero_tilt_zero_signal(self):
        geom = NetworkGeometry.uniform(2, 0.2, wave_number=LAB_WAVE_NUMBER)
        i_delta, v_delta = qpd_signal(0.0, geom, 2e-3,
                                      PostSelection.from_weak_value_magnitude(7.0),
                                      self.RM)
        assert i_delta == 0.0 and v_delta == 0.0

    def test_linearity(self):
        geom = NetworkGeometry.uniform(2, 0.2, lead_in=0.3,
                                       wave_number=LAB_WAVE_NUMBER)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        i1, _ = qpd_signal(1e-9, geom, 2e-3, ps, self.RM)
        i2, _ = qpd_signal(2e-9, geom, 2e-3, ps, self.RM)
        assert i2 == pytest.approx(2 * i1, rel=1e-12)

    def test_closed_form_value_and_gain(self):
        # zbar I0 / (1.3 eps w0) * [N^2 + (1 + 2 z_in/zbar) N] * phi
        geom = NetworkGeometry.uniform(3, 0.2, lead_in=0.325,
                                       wave_number=LAB_WAVE_NUMBER)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        phi = 11e-9
        i_delta, v_delta = qpd_signal(phi, geom, 2e-3, ps, self.RM)
        bracket = 9 + (1 + 2 * 0.325 / 0.2) * 3
        expected = 0.2 * 0.2e-3 / (1.3 * ps.epsilon * 2e-3) * bracket * phi
        assert i_delta == pytest.approx(expected, rel=1e-12)
        assert v_delta == pytest.approx(1e4 * i_delta, rel=1e-12)

    def test_rig_gain_constant(self):
        # 0.5 A/W responsivity times 20 kV/A transresistance
        assert 0.5 * 20e3 == self.RM.qpd_gain


class TestWaveplates:
    def test_zero_phase_identity(self):
        angles = waveplate_compensation(0.0)
        assert angles[1] == pytest.approx(-math.pi / 4)
        diff = max_difference_up_to_phase(sandwich_jones(angles), np.eye(2))
        assert diff < 1e-12

    def test_pi_phase(self):
        # half-wave plate lands at 0 and the sandwich gives R_z(-pi/2)
        angles = waveplate_compensation(math.pi)
        assert angles[1] == pytest.approx(0.0, abs=1e-15)
        diff = max_difference_up_to_phase(sandwich_jones(angles),
                                          rotation_z(-math.pi / 2))
        assert diff < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_phases(self, seed):
        rng = np.random.default_rng(seed)
        for dt in rng.uniform(-math.pi, math.pi, 25):
            got = sandwich_jones(waveplate_compensation(float(dt)))
            assert max_difference_up_to_phase(got, rotation_z(-dt / 2)) < 1e-12

    def test_plates_are_unitary(self):
        for mat in (quarter_wave_plate(0.3), half_wave_plate(-1.1),
                    sandwich_jones(waveplate_compensation(0.77))):
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
