import math

import numpy as np
import pytest

from cyclesense import (ConvergenceError, DomainError, EstimabilityError, GeneratorMoments,
                        Grid, JointState, NetworkGeometry, ProbeSpec,
                        SwitchMode, apply_propagation, make_gaussian,
                        moments, probe_alone_qfi_at_origin, qcrb_global,
                        qfim_classical_switch, qfim_numerical,
                        qfim_quantum_switch, qfim_sequential,
                        WaveFunction, switched_state_family)
from cyclesense import fisher
from cyclesense.fisher import RANK_TOL

GM_UNIT = GeneratorMoments(var_x=1.0, var_p=0.25, cov_xp=0.0, mean_p=0.0,
                           wave_number=1.0, z_bar=1.0, n_sensors=1)


def grid_instance(seed, with_offsets=True):
    """Probe state with momentum offset and covariance plus a small-g point."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    geom = NetworkGeometry.uniform(n, float(rng.uniform(0.8, 1.5)), wave_number=1.0)
    p0 = float(rng.uniform(-0.5, 0.5)) if with_offsets else 0.0
    spec = ProbeSpec(float(rng.uniform(1.0, 2.5)), 1.0, center_p=p0)
    grid = Grid.for_probe(spec, geom.z_total + 5.0, 1 << 13)
    psi = make_gaussian(spec, grid)
    if with_offsets:
        psi = apply_propagation(psi, float(rng.uniform(0.0, 1.0)), 1.0).to_position()
    g1, g2 = (float(x) for x in rng.uniform(-0.08, 0.08, 2))
    return geom, psi, g1, g2


class TestClosedForms:
    def test_sequential_unit_example(self):
        # Gaussian w0 = 2, k = 1, zbar = 1, N = 1: matrix [[2, 1], [1, 1]]
        q = qfim_sequential(GM_UNIT)
        assert q == pytest.approx(np.array([[2.0, 1.0], [1.0, 1.0]]))

    def test_sequential_corner_entry_ignores_var_p(self):
        # with zero covariance q22 = 4 VarX / ((N+1) zbar)^2 regardless of VarP
        for vp in (0.25, 5.0):
            gm = GeneratorMoments(1.0, vp, 0.0, 0.0, 1.0, 1.0, 3)
            assert qfim_sequential(gm)[1, 1] == pytest.approx(4.0 / 16.0)

    def test_quantum_switch_origin_example(self):
        # g = 0, <P> = 0, Cov = 0: diagonal 4(VarX/span^2 + VarP/2k^2),
        # off-diagonal 4 VarX/span^2
        q = qfim_quantum_switch(GM_UNIT)
        assert q[0, 0] == pytest.approx(4 * (0.25 + 0.125))
        assert q[1, 1] == pytest.approx(4 * (0.25 + 0.125))
        assert q[0, 1] == pytest.approx(4 * 0.25)

    def test_classical_switch_unit_example(self):
        q = qfim_classical_switch(GM_UNIT)
        assert q == pytest.approx(np.array([[1.5, 1.0], [1.0, 1.5]]))

    def test_switch_forms_agree_at_origin(self):
        gm = GeneratorMoments(1.3, 0.4, 0.1, 0.0, 1.0, 1.2, 4)
        assert qfim_quantum_switch(gm) == pytest.approx(
            qfim_classical_switch(gm))

    def test_classical_switch_is_branch_average(self):
        # forward-order and reverse-order fixed traversals have mirrored
        # matrices; the classical switch is their arithmetic mean
        gm = GeneratorMoments(0.9, 0.7, -0.15, 0.3, 1.0, 1.1, 2)
        fwd = qfim_sequential(gm)
        rev = fwd[::-1, ::-1].copy()   # swap the roles of g1 and g2
        assert qfim_classical_switch(gm) == pytest.approx(0.5 * (fwd + rev))

    @pytest.mark.parametrize("seed", range(8))
    def test_psd_on_physical_moments(self, seed):
        geom, psi, g1, g2 = grid_instance(seed)
        gm = GeneratorMoments.from_moments(moments(psi), 1.0, geom.z_bar,
                                           geom.n_sensors, g1, g2)
        for q in (qfim_sequential(gm), qfim_quantum_switch(gm),
                  qfim_classical_switch(gm)):
            tr = abs(q[0, 0]) + abs(q[1, 1])
            assert np.linalg.eigvalsh(q).min() >= -RANK_TOL * max(tr, 1e-300)


class TestNumericalOracle:
    @pytest.mark.parametrize("mode,closed", [
        (SwitchMode.SEQUENTIAL, qfim_sequential),
        (SwitchMode.QUANTUM_SWITCH, qfim_quantum_switch),
        (SwitchMode.CLASSICAL_SWITCH, qfim_classical_switch),
    ])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_closed_forms_match_finite_difference(self, mode, closed, seed):
        geom, psi, g1, g2 = grid_instance(seed)
        gm = GeneratorMoments.from_moments(moments(psi), 1.0, geom.z_bar,
                                           geom.n_sensors, g1, g2)
        numeric = qfim_numerical(switched_state_family(psi, geom, mode),
                                 (g1, g2), step=1e-4)
        analytic = closed(gm)
        err = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert err < 1e-3

    def test_degenerate_ancilla_reduces_to_sequential(self):
        # weight (1, 0) on the forward branch gives the fixed-order matrix
        geom, psi, g1, g2 = grid_instance(21)
        family = switched_state_family(psi, geom, SwitchMode.QUANTUM_SWITCH)

        def degenerate(a, b):
            s = family(a, b)
            return JointState(SwitchMode.SEQUENTIAL, s.branch_plus, None)

        gm = GeneratorMoments.from_moments(moments(psi), 1.0, geom.z_bar,
                                           geom.n_sensors, g1, g2)
        numeric = qfim_numerical(degenerate, (g1, g2), step=1e-4)
        analytic = qfim_sequential(gm)
        assert np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic) < 1e-3

    def test_central_difference_order(self):
        # one central difference, without Richardson: the error shrinks as step^2
        geom, psi, g1, g2 = grid_instance(31, with_offsets=False)
        gm = GeneratorMoments.from_moments(moments(psi), 1.0, geom.z_bar,
                                           geom.n_sensors, g1, g2)
        family = switched_state_family(psi, geom, SwitchMode.QUANTUM_SWITCH)
        analytic = qfim_quantum_switch(gm)
        errs = []
        for h in (0.2, 0.1, 0.05):
            q = fisher._qfim_fd(family, (g1, g2), h, family(g1, g2))
            errs.append(np.linalg.norm(q - analytic))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("mode", [SwitchMode.SEQUENTIAL, SwitchMode.QUANTUM_SWITCH])
    def test_matrix_does_not_depend_on_the_representation(self, mode):
        # the families come in momentum space; by Parseval, differencing in
        # position space, or in the centre's space with every other branch
        # transformed into it, gives the same matrix to rounding
        geom, psi, g1, g2 = grid_instance(61)
        family = switched_state_family(psi, geom, mode)

        def in_position(a, b):
            s = family(a, b)
            return JointState(s.mode, s.branch_plus.to_position(),
                              None if s.branch_minus is None
                              else s.branch_minus.to_position())

        def centre_in_position(a, b):
            return in_position(a, b) if (a, b) == (g1, g2) else family(a, b)

        ref = qfim_numerical(family, (g1, g2), step=1e-4)
        for other in (in_position, centre_in_position):
            q = qfim_numerical(other, (g1, g2), step=1e-4)
            assert np.linalg.norm(q - ref) < 1e-11 * np.linalg.norm(ref)

    def test_matrices_are_symmetric_float_arrays(self):
        gm = GeneratorMoments(1.3, 0.4, 0.1, 0.2, 1.0, 1.2, np.arange(1, 6), 0.03, -0.05)
        for closed in (qfim_sequential, qfim_quantum_switch, qfim_classical_switch):
            q = closed(gm)
            assert q.dtype == np.float64 and q.shape == (5, 2, 2)
            assert np.array_equal(q, q.transpose(0, 2, 1))
        geom, psi, g1, g2 = grid_instance(11)
        q = qfim_numerical(switched_state_family(psi, geom, SwitchMode.QUANTUM_SWITCH),
                           (g1, g2), step=1e-4)
        assert q.dtype == np.float64 and q.shape == (2, 2) and q[0, 1] == q[1, 0]

    def test_nan_amplitude_fails_by_name(self):
        # a NaN compares false both with 0 and with the disagreement limit
        geom, psi, g1, g2 = grid_instance(41, with_offsets=False)
        family = switched_state_family(psi, geom, SwitchMode.SEQUENTIAL)

        def poisoned(a, b):
            s = family(a, b)
            amps = s.branch_plus.amplitudes.copy()
            amps[7] = math.nan
            branch = WaveFunction(psi.grid, amps, s.branch_plus.representation)
            return JointState(SwitchMode.SEQUENTIAL, branch, None)

        with pytest.raises(ConvergenceError, match="not finite"):
            qfim_numerical(poisoned, (g1, g2), step=1e-4)

    def test_convergence_guard_raises(self):
        geom, psi, g1, g2 = grid_instance(41, with_offsets=False)
        family = switched_state_family(psi, geom, SwitchMode.QUANTUM_SWITCH)
        with pytest.raises(ConvergenceError):
            qfim_numerical(family, (g1, g2), step=3.0)


class TestQcrb:
    def test_sequential_bound_examples(self):
        # 1/(4 N^2 VarX) for zero covariance; w0 = 2, N = 2 gives 1/16
        gm = GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 1.0, 2)
        bound = qcrb_global(qfim_sequential(gm), 2, 1.0)
        assert bound == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_sequential_bound_with_covariance(self):
        # closed form 1/(4 N^2 (VarX - Cov^2/VarP))
        gm = GeneratorMoments(1.0, 0.5, 0.3, 0.2, 1.0, 1.4, 3)
        bound = qcrb_global(qfim_sequential(gm), 3, 1.4)
        expected = 1.0 / (4 * 9 * (1.0 - 0.09 / 0.5))
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_classical_switch_unit_bound(self):
        # 1/(N^2 (N+1)^2 / 4 + 4 N^2) at w0 = 2, k = zbar = 1; N = 1 gives 1/5
        bound = qcrb_global(qfim_classical_switch(GM_UNIT), 1, 1.0)
        assert bound == pytest.approx(0.2, rel=1e-12)
        for n in (2, 5, 9):
            gm = GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 1.0, n)
            bound = qcrb_global(qfim_classical_switch(gm), n, 1.0)
            expected = 1.0 / (n**2 * (n + 1) ** 2 / 4 + 4 * n**2)
            assert bound == pytest.approx(expected, rel=1e-12)

    def test_singular_probe_alone_projection(self):
        q = fisher._var_h0(GM_UNIT) * np.ones((2, 2))
        assert qcrb_global(q, 1, 1.0) == pytest.approx(0.2, rel=1e-12)

    def test_qcrb_global_takes_one_2x2_matrix(self):
        for bad in (np.eye(3), np.ones(2), np.ones((1, 2, 2))):
            with pytest.raises(DomainError, match="expected a 2x2 information matrix"):
                qcrb_global(bad, 2, 1.0)

    def test_estimability_error(self):
        # rank-1 matrix whose range excludes the (1,1) Jacobian direction
        with pytest.raises(EstimabilityError, match="not estimable"):
            qcrb_global(np.array([[1.0, 0.0], [0.0, 0.0]]), 2, 1.0)
        with pytest.raises(EstimabilityError, match="zero"):
            qcrb_global(np.zeros((2, 2)), 2, 0.4)

    def test_overflowed_matrix_is_named_with_its_sensor_count(self):
        # Var X u^2 is finite, but 4 (a + b + 2c) overflows to inf
        huge = qfim_sequential(GeneratorMoments(1.7e308, 1.0, 0.0, 0.0, 1.0, 0.5, 1))
        with pytest.raises(DomainError, match="overflow the float range at N = 1$"):
            qcrb_global(huge, 1, 0.5)


class TestProbeAlone:
    def test_matches_classical_switch_exactly(self):
        for n in range(1, 51):
            gm = GeneratorMoments(1e-6, 25e4, 0.0, 0.0, 8.05e6, 0.2, n)
            alone = probe_alone_qfi_at_origin(gm)
            csw = qcrb_global(qfim_classical_switch(gm), n, 0.2)
            assert abs(alone - csw) / csw < 1e-12

    def test_identity_holds_with_covariance(self):
        # pins the covariance entering Var(H0) linearly: with a quadratic
        # term the identity below breaks at the first digit
        for cov in (-0.3, 0.2, 0.45):
            for n in (1, 3, 7):
                gm = GeneratorMoments(1.0, 0.5, cov, 0.0, 1.0, 1.2, n)
                alone = probe_alone_qfi_at_origin(gm)
                csw = qcrb_global(qfim_classical_switch(gm), n, 1.2)
                assert abs(alone - csw) / csw < 1e-12

    def test_var_h0_formula(self):
        # Var(H0) = VarP/k^2 + 4 VarX/span^2 for zero covariance
        gm = GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 1.0, 1)
        var_h0 = 0.25 + 4.0 / 4.0
        assert probe_alone_qfi_at_origin(gm) == pytest.approx(1.0 / (1 * 4 * var_h0),
                                                              rel=1e-12)

    def test_bound_out_of_range_is_named_by_its_first_sensor_count(self):
        # at zbar = 2e153, N^2 ((N+1) zbar)^2 Var(H0) overflows from N = 3 on;
        # an array of N raises the scalar's message, and without a
        # RuntimeWarning (an error under the suite's warning filter)
        def gm(n):
            return GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 2e153, n)
        assert probe_alone_qfi_at_origin(gm(2)) > 0
        message = r"^bound 0 at N = 3 is not positive and finite$"
        for n in (3, np.array([1, 3, 2, 4])):
            with pytest.raises(DomainError, match=message):
                probe_alone_qfi_at_origin(gm(n))

    def test_scaled_bound_approaches_momentum_limit(self):
        gm = lambda n: GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 1.0, n)
        limit = 1.0 / (1.0**2 * 0.25) * 1.0  # k^2/(zbar^2 VarP) = 4
        assert probe_alone_qfi_at_origin(gm(1500)) * 1500**4 == pytest.approx(
            4.0, rel=5e-3)


class TestStrategyProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_convexity_probe_alone_below_classical(self, seed):
        geom, psi, _, _ = grid_instance(seed)
        gm = GeneratorMoments.from_moments(moments(psi), 1.0, geom.z_bar,
                                           geom.n_sensors)
        diff = qfim_classical_switch(gm) \
            - fisher._var_h0(gm) * np.ones((2, 2))
        evals = np.linalg.eigvalsh(diff)
        assert np.all(evals >= -1e-10 * np.trace(qfim_classical_switch(gm)))
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert v @ diff @ v >= -1e-12

    def test_switch_strategies_beat_sequential(self):
        # at the theta-bar level for zero-covariance Gaussians, N >= 2
        for n in range(2, 51):
            gm = GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 1.0, n)
            seq = qcrb_global(qfim_sequential(gm), n, 1.0)
            qsw = qcrb_global(qfim_quantum_switch(gm), n, 1.0)
            csw = qcrb_global(qfim_classical_switch(gm), n, 1.0)
            assert qsw <= seq * (1 + 1e-12)
            assert csw <= seq * (1 + 1e-12)

    def test_classical_switch_bound_decreases_in_n(self):
        bounds = []
        scaled = []
        for n in range(1, 80):
            gm = GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 1.0, n)
            bound = qcrb_global(qfim_classical_switch(gm), n, 1.0)
            bounds.append(bound)
            scaled.append(bound * n**4)
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        # the N^4-scaled bound approaches its limit monotonically
        limit = 4.0
        gaps = [abs(s - limit) for s in scaled]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


class TestGeneratorMoments:
    def test_from_probe_spec_matches_grid(self, unit_grid):
        spec = ProbeSpec(2.0, 1.0, center_p=0.4)
        analytic = GeneratorMoments.from_probe_spec(spec, 1.0, 2)
        measured = GeneratorMoments.from_moments(
            moments(make_gaussian(spec, unit_grid)), 1.0, 1.0, 2)
        assert analytic.var_x == pytest.approx(measured.var_x, rel=1e-9)
        assert analytic.var_p == pytest.approx(measured.var_p, rel=1e-9)
        assert analytic.mean_p == pytest.approx(measured.mean_p, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorMoments(-1.0, 0.25, 0.0, 0.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            GeneratorMoments(1.0, 0.25, 0.0, 0.0, 1.0, 1.0, 0)
