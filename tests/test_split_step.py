"""Split-step traversal: exactly tracked guard moments and reused phase masks."""

import math

import numpy as np
import pytest

from cyclesense import (Grid, GridOverflowError, JointState, KickVector, Moments,
                        NetworkGeometry, ProbeSpec, SwitchMode, WaveFunction,
                        apply_kick, apply_parity, apply_propagation, apply_shift,
                        make_gaussian, moments, qfim_numerical,
                        switched_state_family, traverse_sequence)
from cyclesense import network
from cyclesense.grid import MOMENTUM

from conftest import LAB_WAVE_NUMBER


def random_instance(seed):
    """Dimensionless network with N <= 6, leads and a probe with offsets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    geom = NetworkGeometry(tuple(rng.uniform(0.5, 2.0, n + 1)),
                           lead_in=float(rng.uniform(0.0, 1.0)),
                           lead_out=float(rng.uniform(0.0, 1.0)), wave_number=1.0)
    kicks = KickVector(tuple(rng.uniform(-0.1, 0.1, n)))
    spec = ProbeSpec(float(rng.uniform(1.0, 2.0)), 1.0,
                     center_x=float(rng.uniform(-0.3, 0.3)),
                     center_p=float(rng.uniform(-0.2, 0.2)))
    grid = Grid.for_probe(spec, geom.z_total, 1 << 12)
    return geom, kicks, make_gaussian(spec, grid)


def lab_instance(n, theta_bar, num_points):
    """The wva-sim geometry: 2 mm waist, 20 cm legs, 32.5 cm lead-in."""
    spec = ProbeSpec(2e-3, LAB_WAVE_NUMBER)
    geom = NetworkGeometry.uniform(n, 0.2, 0.325, 0.0, LAB_WAVE_NUMBER)
    grid = Grid.for_probe(spec, geom.z_total, num_points)
    return geom, KickVector.uniform(n, theta_bar), make_gaussian(spec, grid)


def assert_tracked_match_grid(psi, tol=1e-9):
    tracked, measured = psi.guard_moments, moments(psi)
    assert tracked is not None
    dx, dp = math.sqrt(measured.var_x), math.sqrt(measured.var_p)
    assert abs(tracked.mean_x - measured.mean_x) / dx < tol
    assert abs(tracked.mean_p - measured.mean_p) / dp < tol
    assert tracked.var_x == pytest.approx(measured.var_x, rel=tol)
    assert tracked.var_p == pytest.approx(measured.var_p, rel=tol)
    # the covariance is measured against the spread it can reach
    assert abs(tracked.cov_xp - measured.cov_xp) < tol * dx * dp


class TestTrackedMoments:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("direction,parity", [("forward", False),
                                                  ("reverse", True)])
    def test_random_traversals(self, seed, direction, parity):
        geom, kicks, psi = random_instance(seed)
        out = traverse_sequence(psi, geom, kicks, direction,
                                parity_conjugated=parity, include_leads=True)
        assert_tracked_match_grid(out)

    @pytest.mark.parametrize("direction,parity", [("forward", False),
                                                  ("reverse", True)])
    def test_lab_geometry_at_n200(self, direction, parity):
        geom, kicks, psi = lab_instance(200, 0.01, 1 << 12)
        out = traverse_sequence(psi, geom, kicks, direction,
                                parity_conjugated=parity, include_leads=True)
        assert_tracked_match_grid(out)

    def test_shift_and_parity_carry_moments(self, unit_probe):
        psi = apply_propagation(apply_kick(unit_probe, 0.3), 1.5, 1.0)
        assert_tracked_match_grid(apply_parity(apply_shift(psi, 0.7)))

    def test_moments_measure_the_grid(self, unit_probe):
        # wrong carried moments steer the guard, never the measurement
        psi = apply_kick(unit_probe, 0.4)
        m = psi.guard_moments
        bogus = WaveFunction(psi.grid, psi.amplitudes, psi.representation,
                             Moments(5.0, 5.0, m.var_x, m.var_p, 0.0))
        assert moments(bogus).mean_p == pytest.approx(-0.4, abs=1e-9)
        assert repr(bogus) == repr(psi)

    def test_zero_propagation_measures_nothing(self, unit_probe, monkeypatch):
        def fail(psi):
            raise AssertionError("moments measured for a zero-length step")
        monkeypatch.setattr(network, "moments", fail)
        assert apply_propagation(unit_probe, 0.0, 1.0).guard_moments is None

    def test_one_grid_measurement_per_traversal(self, monkeypatch):
        geom, kicks, psi = lab_instance(50, 0.01, 1 << 10)
        counts = {"fft": 0, "moments": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted("fft", np.fft.ifft))
        monkeypatch.setattr(network, "moments", counted("moments", network.moments))
        traverse_sequence(psi, geom, kicks, "forward", include_leads=True)
        assert counts["moments"] <= 1
        assert counts["fft"] <= 2 * geom.n_sensors + 6


class TestGuards:
    def test_momentum_window_guard(self):
        psi = make_gaussian(ProbeSpec(1.0, 1.0), Grid(1 << 6, 8.0))
        apply_kick(psi, 2.0)          # |<P> - theta| + 2 DeltaP = 4 < pi/(2 dx)
        with pytest.raises(GridOverflowError, match="momentum window"):
            apply_kick(psi, 10.0)

    def test_guard_decisions_match_measured_moments(self, monkeypatch):
        """Tracked guards decide like guards measuring every intermediate state."""

        def outcome(geom, kicks, psi):
            try:
                traverse_sequence(psi, geom, kicks, include_leads=True)
            except GridOverflowError as exc:
                return str(exc).split()[0]     # which guard: kicking/propagating
            return "passed"

        def measuring(step):
            def wrapper(psi, *args):
                bare = WaveFunction(psi.grid, psi.amplitudes, psi.representation)
                return step(bare, *args)
            return wrapper

        cases = [lab_instance(n, float(t), 1 << 10) for n in (9, 50, 200)
                 for t in np.geomspace(0.01, 1e4, 20)]
        tracked = [outcome(*case) for case in cases]
        monkeypatch.setattr(network, "apply_kick", measuring(apply_kick))
        monkeypatch.setattr(network, "apply_propagation",
                            measuring(apply_propagation))
        measured = [outcome(*case) for case in cases]
        assert tracked == measured
        assert {"passed", "propagating", "kicking"} <= set(tracked)


class TestPhaseMasks:
    def test_alternating_keys_give_correct_masks(self):
        grids = (Grid(1 << 8, 10.0), Grid(1 << 9, 6.0))
        for _ in range(2):
            for g in grids:
                for theta in (0.3, -1.1):
                    assert np.array_equal(g.kick_mask(theta),
                                          np.exp(-1j * theta * g.positions))
                for z, k in ((0.5, 1.0), (2.0, 3.0)):
                    assert np.array_equal(
                        g.propagation_mask(z, k),
                        np.exp(-1j * z * g.momenta**2 / (2.0 * k)))

    @pytest.mark.parametrize("num_points", [1 << 10, 1 << 14])
    def test_phases_match_complex_exp(self, num_points):
        # cos/sin on half the grid, mirrored, against np.exp on all of it;
        # angles reach ~1e4 rad at the window edges
        g = Grid(num_points, 3.0)
        x_max, p_max = g.half_extent, math.pi / g.dx
        atol = 4 * np.finfo(float).eps
        flat = WaveFunction(g, np.ones(num_points), MOMENTUM)
        for a in (1e4, -37.5, 0.0):
            theta, d, k = a / x_max, a / p_max, 2.5
            z = 2.0 * k * abs(a) / p_max**2
            np.testing.assert_allclose(g.kick_mask(theta),
                                       np.exp(-1j * theta * g.positions),
                                       rtol=0, atol=atol, equal_nan=False)
            np.testing.assert_allclose(g.propagation_mask(z, k),
                                       np.exp(-1j * z * g.momenta**2 / (2.0 * k)),
                                       rtol=0, atol=atol, equal_nan=False)
            np.testing.assert_allclose(apply_shift(flat, d).amplitudes,
                                       np.exp(-1j * d * g.momenta),
                                       rtol=0, atol=atol, equal_nan=False)

    def test_masks_are_read_only(self):
        g = Grid(1 << 8, 10.0)
        for mask in (g.kick_mask(0.2), g.propagation_mask(1.0, 1.0)):
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = 0.0


class TestBranchFamilies:
    def test_one_centre_build_and_no_inverse_transforms(self, monkeypatch):
        """9 builds per matrix (centre, then 2 x 4 steps), each one forward FFT
        per branch of the shifted state; differences stay in momentum space.
        The classical mixture builds only the two branches it differentiates."""
        psi = make_gaussian(ProbeSpec(2.0, 1.0), Grid(1 << 10, 24.0))
        moments(psi)                          # measured once, before counting
        geom = NetworkGeometry.uniform(2, 1.0, wave_number=1.0)
        counts = {}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
        for mode, ffts in ((SwitchMode.SEQUENTIAL, 9),
                           (SwitchMode.CLASSICAL_SWITCH, 18)):
            counts.update(builder=0, fft=0, ifft=0)
            build = switched_state_family(psi, geom, mode)
            qfim_numerical(counted("builder", build), (0.03, -0.05))
            assert counts == {"builder": 9, "fft": ffts, "ifft": 0}, mode

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.2, 0.8)])
    def test_labeled_mixture_is_the_weighted_branch_average(self, unit_probe,
                                                            weights):
        geom = NetworkGeometry.uniform(2, 1.0, wave_number=1.0)
        at = (0.03, -0.05)
        family = switched_state_family(unit_probe, geom, SwitchMode.QUANTUM_SWITCH)

        def mixture(a, b):
            s = family(a, b)
            return JointState(s.branch_plus, s.branch_minus, weights, 0.0)

        def only(pick):
            def build(a, b):
                return JointState(getattr(family(a, b), pick), None, (1.0, 0.0), 0.0)
            return build

        mixed = qfim_numerical(mixture, at, step=1e-4).as_array()
        average = (weights[0] * qfim_numerical(only("branch_plus"), at,
                                               step=1e-4).as_array()
                   + weights[1] * qfim_numerical(only("branch_minus"), at,
                                                 step=1e-4).as_array())
        assert np.linalg.norm(mixed - average) / np.linalg.norm(average) < 1e-12
