import math

import numpy as np
import pytest

from cyclesense import (CompositeEvolution, DomainError, Grid, GridOverflowError,
                        JointState, KickVector, NetworkGeometry, ProbeSpec,
                        RunConfig, SwitchMode,
                        apply_kick, apply_propagation, apply_shift,
                        composite_apply, fidelity, g_params, make_gaussian,
                        moments, overlap, switched_state_family, traverse_sequence)
from cyclesense.oracle import _random_instance

from conftest import parity


def random_instance(seed, max_sensors=6):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_sensors + 1))
    geom = NetworkGeometry(tuple(rng.uniform(0.5, 2.0, n + 1)), wave_number=1.0)
    kicks = KickVector(tuple(rng.uniform(-0.1, 0.1, n)))
    spec = ProbeSpec(float(rng.uniform(1.0, 2.0)), 1.0)
    grid = Grid.for_probe(spec, geom.z_total, 1 << 13)
    return geom, kicks, make_gaussian(spec, grid)


class TestGeometryTypes:
    def test_averages(self):
        geom = NetworkGeometry((1.0, 2.0, 3.0), lead_in=0.5)
        assert geom.n_sensors == 2
        assert geom.z_bar == pytest.approx(2.0)
        assert geom.z_total == pytest.approx(6.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkGeometry((1.0,))
        with pytest.raises(ValueError):
            NetworkGeometry((1.0, -0.1))
        with pytest.raises(ValueError):
            KickVector(())

    @pytest.mark.parametrize("cls,args,kwargs,name", [
        (NetworkGeometry, ((1.0, math.nan),), {"lead_in": math.nan}, "leg distances"),
        (NetworkGeometry, ((1.0, math.inf),), {}, "leg distances"),
        (NetworkGeometry, ((1.0, 1.0),), {"lead_in": math.nan}, "lead_in"),
        (NetworkGeometry, ((1.0, 1.0),), {"wave_number": math.inf}, "wave_number"),
        (ProbeSpec, (math.inf, 1.0), {}, "waist_radius"),
        (ProbeSpec, (math.nan, 1.0), {}, "waist_radius"),
        (ProbeSpec, (1.0, math.inf), {"center_p": math.nan}, "wave_number"),
        (KickVector, ((0.01, math.nan, 0.01),), {}, "kicks"),
        (KickVector, ((math.inf,),), {}, "kicks"),
    ], ids=["legs-nan", "legs-inf", "lead-in-nan", "geom-k-inf",
            "waist-inf", "waist-nan", "probe-k-inf-center-p-nan", "kick-nan",
            "kick-inf"])
    def test_non_finite_inputs_fail_by_name(self, cls, args, kwargs, name):
        with pytest.raises(DomainError, match=f"^{name} must be "):
            cls(*args, **kwargs)

    @pytest.mark.parametrize("geometry", [
        lambda: NetworkGeometry((0.0, 0.0)),
        lambda: NetworkGeometry((5e-324, 0.0)),          # the mean underflows
        lambda: NetworkGeometry.uniform(1, 1e308),        # the legs' sum overflows
        lambda: NetworkGeometry((1e308, 0.0), lead_in=1e308),
    ], ids=["zero-legs", "mean-underflow", "legs-overflow", "total-overflow"])
    def test_legs_need_a_positive_mean_and_a_finite_total(self, geometry):
        with pytest.raises(DomainError, match="^legs must have a positive mean z_bar"):
            geometry()

    def test_kick_vector_tilts(self):
        kicks = KickVector((2.0, 4.0))
        assert kicks.theta_bar == 3.0
        assert tuple(t / 10.0 for t in kicks.thetas) == (0.2, 0.4)


class TestElementaryOps:
    def test_zero_kick_is_identity(self, unit_probe):
        out = apply_kick(unit_probe, 0.0)
        assert np.max(np.abs(out.amplitudes - unit_probe.amplitudes)) == 0.0

    def test_kick_shifts_momentum(self, unit_grid, unit_probe):
        # oracle: momentum-space moment quadrature
        out = apply_kick(unit_probe, 5.0).to_momentum()
        w = np.abs(out.amplitudes) ** 2 * unit_grid.dp
        mean_p = np.sum(unit_grid.momenta * w)
        var_p = np.sum((unit_grid.momenta - mean_p) ** 2 * w)
        assert mean_p == pytest.approx(-5.0, abs=1e-9)
        assert var_p == pytest.approx(0.25, rel=1e-9)
        m = moments(apply_kick(unit_probe, 5.0))
        assert m.var_x == pytest.approx(1.0, rel=1e-10)

    def test_kicks_compose_additively(self, unit_probe):
        a = apply_kick(apply_kick(unit_probe, 0.7), -0.2)
        b = apply_kick(unit_probe, 0.5)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-14

    def test_zero_propagation_is_identity(self, unit_probe):
        out = apply_propagation(unit_probe, 0.0, 1.0).to_position()
        assert np.max(np.abs(out.amplitudes - unit_probe.amplitudes)) < 1e-14

    def test_propagations_compose_additively(self, unit_probe):
        a = apply_propagation(apply_propagation(unit_probe, 1.0, 1.0), 2.0, 1.0)
        b = apply_propagation(unit_probe, 3.0, 1.0)
        assert np.max(np.abs(a.to_position().amplitudes
                             - b.to_position().amplitudes)) < 1e-12

    def test_propagation_preserves_momentum_density(self, unit_grid, unit_probe):
        out = apply_propagation(unit_probe, 2.5, 1.0)
        before = np.abs(unit_probe.to_momentum().amplitudes) ** 2
        after = np.abs(out.to_momentum().amplitudes) ** 2
        assert np.max(np.abs(after - before)) < 1e-12

    def test_propagation_transports_mean_x(self, unit_grid):
        psi = make_gaussian(ProbeSpec(2.0, 1.0, center_p=0.5), unit_grid)
        m = moments(apply_propagation(psi, 2.0, 1.0))
        assert m.mean_x == pytest.approx(2.0 * 0.5, rel=1e-9)

    def test_overflow_guard(self):
        spec = ProbeSpec(1.0, 1.0)
        psi = make_gaussian(spec, Grid(1 << 10, 8.0))
        with pytest.raises(GridOverflowError):
            apply_propagation(psi, 50.0, 1.0)

    def test_shift_translates(self, unit_grid, unit_probe):
        m = moments(apply_shift(unit_probe, 0.8))
        assert m.mean_x == pytest.approx(0.8, abs=1e-10)
        assert m.mean_p == pytest.approx(0.0, abs=1e-10)


#: row of each order in the (forward, reverse) pair traverse_sequence returns
ORDER = {"forward": 0, "reverse": 1}


def mirrored(geom, kicks):
    """The network read backwards: its reverse order is the forward order of
    (geom, kicks), step for step."""
    return (NetworkGeometry(geom.distances[::-1], geom.lead_in, geom.wave_number),
            KickVector(kicks.thetas[::-1]))


def parity_identity_error(psi, geom, kicks, direction):
    """Worst relative amplitude gap between P T(theta) P psi and T(-theta) psi,
    for the forward order through the mirrored network's reverse row."""
    if direction == "forward":
        geom, kicks = mirrored(geom, kicks)
    sandwiched = parity(traverse_sequence(parity(psi), geom, kicks)[1])
    negated = traverse_sequence(psi, geom,
                                KickVector(tuple(-t for t in kicks.thetas)))[1]
    return (np.max(np.abs(sandwiched.amplitudes - negated.amplitudes))
            / np.max(np.abs(negated.amplitudes)))


class TestParityIdentity:
    """Parity maps X to -X, so it negates every kick and commutes with propagation."""

    def test_random_instances_both_directions(self):
        rng = np.random.default_rng(4100)
        worst = 0.0
        for _ in range(20):
            geom, kicks, psi = _random_instance(rng, 1 << 14)
            for direction in ("forward", "reverse"):
                worst = max(worst, parity_identity_error(psi, geom, kicks, direction))
        assert worst < 1e-12

    def test_lab_geometry_at_200_sensors(self):
        cfg = RunConfig()
        geom = cfg.geometry(200)
        psi = make_gaussian(cfg.probe_spec(), cfg.grid(200))
        psi = apply_propagation(psi, geom.lead_in, geom.wave_number)
        kicks = KickVector.uniform(200, cfg.theta_bar)
        assert parity_identity_error(psi, geom, kicks, "reverse") < 1e-12


class TestGParams:
    def test_two_sensor_hand_values(self):
        # z = (1,1,1), kicks (a,b): g1 = a + 2b, g2 = 2a + b by direct sums
        a, b = 0.3, -0.7
        comp = g_params(NetworkGeometry((1.0, 1.0, 1.0), wave_number=1.0),
                        KickVector((a, b)))
        assert comp.g1 == pytest.approx(a + 2 * b)
        assert comp.g2 == pytest.approx(2 * a + b)
        assert comp.g1 + comp.g2 == pytest.approx(3 * (a + b))

    def test_zero_kicks_vanish(self):
        comp = g_params(NetworkGeometry((1.0, 2.0), wave_number=1.0), KickVector((0.0,)))
        assert comp.g1 == comp.g2 == comp.xi1 == comp.xi2 == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_identities_random_instances(self, seed):
        geom, kicks, _ = random_instance(seed)
        comp = g_params(geom, kicks)
        n = geom.n_sensors
        span = (n + 1) * geom.z_bar
        assert comp.g1 + comp.g2 == pytest.approx(span * n * kicks.theta_bar, rel=1e-12)
        # independent evaluation of both sides of the phase-difference identity
        assert comp.xi1 - comp.xi2 == pytest.approx(
            (comp.g1**2 - comp.g2**2) / span, rel=1e-12, abs=1e-16)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            g_params(NetworkGeometry((1.0, 1.0), wave_number=1.0), KickVector((0.1, 0.2)))


class TestTraversal:
    def test_zero_kicks_orders_agree(self, unit_probe):
        geom = NetworkGeometry((1.0, 0.5, 1.5), wave_number=1.0)
        kicks = KickVector((0.0, 0.0))
        fwd, rev = traverse_sequence(unit_probe, geom, kicks)
        assert np.max(np.abs(fwd.amplitudes - rev.amplitudes)) < 1e-12

    def test_single_symmetric_sensor_orders_agree(self, unit_probe):
        geom = NetworkGeometry((1.0, 1.0), wave_number=1.0)
        kicks = KickVector((0.08,))
        fwd, rev = traverse_sequence(unit_probe, geom, kicks)
        assert fidelity(fwd, rev) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_composite_matches_brute_force(self, seed, direction):
        geom, kicks, psi = random_instance(seed)
        comp = g_params(geom, kicks)
        brute = traverse_sequence(psi, geom, kicks)[ORDER[direction]]
        reduced = composite_apply(psi, geom, comp)[ORDER[direction]]
        assert fidelity(brute, reduced) >= 1.0 - 1e-12
        assert np.max(np.abs(brute.amplitudes
                             - reduced.to_position().amplitudes)) < 1e-12

    def test_unitarity(self):
        for seed in (3, 5):
            geom, kicks, psi = random_instance(seed)
            for out in traverse_sequence(psi, geom, kicks):
                assert abs(out.norm() - 1.0) < 1e-10

    def test_kick_propagation_commutator(self, unit_probe):
        # ordered difference: propagate-then-kick vs kick-then-propagate
        # displaces the mean position by (z/k) * theta
        z, theta = 2.0, 0.4
        a = apply_propagation(apply_kick(unit_probe, theta), z, 1.0)
        b = apply_kick(apply_propagation(unit_probe, z, 1.0), theta)
        shift = moments(a).mean_x - moments(b).mean_x
        assert shift == pytest.approx(-z * theta, rel=1e-9)

    def test_parity_sandwiches_only_the_reverse_order(self, unit_probe):
        geom = NetworkGeometry((1.0, 1.2), wave_number=1.0)
        kicks = KickVector((0.05,))
        psi = apply_propagation(unit_probe, 0.7, 1.0)        # an input in momentum space
        fwd, rev = traverse_sequence(psi, geom, kicks, parity_reverse=True)
        plain_fwd, plain_rev = traverse_sequence(psi.to_position(), geom, kicks)
        _, manual = traverse_sequence(parity(psi).to_position(), geom, kicks)
        manual = parity(manual)
        assert np.max(np.abs(fwd.amplitudes - plain_fwd.amplitudes)) < 1e-12
        assert np.max(np.abs(rev.amplitudes - manual.amplitudes)) < 1e-12
        assert np.max(np.abs(rev.amplitudes - plain_rev.amplitudes)) > 1e-3


class TestSwitchedBranches:
    def test_zero_kicks_branches_identical(self, unit_probe):
        geom = NetworkGeometry((1.0, 1.0), wave_number=1.0)
        kicks = KickVector((0.0,))
        fwd, rev = traverse_sequence(unit_probe, geom, kicks)
        assert fidelity(fwd, rev) == pytest.approx(1.0, abs=1e-12)
        st = switched_state_family(unit_probe, geom, SwitchMode.QUANTUM_SWITCH)(0.0, 0.0)
        assert fidelity(st.branch_plus, st.branch_minus) == pytest.approx(1.0, abs=1e-12)
        assert st.mode == SwitchMode.QUANTUM_SWITCH and st.is_pure

    @pytest.mark.parametrize("seed", range(6))
    def test_relative_dynamic_phase(self, seed):
        # oracle: phase of <reverse branch | forward branch> on the grid
        geom, kicks, psi = random_instance(seed)
        fwd, rev = traverse_sequence(psi, geom, kicks)
        comp = g_params(geom, kicks)
        span = (geom.n_sensors + 1) * geom.z_bar
        predicted = (comp.g1**2 - comp.g2**2) / (2.0 * geom.wave_number * span)
        ov = overlap(rev, fwd)
        assert math.atan2(ov.imag, ov.real) == pytest.approx(predicted, abs=1e-10)


class TestJointStateValidation:
    def test_sequential_state_drops_its_reverse_branch(self, unit_probe):
        st = JointState(SwitchMode.SEQUENTIAL, unit_probe, unit_probe)
        assert st.branch_minus is None
        assert st.is_pure and st.branches == ((1.0, unit_probe),)

    @pytest.mark.parametrize("mode", [SwitchMode.QUANTUM_SWITCH,
                                      SwitchMode.CLASSICAL_SWITCH])
    def test_switch_labels_both_branches_equally(self, unit_probe, mode):
        other = parity(unit_probe)
        st = JointState(mode, unit_probe, other)
        assert st.branch_minus is other
        assert st.branches == ((0.5, unit_probe), (0.5, other))
        assert st.is_pure == (mode == SwitchMode.QUANTUM_SWITCH)

    @pytest.mark.parametrize("mode", [SwitchMode.QUANTUM_SWITCH,
                                      SwitchMode.CLASSICAL_SWITCH])
    def test_switch_without_reverse_branch_fails_by_name(self, unit_probe, mode):
        with pytest.raises(DomainError, match="needs a reverse branch"):
            JointState(mode, unit_probe, None)

    def test_probe_alone_has_no_joint_state(self, unit_probe):
        with pytest.raises(DomainError, match="probe alone"):
            JointState(SwitchMode.PROBE_ALONE, unit_probe, unit_probe)

    def test_composite_evolution_is_plain_record(self):
        comp = CompositeEvolution(1.0, 2.0, 0.5, 0.25)
        assert (comp.g1, comp.g2, comp.xi1, comp.xi2) == (1.0, 2.0, 0.5, 0.25)
