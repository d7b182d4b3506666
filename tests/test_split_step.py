"""Split-step traversal: exactly tracked guard moments, reused phase masks and
both traversal orders walked as one stack, pinned against single-state walks."""

import gc
import math
import weakref

import numpy as np
import pytest

from cyclesense import (DomainError, Grid, GridOverflowError, JointState,
                        KickVector, Moments, NetworkGeometry, PostSelection, ProbeSpec,
                        SwitchMode, WaveFunction, apply_kick, apply_parity,
                        apply_propagation, apply_shift, make_gaussian, moments,
                        qfim_numerical, switched_state_family, traverse_sequence,
                        wva_final_probe)
from cyclesense import grid as grid_module, network
from cyclesense.grid import MOMENTUM, POSITION, symmetric_phase
from cyclesense.oracle import _random_instance

from conftest import LAB_WAVE_NUMBER


def random_instance(seed):
    """Dimensionless network with N <= 6, a lead-in and a probe with offsets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    geom = NetworkGeometry(tuple(rng.uniform(0.5, 2.0, n + 1)),
                           lead_in=float(rng.uniform(0.0, 1.0)), wave_number=1.0)
    kicks = KickVector(tuple(rng.uniform(-0.1, 0.1, n)))
    spec = ProbeSpec(float(rng.uniform(1.0, 2.0)), 1.0,
                     center_x=float(rng.uniform(-0.3, 0.3)),
                     center_p=float(rng.uniform(-0.2, 0.2)))
    grid = Grid.for_probe(spec, geom.z_total, 1 << 12)
    return geom, kicks, make_gaussian(spec, grid)


def lab_instance(n, theta_bar, num_points):
    """The wva-sim geometry: 2 mm waist, 20 cm legs, 32.5 cm lead-in."""
    spec = ProbeSpec(2e-3, LAB_WAVE_NUMBER)
    geom = NetworkGeometry.uniform(n, 0.2, 0.325, LAB_WAVE_NUMBER)
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


def pair_after_lead_in(psi, geom, kicks):
    """Both orders (reverse parity-sandwiched) after the lead-in."""
    return traverse_sequence(apply_propagation(psi, geom.lead_in, geom.wave_number),
                             geom, kicks, parity_reverse=True)


class TestTrackedMoments:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traversals(self, seed):
        geom, kicks, psi = random_instance(seed)
        for row in pair_after_lead_in(psi, geom, kicks):
            assert_tracked_match_grid(row)

    def test_lab_geometry_at_n200(self):
        geom, kicks, psi = lab_instance(200, 0.01, 1 << 12)
        for row in pair_after_lead_in(psi, geom, kicks):
            assert_tracked_match_grid(row)

    def test_shift_and_parity_carry_moments(self, unit_probe):
        psi = apply_propagation(apply_kick(unit_probe, 0.3), 1.5, 1.0)
        assert_tracked_match_grid(apply_parity(apply_shift(psi, 0.7)))

    def test_moments_measure_the_grid(self, unit_probe):
        # wrong carried moments steer the guard, never the measurement
        psi = apply_kick(unit_probe, 0.4)
        m = psi.guard_moments
        bogus = WaveFunction._adopt(psi.grid, psi.amplitudes, psi.representation,
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
        traverse_sequence(apply_propagation(psi, geom.lead_in, geom.wave_number),
                          geom, kicks, parity_reverse=True)
        assert counts["moments"] <= 1
        assert counts["fft"] <= 2 * geom.n_sensors + 6


class TestGuards:
    def test_momentum_window_guard(self):
        psi = make_gaussian(ProbeSpec(1.0, 1.0), Grid(1 << 6, 8.0))
        apply_kick(psi, 2.0)          # |<P> - theta| + 2 DeltaP = 4 < pi/(2 dx)
        with pytest.raises(GridOverflowError, match="momentum window"):
            apply_kick(psi, 10.0)

    def test_nan_steps_fail_by_name(self, unit_probe):
        with pytest.raises(GridOverflowError, match="^kicking by nan "):
            apply_kick(unit_probe, math.nan)
        with pytest.raises(DomainError, match="non-negative, got nan"):
            apply_propagation(unit_probe, math.nan, 1.0)

    @pytest.mark.parametrize("wave_number", [0.0, -1.0, math.inf, math.nan])
    def test_bad_wave_number_fails_by_name(self, unit_probe, wave_number):
        with pytest.raises(DomainError, match="^wave_number must be positive and finite"):
            apply_propagation(unit_probe, 1.0, wave_number)

    def test_every_step_guards_both_windows(self, unit_probe):
        # carried moments outside the window a step does not move stop it too
        m = moments(unit_probe)

        def carrying(mean_x, mean_p):
            return WaveFunction._adopt(unit_probe.grid, unit_probe.amplitudes, POSITION,
                                       Moments(mean_x, mean_p, m.var_x, m.var_p, 0.0))

        with pytest.raises(GridOverflowError, match="^kicking by 0.0 .*grid window"):
            apply_kick(carrying(1e3, 0.0), 0.0)
        with pytest.raises(GridOverflowError,
                           match="^propagating 1e-06 .*momentum window"):
            apply_propagation(carrying(0.0, 1e3), 1e-6, 1.0)

    def test_guard_decisions_match_measured_moments(self, monkeypatch):
        """Tracked guards decide like guards measuring every intermediate state."""

        def outcome(geom, kicks, psi):
            try:
                walked(psi, geom, kicks, "forward", include_lead_in=True)
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


def walked(psi, geom, kicks, direction, parity=False, include_lead_in=False):
    """One traversal order as single-state operator calls, step by step, with
    the lead-in outside the parity sandwich.  The steps are looked up in
    network at call time, so a test that replaces them there steers this walk."""
    k = geom.wave_number
    step = 1 if direction == "forward" else -1
    z, th = geom.distances[::step], kicks.thetas[::step]
    if include_lead_in and geom.lead_in > 0:
        psi = network.apply_propagation(psi, geom.lead_in, k)
    if parity:
        psi = network.apply_parity(psi)
    psi = network.apply_propagation(psi, z[0], k)
    for theta, leg in zip(th, z[1:]):
        psi = network.apply_propagation(network.apply_kick(psi, theta), leg, k)
    if parity:
        psi = network.apply_parity(psi)
    return psi.to_position()


def assert_same_bits(a, b):
    assert a.amplitudes.shape == b.amplitudes.shape
    assert np.array_equal(a.amplitudes.view(np.uint64), b.amplitudes.view(np.uint64))


def assert_pair_matches_walks(psi, geom, kicks, parity_reverse):
    """Each row of the pair has the bits of its order walked alone, step by step."""
    pair = traverse_sequence(psi, geom, kicks, parity_reverse)
    assert len(pair) == 2
    for row, direction, parity in zip(pair, ("forward", "reverse"),
                                      (False, parity_reverse)):
        assert row.representation == POSITION
        assert_same_bits(row, walked(psi, geom, kicks, direction, parity))


class TestStackedOrders:
    """Both orders in one (2, n) stack give every row the bits of its own walk."""

    @pytest.mark.parametrize("n", [9, 50, 200])
    def test_lab_geometry_with_leads_and_reverse_parity(self, n):
        geom, kicks, psi = lab_instance(n, 0.0125, 1 << 14)
        psi = apply_propagation(psi, geom.lead_in, geom.wave_number)
        assert_pair_matches_walks(psi, geom, kicks, True)

    def test_random_instances_with_non_uniform_legs_and_kicks(self):
        for seed in range(20):
            geom, kicks, psi = _random_instance(np.random.default_rng(seed), 1 << 14)
            assert_pair_matches_walks(psi, geom, kicks, False)

    @pytest.mark.parametrize("parity_reverse", [True, False])
    def test_parity_before_the_first_transform_without_lead_in(self, parity_reverse):
        geom = NetworkGeometry((0.7, 1.3, 0.9, 1.1), wave_number=1.0)
        kicks = KickVector((0.05, -0.08, 0.02))
        psi = make_gaussian(ProbeSpec(1.5, 1.0, center_x=0.2, center_p=-0.1),
                            Grid.for_probe(ProbeSpec(1.5, 1.0), geom.z_total, 1 << 12))
        assert psi.representation == POSITION
        assert_pair_matches_walks(psi, geom, kicks, parity_reverse)

    def test_grid_of_2_13_points(self):
        geom, kicks, psi = lab_instance(50, 0.0125, 1 << 13)
        psi = apply_propagation(psi, geom.lead_in, geom.wave_number)
        assert_pair_matches_walks(psi, geom, kicks, True)

    def test_mask_products_keep_the_amplitudes_first(self):
        # the complex product rounds differently as mask * amplitudes; from
        # 2^14 points numpy's temporary elision would swap the operands of
        # amplitudes * (unnamed mask)
        for num_points in (1 << 13, 1 << 14):
            _, _, single = lab_instance(3, 0.0, num_points)
            mask = symmetric_phase(single.grid.momenta, lambda p: -1e-3 * p, odd=True)
            assert np.array_equal(
                apply_shift(single, 1e-3).amplitudes.view(np.uint64),
                (single.to_momentum().amplitudes * mask).view(np.uint64))
        _, _, psi = lab_instance(3, 0.0, 1 << 14)
        g, k = psi.grid, LAB_WAVE_NUMBER
        stack = WaveFunction._adopt(
            g, np.array([psi.amplitudes, apply_parity(apply_kick(psi, 40.0)).amplitudes]),
            POSITION)
        kicked = apply_kick(stack, (30.0, -20.0))
        for row, a, theta in zip(kicked.rows(), stack.amplitudes, (30.0, -20.0)):
            assert np.array_equal(row.amplitudes.view(np.uint64),
                                  (a * g.kick_mask(theta)).view(np.uint64))
        mom = kicked.to_momentum()
        moved = apply_propagation(kicked, [0.2, 0.5], k)
        for row, a, z in zip(moved.rows(), mom.amplitudes, (0.2, 0.5)):
            assert np.array_equal(row.amplitudes.view(np.uint64),
                                  (a * g.propagation_mask(z, k)).view(np.uint64))

    def test_one_transform_per_step_for_both_orders(self, monkeypatch):
        geom, kicks, psi = lab_instance(50, 0.01, 1 << 10)
        moments(psi)                          # measured once, before counting
        shapes = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                shapes.append(a.shape)
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        traverse_sequence(apply_propagation(psi, geom.lead_in, geom.wave_number),
                          geom, kicks, parity_reverse=True)
        assert len(shapes) == 2 * geom.n_sensors + 2
        assert shapes[0] == (psi.grid.num_points,)          # the shared lead-in
        assert set(shapes[1:]) == {(2, psi.grid.num_points)}

    def test_guard_raises_when_either_order_would(self):
        """The stacked call fails exactly when one order walked alone fails,
        with the message of an order that fails."""
        outcomes = []
        for n in (9, 50):
            for t in np.geomspace(1.0, 1e4, 12):
                geom, _, psi = lab_instance(n, 0.0, 1 << 10)
                psi = apply_propagation(psi, geom.lead_in, geom.wave_number)
                kicks = KickVector(tuple(t * np.linspace(0.1, 2.0, n)))
                alone = []
                for direction, parity in (("forward", False), ("reverse", True)):
                    try:
                        walked(psi, geom, kicks, direction, parity)
                    except GridOverflowError as exc:
                        alone.append(str(exc))
                try:
                    traverse_sequence(psi, geom, kicks, parity_reverse=True)
                except GridOverflowError as exc:
                    assert str(exc) in alone
                    outcomes.append(len(alone))
                else:
                    assert alone == []
                    outcomes.append(0)
        assert {0, 1, 2} <= set(outcomes)

    def test_bad_inputs_fail_by_name(self, unit_probe):
        geom = NetworkGeometry.uniform(1, 1.0, wave_number=1.0)
        with pytest.raises(DomainError, match="^2 kicks for a network with 1 sensors"):
            traverse_sequence(unit_probe, geom, KickVector((0.1, 0.2)))


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

    def test_uniform_walk_builds_one_mask_of_each_kind(self, monkeypatch):
        geom, kicks, psi = lab_instance(50, 0.01, 1 << 10)
        built = []

        def counted(coordinates, angle, odd):
            built.append(odd)
            return symmetric_phase(coordinates, angle, odd)

        monkeypatch.setattr(grid_module, "symmetric_phase", counted)
        traverse_sequence(psi, geom, kicks, parity_reverse=True)
        assert sorted(built) == [False, True]       # one propagation, one kick

    def test_masks_are_freed_with_their_grid(self):
        """Reference counting alone frees a grid's masks: nothing outside the
        grid keeps them, and no cycle through the grid does."""
        def walked_masks():
            geom, kicks, psi = lab_instance(3, 0.01, 1 << 10)
            traverse_sequence(psi, geom, kicks)
            g = psi.grid
            return [weakref.ref(m) for m in (g.kick_mask(0.01),
                                              g.propagation_mask(0.2, LAB_WAVE_NUMBER))]

        enabled = gc.isenabled()
        gc.disable()
        try:
            refs = walked_masks()
            assert [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestBranchFamilies:
    @pytest.mark.parametrize("seed", range(4))
    def test_composite_pair_has_the_bits_of_its_steps(self, seed):
        """Each order of composite_apply is the shared kick and transform, then
        its own shift, the propagation over the span and its scalar phase."""
        geom, kicks, psi = _random_instance(np.random.default_rng(seed), 1 << 12)
        comp = network.g_params(geom, kicks)
        g, k = psi.grid, geom.wave_number
        span = (geom.n_sensors + 1) * geom.z_bar
        kicked = np.fft.fft(psi.amplitudes * g.kick_mask((comp.g1 + comp.g2) / span))
        kicked *= g.dx / math.sqrt(2.0 * math.pi)
        pair = network.composite_apply(psi, geom, comp)
        assert len(pair) == 2
        for branch, shift, xi in zip(pair, (comp.g1, comp.g2), (comp.xi1, comp.xi2)):
            mask = symmetric_phase(g.momenta, lambda p: -(shift / k) * p, odd=True)
            moved = kicked * mask * g.propagation_mask(span, k)
            ref = np.exp(-1j * xi / (2.0 * k)) * moved
            assert branch.representation == MOMENTUM
            assert np.array_equal(branch.amplitudes.view(np.uint64), ref.view(np.uint64))

    def test_one_centre_build_and_no_inverse_transforms(self, monkeypatch):
        """9 builds per matrix (centre, then 2 x 4 steps), each one forward FFT
        of the kicked state that both branches of its pair share; differences
        stay in momentum space.  Every mode pays the same transforms."""
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
                           (SwitchMode.CLASSICAL_SWITCH, 9)):
            counts.update(builder=0, fft=0, ifft=0)
            build = switched_state_family(psi, geom, mode)
            qfim_numerical(counted("builder", build), (0.03, -0.05), step=1e-4)
            assert counts == {"builder": 9, "fft": ffts, "ifft": 0}, mode

    def test_labeled_mixture_is_the_weighted_branch_average(self, unit_probe):
        geom = NetworkGeometry.uniform(2, 1.0, wave_number=1.0)
        at = (0.03, -0.05)
        family = switched_state_family(unit_probe, geom, SwitchMode.QUANTUM_SWITCH)

        def mixture(a, b):
            s = family(a, b)
            return JointState(SwitchMode.CLASSICAL_SWITCH, s.branch_plus, s.branch_minus)

        def only(pick):
            def build(a, b):
                return JointState(SwitchMode.SEQUENTIAL, getattr(family(a, b), pick), None)
            return build

        mixed = qfim_numerical(mixture, at, step=1e-4)
        average = (0.5 * qfim_numerical(only("branch_plus"), at, step=1e-4)
                   + 0.5 * qfim_numerical(only("branch_minus"), at, step=1e-4))
        assert np.linalg.norm(mixed - average) / np.linalg.norm(average) < 1e-12


def test_exact_readout_projects_the_walked_orders():
    """The exact readout has the bits of both orders walked alone after the
    lead-in and projected onto the post-selected polarization."""
    geom, kicks, psi = lab_instance(9, 0.0125, 1 << 14)
    ps = PostSelection.from_weak_value_magnitude(7.0)
    chi, prob = wva_final_probe(psi, geom, kicks, ps)
    fwd = walked(psi, geom, kicks, "forward", False, include_lead_in=True)
    rev = walked(psi, geom, kicks, "reverse", True, include_lead_in=True)
    post = ps.state
    ref = WaveFunction(psi.grid, (post.amp_h.conjugate() * fwd.amplitudes
                                  + post.amp_v.conjugate() * rev.amplitudes)
                       / math.sqrt(2.0), POSITION)
    assert chi.representation == POSITION
    assert_same_bits(chi, ref.normalized())
    assert prob == ref.norm_squared()
