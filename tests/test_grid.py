import math

import numpy as np
import pytest

from cyclesense import (DomainError, Grid, GridError, Moments, NormalizationError, ProbeSpec,
                        WaveFunction, apply_kick, apply_propagation,
                        diffracted_radius, fidelity, make_gaussian, moments, overlap)
from cyclesense.grid import MOMENTUM, POSITION


class TestGrid:
    def test_spacings_are_conjugate(self):
        g = Grid(1 << 10, 5.0)
        assert g.dx == pytest.approx(10.0 / 1024)
        assert g.dp == pytest.approx(2 * np.pi / (1024 * g.dx))
        # FFT order: x = 0 and p = 0 at index 0, the unpaired edges at n/2
        assert g.positions[0] == 0.0
        assert g.momenta[0] == 0.0
        assert g.positions[512] == -5.0
        assert g.momenta[512] == pytest.approx(-np.pi / g.dx)
        assert np.array_equal(g.positions[1:512], -g.positions[:512:-1])
        assert np.array_equal(g.momenta[1:512], -g.momenta[:512:-1])
        assert np.array_equal(np.diff(np.sort(g.positions)),
                              np.full(1023, g.dx))

    @pytest.mark.parametrize("n", [0, 1, 3, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(GridError):
            Grid(n, 1.0)

    @pytest.mark.parametrize("extent", [0.0, -1.0, math.nan, math.inf, 1e308, 1e-320])
    def test_rejects_extent_without_finite_spacing(self, extent):
        # 1e308 and inf give dx = inf, dp = 0; 1e-320 gives dx = 0
        with pytest.raises(GridError):
            Grid(1 << 14, extent)

    def test_for_probe_covers_diffraction(self):
        spec = ProbeSpec(1.0, 1.0)
        g = Grid.for_probe(spec, total_path=10.0, num_points=1 << 12)
        assert g.half_extent == pytest.approx(8.0 * diffracted_radius(1.0, 10.0, 1.0))

    @pytest.mark.parametrize("w0,z,k", [(1e-300, 1.0, 1.0), (1.0, 1e300, 1e-10),
                                        (-1.0, 0.0, 1.0)])
    def test_diffracted_radius_outside_float_range(self, w0, z, k):
        with pytest.raises(DomainError, match="beam radius"):
            diffracted_radius(w0, z, k)

    @pytest.mark.parametrize("padding", [0.0, -1.0, math.nan, 1e300])
    def test_for_probe_rejects_unresolved_waist(self, padding):
        # 1e300 is finite, but its spacing leaves the waist on one sample
        with pytest.raises(DomainError, match="does not resolve"):
            Grid.for_probe(ProbeSpec(1.0, 1.0), 10.0, 1 << 12, padding)


class TestTransforms:
    def test_round_trip_exact(self, unit_probe):
        back = unit_probe.to_momentum().to_position()
        assert np.max(np.abs(back.amplitudes - unit_probe.amplitudes)) < 1e-10

    def test_parseval(self, unit_probe):
        assert unit_probe.to_momentum().norm_squared() == pytest.approx(
            unit_probe.norm_squared(), abs=1e-10)

    def test_gaussian_transform_matches_analytic(self, unit_grid):
        # FT of exp(-x^2/w0^2) is proportional to exp(-p^2 w0^2 / 4)
        w0 = 1.5
        psi = make_gaussian(ProbeSpec(w0, 1.0), unit_grid)
        mom = psi.to_momentum().amplitudes
        p = unit_grid.momenta
        expected = np.exp(-(p * w0 / 2.0) ** 2)
        expected /= np.sqrt(np.sum(np.abs(expected) ** 2) * unit_grid.dp)
        phase = mom[0] / expected[0]              # the p = 0 sample
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.max(np.abs(mom - phase * expected)) < 1e-9

    def test_transforms_keep_the_shifted_fft_bits(self, unit_grid):
        g = unit_grid
        psi = make_gaussian(ProbeSpec(1.3, 1.0, center_x=0.4, center_p=-0.2), g)
        mom = np.fft.fft(psi.amplitudes)
        mom *= g.dx / math.sqrt(2.0 * math.pi)
        assert np.array_equal(psi.to_momentum().amplitudes, mom)
        back = np.fft.ifft(mom)
        back *= g.num_points * g.dp / math.sqrt(2.0 * math.pi)
        assert np.array_equal(psi.to_momentum().to_position().amplitudes, back)


class TestMakeGaussian:
    def test_lab_probe_moments(self, lab_spec):
        # w0 = 2 mm: DeltaX = 1 mm, DeltaP = 500 1/m, Cov = 0
        grid = Grid.for_probe(lab_spec, 0.0, 1 << 13)
        m = moments(make_gaussian(lab_spec, grid))
        assert m.var_x == pytest.approx(1e-6, rel=1e-8)
        assert m.var_p == pytest.approx(500.0**2, rel=1e-8)
        assert abs(m.cov_xp) < 1e-8

    def test_centered_profile_has_zero_means(self, unit_grid):
        m = moments(make_gaussian(ProbeSpec(1.0, 1.0), unit_grid))
        assert abs(m.mean_x) < 1e-12
        assert abs(m.mean_p) < 1e-12

    def test_momentum_offset_shifts_mean_only(self, unit_grid):
        # oracle: direct quadrature of the momentum density on the grid
        psi = make_gaussian(ProbeSpec(1.0, 1.0, center_p=3.0), unit_grid)
        mom = psi.to_momentum()
        w = np.abs(mom.amplitudes) ** 2 * unit_grid.dp
        mean_p = np.sum(unit_grid.momenta * w)
        var_p = np.sum((unit_grid.momenta - mean_p) ** 2 * w)
        assert mean_p == pytest.approx(3.0, abs=1e-9)
        assert var_p == pytest.approx(1.0, rel=1e-9)
        m = moments(psi)
        assert m.mean_p == pytest.approx(3.0, abs=1e-9)
        assert m.var_p == pytest.approx(1.0, rel=1e-9)

    def test_grid_too_small_raises(self):
        with pytest.raises(GridError):
            make_gaussian(ProbeSpec(1.0, 1.0), Grid(1 << 10, 3.9))

    @pytest.mark.parametrize("field,inside,outside", [
        # Grid(1 << 10, 8.0): pi/dx = 64 pi, so |p0| + 2/w0 <= 32 pi
        ("center_p", 32 * math.pi - 2.0, 32 * math.pi - 1.99),
        # |x0| + w0 <= half_extent / 2 = 4
        ("center_x", 3.0, 3.01),
    ], ids=["center_p", "center_x"])
    def test_off_grid_centre_named(self, field, inside, outside):
        grid = Grid(1 << 10, 8.0)
        make_gaussian(ProbeSpec(1.0, 1.0, **{field: -inside}), grid)
        for value in (outside, -outside, 1e300, math.nan):
            with pytest.raises(GridError, match=f"^{field} "):
                make_gaussian(ProbeSpec(1.0, 1.0, **{field: value}), grid)

    def test_uncertainty_product_at_minimum(self, unit_probe):
        m = moments(unit_probe)
        assert m.var_x * m.var_p - m.cov_xp**2 == pytest.approx(0.25, rel=1e-6)

    def test_moments_accurate_at_minimal_grid(self):
        # the analytic values hold to 1e-8 already at the smallest allowed
        # window (4 w0) and 2^12 points
        spec = ProbeSpec(1.0, 1.0, center_p=0.5)
        m = moments(make_gaussian(spec, Grid(1 << 12, 4.0)))
        assert m.var_x == pytest.approx(0.25, rel=1e-8)
        assert m.var_p == pytest.approx(1.0, rel=1e-8)
        assert m.mean_p == pytest.approx(0.5, abs=1e-8)
        assert abs(m.cov_xp) < 1e-8


class TestMoments:
    def test_gaussian_w0_2_analytic(self, unit_probe):
        # analytic Gaussian integrals: VarX = w0^2/4 = 1, VarP = 1/w0^2 = 1/4
        m = moments(unit_probe)
        assert m.var_x == pytest.approx(1.0, rel=1e-10)
        assert m.var_p == pytest.approx(0.25, rel=1e-10)
        assert abs(m.cov_xp) < 1e-10

    def test_displacement_covariance(self, unit_grid, unit_probe):
        # multiplying by exp(i p0 x) shifts mean_p and nothing else
        p0 = 1.7
        shifted = WaveFunction(unit_grid,
                               unit_probe.amplitudes * np.exp(1j * p0 * unit_grid.positions))
        m0, m1 = moments(unit_probe), moments(shifted)
        assert m1.mean_p - m0.mean_p == pytest.approx(p0, abs=1e-10)
        assert m1.var_x == pytest.approx(m0.var_x, rel=1e-12)
        assert m1.var_p == pytest.approx(m0.var_p, rel=1e-10)

    def test_propagated_variance_matches_beam_optics(self, unit_grid):
        # oracle: w(z) = w0 sqrt(1 + (2z/(k w0^2))^2), VarX = w^2/4
        from cyclesense import apply_propagation
        w0, z, k = 2.0, 3.0, 1.0
        psi = apply_propagation(make_gaussian(ProbeSpec(w0, k), unit_grid), z, k)
        m = moments(psi)
        assert m.var_x == pytest.approx(diffracted_radius(w0, z, k) ** 2 / 4, rel=1e-10)
        # and the generic transport law var_x(z) = var_x + (z/k)^2 var_p
        assert m.var_x == pytest.approx(1.0 + z**2 * 0.25, rel=1e-10)
        assert m.cov_xp == pytest.approx(z * 0.25, rel=1e-9)

    def test_requires_normalized_input(self, unit_grid, unit_probe):
        bad = WaveFunction(unit_grid, 1.5 * unit_probe.amplitudes)
        with pytest.raises(NormalizationError):
            moments(bad)

    def test_second_measurement_is_free(self, unit_grid, unit_probe, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        psi = WaveFunction(unit_grid, unit_probe.amplitudes)   # fresh instance
        first = moments(psi)
        assert calls
        calls.clear()
        assert moments(psi) == first
        assert calls == []
        # a kicked state built from it is measured afresh
        kicked = apply_kick(psi, 0.3)
        assert calls == []
        assert moments(kicked).mean_p == pytest.approx(first.mean_p - 0.3, abs=1e-9)
        assert calls

    def test_moments_validation(self):
        with pytest.raises(ValueError):
            Moments(0.0, 0.0, -1.0, 1.0, 0.0)


class TestFidelity:
    def test_self_fidelity_is_one(self, unit_probe):
        assert fidelity(unit_probe, unit_probe) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self, unit_grid, unit_probe):
        rotated = WaveFunction(unit_grid, np.exp(1j * 0.7) * unit_probe.amplitudes)
        assert fidelity(unit_probe, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_displaced_gaussians_closed_form(self, unit_grid):
        # closed-form overlap of equal-width Gaussians separated by d:
        # <a|b> = exp(-d^2/(2 w0^2)), fidelity = exp(-d^2/w0^2)
        w0, d = 1.3, 0.9
        a = make_gaussian(ProbeSpec(w0, 1.0), unit_grid)
        b = make_gaussian(ProbeSpec(w0, 1.0, center_x=d), unit_grid)
        assert overlap(a, b).real == pytest.approx(math.exp(-d**2 / (2 * w0**2)), rel=1e-10)
        assert fidelity(a, b) == pytest.approx(math.exp(-d**2 / w0**2), rel=1e-10)

    def test_grid_mismatch_raises(self, unit_probe):
        other = make_gaussian(ProbeSpec(2.0, 1.0), Grid(1 << 13, 30.0))
        with pytest.raises(GridError):
            fidelity(unit_probe, other)


class TestWaveFunction:
    def test_amplitudes_are_readonly(self, unit_probe):
        with pytest.raises(ValueError):
            unit_probe.amplitudes[0] = 1.0

    def test_state_owns_its_amplitudes(self, unit_grid, unit_probe):
        caller = unit_probe.amplitudes.copy()
        psi = WaveFunction(unit_grid, caller)
        first = moments(psi)
        assert caller.flags.writeable
        assert not np.shares_memory(caller, psi.amplitudes)
        caller *= np.exp(1j * 0.9 * unit_grid.positions)   # a momentum kick
        caller[:10] = 0.0
        assert np.array_equal(psi.amplitudes, unit_probe.amplitudes)
        assert moments(psi) == first
        assert moments(WaveFunction(unit_grid, psi.amplitudes)) == first

    def test_representation_tag_validated(self, unit_grid):
        with pytest.raises(ValueError):
            WaveFunction(unit_grid, np.zeros(unit_grid.num_points), "fock")

    @pytest.mark.parametrize("deviation", [2e-6, -2e-6, math.nan])
    def test_norm_precondition_rejects(self, unit_probe, deviation):
        off = WaveFunction(unit_probe.grid, (1.0 + deviation) * unit_probe.amplitudes)
        with pytest.raises(NormalizationError):
            off.require_normalized()

    @pytest.mark.parametrize("deviation", [5e-7, -5e-7])
    def test_norm_precondition_tolerates(self, unit_probe, deviation):
        WaveFunction(unit_probe.grid, (1.0 + deviation) * unit_probe.amplitudes
                     ).to_momentum().require_normalized()

    def test_norm_after_normalize(self, unit_grid):
        psi = WaveFunction(unit_grid, np.exp(-unit_grid.positions**2 / 4) + 0j)
        assert abs(psi.normalized().norm() - 1.0) < 1e-10

    def test_representation_round_trip_preserves_tag(self, unit_probe):
        assert unit_probe.representation == POSITION
        assert unit_probe.to_momentum().representation == MOMENTUM


class TestStacks:
    """A (b, n) wavefunction is b states that the network operators advance
    together; only the private _adopt makes one, the constructor refuses it."""

    @pytest.fixture
    def stack(self, unit_probe):
        a = unit_probe.amplitudes
        return WaveFunction._adopt(unit_probe.grid, np.array([a, a[::-1]]), POSITION)

    @pytest.mark.parametrize("shape", [(2, 1 << 13), (2, 2, 1 << 13), (2, 1 << 12),
                                       (1 << 12,), ()])
    def test_constructor_refuses_other_shapes(self, unit_grid, shape):
        with pytest.raises(GridError, match="does not match grid"):
            WaveFunction(unit_grid, np.ones(shape))

    def test_norm_check_names_the_row_that_is_off(self, unit_probe):
        a = unit_probe.amplitudes
        off = WaveFunction._adopt(unit_probe.grid, np.array([a, a, 1.001 * a]), POSITION)
        with pytest.raises(NormalizationError, match="^wavefunction row 2 norm "):
            off.require_normalized()
        WaveFunction._adopt(unit_probe.grid, np.array([a, a]), POSITION).require_normalized()
        with pytest.raises(NormalizationError, match="^wavefunction norm "):
            WaveFunction(unit_probe.grid, 1.001 * a).require_normalized()

    def test_transforms_act_row_by_row_with_single_state_bits(self, stack):
        for rows, single in ((stack.to_momentum().rows(),
                              [r.to_momentum() for r in stack.rows()]),
                             (stack.to_momentum().to_position().rows(),
                              [r.to_momentum().to_position() for r in stack.rows()])):
            for a, b in zip(rows, single):
                assert np.array_equal(a.amplitudes.view(np.uint64),
                                      b.amplitudes.view(np.uint64))

    def test_rows_are_read_only_views_with_their_own_moments(self, stack):
        m = moments(stack.rows()[0])
        kicked = apply_kick(WaveFunction._adopt(stack.grid, stack.amplitudes, POSITION,
                                                (m, m.flipped())), (0.1, -0.2))
        rows = kicked.rows()
        assert [r.amplitudes.shape for r in rows] == [(stack.grid.num_points,)] * 2
        assert all(np.shares_memory(r.amplitudes, kicked.amplitudes) for r in rows)
        assert not rows[1].amplitudes.flags.writeable
        assert rows[0].guard_moments == m.kicked(0.1)
        assert rows[1].guard_moments == m.flipped().kicked(-0.2)

    def test_step_values_one_per_row(self, stack):
        with pytest.raises(DomainError, match="^3 kicks for 2 rows"):
            apply_kick(stack, (0.1, 0.2, 0.3))
        with pytest.raises(DomainError, match="^1 distances for 2 rows"):
            apply_propagation(stack, [1.0], 1.0)


#: values that reach outputs through inner products at 2^14 points, where
#: OpenBLAS splits a threaded dot product and rounds differently per count
THREAD_PROBE = """
from cyclesense import (Grid, NetworkGeometry, ProbeSpec, SwitchMode, apply_kick,
                        apply_propagation, make_gaussian, moments, overlap,
                        qfim_numerical, switched_state_family)
g = Grid(1 << 14, 30.0)
psi = make_gaussian(ProbeSpec(2.0, 1.0, center_x=0.3, center_p=0.2), g)
phi = apply_propagation(apply_kick(psi, 0.3), 1.5, 1.0)
fam = switched_state_family(psi, NetworkGeometry.uniform(2, 1.0, wave_number=1.0),
                            SwitchMode.QUANTUM_SWITCH)
print(repr(overlap(psi, phi)), repr(moments(phi).cov_xp),
      repr(qfim_numerical(fam, (0.03, -0.05), step=1e-4)))
"""


def test_outputs_do_not_depend_on_blas_threads(run_probe):
    seen = [run_probe(THREAD_PROBE, OPENBLAS_NUM_THREADS=threads,
                      OMP_NUM_THREADS=threads) for threads in ("1", "2")]
    assert seen[0] == seen[1]
