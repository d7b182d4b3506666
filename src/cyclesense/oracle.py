"""Cross-checks pitting every closed form against an independent route.

Each check returns a CheckResult with the analytic value, the oracle value,
their relative discrepancy and the tolerance it must meet.  The grid
traversal validates the algebraic composite, finite differences validate
the information matrices, and the linearized readout formulas are validated
against the exact post-selected grid state.  Failures raise nothing; they
are reported, so a deliberately coarse grid degrades gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .fisher import (QFIM_CLOSED_FORMS, GeneratorMoments, SwitchMode,
                     qcrb_global, qfim_classical_switch, qfim_numerical,
                     qfim_quantum_switch, qfim_sequential,
                     probe_alone_qfi_at_origin)
from .grid import Grid, ProbeSpec, fidelity, make_gaussian, moments, overlap
from .network import (KickVector, NetworkGeometry, composite_apply, g_params,
                      switched_state_family, traverse_sequence)
from .pipeline import TABLETOP_PRECISION_TABLE, fit_scaling_law
from .wva import (PostSelection, first_order_momentum_shift, min_detectable_tilt,
                  rotation_z, sandwich_jones, waveplate_compensation,
                  max_difference_up_to_phase, wva_final_probe)


@dataclass(frozen=True)
class CheckResult:
    name: str
    analytic: float
    oracle: float
    rel_error: float
    tolerance: float
    passed: bool
    note: str = ""


def _result(name: str, analytic: float, oracle: float, rel_error: float,
            tolerance: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(analytic), float(oracle), float(rel_error),
                       float(tolerance), bool(rel_error <= tolerance), note)


def _failed(name: str, tolerance: float, exc: Exception) -> CheckResult:
    return CheckResult(name, math.nan, math.nan, math.inf, tolerance, False,
                       f"{type(exc).__name__}: {exc}")


def _random_instance(rng: np.random.Generator, num_points: int):
    """Random dimensionless network instance plus a grid that can hold it."""
    n = int(rng.integers(1, 7))
    z = rng.uniform(0.5, 2.0, n + 1)
    th = rng.uniform(-0.1, 0.1, n)
    w0 = rng.uniform(1.0, 2.0)
    geom = NetworkGeometry(tuple(z), wave_number=1.0)
    kicks = KickVector(tuple(th))
    spec = ProbeSpec(w0, 1.0)
    grid = Grid.for_probe(spec, geom.z_total, num_points)
    return geom, kicks, spec, make_gaussian(spec, grid)


def check_bch_fidelity(seeds: int = 20, num_points: int = 1 << 14,
                       tolerance: float = 1e-10) -> CheckResult:
    """Grid traversal versus algebraic composite: |1 - F|, of either sign."""
    name = "bch_traversal_fidelity"
    try:
        worst = 0.0
        for seed in range(seeds):
            rng = np.random.default_rng(1000 + seed)
            geom, kicks, _, psi = _random_instance(rng, num_points)
            comp = g_params(geom, kicks)
            for direction in ("forward", "reverse"):
                brute = traverse_sequence(psi, geom, kicks, direction)
                reduced = composite_apply(psi, geom, comp, direction)
                worst = max(worst, abs(1.0 - fidelity(brute, reduced)))
        return _result(name, 0.0, worst, worst, tolerance,
                       f"worst |1 - F| over {seeds} seeds, both orders")
    except Exception as exc:  # degrade to a failed report entry
        return _failed(name, tolerance, exc)


def check_composite_phase(seeds: int = 20, num_points: int = 1 << 14,
                          tolerance: float = 1e-9) -> CheckResult:
    """Composite with exact scalar phase reproduces the raw product amplitudes."""
    name = "composite_exact_phase"
    try:
        worst = 0.0
        for seed in range(seeds):
            rng = np.random.default_rng(2000 + seed)
            geom, kicks, _, psi = _random_instance(rng, num_points)
            comp = g_params(geom, kicks)
            for direction in ("forward", "reverse"):
                brute = traverse_sequence(psi, geom, kicks, direction)
                reduced = composite_apply(psi, geom, comp, direction,
                                          phase="exact").to_position()
                worst = max(worst, float(np.max(np.abs(
                    brute.amplitudes - reduced.amplitudes))))
        return _result(name, 0.0, worst, worst, tolerance,
                       "max amplitude difference including the scalar phase")
    except Exception as exc:  # degrade to a failed report entry
        return _failed(name, tolerance, exc)


def check_g_identities(seeds: int = 200, tolerance: float = 1e-12) -> CheckResult:
    """g1 + g2 = (N+1) N zbar tbar and the xi difference identity."""
    name = "composite_scalar_identities"
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 9))
        geom = NetworkGeometry(tuple(rng.uniform(0.2, 3.0, n + 1)), wave_number=1.0)
        kicks = KickVector(tuple(rng.uniform(-0.5, 0.5, n)))
        comp = g_params(geom, kicks)
        span = (n + 1) * geom.z_bar
        lhs = comp.g1 + comp.g2
        rhs = span * n * kicks.theta_bar
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
        lhs2 = comp.xi1 - comp.xi2
        rhs2 = (comp.g1**2 - comp.g2**2) / span
        scale2 = max(abs(lhs2), abs(rhs2), 1e-30)
        worst = max(worst, abs(lhs2 - rhs2) / scale2)
    return _result(name, 0.0, worst, worst, tolerance,
                   f"worst relative identity violation over {seeds} instances")


def check_switch_phase(num_points: int = 1 << 14,
                       tolerance: float = 1e-8) -> CheckResult:
    """Relative dynamic phase between traversal orders from the branch overlap."""
    name = "switch_relative_phase"
    try:
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(5):
            geom, kicks, _, psi = _random_instance(rng, num_points)
            comp = g_params(geom, kicks)
            span = (geom.n_sensors + 1) * geom.z_bar
            fwd = traverse_sequence(psi, geom, kicks, "forward")
            rev = traverse_sequence(psi, geom, kicks, "reverse")
            measured = math.atan2(overlap(rev, fwd).imag, overlap(rev, fwd).real)
            predicted = (comp.g1**2 - comp.g2**2) / (2.0 * geom.wave_number * span)
            scale = max(abs(predicted), 1e-12)
            worst = max(worst, abs(measured - predicted) / scale)
        return _result(name, 0.0, worst, worst, tolerance,
                       "arg<reverse|forward> vs (g1^2-g2^2)/(2k(N+1)zbar)")
    except Exception as exc:  # degrade to a failed report entry
        return _failed(name, tolerance, exc)


def _fisher_instances(rng: np.random.Generator, num_points: int):
    """Probe with offset momentum and nonzero covariance plus small g values."""
    from .network import apply_propagation
    w0 = rng.uniform(1.0, 2.5)
    p0 = rng.uniform(-0.5, 0.5)
    z_pre = rng.uniform(0.0, 1.0)
    n = int(rng.integers(1, 5))
    z_bar = rng.uniform(0.8, 1.5)
    geom = NetworkGeometry.uniform(n, z_bar, wave_number=1.0)
    spec = ProbeSpec(w0, 1.0, center_p=p0)
    grid = Grid.for_probe(spec, geom.z_total + z_pre + 4.0, num_points)
    psi = make_gaussian(spec, grid)
    if z_pre > 0:
        psi = apply_propagation(psi, z_pre, 1.0).to_position()
    g1, g2 = rng.uniform(-0.08, 0.08, 2)
    return geom, psi, float(g1), float(g2)


def check_qfim_mode(mode: SwitchMode, instances: int = 10,
                    num_points: int = 1 << 13, tolerance: float = 1e-3,
                    seed_base: int = 5000) -> CheckResult:
    """Closed-form information matrix versus finite differences on the grid."""
    name = f"qfim_{mode.value}_vs_finite_difference"
    closed = QFIM_CLOSED_FORMS[mode]
    try:
        worst = 0.0
        for i in range(instances):
            rng = np.random.default_rng(seed_base + i)
            geom, psi, g1, g2 = _fisher_instances(rng, num_points)
            gm = GeneratorMoments.from_moments(moments(psi), geom.wave_number,
                                               geom.z_bar, geom.n_sensors, g1, g2)
            analytic = closed(gm).as_array()
            numeric = qfim_numerical(switched_state_family(psi, geom, mode),
                                     (g1, g2), step=1e-4).as_array()
            err = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
            worst = max(worst, float(err))
        return _result(name, 0.0, worst, worst, tolerance,
                       f"worst relative Frobenius error over {instances} instances")
    except Exception as exc:  # degrade to a failed report entry
        return _failed(name, tolerance, exc)


def check_probe_alone_identity(spec: ProbeSpec, z_bar: float,
                               tolerance: float = 1e-12) -> CheckResult:
    """Probe-alone bound at the origin equals the classical-switch bound."""
    name = "probe_alone_equals_classical_switch"
    worst = 0.0
    for n in range(1, 51):
        gm = GeneratorMoments.from_probe_spec(spec, z_bar, n)
        alone = probe_alone_qfi_at_origin(gm).bound_on_theta_bar
        csw = qcrb_global(qfim_classical_switch(gm), n, z_bar).bound_on_theta_bar
        worst = max(worst, abs(alone - csw) / csw)
    return _result(name, 0.0, worst, worst, tolerance, "N = 1..50")


def check_sequential_scaling(spec: ProbeSpec, z_bar: float,
                             tolerance: float = 1e-12) -> CheckResult:
    """Fixed-order bound times N^2 is constant (linear-scaling limit)."""
    name = "sequential_bound_times_n2_constant"
    values = []
    for n in range(1, 101):
        gm = GeneratorMoments.from_probe_spec(spec, z_bar, n)
        rep = qcrb_global(qfim_sequential(gm), n, z_bar)
        values.append(rep.bound_on_theta_bar * n**2)
    spread = (max(values) - min(values)) / values[0]
    return _result(name, values[0], values[-1], spread, tolerance, "N = 1..100")


def check_asymptote(spec: ProbeSpec, z_bar: float, n_large: int = 3000,
                    tolerance: float = 1e-2) -> CheckResult:
    """Switched bounds times N^4 approach k^2/(zbar^2 VarP) for large N."""
    name = "super_heisenberg_asymptote"
    limit = spec.wave_number**2 / (z_bar**2 * spec.delta_p**2)
    worst = 0.0
    value = math.nan
    for qfim in (qfim_quantum_switch, qfim_classical_switch):
        gm = GeneratorMoments.from_probe_spec(spec, z_bar, n_large)
        rep = qcrb_global(qfim(gm), n_large, z_bar)
        value = rep.scaled_bound
        worst = max(worst, abs(value - limit) / limit)
    return _result(name, limit, value, worst, tolerance, f"N = {n_large}")


def check_wva_mean_momentum(num_points: int = 1 << 14,
                            tolerance: float = 1e-2) -> CheckResult:
    """Exact post-selected momentum shift versus the linear-response formula."""
    name = "wva_mean_momentum_first_order"
    try:
        spec = ProbeSpec(2e-3, 2.0 * math.pi / 780e-9)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        worst = 0.0
        for n in (1, 3, 5):
            geom = NetworkGeometry.uniform(n, 0.2, lead_in=0.325,
                                           wave_number=spec.wave_number)
            grid = Grid.for_probe(spec, geom.z_total, num_points)
            psi = make_gaussian(spec, grid)
            tbar = 0.46 / (n**2 + 4.25 * n)
            kicks = KickVector.uniform(n, tbar)
            chi, _ = wva_final_probe(psi, geom, kicks, ps, method="exact_grid")
            measured = moments(chi).mean_p
            predicted = first_order_momentum_shift(geom, spec.delta_p**2, ps, tbar)
            worst = max(worst, abs(measured - predicted) / abs(predicted))
        return _result(name, 0.0, worst, worst, tolerance, "N in {1, 3, 5}, |A_w| = 7")
    except Exception as exc:  # degrade to a failed report entry
        return _failed(name, tolerance, exc)


def check_threshold_consistency(num_points: int = 1 << 14,
                                tolerance: float = 1e-6) -> CheckResult:
    """Detection-threshold identity in linear response on the grid.

    The grid slope of the post-selected momentum signal, extrapolated to the
    closed-form threshold tilt, must equal the momentum spread times
    eps cot eps: the threshold keeps the paper's small-eps gain 1/eps, the
    exact first-order gain is cot eps, and with that factor divided out the
    signal equals the noise exactly at the threshold.
    """
    name = "detection_threshold_identity"
    try:
        spec = ProbeSpec(2e-3, 2.0 * math.pi / 780e-9)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        gain = ps.epsilon / math.tan(ps.epsilon)
        worst = 0.0
        for n in (1, 3, 5):
            geom = NetworkGeometry.uniform(n, 0.2, lead_in=0.325,
                                           wave_number=spec.wave_number)
            grid = Grid.for_probe(spec, geom.z_total, num_points)
            psi = make_gaussian(spec, grid)
            theta_min, _ = min_detectable_tilt(geom, spec.delta_p, ps)
            # deep in linear response: at theta_min itself the readout is
            # saturated (the kick term N tbar DeltaX / eps is order ten for
            # this beam), so the identity is probed via the response slope
            probe_tilt = theta_min / 1e5
            chi, _ = wva_final_probe(psi, geom, KickVector.uniform(n, probe_tilt),
                                     ps, method="exact_grid")
            m = moments(chi)
            ratio = (m.mean_p / probe_tilt) * theta_min / math.sqrt(m.var_p)
            worst = max(worst, abs(ratio / gain - 1.0))
        return _result(name, 1.0, 1.0 + worst, worst, tolerance,
                       "slope * theta_min / (spread * eps cot eps) at "
                       "theta_min / 1e5, N in {1, 3, 5}")
    except Exception as exc:  # degrade to a failed report entry
        return _failed(name, tolerance, exc)


def check_waveplates(trials: int = 100, tolerance: float = 1e-12) -> CheckResult:
    """Three-plate sandwich equals the target relative-phase rotation."""
    name = "waveplate_compensation"
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(trials):
        dt = float(rng.uniform(-math.pi, math.pi))
        got = sandwich_jones(waveplate_compensation(dt))
        worst = max(worst, max_difference_up_to_phase(got, rotation_z(-0.5 * dt)))
    return _result(name, 0.0, worst, worst, tolerance,
                   f"{trials} random phases, max element difference up to phase")


def check_tabletop_fit(tolerance_a: float = 0.03, tolerance_b: float = 0.05,
                       min_r2: float = 0.985) -> list[CheckResult]:
    """Scaling fit over the embedded tabletop precision table."""
    fit = fit_scaling_law([(n, phi) for n, _, phi in TABLETOP_PRECISION_TABLE])
    err_a = abs(fit.a - 4.77e-9) / 4.77e-9
    err_b = abs(fit.b - 4.25) / 4.25
    return [
        _result("tabletop_fit_amplitude", 4.77e-9, fit.a, err_a, tolerance_a),
        _result("tabletop_fit_linear_coeff", 4.25, fit.b, err_b, tolerance_b),
        CheckResult("tabletop_fit_r_squared", min_r2, fit.r_squared,
                    max(0.0, min_r2 - fit.r_squared), 0.0,
                    fit.r_squared >= min_r2),
    ]


def run_all_checks(num_points: int = 1 << 14, seeds: int = 20,
                   instances: int = 10) -> list[CheckResult]:
    """The full oracle suite with the default tolerances."""
    lab_probe = ProbeSpec(2e-3, 2.0 * math.pi / 780e-9)
    results = [
        check_bch_fidelity(seeds, num_points),
        check_composite_phase(min(seeds, 10), num_points),
        check_g_identities(),
        check_switch_phase(num_points),
        check_qfim_mode(SwitchMode.SEQUENTIAL, instances, min(num_points, 1 << 13)),
        check_qfim_mode(SwitchMode.QUANTUM_SWITCH, instances, min(num_points, 1 << 13)),
        check_qfim_mode(SwitchMode.CLASSICAL_SWITCH, instances, min(num_points, 1 << 13)),
        check_probe_alone_identity(lab_probe, 0.2),
        check_sequential_scaling(lab_probe, 0.2),
        check_asymptote(lab_probe, 0.2),
        check_wva_mean_momentum(num_points),
        check_threshold_consistency(num_points),
        check_waveplates(),
    ]
    results.extend(check_tabletop_fit())
    return results
