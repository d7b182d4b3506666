"""Cross-checks pitting every closed form against an independent route.

Each check returns a CheckResult with the analytic value, the oracle value,
their relative discrepancy and the tolerance it must meet.  The grid
traversal validates the algebraic composite, finite differences validate
the information matrices, and the linearized readout formulas are validated
against the exact post-selected grid state.  Failures raise nothing, so a
deliberately coarse grid degrades gracefully: a check that raises or reads
a non-finite error is an entry with analytic, oracle and rel_error None
(null in oracle_report.json) and a note naming the cause.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math
from typing import Callable, Iterable, Optional

import numpy as np

from .fisher import QFIM_CLOSED_FORMS, GeneratorMoments, SwitchMode, qfim_numerical
from .grid import Grid, ProbeSpec, fidelity, make_gaussian, moments, overlap
from .network import (KickVector, NetworkGeometry, apply_propagation,
                      composite_apply, g_params, switched_state_family,
                      traverse_sequence)
from .pipeline import TABLETOP_PRECISION_TABLE, fit_scaling_law, qcrb_comparison
from .wva import (PostSelection, first_order_momentum_shift, min_detectable_tilt,
                  rotation_z, sandwich_jones, waveplate_compensation,
                  max_difference_up_to_phase, wva_final_probe)

#: the tabletop probe (2 mm waist at 780 nm), sensor spacing and post-selection
LAB_PROBE = ProbeSpec(2e-3, 2.0 * math.pi / 780e-9)
LAB_Z_BAR = 0.2
LAB_PS = PostSelection.from_weak_value_magnitude(7.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    analytic: Optional[float]
    oracle: Optional[float]
    rel_error: Optional[float]
    tolerance: float
    passed: bool
    note: str = ""


def _check(name: str, tolerance: float, note: str,
           errors: Callable[[], Iterable]) -> CheckResult:
    """Run a check and report its worst reading, the one with the largest error.

    errors() yields relative errors, each reported as analytic 0 and oracle
    equal to the error, or (analytic, oracle, error) readings.  A reading
    with a non-finite entry beats any finite one, so a NaN error fails the
    check instead of vanishing in a max.  No readings at all is a zero error.
    """
    try:
        worst = max((e if isinstance(e, tuple) else (0.0, e, e) for e in errors()),
                    key=lambda r: (not all(map(math.isfinite, r)), r[2]),
                    default=(0.0, 0.0, 0.0))
    except Exception as exc:  # a failing route is a report entry, not a crash
        note = f"{type(exc).__name__}: {exc}"
    else:
        if all(map(math.isfinite, worst)):
            analytic, oracle, err = map(float, worst)
            return CheckResult(name, analytic, oracle, err, float(tolerance),
                               err <= tolerance, note)
        note = f"non-finite reading {tuple(map(float, worst))}; {note}"
    return CheckResult(name, None, None, None, float(tolerance), False, note)


def _random_instance(rng: np.random.Generator, num_points: int):
    """Random dimensionless network instance plus a grid that can hold it."""
    n = int(rng.integers(1, 7))
    z = rng.uniform(0.5, 2.0, n + 1)
    th = rng.uniform(-0.1, 0.1, n)
    w0 = rng.uniform(1.0, 2.0)
    geom = NetworkGeometry(tuple(z), wave_number=1.0)
    kicks = KickVector(tuple(th))
    spec = ProbeSpec(w0, 1.0)
    return geom, kicks, spec, make_gaussian(spec, Grid.for_probe(spec, geom.z_total,
                                                                 num_points))


def _traversal_pairs(seed_base: int, seeds: int, num_points: int):
    """Grid traversal of random instances in both orders, each paired with
    the composite that must reproduce it: a call taking composite_apply's
    keyword arguments."""
    for seed in range(seeds):
        geom, kicks, _, psi = _random_instance(np.random.default_rng(seed_base + seed),
                                               num_points)
        comp = g_params(geom, kicks)
        for direction in ("forward", "reverse"):
            yield (traverse_sequence(psi, geom, kicks, direction),
                   functools.partial(composite_apply, psi, geom, comp, direction))


def check_bch_fidelity(seeds: int = 20, num_points: int = 1 << 14,
                       tolerance: float = 1e-10) -> CheckResult:
    """Grid traversal versus algebraic composite: |1 - F|, of either sign."""
    return _check("bch_traversal_fidelity", tolerance,
                  f"worst |1 - F| over {seeds} seeds, both orders",
                  lambda: (abs(1.0 - fidelity(brute, reduced()))
                           for brute, reduced in _traversal_pairs(1000, seeds, num_points)))


def check_composite_phase(seeds: int = 20, num_points: int = 1 << 14,
                          tolerance: float = 1e-9) -> CheckResult:
    """Composite with exact scalar phase reproduces the raw product amplitudes."""
    return _check("composite_exact_phase", tolerance,
                  "max amplitude difference including the scalar phase",
                  lambda: (np.max(np.abs(brute.amplitudes - reduced(phase="exact")
                                         .to_position().amplitudes))
                           for brute, reduced in _traversal_pairs(2000, seeds, num_points)))


def check_g_identities(seeds: int = 200, tolerance: float = 1e-12) -> CheckResult:
    """g1 + g2 = (N+1) N zbar tbar and the xi difference identity."""
    def errors():
        for seed in range(seeds):
            rng = np.random.default_rng(3000 + seed)
            n = int(rng.integers(1, 9))
            geom = NetworkGeometry(tuple(rng.uniform(0.2, 3.0, n + 1)), wave_number=1.0)
            kicks = KickVector(tuple(rng.uniform(-0.5, 0.5, n)))
            comp = g_params(geom, kicks)
            span = (n + 1) * geom.z_bar
            for lhs, rhs in ((comp.g1 + comp.g2, span * n * kicks.theta_bar),
                             (comp.xi1 - comp.xi2, (comp.g1**2 - comp.g2**2) / span)):
                yield abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return _check("composite_scalar_identities", tolerance,
                  f"worst relative identity violation over {seeds} instances", errors)


def check_switch_phase(num_points: int = 1 << 14,
                       tolerance: float = 1e-8) -> CheckResult:
    """Relative dynamic phase between traversal orders from the branch overlap."""
    def errors():
        rng = np.random.default_rng(47)
        for _ in range(5):
            geom, kicks, _, psi = _random_instance(rng, num_points)
            comp = g_params(geom, kicks)
            span = (geom.n_sensors + 1) * geom.z_bar
            fwd = traverse_sequence(psi, geom, kicks, "forward")
            rev = traverse_sequence(psi, geom, kicks, "reverse")
            measured = math.atan2(overlap(rev, fwd).imag, overlap(rev, fwd).real)
            predicted = (comp.g1**2 - comp.g2**2) / (2.0 * geom.wave_number * span)
            yield abs(measured - predicted) / max(abs(predicted), 1e-12)
    return _check("switch_relative_phase", tolerance,
                  "arg<reverse|forward> vs (g1^2-g2^2)/(2k(N+1)zbar)", errors)


def _fisher_instances(rng: np.random.Generator, num_points: int):
    """Probe with offset momentum and nonzero covariance plus small g values."""
    w0 = rng.uniform(1.0, 2.5)
    p0 = rng.uniform(-0.5, 0.5)
    z_pre = rng.uniform(0.0, 1.0)
    n = int(rng.integers(1, 5))
    z_bar = rng.uniform(0.8, 1.5)
    geom = NetworkGeometry.uniform(n, z_bar, wave_number=1.0)
    spec = ProbeSpec(w0, 1.0, center_p=p0)
    psi = make_gaussian(spec, Grid.for_probe(spec, geom.z_total + z_pre + 4.0, num_points))
    if z_pre > 0:
        psi = apply_propagation(psi, z_pre, 1.0).to_position()
    g1, g2 = rng.uniform(-0.08, 0.08, 2)
    return geom, psi, float(g1), float(g2)


def check_qfim_mode(mode: SwitchMode, instances: int = 10,
                    num_points: int = 1 << 13, tolerance: float = 1e-3) -> CheckResult:
    """Closed-form information matrix versus finite differences on the grid."""
    def errors():
        for i in range(instances):
            geom, psi, g1, g2 = _fisher_instances(np.random.default_rng(5000 + i),
                                                  num_points)
            gm = GeneratorMoments.from_moments(moments(psi), geom.wave_number,
                                               geom.z_bar, geom.n_sensors, g1, g2)
            analytic = QFIM_CLOSED_FORMS[mode](gm).as_array()
            numeric = qfim_numerical(switched_state_family(psi, geom, mode),
                                     (g1, g2), step=1e-4).as_array()
            yield np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
    return _check(f"qfim_{mode.value}_vs_finite_difference", tolerance,
                  f"worst relative Frobenius error over {instances} instances", errors)


def check_probe_alone_identity(tolerance: float = 1e-12) -> CheckResult:
    """Probe-alone bound at the origin equals the classical-switch bound."""
    def errors():
        reports = qcrb_comparison(range(1, 51), LAB_PROBE, LAB_Z_BAR,
                                  (SwitchMode.PROBE_ALONE, SwitchMode.CLASSICAL_SWITCH))
        for alone, csw in zip(reports[::2], reports[1::2]):
            yield (abs(alone.bound_on_theta_bar - csw.bound_on_theta_bar)
                   / csw.bound_on_theta_bar)
    return _check("probe_alone_equals_classical_switch", tolerance, "N = 1..50",
                  errors)


def check_sequential_scaling(tolerance: float = 1e-12) -> CheckResult:
    """Fixed-order bound times N^2 is constant (linear-scaling limit)."""
    def errors():
        values = [r.bound_on_theta_bar * r.n_sensors**2 for r in qcrb_comparison(
            range(1, 101), LAB_PROBE, LAB_Z_BAR, (SwitchMode.SEQUENTIAL,))]
        yield values[0], values[-1], (max(values) - min(values)) / values[0]
    return _check("sequential_bound_times_n2_constant", tolerance, "N = 1..100",
                  errors)


def check_asymptote(tolerance: float = 1e-2) -> CheckResult:
    """Switched bounds times N^4 approach k^2/(zbar^2 VarP) for large N."""
    limit = LAB_PROBE.wave_number**2 / (LAB_Z_BAR**2 * LAB_PROBE.delta_p**2)
    return _check("super_heisenberg_asymptote", tolerance, "N = 3000", lambda: (
        (limit, r.scaled_bound, abs(r.scaled_bound - limit) / limit)
        for r in qcrb_comparison((3000,), LAB_PROBE, LAB_Z_BAR,
                                 (SwitchMode.QUANTUM_SWITCH, SwitchMode.CLASSICAL_SWITCH))))


def _lab_readouts(num_points: int, tilt: Callable[[NetworkGeometry], float]):
    """Exact post-selected lab probe after N in {1, 3, 5} sensors, each kicked
    by tilt(geometry): yields (geometry, tilt, moments of the readout)."""
    for n in (1, 3, 5):
        geom = NetworkGeometry.uniform(n, LAB_Z_BAR, lead_in=0.325,
                                       wave_number=LAB_PROBE.wave_number)
        psi = make_gaussian(LAB_PROBE, Grid.for_probe(LAB_PROBE, geom.z_total,
                                                      num_points))
        tbar = tilt(geom)
        chi, _ = wva_final_probe(psi, geom, KickVector.uniform(n, tbar), LAB_PS,
                                 method="exact_grid")
        yield geom, tbar, moments(chi)


def check_wva_mean_momentum(num_points: int = 1 << 14,
                            tolerance: float = 1e-2) -> CheckResult:
    """Exact post-selected momentum shift versus the linear-response formula."""
    def errors():
        for geom, tbar, m in _lab_readouts(num_points, lambda geom: 0.46 / (
                geom.n_sensors**2 + 4.25 * geom.n_sensors)):
            predicted = first_order_momentum_shift(geom, LAB_PROBE.delta_p**2,
                                                   LAB_PS, tbar)
            yield abs(m.mean_p - predicted) / abs(predicted)
    return _check("wva_mean_momentum_first_order", tolerance,
                  "N in {1, 3, 5}, |A_w| = 7", errors)


def check_threshold_consistency(num_points: int = 1 << 14,
                                tolerance: float = 1e-6) -> CheckResult:
    """Detection-threshold identity in linear response on the grid.

    The grid slope of the post-selected momentum signal, extrapolated to the
    closed-form threshold tilt, must equal the momentum spread times
    eps cot eps: the threshold keeps the paper's small-eps gain 1/eps, the
    exact first-order gain is cot eps, and with that factor divided out the
    signal equals the noise exactly at the threshold.
    """
    gain = LAB_PS.epsilon / math.tan(LAB_PS.epsilon)

    def theta_min(geom: NetworkGeometry) -> float:
        return min_detectable_tilt(geom, LAB_PROBE.delta_p, LAB_PS)[0]

    def errors():
        # deep in linear response: at theta_min itself the readout is
        # saturated (the kick term N tbar DeltaX / eps is order ten for
        # this beam), so the identity is probed via the response slope
        for geom, probe_tilt, m in _lab_readouts(num_points,
                                                 lambda geom: theta_min(geom) / 1e5):
            ratio = (m.mean_p / probe_tilt) * theta_min(geom) / math.sqrt(m.var_p)
            e = abs(ratio / gain - 1.0)
            yield 1.0, 1.0 + e, e
    return _check("detection_threshold_identity", tolerance,
                  "slope * theta_min / (spread * eps cot eps) at "
                  "theta_min / 1e5, N in {1, 3, 5}", errors)


def check_waveplates(trials: int = 100, tolerance: float = 1e-12) -> CheckResult:
    """Three-plate sandwich equals the target relative-phase rotation."""
    def errors():
        rng = np.random.default_rng(99)
        for _ in range(trials):
            dt = float(rng.uniform(-math.pi, math.pi))
            yield max_difference_up_to_phase(sandwich_jones(waveplate_compensation(dt)),
                                             rotation_z(-0.5 * dt))
    return _check("waveplate_compensation", tolerance,
                  f"{trials} random phases, max element difference up to phase", errors)


def check_tabletop_fit(tolerance_a: float = 0.03, tolerance_b: float = 0.05,
                       min_r2: float = 0.985) -> list[CheckResult]:
    """Scaling fit over the embedded tabletop precision table."""
    fit = fit_scaling_law([(n, phi) for n, _, phi in TABLETOP_PRECISION_TABLE])
    return [_check(name, tolerance, "", lambda reading=reading: [reading])
            for name, tolerance, reading in (
                ("tabletop_fit_amplitude", tolerance_a,
                 (4.77e-9, fit.a, abs(fit.a - 4.77e-9) / 4.77e-9)),
                ("tabletop_fit_linear_coeff", tolerance_b,
                 (4.25, fit.b, abs(fit.b - 4.25) / 4.25)),
                ("tabletop_fit_r_squared", 0.0,
                 (min_r2, fit.r_squared, max(0.0, min_r2 - fit.r_squared))))]


def run_all_checks(num_points: int = 1 << 14, seeds: int = 20,
                   instances: int = 10) -> list[CheckResult]:
    """The full oracle suite with the default tolerances."""
    return [
        check_bch_fidelity(seeds, num_points),
        check_composite_phase(min(seeds, 10), num_points),
        check_g_identities(),
        check_switch_phase(num_points),
        *(check_qfim_mode(mode, instances, min(num_points, 1 << 13))
          for mode in QFIM_CLOSED_FORMS),
        check_probe_alone_identity(),
        check_sequential_scaling(),
        check_asymptote(),
        check_wva_mean_momentum(num_points),
        check_threshold_consistency(num_points),
        check_waveplates(),
        *check_tabletop_fit(),
    ]
