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

import cmath
from dataclasses import dataclass, replace
import functools
import math
from typing import Callable, Iterable, Optional

import numpy as np

from .fisher import (QFIM_CLOSED_FORMS, GeneratorMoments, SwitchMode,
                     probe_alone_qfi_at_origin, qcrb_global, qfim_numerical)
from .grid import Grid, ProbeSpec, fidelity, make_gaussian, moments, overlap
from .network import (KickVector, NetworkGeometry, apply_propagation, composite_apply,
                      g_params, switched_state_family, traverse_sequence)
from .pipeline import TABLETOP_PRECISION_TABLE, fit_scaling_law
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
    return geom, kicks, make_gaussian(spec, Grid.for_probe(spec, geom.z_total,
                                                           num_points))


def _walk_readings(seeds: int, num_points: int) -> list[tuple]:
    """Walk each random instance once in both orders and keep what the three
    traversal checks read: per order |1 - F| and the largest amplitude
    difference against its composite, then arg<reverse|forward> and its
    prediction (g1^2 - g2^2) / (2k (N+1) zbar)."""
    readings = []
    for seed in range(seeds):
        geom, kicks, psi = _random_instance(np.random.default_rng(1000 + seed),
                                            num_points)
        comp = g_params(geom, kicks)
        fwd, rev = traverse_sequence(psi, geom, kicks)
        reduced = (r.to_position() for r in composite_apply(psi, geom, comp))
        orders = [(abs(1.0 - fidelity(b, r)), np.max(np.abs(b.amplitudes - r.amplitudes)))
                  for b, r in zip((fwd, rev), reduced)]
        span = (geom.n_sensors + 1) * geom.z_bar
        readings.append((orders, cmath.phase(overlap(rev, fwd)),
                         (comp.g1**2 - comp.g2**2) / (2.0 * geom.wave_number * span)))
    return readings


def check_bch_fidelity(seeds: int, walks: Callable[[], list]) -> CheckResult:
    """Grid traversal versus algebraic composite: |1 - F|, of either sign."""
    return _check("bch_traversal_fidelity", 1e-10,
                  f"worst |1 - F| over {seeds} seeds, both orders",
                  lambda: (f for orders, *_ in walks() for f, _ in orders))


def check_composite_phase(seeds: int, walks: Callable[[], list]) -> CheckResult:
    """Composite with exact scalar phase reproduces the raw product amplitudes."""
    return _check("composite_exact_phase", 1e-9,
                  f"max amplitude difference including the scalar phase over "
                  f"{seeds} seeds, both orders",
                  lambda: (d for orders, *_ in walks() for _, d in orders))


def check_g_identities() -> CheckResult:
    """g1 + g2 = (N+1) N zbar tbar and the xi difference identity."""
    def errors():
        for seed in range(200):
            rng = np.random.default_rng(3000 + seed)
            n = int(rng.integers(1, 9))
            geom = NetworkGeometry(tuple(rng.uniform(0.2, 3.0, n + 1)), wave_number=1.0)
            kicks = KickVector(tuple(rng.uniform(-0.5, 0.5, n)))
            comp = g_params(geom, kicks)
            span = (n + 1) * geom.z_bar
            for lhs, rhs in ((comp.g1 + comp.g2, span * n * kicks.theta_bar),
                             (comp.xi1 - comp.xi2, (comp.g1**2 - comp.g2**2) / span)):
                yield abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return _check("composite_scalar_identities", 1e-12,
                  "worst relative identity violation over 200 instances", errors)


def check_switch_phase(seeds: int, walks: Callable[[], list]) -> CheckResult:
    """Relative dynamic phase between traversal orders from the branch overlap."""
    return _check("switch_relative_phase", 1e-8,
                  f"arg<reverse|forward> vs (g1^2-g2^2)/(2k(N+1)zbar) over {seeds} seeds",
                  lambda: (abs(measured - predicted) / max(abs(predicted), 1e-12)
                           for _, measured, predicted in walks()))


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


def _relabeled(mode: SwitchMode, stencil: Callable, g1: float, g2: float):
    """The (forward, reverse) pair stencil builds at (g1, g2), labeled for mode."""
    return replace(stencil(g1, g2), mode=mode)


def _qfim_readings(instances: int, num_points: int) -> dict[SwitchMode, list]:
    """Per mode and Fisher instance, the relative Frobenius error of the
    finite-difference matrix against its closed form, or what that raised.

    The modes differ only in how the ancilla labels the same branch pairs, so
    each instance and the 9 points of its stencil are built once, as
    quantum-switch pairs cached for that instance alone, and relabeled per
    mode.  A raise while building an instance propagates.
    """
    readings = {mode: [] for mode in QFIM_CLOSED_FORMS}
    for i in range(instances):
        geom, psi, g1, g2 = _fisher_instances(np.random.default_rng(5000 + i),
                                              num_points)
        gm = GeneratorMoments.from_moments(moments(psi), geom.wave_number,
                                           geom.z_bar, geom.n_sensors, g1, g2)
        stencil = functools.cache(switched_state_family(psi, geom,
                                                        SwitchMode.QUANTUM_SWITCH))
        for mode, errors in readings.items():
            try:        # fails this mode's check only; a failed build is not cached
                analytic = QFIM_CLOSED_FORMS[mode](gm)
                numeric = qfim_numerical(functools.partial(_relabeled, mode, stencil),
                                         (g1, g2), step=1e-4)
                errors.append(np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic))
            except Exception as exc:
                errors.append(exc)
    return readings


def check_qfim_mode(mode: SwitchMode, instances: int,
                    readings: Callable[[], dict]) -> CheckResult:
    """Closed-form information matrix versus finite differences on the grid."""
    def errors():
        for error in readings()[mode]:
            if isinstance(error, Exception):
                raise error
            yield error
    return _check(f"qfim_{mode.value}_vs_finite_difference", 1e-3,
                  f"worst relative Frobenius error over {instances} instances", errors)


def _projected_bound(mode: SwitchMode, n: int) -> float:
    """qcrb_global of the lab probe's closed-form matrix for mode at N = n."""
    gm = GeneratorMoments.from_probe_spec(LAB_PROBE, LAB_Z_BAR, n)
    return qcrb_global(QFIM_CLOSED_FORMS[mode](gm), n, LAB_Z_BAR)


def check_probe_alone_identity() -> CheckResult:
    """Probe-alone bound at the origin equals the projected classical-switch bound."""
    def errors():
        alone = probe_alone_qfi_at_origin(GeneratorMoments.from_probe_spec(
            LAB_PROBE, LAB_Z_BAR, np.arange(1, 51)))
        csw = np.array([_projected_bound(SwitchMode.CLASSICAL_SWITCH, n)
                        for n in range(1, 51)])
        return (np.abs(alone - csw) / csw).tolist()
    return _check("probe_alone_equals_classical_switch", 1e-12, "N = 1..50",
                  errors)


def check_sequential_scaling() -> CheckResult:
    """Projected fixed-order bound times N^2 is constant (linear-scaling limit)."""
    def errors():
        values = np.array([_projected_bound(SwitchMode.SEQUENTIAL, n) * (n * n)
                           for n in range(1, 101)])
        yield values[0], values[-1], (values.max() - values.min()) / values[0]
    return _check("sequential_bound_times_n2_constant", 1e-12, "N = 1..100",
                  errors)


def check_asymptote() -> CheckResult:
    """Projected switched bounds times N^4 approach k^2/(zbar^2 VarP) for large N."""
    limit = LAB_PROBE.wave_number**2 / (LAB_Z_BAR**2 * LAB_PROBE.delta_p**2)
    return _check("super_heisenberg_asymptote", 1e-2, "N = 3000", lambda: (
        (limit, scaled, abs(scaled - limit) / limit)
        for scaled in (_projected_bound(mode, 3000) * 3000**4 for mode in (
            SwitchMode.QUANTUM_SWITCH, SwitchMode.CLASSICAL_SWITCH))))


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


def check_wva_mean_momentum(num_points: int = 1 << 14) -> CheckResult:
    """Exact post-selected momentum shift versus the linear-response formula."""
    def errors():
        for geom, tbar, m in _lab_readouts(num_points, lambda geom: 0.46 / (
                geom.n_sensors**2 + 4.25 * geom.n_sensors)):
            predicted = first_order_momentum_shift(geom, LAB_PROBE.delta_p**2,
                                                   LAB_PS, tbar)
            yield abs(m.mean_p - predicted) / abs(predicted)
    return _check("wva_mean_momentum_first_order", 1e-2,
                  "N in {1, 3, 5}, |A_w| = 7", errors)


def check_threshold_consistency(num_points: int = 1 << 14) -> CheckResult:
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
    return _check("detection_threshold_identity", 1e-6,
                  "slope * theta_min / (spread * eps cot eps) at "
                  "theta_min / 1e5, N in {1, 3, 5}", errors)


def check_waveplates() -> CheckResult:
    """Three-plate sandwich equals the target relative-phase rotation."""
    def errors():
        rng = np.random.default_rng(99)
        for _ in range(100):
            dt = float(rng.uniform(-math.pi, math.pi))
            yield max_difference_up_to_phase(sandwich_jones(waveplate_compensation(dt)),
                                             rotation_z(-0.5 * dt))
    return _check("waveplate_compensation", 1e-12,
                  "100 random phases, max element difference up to phase", errors)


def check_tabletop_fit() -> list[CheckResult]:
    """Scaling fit over the embedded tabletop precision table."""
    fit = fit_scaling_law([(n, phi) for n, _, phi in TABLETOP_PRECISION_TABLE])
    return [_check(name, tolerance, "", lambda reading=reading: [reading])
            for name, tolerance, reading in (
                ("tabletop_fit_amplitude", 0.03,
                 (4.77e-9, fit.a, abs(fit.a - 4.77e-9) / 4.77e-9)),
                ("tabletop_fit_linear_coeff", 0.05,
                 (4.25, fit.b, abs(fit.b - 4.25) / 4.25)),
                ("tabletop_fit_r_squared", 0.0,
                 (0.985, fit.r_squared, max(0.0, 0.985 - fit.r_squared))))]


def run_all_checks(num_points: int = 1 << 14, seeds: int = 20,
                   instances: int = 10) -> list[CheckResult]:
    """The full oracle suite, each check at its own tolerance."""
    walks = functools.cache(functools.partial(_walk_readings, seeds, num_points))
    qfims = functools.cache(functools.partial(_qfim_readings, instances,
                                              min(num_points, 1 << 13)))
    return [
        check_bch_fidelity(seeds, walks),
        check_composite_phase(seeds, walks),
        check_g_identities(),
        check_switch_phase(seeds, walks),
        *(check_qfim_mode(mode, instances, qfims) for mode in QFIM_CLOSED_FORMS),
        check_probe_alone_identity(),
        check_sequential_scaling(),
        check_asymptote(),
        check_wva_mean_momentum(num_points),
        check_threshold_consistency(num_points),
        check_waveplates(),
        *check_tabletop_fit(),
    ]
