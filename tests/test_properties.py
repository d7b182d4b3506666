"""Property tests of the closed forms over generated moments and networks,
of the grid operators over generated Gaussians, and of the readout formulas,
g_params, qcrb_global and the bounds of GeneratorMoments over finite floats
of the whole range; a table of the other public callables at the edges of
their domains.

Derandomized, so every run draws the same examples; the seed-loop tests in
test_fisher.py and test_network.py and the oracle-verify checks stay as
they are.
"""

from dataclasses import astuple
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesense import (ConvergenceError, DomainError, EstimabilityError, FitError,
                        GeneratorMoments, Grid, GridError, GridOverflowError, KickVector,
                        NetworkGeometry, NoiseModel, PostSelection, ProbeSpec,
                        ReadoutModel, SensorDriveModel, SwitchMode, apply_kick,
                        apply_parity, apply_propagation, apply_shift,
                        first_order_momentum_shift, fit_scaling_law,
                        fit_snr_vs_voltage, g_params, make_gaussian,
                        min_detectable_tilt, momentum_readout,
                        probe_alone_qfi_at_origin, qcrb_comparison, qcrb_global,
                        qfim_classical_switch, qfim_numerical, qfim_quantum_switch,
                        qfim_sequential, qpd_signal, snr_model, switched_state_family,
                        voltage_to_beam_tilt, waveplate_compensation)
from cyclesense.fisher import RANK_TOL

deterministic = settings(derandomize=True, deadline=None, database=None)


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def physical_moments(draw):
    """Generator moments with Var X * Var P - Cov^2 >= 1/4 (k = 1 units)."""
    var_x = draw(log_uniform(-2, 2))
    cov = draw(st.floats(-3.0, 3.0))
    excess = draw(st.floats(0.0, 10.0))
    var_p = (0.25 + cov**2) / var_x * (1.0 + excess)
    return GeneratorMoments(var_x, var_p, cov, draw(st.floats(-1.0, 1.0)),
                            draw(log_uniform(-1, 1)), draw(log_uniform(-1, 1)),
                            draw(st.integers(1, 200)),
                            draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))


@st.composite
def networks(draw):
    n = draw(st.integers(1, 8))
    legs = draw(st.lists(st.floats(0.2, 3.0), min_size=n + 1, max_size=n + 1))
    kicks = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    return NetworkGeometry(tuple(legs), wave_number=1.0), KickVector(tuple(kicks))


@deterministic
@given(physical_moments())
def test_closed_forms_are_psd(gm):
    for closed in (qfim_sequential, qfim_quantum_switch, qfim_classical_switch):
        q = closed(gm)
        tr = abs(q[0, 0]) + abs(q[1, 1])
        least = np.linalg.eigvalsh(q).min()
        assert least >= -RANK_TOL * max(tr, 1e-300), closed.__name__


@deterministic
@given(physical_moments())
def test_classical_switch_is_mean_of_sequential_and_mirror(gm):
    fwd = qfim_sequential(gm)
    rev = fwd[::-1, ::-1]                     # g1 and g2 swap roles
    assert qfim_classical_switch(gm) == pytest.approx(0.5 * (fwd + rev))


@deterministic
@given(physical_moments())
def test_probe_alone_equals_classical_switch_bound(gm):
    n = gm.n_sensors
    alone = probe_alone_qfi_at_origin(gm)
    csw = qcrb_global(qfim_classical_switch(gm), n, gm.z_bar)
    assert abs(alone - csw) / csw < 1e-12


@deterministic
@given(networks())
def test_g_params_identities(instance):
    geom, kicks = instance
    comp = g_params(geom, kicks)
    n = geom.n_sensors
    span = (n + 1) * geom.z_bar
    assert comp.g1 + comp.g2 == pytest.approx(span * n * kicks.theta_bar, rel=1e-12)
    assert comp.xi1 - comp.xi2 == pytest.approx(
        (comp.g1**2 - comp.g2**2) / span, rel=1e-12, abs=1e-16)


@st.composite
def gaussians(draw):
    """A Gaussian (k = 1) of random waist and centre on a random grid, and its
    waist w0."""
    w0 = draw(log_uniform(-4, 1))
    grid = Grid(1 << draw(st.integers(8, 11)), w0 * draw(st.floats(8.0, 16.0)))
    spec = ProbeSpec(w0, 1.0, draw(st.floats(-w0, w0)), draw(st.floats(-2.0, 2.0)) / w0)
    return make_gaussian(spec, grid), w0


#: each unitary step at a size u in [-1, 1], scaled to stay inside the grid
#: guards for the Gaussians above: a kick of up to 4 momentum spreads 1/w0,
#: a propagation of up to w0^2 / 2, a shift of up to one waist
UNITARY_STEPS = {
    "apply_kick": lambda psi, w0, u: apply_kick(psi, 4.0 * u / w0),
    "apply_propagation": lambda psi, w0, u: apply_propagation(
        psi, 0.5 * abs(u) * w0**2, 1.0),
    "apply_shift": lambda psi, w0, u: apply_shift(psi, u * w0),
}


@pytest.mark.parametrize("name", sorted(UNITARY_STEPS))
@deterministic
@given(gaussians(), st.floats(-1.0, 1.0))
def test_unitary_steps_keep_the_norm(name, gaussian, u):
    psi, w0 = gaussian
    assert abs(UNITARY_STEPS[name](psi, w0, u).norm_squared() - 1.0) <= 1e-12


@deterministic
@given(gaussians())
def test_parity_is_an_involution(gaussian):
    psi, _ = gaussian
    for state in (psi, psi.to_momentum()):
        twice = apply_parity(apply_parity(state))
        assert np.array_equal(twice.amplitudes, state.amplitudes)


#: every finite float, subnormals and both signed zeros included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
#: the whole domain of PostSelection, so that the record itself never fails
EPSILONS = st.floats(-0.5 * math.pi, 0.5 * math.pi, exclude_min=True,
                     exclude_max=True).filter(lambda e: e != 0.0)


def geometry(draw):
    return NetworkGeometry.uniform(draw(st.integers(1, 300)), draw(NON_NEGATIVE),
                                   draw(NON_NEGATIVE), draw(POSITIVE))


#: a normalized state to read out, the same for every example
DETECTED = make_gaussian(ProbeSpec(2.0, 1.0, center_p=0.1), Grid(256, 24.0))


def readout(draw):
    return ReadoutModel(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE), draw(POSITIVE))


def kicked_network(draw):
    """Legs from zero through subnormal to huge, kicks over all finite floats."""
    n = draw(st.integers(1, 8))
    return (NetworkGeometry(tuple(draw(st.lists(NON_NEGATIVE, min_size=n + 1,
                                                max_size=n + 1)))),
            KickVector(tuple(draw(st.lists(FINITE, min_size=n, max_size=n)))))


def information_matrix(draw):
    q12 = draw(FINITE)
    return (draw(FINITE), q12), (q12, draw(FINITE))


def projected_bounds(draw):
    """The closed-form bounds of moments with |Cov| <= sqrt(Var X Var P), at
    any k, from a subnormal to a huge zbar and any g: each mode's matrix
    projected by qcrb_global, and the probe-alone bound; every bound must be
    positive (its log finite)."""
    var_x, var_p = draw(POSITIVE), draw(POSITIVE)
    cov = draw(st.floats(-1.0, 1.0)) * math.sqrt(var_x) * math.sqrt(var_p)
    n, z_bar = draw(st.integers(1, 10**6)), draw(POSITIVE)
    gm = GeneratorMoments(var_x, var_p, cov, draw(FINITE), draw(POSITIVE), z_bar, n,
                          draw(FINITE), draw(FINITE))
    return [*(math.log(qcrb_global(form(gm), n, z_bar)) for form in (
        qfim_sequential, qfim_quantum_switch, qfim_classical_switch)),
        math.log(probe_alone_qfi_at_origin(gm))]


def paired_lists(draw, first, second):
    """One to six pairs drawn from two strategies."""
    size = draw(st.integers(1, 6))
    return (draw(st.lists(first, min_size=size, max_size=size)),
            draw(st.lists(second, min_size=size, max_size=size)))


def scaling_points(draw):
    """Sensor counts from 1 to huge, tilts from subnormal to huge."""
    return list(zip(*paired_lists(draw, st.floats(1.0, allow_infinity=False),
                                  POSITIVE)))


def probe(draw):
    return ProbeSpec(draw(POSITIVE), draw(POSITIVE), center_p=draw(FINITE))


#: a w0 = 2 Gaussian at k = 1 on 2^10 points, sized for two unit legs
FAMILY_GEOMETRY = NetworkGeometry.uniform(2, 1.0, wave_number=1.0)
FAMILY_PROBE = make_gaussian(ProbeSpec(2.0, 1.0), Grid.for_probe(
    ProbeSpec(2.0, 1.0), FAMILY_GEOMETRY.z_total, 1 << 10))


def family(draw):
    """The reduced-traversal builder of FAMILY_PROBE for a drawn strategy."""
    return switched_state_family(FAMILY_PROBE, FAMILY_GEOMETRY, draw(st.sampled_from(
        [SwitchMode.SEQUENTIAL, SwitchMode.QUANTUM_SWITCH, SwitchMode.CLASSICAL_SWITCH])))


def probe_grid_spacings(draw):
    grid = Grid.for_probe(probe(draw), draw(NON_NEGATIVE),
                          1 << draw(st.integers(1, 20)), draw(POSITIVE))
    return grid.dx, grid.dp


#: each call draws every float it reads: records are built from their own
#: domains, and the callable's own float arguments range over all of FINITE
BOUNDARY_CALLS = {
    "qpd_signal": lambda d: qpd_signal(
        d(FINITE), geometry(d), d(FINITE), PostSelection(d(EPSILONS)), readout(d)),
    "snr_model": lambda d: snr_model(
        d(FINITE), geometry(d), d(FINITE), PostSelection(d(EPSILONS)), readout(d),
        NoiseModel(d(POSITIVE))),
    "min_detectable_tilt": lambda d: min_detectable_tilt(
        geometry(d), d(FINITE), PostSelection(d(EPSILONS))),
    "first_order_momentum_shift": lambda d: first_order_momentum_shift(
        geometry(d), d(FINITE), PostSelection(d(EPSILONS)), d(FINITE)),
    "voltage_to_beam_tilt": lambda d: voltage_to_beam_tilt(
        d(FINITE), SensorDriveModel(d(POSITIVE), d(POSITIVE), d(POSITIVE))),
    "waveplate_compensation": lambda d: waveplate_compensation(d(FINITE)),
    "momentum_readout": lambda d: momentum_readout(DETECTED, readout(d), d(FINITE)),
    "g_params": lambda d: astuple(g_params(*kicked_network(d))),
    "qcrb_global": lambda d: math.log(qcrb_global(
        np.array(information_matrix(d)), d(st.integers(1, 300)), d(POSITIVE))),
    "GeneratorMoments": projected_bounds,
    "fit_scaling_law": lambda d: astuple(fit_scaling_law(scaling_points(d))),
    "Grid.for_probe": probe_grid_spacings,
    "qcrb_comparison": lambda d: qcrb_comparison(
        d(st.lists(st.integers(1, 10**9), min_size=1, max_size=4)), probe(d),
        d(POSITIVE)),
    "fit_snr_vs_voltage": lambda d: fit_snr_vs_voltage(
        d(st.integers(1, 300)), *paired_lists(d, FINITE, NON_NEGATIVE)),
    "switched_state_family": lambda d: [psi.amplitudes for _, psi in family(d)(
        d(FINITE), d(FINITE)).branches],
    "qfim_numerical": lambda d: qfim_numerical(
        family(d), (d(FINITE), d(FINITE)), d(FINITE)),
}


#: what each call may raise besides DomainError: the projections may also
#: meet a singular matrix, the fits name their own failures, a grid whose
#: spacing leaves the float range raises GridError, a state family pushed
#: off its grid GridOverflowError, and finite differences that do not
#: converge ConvergenceError
NAMED = {"qcrb_global": (EstimabilityError,), "GeneratorMoments": (EstimabilityError,),
         "fit_scaling_law": (FitError,), "fit_snr_vs_voltage": (FitError,),
         "Grid.for_probe": (GridError,),
         "switched_state_family": (GridOverflowError,),
         "qfim_numerical": (GridOverflowError, ConvergenceError)}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CALLS))
@deterministic
@given(data=st.data())
def test_finite_floats_give_finite_values_or_fail_by_name(name, data):
    """A finite input either gives finite values or raises DomainError (or
    the error NAMED for it), which the CLI reports with exit code 3; never
    inf, NaN or another exception."""
    named = (DomainError, *NAMED.get(name, ()))
    try:
        out = BOUNDARY_CALLS[name](data.draw)
    except named:
        return
    assert np.isfinite(out).all(), out


NAN, INF = math.nan, math.inf
#: a w0 = 2 Gaussian at k = 1, zbar = 1, N = 3: Var X Var P - Cov^2 = 1/4
UNIT_MOMENTS = dict(var_x=1.0, var_p=0.25, cov_xp=0.0, mean_p=0.0, wave_number=1.0,
                    z_bar=1.0, n_sensors=3, g1=0.0, g2=0.0)
UNIT_PROBE = ProbeSpec(2.0, 1.0)


# Each callable below takes in-domain defaults, so that a row changes one input.

def closed_forms(**changed):
    gm = GeneratorMoments(**{**UNIT_MOMENTS, **changed})
    return np.concatenate([np.ravel(form(gm)) for form in (
        qfim_sequential, qfim_quantum_switch, qfim_classical_switch,
        probe_alone_qfi_at_origin)])


def huge_moments(var_x=1e150):
    """Moments whose Var X Var P overflows at var_x = 7.3e307, where the
    probe-alone bound 1/(N^2 ((N+1) zbar)^2 Var(H0)) once read 0."""
    spread = 1.752627053957097e106
    return closed_forms(var_x=var_x, var_p=spread, cov_xp=spread, mean_p=spread,
                        wave_number=7186057869756545.0, z_bar=spread, n_sensors=100301)


def projection(n=3, z_bar=1.0, q=((1.0, 0.0), (0.0, 1.0))):
    return qcrb_global(np.array(q), n, z_bar)


def kick_sums(kick=0.1, leg=1.0, kicks=None, legs=None):
    return astuple(g_params(NetworkGeometry(legs or (leg, 1.0), wave_number=1.0),
                            KickVector(kicks or (kick,))))


def kick_sums_over_long_legs(kick=0.1):
    return kick_sums(kick, legs=(1e300, 1e300))


def two_kick_sums(kicks=(0.1, 0.1)):
    return kick_sums(kicks=kicks, legs=(1.0, 1.0, 1.0))


def probe_grid(total_path=1.0, num_points=1 << 10, padding=8.0):
    grid = Grid.for_probe(UNIT_PROBE, total_path, num_points, padding)
    return grid.dx, grid.dp


def scaling_law(n=4, tilt=0.05, base=((1, 0.5), (2, 1 / 6), (3, 1 / 12))):
    return astuple(fit_scaling_law([*base, (n, tilt)]))


def snr_line(volt=1e-3, snr=1.0, volts=(2e-3, 3e-3)):
    return fit_snr_vs_voltage(1, [volt, *volts], [snr, 2.0, 3.0])


def bound_table(n=2, z_bar=1.0):
    return qcrb_comparison([1, n], UNIT_PROBE, z_bar)


def family_state(g1=0.01, g2=0.02):
    state = switched_state_family(FAMILY_PROBE, FAMILY_GEOMETRY,
                                  SwitchMode.QUANTUM_SWITCH)(g1, g2)
    return np.concatenate([psi.amplitudes for _, psi in state.branches]).view(float)


def family_matrix(step=1e-3):
    return qfim_numerical(switched_state_family(
        FAMILY_PROBE, FAMILY_GEOMETRY, SwitchMode.QUANTUM_SWITCH), (0.01, 0.02), step)


NOT_FINITE = (NAN, INF, -INF)
NOT_POSITIVE = NOT_FINITE + (0.0, -1.0)

#: (callable, argument, values its domain excludes, the error they raise,
#: values its domain holds)
DOMAINS = [
    (closed_forms, "var_x", NOT_POSITIVE, DomainError, ()),
    (closed_forms, "var_p", NOT_POSITIVE, DomainError, ()),
    # |Cov| must stay below sqrt(Var X Var P) = 1/2
    (closed_forms, "cov_xp", NOT_FINITE + (0.5, 2.0, -5.0), DomainError, (0.0, -0.4)),
    (closed_forms, "mean_p", NOT_FINITE, DomainError, (0.0, -1.0)),
    (closed_forms, "wave_number", NOT_POSITIVE, DomainError, ()),
    # the probe-alone bound 1/(N^2 ((N+1) zbar)^2 Var(H0)) reads 0 from 2e153
    # on, where N^2 ((N+1) zbar)^2 Var(H0) overflows in its evaluation order
    (closed_forms, "z_bar", NOT_POSITIVE + (2e153, 3e153), DomainError, (1e153,)),
    (closed_forms, "n_sensors", NOT_POSITIVE, DomainError, (1,)),
    (closed_forms, "g1", NOT_FINITE, DomainError, (0.0, -1.0)),
    (closed_forms, "g2", NOT_FINITE, DomainError, (0.0, -1.0)),
    (huge_moments, "var_x", (7.314629951103294e307,), DomainError, (1e201,)),
    (projection, "n", NOT_POSITIVE, DomainError, (1,)),
    # the Jacobian weight 1/(N (N+1) zbar) over- and underflows at 1e-320 and
    # 1e308, the bound, of order its square, at 1e-200 and 1e200, and at
    # 8e-156 only the sum of the bound's two finite terms overflows
    (projection, "z_bar", NOT_POSITIVE + (1e-320, 1e308, 1e-200, 1e200, 8e-156),
     DomainError, (1e-100, 1e100)),
    # a non-finite entry, or an eigenvalue of -1: no information matrix is
    # indefinite or negative
    (projection, "q", (((NAN, 0.0), (0.0, 1.0)), ((INF, 0.0), (0.0, 1.0)),
                       ((0.0, 1.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, -1.0)),
                       ((-1.0, 0.0), (0.0, -1.0))), DomainError, ()),
    (projection, "q", (((0.0, 0.0), (0.0, 0.0)),),
     EstimabilityError, (((1.0, 1.0), (1.0, 1.0)),)),
    # xi = z kick^2 overflows at 1e200, g = z kick at 1e10 over 1e300 legs,
    # and the partial sum of the two kicks 1.7e308
    (kick_sums, "kick", NOT_FINITE + (1e200,), DomainError, (0.0, -0.1, 1e150)),
    (kick_sums_over_long_legs, "kick", (1e10,), DomainError, (0.1, -1.0)),
    (two_kick_sums, "kicks", ((1.7e308, 1.7e308),), DomainError, ((1e150, -1e150),)),
    (kick_sums, "leg", NOT_FINITE + (-1.0,), DomainError, (0.0,)),
    (kick_sums, "legs", ((0.0, 0.0),), DomainError, ()),
    (kick_sums, "kicks", ((0.1, 0.1),), DomainError, ()),
    (probe_grid, "total_path", NOT_FINITE, DomainError, (0.0,)),
    (probe_grid, "num_points", (0, -2), DomainError, ()),
    (probe_grid, "padding", NOT_POSITIVE, DomainError, ()),
    (scaling_law, "n", NOT_POSITIVE, FitError, ()),
    (scaling_law, "tilt", NOT_POSITIVE, FitError, ()),
    (scaling_law, "base", (((-1, 4.0), (-2, 1.5), (-3, 0.8)),), FitError, ()),
    (snr_line, "volt", NOT_FINITE, FitError, (0.0,)),
    (snr_line, "volts", ((-2e-3, -3e-3),), FitError, ()),
    (snr_line, "snr", NOT_FINITE + (-1.0,), FitError, (0.0,)),
    (bound_table, "n", (0, -1), DomainError, ()),
    (bound_table, "z_bar", NOT_POSITIVE, DomainError, ()),
    # a g1 that is not finite is refused by name, g1^2 overflows at 1e155,
    # and at 1e154 the kick (g1 + g2)/((N+1) zbar) leaves the momentum window
    (family_state, "g1", NOT_FINITE + (1e155,), DomainError, (0.0, -1.0)),
    (family_state, "g1", (1e154,), GridOverflowError, ()),
    # the h/2 differences of a subnormal step overflow to a non-finite matrix
    (family_matrix, "step", NOT_POSITIVE, DomainError, (1e-2, 1e-4)),
    (family_matrix, "step", (1e-320, 5e-324), ConvergenceError, ()),
]

EDGE_CASES = [pytest.param(call, {arg: value}, error, id=f"{call.__name__}-{arg}={value}")
              for call, arg, excluded, raised, held in DOMAINS
              for values, error in ((excluded, raised), (held, None))
              for value in values]


@pytest.mark.parametrize("call,kwargs,error", EDGE_CASES)
def test_domain_edges_give_finite_values_or_fail_by_name(call, kwargs, error):
    """A value outside the domain raises the CycleSenseError subclass that its
    row names; a value inside gives finite values."""
    if error is None:
        assert np.isfinite(np.asarray(call(**kwargs), dtype=float)).all()
    else:
        with pytest.raises(error):
            call(**kwargs)
