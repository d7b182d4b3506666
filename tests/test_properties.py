"""Property tests of the closed forms over generated moments and networks,
and of the readout formulas over finite floats of the whole range.

Derandomized, so every run draws the same examples; the seed-loop tests in
test_fisher.py and test_network.py and the oracle-verify checks stay as
they are.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesense import (DomainError, GeneratorMoments, KickVector, NetworkGeometry,
                        NoiseModel, PostSelection, ReadoutModel, SensorDriveModel,
                        first_order_momentum_shift, g_params, min_detectable_tilt,
                        probe_alone_qfi_at_origin, qcrb_global, qfim_classical_switch,
                        qfim_quantum_switch, qfim_sequential, qpd_signal, snr_model,
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


def readout(draw):
    return ReadoutModel(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE), draw(POSITIVE))


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
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CALLS))
@deterministic
@given(data=st.data())
def test_finite_floats_give_finite_values_or_fail_by_name(name, data):
    """A finite input either gives finite values or raises DomainError, which
    the CLI reports with exit code 3; never inf, NaN or another exception."""
    try:
        out = BOUNDARY_CALLS[name](data.draw)
    except DomainError:
        return
    assert np.isfinite(out).all(), out
