"""Property tests of the closed forms over generated moments and networks.

Derandomized, so every run draws the same examples; the seed-loop tests in
test_fisher.py and test_network.py and the oracle-verify checks stay as
they are.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesense import (GeneratorMoments, KickVector, NetworkGeometry,
                        g_params, probe_alone_qfi_at_origin, qcrb_global,
                        qfim_classical_switch, qfim_quantum_switch,
                        qfim_sequential)
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
