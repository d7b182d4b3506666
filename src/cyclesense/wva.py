"""Polarization ancilla, post-selection and the amplified momentum readout.

The polarization doubles as the order switch: H traverses the network
forward, V traverses it backward through a parity sandwich: the plain
reverse walk mirrored for a parity-even probe, the reverse walk with every
kick negated for any other.  Projecting the output polarization onto a
nearly-orthogonal state concentrates the tilt signal into the small
surviving amplitude with weak-value gain A_w; because the gain is imaginary
here, the branch-antisymmetric position displacement shows up as a momentum
shift of the surviving probe, which a Fourier lens plus quadrant detector
reads out directly.

The polarization is kept as an explicit two-component register tensored
with the grid state: one grid wavefunction per branch, both walked through
the network as the rows of one stack (a single row on a palindromic network
with an even probe, whose mirrored reverse walk is the forward walk); the
branches only meet in the final projection, so nothing needs a joint grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, PostSelectionError, RegimeError
from .grid import MOMENTUM, POSITION, WaveFunction, moments
from .network import (KickVector, NetworkGeometry, apply_propagation, g_params,
                      traverse_sequence)

#: smallness bounds for the first-order evolution (see wva_final_probe).
GUARD_AMPLIFIED_SHIFT = 0.05
GUARD_KICK_SPREAD = 0.05
GUARD_SINGLE_KICK = 0.5


@dataclass(frozen=True)
class PolarizationState:
    """Normalized Jones vector (amp_h, amp_v)."""

    amp_h: complex
    amp_v: complex

    def __post_init__(self):
        n = abs(self.amp_h) ** 2 + abs(self.amp_v) ** 2
        if not abs(n - 1.0) <= 1e-12:             # a NaN amplitude fails too
            raise DomainError(f"Jones vector norm^2 = {n}, expected 1")

    @classmethod
    def diagonal(cls) -> "PolarizationState":
        """The 45-degree linear state (|H> + |V>)/sqrt(2)."""
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    def inner(self, other: "PolarizationState") -> complex:
        """<self|other>."""
        return (self.amp_h.conjugate() * other.amp_h
                + self.amp_v.conjugate() * other.amp_v)


@dataclass(frozen=True)
class PostSelection:
    """Post-selected polarization (e^{i eps}|H> - e^{-i eps}|V>)/sqrt(2),
    offset by epsilon from the dark port: the purely imaginary gain
    A_w = i cot(eps), with success probability sin^2(eps).
    """

    epsilon: float

    def __post_init__(self):
        if not 0.0 < abs(self.epsilon) < 0.5 * math.pi:
            raise PostSelectionError(
                f"epsilon must lie strictly between 0 and pi/2 in magnitude, "
                f"got {self.epsilon}")

    @classmethod
    def from_weak_value_magnitude(cls, magnitude: float) -> "PostSelection":
        """Gain i * magnitude at epsilon = arccot(magnitude), e.g. 7 for the rig."""
        if not magnitude > 0:
            raise DomainError("weak-value magnitude must be positive")
        return cls(math.atan(1.0 / magnitude))

    @property
    def state(self) -> PolarizationState:
        s = 1.0 / math.sqrt(2.0)
        return PolarizationState(s * np.exp(1j * self.epsilon),
                                 -s * np.exp(-1j * self.epsilon))


@dataclass(frozen=True)
class ReadoutModel:
    """Fourier-lens / quadrant-detector chain constants.

    qpd_gain is the volts-per-watt conversion (responsivity times
    transresistance); position_slope is the detector's linear-response
    constant relating the normalized differential signal to the beam
    centroid in units of the beam radius.
    """

    focal_length: float
    qpd_gain: float
    total_power: float
    position_slope: float = 0.65

    def __post_init__(self):
        for name in ("focal_length", "qpd_gain", "total_power",
                     "position_slope"):                     # NaN fails too
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")


def weak_value(ps: PostSelection) -> complex:
    """A_w = <f|A|i>/<f|i> with A = |H><H| - |V><V| and the diagonal input.

    Evaluated from the inner products; equals i*cot(eps).
    """
    pre = PolarizationState.diagonal()
    post = ps.state
    accepted = post.inner(pre)
    flipped = post.inner(PolarizationState(pre.amp_h, -pre.amp_v))
    if abs(accepted) < 1e-15:
        raise PostSelectionError("pre- and post-selected states are orthogonal")
    return flipped / accepted


def wva_final_probe(psi: WaveFunction, geom: NetworkGeometry, kicks: KickVector,
                    ps: PostSelection, method: str = "exact_grid"
                    ) -> tuple[WaveFunction, float]:
    """Post-selected probe state and the post-selection success probability.

    exact_grid runs both polarization branches through the full operator
    product, between the lead-in and a projection onto the post-selected
    polarization; the state is returned in position space at the network
    output.  The reverse branch is parity-sandwiched: for an input exactly
    even on the grid (psi[j] == psi[-j mod n]) it is the plain reverse walk
    mirrored by j -> -j mod n, else the reverse walk with negated kicks.
    first_order applies the linearized joint evolution instead and is only
    allowed inside the small-signal guards: amplified displacement
    |A_w| (zbar/2k) N^2 tbar DeltaP < 0.05, accumulated kick
    N tbar DeltaX < 0.05 and each |theta_j| w0 < 0.5.
    """
    if method not in ("exact_grid", "first_order"):
        raise DomainError(f"unknown method {method!r}")
    psi.require_normalized()
    k = geom.wave_number

    if method == "exact_grid":
        # P psi = psi turns P R P U psi into P R U psi; psi is tested, not the
        # lead-in state, whose transforms break its evenness by an ulp
        even = np.array_equal(psi.amplitudes[1:], psi.amplitudes[:0:-1])
        # the lead-in state is passed unnamed, so the walk drops it once stacked
        fwd, rev = traverse_sequence(
            apply_propagation(psi, geom.lead_in, k) if geom.lead_in > 0 else psi,
            geom, kicks, parity_reverse=not even)
        # the outer P of an even input's arm: sample j to sample -j mod n
        v_arm = np.roll(rev.amplitudes[::-1], 1) if even else rev.amplitudes
        post = ps.state
        # joint state (fwd (x) H + rev (x) V)/sqrt(2) projected onto <post|
        amps = (post.amp_h.conjugate() * fwd.amplitudes
                + post.amp_v.conjugate() * v_arm) / math.sqrt(2.0)
        chi = WaveFunction(psi.grid, amps, POSITION)
        prob = chi.norm_squared()
        if prob < 1e-12:
            raise PostSelectionError(
                f"post-selection survival probability {prob:.3e} is degenerate")
        return chi.normalized(), prob

    m = moments(psi)
    delta_x = math.sqrt(m.var_x)
    delta_p = math.sqrt(m.var_p)
    w0 = 2.0 * delta_x
    n = geom.n_sensors
    tbar = kicks.theta_bar
    a_w = weak_value(ps)
    comp = g_params(geom, kicks)
    kappa = (geom.z_bar / (2.0 * k)) * _lead_gain(geom) * tbar

    # written as not metric < bound, so a NaN metric fails too
    amplified = abs(a_w) * (geom.z_bar / (2.0 * k)) * n**2 * abs(tbar) * delta_p
    if not amplified < GUARD_AMPLIFIED_SHIFT:
        raise RegimeError(
            f"amplified displacement metric {amplified:.3g} exceeds "
            f"{GUARD_AMPLIFIED_SHIFT}; use exact_grid")
    if not n * abs(tbar) * delta_x < GUARD_KICK_SPREAD:
        raise RegimeError(
            f"accumulated kick metric {n * abs(tbar) * delta_x:.3g} exceeds "
            f"{GUARD_KICK_SPREAD}; use exact_grid")
    if not all(abs(t) * w0 < GUARD_SINGLE_KICK for t in kicks.thetas):
        raise RegimeError(
            f"a single kick times the beam width exceeds {GUARD_SINGLE_KICK}; "
            f"use exact_grid")

    pos = psi.to_position()
    x = psi.grid.positions
    p_psi = WaveFunction(psi.grid,
                         psi.grid.momenta * psi.to_momentum().amplitudes,
                         MOMENTUM).to_position()
    amps = (pos.amplitudes
            - 1j * a_w * kappa * p_psi.amplitudes
            - 1j * (comp.g1 - comp.g2) / (2.0 * k) * p_psi.amplitudes
            - 1j * a_w * n * tbar * x * pos.amplitudes)
    bracket = WaveFunction(psi.grid, amps, POSITION)
    survival = abs(ps.state.inner(PolarizationState.diagonal())) ** 2
    prob = survival * bracket.norm_squared()
    out = apply_propagation(bracket.normalized(), geom.z_total, k).to_position()
    return out, prob


def first_order_momentum_shift(geom: NetworkGeometry, var_p: float,
                               ps: PostSelection, theta_bar: float) -> float:
    """Linear-response momentum shift of the post-selected probe.

    2 cot(eps) VarP [ (zbar/2k) N^2 + (zbar/2k + z_in/k) N ] tbar.
    cot(eps) is the exact first-order gain; quoting 1/eps instead is the
    small-epsilon shorthand.
    """
    if not 0 < var_p < math.inf:
        raise DomainError(f"var_p must be positive and finite, got {var_p}")
    if not math.isfinite(theta_bar):
        raise DomainError(f"theta_bar must be finite, got {theta_bar}")
    bracket = (geom.z_bar / (2.0 * geom.wave_number)) * _lead_gain(geom)
    shift = 2.0 / math.tan(ps.epsilon) * var_p * bracket * theta_bar
    if not abs(shift) < math.inf:             # NaN fails too
        raise DomainError(f"momentum shift {shift} for var_p {var_p} and theta_bar "
                          f"{theta_bar} leaves the float range")
    return shift


def momentum_readout(psi_f: WaveFunction, readout: ReadoutModel,
                     wave_number: float) -> tuple[float, float]:
    """Beam-centroid observable (f/k) P at the detector plane.

    Returns (mean, spread) of the measured displacement; for the Gaussian
    probe the spread is the constant f/(w0 k).
    """
    if not 0 < wave_number < math.inf:        # NaN fails too
        raise DomainError(f"wave_number must be positive and finite, got {wave_number}")
    psi_f.require_normalized()
    m = moments(psi_f)
    scale = readout.focal_length / wave_number
    mean, spread = scale * m.mean_p, scale * math.sqrt(m.var_p)
    if not (abs(mean) < math.inf and spread < math.inf):   # an overflowed f/k too
        raise DomainError(f"detector displacement mean {mean}, spread {spread} for "
                          f"f/k {scale} leaves the float range")
    return mean, spread


def _lead_gain(geom: NetworkGeometry) -> float:
    """N^2 + (1 + 2 z_in/zbar) N, the factor by which the network scales the
    readout signal of an average tilt."""
    n = geom.n_sensors
    return n**2 + (1.0 + 2.0 * geom.lead_in / geom.z_bar) * n


def min_detectable_tilt(geom: NetworkGeometry, delta_p: float,
                        ps: PostSelection) -> tuple[float, float]:
    """Single-shot detection threshold where signal equals spread.

    delta_theta_min = (k eps / (zbar DeltaP)) / (N^2 + (1 + 2 z_in/zbar) N);
    returns (delta_theta_min, delta_phi_min) with phi = theta/k.
    """
    if not 0 < delta_p < math.inf:
        raise DomainError(f"delta_p must be positive and finite, got {delta_p}")
    k = geom.wave_number
    try:
        d_theta = (k * abs(ps.epsilon) / (geom.z_bar * delta_p)) / _lead_gain(geom)
    except ZeroDivisionError:                 # z_bar * delta_p underflowed
        d_theta = math.inf
    if not d_theta < math.inf:                # NaN fails too
        raise DomainError(f"delta_theta_min {d_theta} for delta_p {delta_p} leaves "
                          f"the float range")
    return d_theta, d_theta / k


def qpd_signal(phi_bar: float, geom: NetworkGeometry, waist_radius: float,
               ps: PostSelection, readout: ReadoutModel) -> tuple[float, float]:
    """Differential detector signal for an average beam tilt phi_bar.

    I_delta = zbar I0 / (2 slope eps w0) * [N^2 + (1 + 2 z_in/zbar) N] *
    phi_bar, obtained by inverting the detector's centroid relation at the
    received radius 2f/(w0 k); V_delta is the electrical output gain *
    I_delta.  Valid in the same small-signal regime as the linearized
    evolution.
    """
    if not 0 < waist_radius < math.inf:
        raise DomainError(f"waist_radius must be positive and finite, got {waist_radius}")
    if not math.isfinite(phi_bar):
        raise DomainError(f"phi_bar must be finite, got {phi_bar}")
    try:
        i_delta = (geom.z_bar * readout.total_power
                   / (2.0 * readout.position_slope * ps.epsilon * waist_radius)) \
            * _lead_gain(geom) * phi_bar
    except ZeroDivisionError:                 # the denominator underflowed
        i_delta = math.inf
    v_delta = readout.qpd_gain * i_delta
    if not abs(v_delta) < math.inf:           # NaN fails too, and so does I_delta
        raise DomainError(f"detector signal I_delta {i_delta}, V_delta {v_delta} for "
                          f"phi_bar {phi_bar} leaves the float range")
    return i_delta, v_delta


# -- wave-plate compensation -----------------------------------------------------


SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
QWP_JONES = np.array([[1.0, 0.0], [0.0, 1j]])
HWP_JONES = np.array([[1.0, 0.0], [0.0, -1.0]])


def rotation_y(angle: float) -> np.ndarray:
    return math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * SIGMA_Y


def rotation_z(angle: float) -> np.ndarray:
    return math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * SIGMA_Z


def quarter_wave_plate(angle: float) -> np.ndarray:
    """QWP with fast axis at `angle` from horizontal."""
    return rotation_y(angle) @ QWP_JONES @ rotation_y(-angle)


def half_wave_plate(angle: float) -> np.ndarray:
    """HWP with fast axis at `angle` from horizontal."""
    return rotation_y(angle) @ HWP_JONES @ rotation_y(-angle)


def waveplate_compensation(delta_theta: float) -> tuple[float, float, float]:
    """Plate angles canceling a relative phase delta_theta between H and V.

    The compensation unitary is R_z(-delta_theta/2); in the sandwich both
    quarter-wave plates sit at -45 degrees and the half-wave plate at
    delta_theta/4 - 45 degrees.
    """
    if not math.isfinite(delta_theta):
        raise DomainError(f"delta_theta must be finite, got {delta_theta}")
    return -0.25 * math.pi, 0.25 * delta_theta - 0.25 * math.pi, -0.25 * math.pi


def sandwich_jones(angles: tuple[float, float, float]) -> np.ndarray:
    """Jones matrix of the QWP-HWP-QWP sandwich at the given fast-axis angles."""
    qwp1, hwp, qwp2 = angles
    return quarter_wave_plate(qwp1) @ half_wave_plate(hwp) @ quarter_wave_plate(qwp2)


def max_difference_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry difference after aligning the global phases of a and b."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(a[idx]) < 1e-15:
        return float(np.max(np.abs(a - b)))
    phase = b[idx] / a[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(a * phase - b)))
