"""Sensing-network unitaries on the grid and their analytic composites.

A traversal of the cyclic network alternates momentum kicks exp(-i theta X)
at the sensing nodes with free propagations exp(-i z P^2 / 2k) between them.
Because kick and propagation do not commute, a full traversal collapses (by
repeated use of the displacement algebra) to a propagation over the total
length, one momentum-generated shift, one position-generated kick and a
scalar dynamic phase.  The distance-weighted kick sums g1 (forward order)
and g2 (reverse order) parameterize that reduced form; the composite
builders here apply it as plain grid phases, while traverse_sequence applies
the raw operator product and serves as the brute-force oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import GridOverflowError
from .fisher import JointState, SwitchMode
from .grid import (MOMENTUM, POSITION, Moments, WaveFunction, moments,
                   symmetric_phase)

#: default wavelength of the tabletop rig (m) and its wave number (1/m).
DEFAULT_WAVELENGTH = 780e-9
DEFAULT_WAVE_NUMBER = 2.0 * math.pi / DEFAULT_WAVELENGTH

#: ancilla populations of the balanced control (both orders equally likely).
BALANCED_WEIGHTS = (0.5, 0.5)


@dataclass(frozen=True)
class NetworkGeometry:
    """Node spacing of the cyclic network.

    distances holds the N+1 legs z_0 .. z_N: z_0 from the server to the
    first sensor, z_j between sensors j and j+1, z_N back to the server.
    lead_in and lead_out are the free paths before the network input and
    after its output.
    """

    distances: tuple[float, ...]
    lead_in: float = 0.0
    lead_out: float = 0.0
    wave_number: float = DEFAULT_WAVE_NUMBER

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(float(z) for z in self.distances))
        if len(self.distances) < 2:
            raise ValueError("need at least two legs (one sensor)")
        if any(z < 0 for z in self.distances):
            raise ValueError("leg distances must be non-negative")
        if self.lead_in < 0 or self.lead_out < 0:
            raise ValueError("lead distances must be non-negative")
        if not self.wave_number > 0:
            raise ValueError("wave_number must be positive")

    @property
    def n_sensors(self) -> int:
        return len(self.distances) - 1

    @property
    def z_bar(self) -> float:
        return sum(self.distances) / len(self.distances)

    @property
    def z_total(self) -> float:
        return self.lead_in + sum(self.distances) + self.lead_out

    @classmethod
    def uniform(cls, n_sensors: int, z_bar: float = 0.2, lead_in: float = 0.0,
                lead_out: float = 0.0, wave_number: float = DEFAULT_WAVE_NUMBER
                ) -> "NetworkGeometry":
        """Equidistant network; the lab preset uses z_bar = 20 cm legs."""
        return cls((z_bar,) * (n_sensors + 1), lead_in, lead_out, wave_number)


@dataclass(frozen=True)
class KickVector:
    """Momentum kicks theta_j applied at the N sensing nodes."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if len(self.thetas) < 1:
            raise ValueError("need at least one kick")

    def __len__(self) -> int:
        return len(self.thetas)

    @property
    def theta_bar(self) -> float:
        return sum(self.thetas) / len(self.thetas)

    def tilt_angles(self, wave_number: float) -> tuple[float, ...]:
        """Equivalent beam-tilt angles phi_j = theta_j / k."""
        return tuple(t / wave_number for t in self.thetas)

    @classmethod
    def uniform(cls, n_sensors: int, theta_bar: float) -> "KickVector":
        return cls((theta_bar,) * n_sensors)


@dataclass(frozen=True)
class CompositeEvolution:
    """Scalars of the reduced traversal: shift weights g1/g2, phase sums xi1/xi2."""

    g1: float
    g2: float
    xi1: float
    xi2: float


def g_params(geom: NetworkGeometry, kicks: KickVector) -> CompositeEvolution:
    """Distance-weighted kick sums of both traversal orders.

    g1 = sum_j z_j * (sum of kicks after leg j) for the forward order,
    g2 = sum_j z_j * (sum of kicks before leg j) for the reverse order,
    and xi1/xi2 are the same sums with the kick partial sums squared (they
    generate the dynamic phase).  Identities g1 + g2 = (N+1) N zbar tbar
    and xi1 - xi2 = (g1^2 - g2^2) / ((N+1) zbar) hold exactly.
    """
    n = geom.n_sensors
    if len(kicks) != n:
        raise ValueError(f"{len(kicks)} kicks for a network with {n} sensors")
    z = geom.distances
    th = kicks.thetas
    tail = np.cumsum(th[::-1])[::-1]          # tail[j] = sum_{l>=j} theta_l
    head = np.cumsum(th)                      # head[j] = sum_{l<=j} theta_l
    g1 = float(sum(z[j] * tail[j] for j in range(n)))
    g2 = float(sum(z[j + 1] * head[j] for j in range(n)))
    xi1 = float(sum(z[j] * tail[j] ** 2 for j in range(n)))
    xi2 = float(sum(z[j + 1] * head[j] ** 2 for j in range(n)))
    return CompositeEvolution(g1, g2, xi1, xi2)


# -- elementary grid operations ----------------------------------------------


def _guard_moments(psi: WaveFunction) -> Moments:
    """The moments psi carries, measured on the grid when it carries none."""
    return psi.guard_moments if psi.guard_moments is not None else moments(psi)


def apply_kick(psi: WaveFunction, theta: float) -> WaveFunction:
    """Sensor unitary exp(-i theta X): phase mask in position space.

    Guards the momentum window: if the kicked mean momentum plus two spreads
    exceeds half of the Nyquist momentum pi/dx the step raises
    GridOverflowError instead of aliasing silently.  The kick sends
    <P> -> <P> - theta and leaves the second moments unchanged.
    """
    psi.require_normalized()
    m = _guard_moments(psi)
    m = replace(m, mean_p=m.mean_p - theta)
    p_edge = abs(m.mean_p) + 2.0 * math.sqrt(m.var_p)
    p_max = math.pi / psi.grid.dx
    if p_edge > 0.5 * p_max:
        raise GridOverflowError(
            f"kicking by {theta} would spread the momentum distribution to "
            f"{p_edge:.3g}, beyond half of the momentum window {p_max:.3g}")
    pos = psi.to_position()
    amps = pos.amplitudes * psi.grid.kick_mask(theta)
    return WaveFunction._adopt(psi.grid, amps, POSITION, m)


def apply_shift(psi: WaveFunction, displacement: float) -> WaveFunction:
    """Translation exp(-i d P): moves the state by +d in position."""
    mom = psi.to_momentum()
    amps = mom.amplitudes * symmetric_phase(psi.grid.momenta,
                                            lambda p: -displacement * p, odd=True)
    m = psi.guard_moments
    moved = None if m is None else replace(m, mean_x=m.mean_x + displacement)
    return WaveFunction._adopt(psi.grid, amps, MOMENTUM, moved)


def apply_propagation(psi: WaveFunction, z: float, wave_number: float) -> WaveFunction:
    """Free propagation exp(-i z P^2 / 2k) as a momentum-space phase.

    Guards against the diffracted beam outgrowing the grid: if the radius
    predicted from the current moments exceeds half of the grid window the
    step raises GridOverflowError instead of aliasing silently.  The guard
    reads the input's guard_moments and measures the grid only when it
    carries none; the output carries them propagated exactly by
    X -> X + (z/k) P.  moments() of the result still measures the grid.
    """
    psi.require_normalized()
    if z < 0:
        raise ValueError(f"propagation distance must be non-negative, got {z}")
    m = psi.guard_moments                     # z == 0 leaves them unchanged
    if z > 0:
        m = _guard_moments(psi)
        t = z / wave_number
        m = Moments(m.mean_x + t * m.mean_p, m.mean_p,
                    m.var_x + 2.0 * t * m.cov_xp + t**2 * m.var_p,
                    m.var_p, m.cov_xp + t * m.var_p)
        x_pred = abs(m.mean_x)
        radius = 2.0 * math.sqrt(m.var_x)     # w = 2 Delta X for a Gaussian
        if x_pred + radius > 0.5 * psi.grid.half_extent:
            raise GridOverflowError(
                f"propagating {z} would grow the beam to radius {radius:.3g} at "
                f"offset {x_pred:.3g}, beyond half of the grid window "
                f"{psi.grid.half_extent:.3g}")
    mom = psi.to_momentum()
    amps = mom.amplitudes * psi.grid.propagation_mask(z, wave_number)
    return WaveFunction._adopt(psi.grid, amps, MOMENTUM, m)


def apply_parity(psi: WaveFunction) -> WaveFunction:
    """Spatial inversion psi(x) -> psi(-x); exact involution on the grid.

    X -> -X and P -> -P: both means change sign, the second moments stay.
    """
    amps = psi.amplitudes
    out = np.empty_like(amps)
    out[0] = amps[0]                          # x = 0 (p = 0) maps to itself
    out[1:] = amps[:0:-1]                     # sample j to sample -j mod n
    m = psi.guard_moments
    flipped = None if m is None else replace(m, mean_x=-m.mean_x, mean_p=-m.mean_p)
    return WaveFunction._adopt(psi.grid, out, psi.representation, flipped)


# -- traversals ----------------------------------------------------------------


def traverse_sequence(psi: WaveFunction, geom: NetworkGeometry, kicks: KickVector,
                      direction: str = "forward", parity_conjugated: bool = False,
                      include_leads: bool = False) -> WaveFunction:
    """Operator-by-operator network traversal (the brute-force oracle).

    forward applies U_zN U_thetaN ... U_theta1 U_z0, reverse applies
    U_z0 U_theta1 U_z1 ... U_thetaN U_zN.  With parity_conjugated the whole
    traversal is sandwiched between spatial inversions, which is how the
    reverse branch is realized on the optical table.  Leads, when included,
    stay outside the parity sandwich.  The grid moments are measured once,
    at the first step on a state that carries none; every later overflow
    guard reads the moments carried forward by the steps before it.
    """
    n = geom.n_sensors
    if len(kicks) != n:
        raise ValueError(f"{len(kicks)} kicks for a network with {n} sensors")
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown direction {direction!r}")
    k = geom.wave_number
    z = geom.distances
    th = kicks.thetas

    if include_leads and geom.lead_in > 0:
        psi = apply_propagation(psi, geom.lead_in, k)
    if parity_conjugated:
        psi = apply_parity(psi)
    if direction == "forward":
        psi = apply_propagation(psi, z[0], k)
        for j in range(n):
            psi = apply_kick(psi, th[j])
            psi = apply_propagation(psi, z[j + 1], k)
    else:
        psi = apply_propagation(psi, z[n], k)
        for j in range(n - 1, -1, -1):
            psi = apply_kick(psi, th[j])
            psi = apply_propagation(psi, z[j], k)
    if parity_conjugated:
        psi = apply_parity(psi)
    if include_leads and geom.lead_out > 0:
        psi = apply_propagation(psi, geom.lead_out, k)
    return psi.to_position()


def composite_apply(psi: WaveFunction, geom: NetworkGeometry, comp: CompositeEvolution,
                    direction: str = "forward", phase: str = "exact",
                    include_leads: bool = False) -> WaveFunction:
    """Apply the reduced traversal as three grid phases plus a scalar phase.

    phase selects the scalar factor: "exact" uses exp(-i xi/2k) and makes the
    result equal the raw operator product including its global phase and
    "switch" uses the branch phases exp(-/+ i (g1^2-g2^2)/(4k(N+1)zbar)) of
    the order-switched joint evolution (same state up to a global phase).
    The result is in position space.
    """
    return _composite_momentum(psi, geom, comp, direction, phase,
                               include_leads).to_position()


def _composite_momentum(psi: WaveFunction, geom: NetworkGeometry,
                        comp: CompositeEvolution, direction: str, phase: str,
                        include_leads: bool) -> WaveFunction:
    """composite_apply without its final transform: the state in momentum space."""
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown direction {direction!r}")
    if phase not in ("exact", "switch"):
        raise ValueError(f"unknown phase convention {phase!r}")
    k = geom.wave_number
    n_legs = geom.n_sensors + 1
    span = n_legs * geom.z_bar
    g_shift = comp.g1 if direction == "forward" else comp.g2

    if include_leads and geom.lead_in > 0:
        psi = apply_propagation(psi, geom.lead_in, k)
    psi = apply_kick(psi, (comp.g1 + comp.g2) / span)
    psi = apply_shift(psi, g_shift / k)
    psi = apply_propagation(psi, span, k)
    if include_leads and geom.lead_out > 0:
        psi = apply_propagation(psi, geom.lead_out, k)

    if phase == "exact":
        xi = comp.xi1 if direction == "forward" else comp.xi2
        scalar = np.exp(-1j * xi / (2.0 * k))
    else:
        alpha = (comp.g1**2 - comp.g2**2) / (4.0 * k * span)
        scalar = np.exp(-1j * alpha) if direction == "forward" else np.exp(1j * alpha)
    return WaveFunction._adopt(psi.grid, scalar * psi.amplitudes, MOMENTUM)


def switched_joint_state(psi: WaveFunction, geom: NetworkGeometry, kicks: KickVector,
                         mode: SwitchMode, ancilla=None) -> JointState:
    """Final probe-ancilla state after the order-switched network.

    The ancilla argument selects the switch register state: a pair of complex
    amplitudes (a0, a1) for a pure control qubit (defaults to the balanced
    superposition) or the string "mixed" for the balanced classical mixture.
    Branch wavefunctions are exact traversals and therefore carry the
    relative dynamic phase (g1^2 - g2^2)/(2k(N+1)zbar) between the orders.
    """
    if mode == SwitchMode.SEQUENTIAL:
        if ancilla is not None:
            raise ValueError("sequential mode does not use an ancilla")
        branch = traverse_sequence(psi, geom, kicks, "forward")
        return JointState(branch, None, (1.0, 0.0), 0.0)

    fwd = traverse_sequence(psi, geom, kicks, "forward")
    rev = traverse_sequence(psi, geom, kicks, "reverse")

    if mode == SwitchMode.QUANTUM_SWITCH:
        if ancilla is None:
            ancilla = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        if ancilla == "mixed":
            raise ValueError("quantum switch needs a pure ancilla, got a mixture")
        a0, a1 = complex(ancilla[0]), complex(ancilla[1])
        if abs(abs(a0) ** 2 + abs(a1) ** 2 - 1.0) > 1e-12:
            raise ValueError("ancilla amplitudes must be normalized")
        return JointState(fwd, rev, (abs(a0) ** 2, abs(a1) ** 2), a0 * a1.conjugate())

    if mode in (SwitchMode.CLASSICAL_SWITCH, SwitchMode.PROBE_ALONE):
        if ancilla not in (None, "mixed"):
            raise ValueError(f"{mode.value} needs the balanced mixture ancilla")
        labeled = mode == SwitchMode.CLASSICAL_SWITCH
        return JointState(fwd, rev, BALANCED_WEIGHTS, 0.0, ancilla_labeled=labeled)

    raise ValueError(f"unhandled mode {mode}")


def switched_state_family(psi: WaveFunction, geom: NetworkGeometry, mode: SwitchMode):
    """Builder (g1, g2) -> JointState over the reduced evolution.

    Used by the finite-difference information-matrix oracle: the family is
    parameterized directly by the shift weights, with the branch dynamic
    phases of the switched joint evolution included, so its derivatives probe
    exactly the closed forms.  Every branch a builder makes is
    differentiated.  Branches come in momentum space, where the reduced
    evolution ends.
    """

    def build(g1: float, g2: float) -> JointState:
        comp = CompositeEvolution(g1, g2, 0.0, 0.0)
        fwd = _composite_momentum(psi, geom, comp, "forward", "switch", False)
        if mode == SwitchMode.SEQUENTIAL:
            return JointState(fwd, None, (1.0, 0.0), 0.0)
        rev = _composite_momentum(psi, geom, comp, "reverse", "switch", False)
        if mode == SwitchMode.QUANTUM_SWITCH:
            return JointState(fwd, rev, BALANCED_WEIGHTS, 0.5)
        if mode == SwitchMode.CLASSICAL_SWITCH:
            return JointState(fwd, rev, BALANCED_WEIGHTS, 0.0)
        raise ValueError(f"no state family for mode {mode}")

    return build
