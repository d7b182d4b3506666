"""Sensing-network unitaries on the grid and their analytic composites.

A traversal of the cyclic network alternates momentum kicks exp(-i theta X)
at the sensing nodes with free propagations exp(-i z P^2 / 2k) between them.
Because kick and propagation do not commute, a full traversal collapses (by
repeated use of the displacement algebra) to a propagation over the total
length, one momentum-generated shift, one position-generated kick and a
scalar dynamic phase.  The distance-weighted kick sums g1 (forward order)
and g2 (reverse order) parameterize that reduced form.  composite_apply
applies it in both orders as plain grid phases and ends in momentum space,
where the reduced evolution ends; switched_state_family labels its pair as
the fixed-order, quantum-switch or classical-switch state.
traverse_sequence applies the raw operator product in both orders and
serves as the brute-force oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import reprlib

import numpy as np

from .errors import DomainError
from .fisher import JointState, SwitchMode
from .grid import (MOMENTUM, Moments, WaveFunction, guard_windows,
                   moments, symmetric_phase)

#: default wavelength of the tabletop rig (m) and its wave number (1/m).
DEFAULT_WAVELENGTH = 780e-9
DEFAULT_WAVE_NUMBER = 2.0 * math.pi / DEFAULT_WAVELENGTH


@dataclass(frozen=True)
class NetworkGeometry:
    """Node spacing of the cyclic network.

    distances holds the N+1 legs z_0 .. z_N: z_0 from the server to the
    first sensor, z_j between sensors j and j+1, z_N back to the server.
    lead_in is the free path before the network input; none follows the
    output, because free flight cannot change the momentum readout.
    """

    distances: tuple[float, ...]
    lead_in: float = 0.0
    wave_number: float = DEFAULT_WAVE_NUMBER

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(float(z) for z in self.distances))
        if len(self.distances) < 2:
            raise DomainError("need at least two legs (one sensor)")
        if not all(0 <= z < math.inf for z in self.distances):    # NaN fails too
            raise DomainError("leg distances must be finite and non-negative")
        if not 0 <= self.lead_in < math.inf:
            raise DomainError(f"lead_in must be finite and non-negative, "
                              f"got {self.lead_in}")
        if not (0 < self.z_bar and self.z_total < math.inf):    # formulas divide by z_bar
            raise DomainError(f"legs must have a positive mean z_bar and a finite total "
                              f"path, got z_bar {self.z_bar} and z_total {self.z_total}")
        if not 0 < self.wave_number < math.inf:
            raise DomainError(f"wave_number must be positive and finite, "
                              f"got {self.wave_number}")

    @property
    def n_sensors(self) -> int:
        return len(self.distances) - 1

    @property
    def z_bar(self) -> float:
        return sum(self.distances) / len(self.distances)

    @property
    def z_total(self) -> float:
        return self.lead_in + sum(self.distances)

    @classmethod
    def uniform(cls, n_sensors: int, z_bar: float = 0.2, lead_in: float = 0.0,
                wave_number: float = DEFAULT_WAVE_NUMBER) -> "NetworkGeometry":
        """Equidistant network; the lab preset uses z_bar = 20 cm legs."""
        return cls((z_bar,) * (n_sensors + 1), lead_in, wave_number)


@dataclass(frozen=True)
class KickVector:
    """Momentum kicks theta_j applied at the N sensing nodes."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if len(self.thetas) < 1:
            raise DomainError("need at least one kick")
        bad = [t for t in self.thetas if not math.isfinite(t)]
        if bad:
            raise DomainError(f"kicks must be finite, got {bad[0]}")

    def __len__(self) -> int:
        return len(self.thetas)

    @property
    def theta_bar(self) -> float:
        return sum(self.thetas) / len(self.thetas)

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
    and xi1 - xi2 = (g1^2 - g2^2) / ((N+1) zbar) hold exactly.  A partial
    sum, g or xi outside the float range raises DomainError.
    """
    n = geom.n_sensors
    if len(kicks) != n:
        raise DomainError(f"{len(kicks)} kicks for a network with {n} sensors")
    z = geom.distances
    th = kicks.thetas
    with np.errstate(over="ignore", invalid="ignore"):    # what overflows fails below
        tail = np.cumsum(th[::-1])[::-1]          # tail[j] = sum_{l>=j} theta_l
        head = np.cumsum(th)                      # head[j] = sum_{l<=j} theta_l
        g1 = float(sum(z[j] * tail[j] for j in range(n)))
        g2 = float(sum(z[j + 1] * head[j] for j in range(n)))
        xi1 = float(sum(z[j] * tail[j] ** 2 for j in range(n)))
        xi2 = float(sum(z[j + 1] * head[j] ** 2 for j in range(n)))
    # a partial sum out of range makes g1 or g2 inf or NaN too
    if not all(abs(x) < math.inf for x in (g1, g2, xi1, xi2)):
        raise DomainError(f"kick sums of the kicks {reprlib.repr(kicks.thetas)} "
                          f"leave the float range")
    return CompositeEvolution(g1, g2, xi1, xi2)


# -- elementary grid operations ----------------------------------------------
#
# Kicks and propagations act on a single state or on every row of a stack; a
# tuple or list of step values gives each row its own, any other value all rows.


def _each(value, count: int, what: str) -> tuple:
    values = tuple(value) if isinstance(value, (tuple, list)) else (value,) * count
    if len(values) != count:
        raise DomainError(f"{len(values)} {what} for {count} rows")
    return values


def _guard_moments(psi: WaveFunction) -> list[Moments]:
    """The moments of each row of psi, measured on the grid if it carries none."""
    carried = psi.guard_moments
    if carried is None:
        return [moments(row) for row in psi.rows()]
    return list(carried) if isinstance(carried, tuple) else [carried]


def _masked(psi: WaveFunction, masks, guard_moments) -> WaveFunction:
    """Each row of psi times its mask into one new array: amplitudes first and
    no temporary, so every row keeps the bits of a single-state product (the
    complex product is not symmetric in its operands)."""
    out = np.empty_like(psi.amplitudes)
    n = psi.grid.num_points
    for a, mask, o in zip(psi.amplitudes.reshape(-1, n), masks, out.reshape(-1, n)):
        np.multiply(a, mask, out=o)
    return WaveFunction._adopt(psi.grid, out, psi.representation, guard_moments)


def apply_kick(psi: WaveFunction, theta) -> WaveFunction:
    """Sensor unitary exp(-i theta X): phase mask in position space.

    Raises GridOverflowError, instead of aliasing silently, when the kicked
    moments of a row leave half of either grid window (guard_windows); the
    momentum window is the one a kick moves, by <P> -> <P> - theta.
    """
    psi.require_normalized()
    thetas = _each(theta, psi.amplitudes.size // psi.grid.num_points, "kicks")
    kicked = [m.kicked(t) for m, t in zip(_guard_moments(psi), thetas)]
    for m, t in zip(kicked, thetas):
        guard_windows(m, psi.grid, f"kicking by {t}")
    return _masked(psi.to_position(), [psi.grid.kick_mask(t) for t in thetas], kicked)


def apply_shift(psi: WaveFunction, displacement: float) -> WaveFunction:
    """Translation exp(-i d P): moves a single state by +d in position.

    Carries the moments unguarded; composite_apply's propagation guards them.
    The product goes into its fresh mask, amplitudes first as in _masked.
    """
    mask = symmetric_phase(psi.grid.momenta, lambda p: -displacement * p, odd=True)
    np.multiply(psi.to_momentum().amplitudes, mask, out=mask)
    m = psi.guard_moments
    moved = None if m is None else m.shifted(displacement)
    return WaveFunction._adopt(psi.grid, mask, MOMENTUM, moved)


def apply_propagation(psi: WaveFunction, z, wave_number: float) -> WaveFunction:
    """Free propagation exp(-i z P^2 / 2k) as a momentum-space phase.

    Raises GridOverflowError, instead of aliasing silently, when the
    propagated moments of a row leave half of either grid window
    (guard_windows); the position window is the one the diffracting beam
    grows into.  The guard reads the input's guard_moments and measures the
    grid only when it carries none; the output carries them propagated
    exactly by X -> X + (z/k) P.  moments() of the result still measures
    the grid.
    """
    psi.require_normalized()
    zs = _each(z, psi.amplitudes.size // psi.grid.num_points, "distances")
    if not all(zr >= 0 for zr in zs):         # a NaN distance fails too
        raise DomainError(f"propagation distance must be non-negative, got {z}")
    if not 0 < wave_number < math.inf:        # and so does a NaN wave number
        raise DomainError(f"wave_number must be positive and finite, got {wave_number}")
    carried = psi.guard_moments               # zero lengths leave them unchanged
    if any(zr > 0 for zr in zs):
        carried = [m.propagated(zr / wave_number) if zr > 0 else m
                   for m, zr in zip(_guard_moments(psi), zs)]
        for m, zr in zip(carried, zs):
            if zr > 0:
                guard_windows(m, psi.grid, f"propagating {zr}")
    return _masked(psi.to_momentum(),
                   [psi.grid.propagation_mask(zr, wave_number) for zr in zs], carried)


def apply_parity(psi: WaveFunction) -> WaveFunction:
    """Spatial inversion psi(x) -> psi(-x) of one state; exact involution on the grid.

    Carries the moments unguarded; it maps the symmetric windows onto themselves.
    """
    amps = psi.amplitudes
    out = np.empty_like(amps)
    out[0] = amps[0]                          # x = 0 (p = 0) maps to itself
    out[1:] = amps[:0:-1]                     # sample j to sample -j mod n
    m = psi.guard_moments
    flipped = None if m is None else m.flipped()
    return WaveFunction._adopt(psi.grid, out, psi.representation, flipped)


# -- traversals ----------------------------------------------------------------


def _pair(fwd: WaveFunction, rev: WaveFunction) -> WaveFunction:
    """Two single states in one representation as the rows of one stack."""
    return WaveFunction._adopt(fwd.grid, np.stack([fwd.amplitudes, rev.amplitudes]),
                               fwd.representation, [s.guard_moments for s in (fwd, rev)])


def traverse_sequence(psi: WaveFunction, geom: NetworkGeometry, kicks: KickVector,
                      parity_reverse: bool = False) -> tuple[WaveFunction, WaveFunction]:
    """Operator-by-operator traversal in both orders (the brute-force oracle),
    returned as (forward, reverse) in position space.

    forward applies U_zN U_thetaN ... U_theta1 U_z0, reverse applies
    U_z0 U_theta1 U_z1 ... U_thetaN U_zN: the legs and kicks read backwards,
    walked in lockstep as the two rows of one stack.  With parity_reverse the
    reverse order is sandwiched between spatial inversions, as on the optical
    table.  The input's moments, measured once unless it carries them, seed
    both rows; the first failing guard of either row raises.
    """
    n = geom.n_sensors
    if len(kicks) != n:
        raise DomainError(f"{len(kicks)} kicks for a network with {n} sensors")
    k = geom.wave_number
    z, th = geom.distances, kicks.thetas
    psi = WaveFunction._adopt(psi.grid, psi.amplitudes, psi.representation,
                              _guard_moments(psi)[0])
    psi = _pair(psi, apply_parity(psi) if parity_reverse else psi)
    psi = apply_propagation(psi, (z[0], z[n]), k)
    for j in range(n):
        psi = apply_kick(psi, (th[j], th[n - 1 - j]))
        psi = apply_propagation(psi, (z[j + 1], z[n - 1 - j]), k)
    if parity_reverse:          # no name keeps the unflipped stack alive
        psi = _pair(psi.rows()[0], apply_parity(psi.rows()[1]))
    return psi.to_position().rows()


def composite_apply(psi: WaveFunction, geom: NetworkGeometry, comp: CompositeEvolution
                    ) -> tuple[WaveFunction, WaveFunction]:
    """Apply the reduced traversal in both orders, returned as (forward, reverse).

    Both orders share the kick (g1 + g2)/span and its transform to momentum
    space; each then takes its own shift g/k (g1 forward, g2 reverse), the
    propagation over the span and the scalar exp(-i xi/2k) (xi1, xi2), which
    makes it equal the raw operator product including its global phase.
    The results are in momentum space, where the reduced evolution ends.
    """
    k = geom.wave_number
    span = (geom.n_sensors + 1) * geom.z_bar
    kicked = apply_kick(psi, (comp.g1 + comp.g2) / span).to_momentum()
    branches = []
    for g, xi in ((comp.g1, comp.xi1), (comp.g2, comp.xi2)):
        out = apply_propagation(apply_shift(kicked, g / k), span, k)
        scalar = np.exp(-1j * xi / (2.0 * k))
        branches.append(WaveFunction._adopt(out.grid, scalar * out.amplitudes, MOMENTUM))
    return tuple(branches)


def switched_state_family(psi: WaveFunction, geom: NetworkGeometry, mode: SwitchMode):
    """Builder (g1, g2) -> JointState over the reduced evolution.

    Used by the finite-difference information-matrix oracle: the family is
    parameterized directly by the shift weights, with the branch dynamic
    phases exp(-i xi/2k) of the exact composite in the gauge xi1 = -xi2 =
    (g1^2 - g2^2)/(2 (N+1) zbar), so its derivatives probe exactly the
    closed forms.  Every build makes the (forward, reverse) pair with one
    transform; the fixed order drops the reverse branch, which costs a shift
    mask and three products but no transform.  Branches come in momentum
    space, where the reduced evolution ends; a g that is not finite, or a g^2
    out of range, raises DomainError.
    """
    span = (geom.n_sensors + 1) * geom.z_bar

    def build(g1: float, g2: float) -> JointState:
        if not (math.isfinite(g1) and math.isfinite(g2)):
            raise DomainError(f"(g1, g2) = ({g1:g}, {g2:g}) is not finite")
        try:
            xi = (g1**2 - g2**2) / (2.0 * span)
        except OverflowError:                       # float ** out of range
            raise DomainError(f"g^2 overflows at (g1, g2) = ({g1:g}, {g2:g})") from None
        comp = CompositeEvolution(g1, g2, xi, -xi)
        return JointState(mode, *composite_apply(psi, geom, comp))

    return build
