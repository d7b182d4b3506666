"""Transverse-mode wavefunctions on a uniform 1-D grid.

The probe lives on a symmetric position grid of n samples spaced dx, covering
[-L, L) with L = n*dx/2, and its momentum representation lives on the
conjugate grid spaced dp = 2*pi/(n*dx).  Both are stored in FFT order:
sample j holds x_j = j * dx for j < n/2 and x_j = (j - n) * dx from n/2 on,
so sample 0 is x = 0, samples 1..n/2-1 climb to L - dx, sample n/2 is the
unpaired edge -L and the rest climb back towards 0 (likewise p_m with dp and
the edge -pi/dx).  numpy's FFTs then act on the amplitudes directly, with no
reordering.  Transforms between the two use the unitary continuum convention

    psi~(p) = (2*pi)^(-1/2) * integral psi(x) exp(-i p x) dx,

discretized with the midpoint rule, which is spectrally accurate for the
smooth, rapidly decaying states handled here.  A wavefunction holds one
state; only a traversal stacks its forward/reverse pair in the rows of one
array, advanced in lockstep by one numpy call per step.  All values are
immutable and every operation returns a new object, so instances can be
shared freely across threads; a grid only remembers the last two kick masks
and the last propagation mask it built, and a single state its moments once
measured.  Inner products that reach outputs are numpy sums, not BLAS dot
products, so results do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
import math
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, GridError, GridOverflowError, NormalizationError

#: norm deviation tolerated by operations that require a normalized input.
NORM_PRECONDITION_TOL = 1e-6

POSITION = "position"
MOMENTUM = "momentum"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def symmetric_phase(coordinates: np.ndarray,
                    angle: Callable[[np.ndarray], np.ndarray],
                    odd: bool) -> np.ndarray:
    """exp(1j * angle(coordinates)) along one axis of a grid in FFT order.

    The axis is symmetric about sample 0 (c_{n-m} = -c_m exactly), so angle
    is evaluated on samples 0..n/2 only and the rest is mirrored: as the
    complex conjugate when angle is odd in the coordinate, as a copy when it
    is even.  One real cos and one real sin, written into the real and
    imaginary views, give the same bits as np.exp(1j * angle) when angle
    repeats the float operations of the complex expression it replaces.
    """
    h = coordinates.size // 2
    out = np.empty(coordinates.size, dtype=np.complex128)
    re, im = out.real, out.imag
    half = angle(coordinates[: h + 1])
    np.cos(half, out=re[: h + 1])
    np.sin(half, out=im[: h + 1])
    # The complex product behind np.exp(-1j * t * c) forms its angle as
    # 0.0 + (-t * c), so a zero angle is +0.0 there; adding and subtracting
    # from 0.0 keeps that sign on both halves.
    np.add(im[: h + 1], 0.0, out=im[: h + 1])
    re[h + 1:] = re[h - 1:0:-1]
    if odd:
        np.subtract(0.0, im[h - 1:0:-1], out=im[h + 1:])
    else:
        im[h + 1:] = im[h - 1:0:-1]
    return out


def _fft_order(n: int) -> np.ndarray:
    """Sample offsets 0, 1, .., n/2 - 1, -n/2, .., -1 of an FFT-ordered axis."""
    return (np.arange(n) + n // 2) % n - n // 2


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum(conj(a) * b), reduced by numpy rather than a threaded BLAS call."""
    return complex(np.sum(a.conj() * b))


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid with num_points a power of two, in FFT order.

    Parameters
    ----------
    num_points : int
        Number of samples; must be a power of two so FFT round trips are
        exact and fast.
    half_extent : float
        Grid covers [-half_extent, half_extent) in meters.

    kick_mask keeps its last two masks in an lru_cache, one for each sign a
    parity-reversed walk kicks by, and propagation_mask its last one; each
    cache closes over the coordinates, not the grid: the masks die with the grid.
    """

    num_points: int
    half_extent: float

    def __post_init__(self):
        n = self.num_points
        if n < 2 or (n & (n - 1)) != 0:
            raise GridError(f"num_points must be a power of two >= 2, got {n}")
        # dx is checked first, because dp divides by it
        if not (0 < self.dx < math.inf and 0 < self.dp < math.inf):
            raise GridError(f"half_extent {self.half_extent} over {n} points gives no "
                            f"positive finite spacings dx and dp")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.num_points

    @property
    def dp(self) -> float:
        return 2.0 * math.pi / (self.num_points * self.dx)

    @cached_property
    def positions(self) -> np.ndarray:
        return _readonly(_fft_order(self.num_points) * self.dx)

    @cached_property
    def momenta(self) -> np.ndarray:
        return _readonly(_fft_order(self.num_points) * self.dp)

    @cached_property
    def kick_mask(self) -> Callable[[float], np.ndarray]:
        """kick_mask(theta): position-space phase exp(-i theta x) of a kick."""
        positions = self.positions

        @lru_cache(maxsize=2)
        def kick_mask(theta: float) -> np.ndarray:
            return _readonly(symmetric_phase(positions, lambda x: -theta * x, odd=True))
        return kick_mask

    @cached_property
    def propagation_mask(self) -> Callable[[float, float], np.ndarray]:
        """propagation_mask(z, k): momentum-space phase exp(-i z p^2 / 2k)."""
        momenta = self.momenta

        # numpy divides a complex array by a real scalar by multiplying with
        # its reciprocal; the angle repeats that to keep np.exp's bits.
        @lru_cache(maxsize=1)
        def propagation_mask(z: float, wave_number: float) -> np.ndarray:
            return _readonly(symmetric_phase(
                momenta, lambda p: -z * p**2 * (1.0 / (2.0 * wave_number)), odd=False))
        return propagation_mask

    @classmethod
    def for_probe(cls, spec: "ProbeSpec", total_path: float = 0.0,
                  num_points: int = 1 << 14, padding: float = 8.0) -> "Grid":
        """Grid sized to hold the probe over its whole flight.

        half_extent = padding * max(w0, w(total_path)) with w(z) the
        diffracted beam radius, so the state never approaches the edge even
        after the longest propagation in the run.  Raises DomainError when
        that extent is not positive and finite, when num_points is not
        positive, or when the spacing dx exceeds pi * w0: the momentum window
        pi/dx then holds less than one momentum spread 1/w0, and the sampled
        probe collapses onto a few samples with no measurable variance.
        """
        w0 = spec.waist_radius
        half_extent = padding * max(w0, diffracted_radius(w0, total_path,
                                                          spec.wave_number))
        if not (num_points > 0 and 0 < 2.0 * half_extent / num_points <= math.pi * w0):
            raise DomainError(
                f"grid half_extent {half_extent} over {num_points} points does "
                f"not resolve the waist radius {w0}")
        return cls(num_points, half_extent)


def diffracted_radius(w0: float, z: float, k: float) -> float:
    """Beam radius w(z) = w0 * sqrt(1 + (2 z / (k w0^2))^2) of a Gaussian.

    Raises DomainError when the radius is not a positive finite float,
    including when k * w0^2 underflows to zero or the square overflows.
    """
    try:
        w = w0 * math.sqrt(1.0 + (2.0 * z / (k * w0 * w0)) ** 2)
    except ArithmeticError:             # ZeroDivisionError, OverflowError
        w = math.nan
    if not 0 < w < math.inf:
        raise DomainError(f"beam radius for w0 = {w0}, z = {z}, k = {k} is "
                          f"not a positive finite float")
    return w


@dataclass(frozen=True)
class ProbeSpec:
    """Gaussian probe parameters.

    waist_radius is the 1/e amplitude radius w0, related to the initial
    spreads by Delta_X = w0/2 and Delta_P = 1/w0.  center_x and center_p
    offset the profile in phase space.
    """

    waist_radius: float
    wave_number: float
    center_x: float = 0.0
    center_p: float = 0.0

    def __post_init__(self):
        for name in ("waist_radius", "wave_number"):      # NaN fails too
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")

    @property
    def delta_x(self) -> float:
        return 0.5 * self.waist_radius

    @property
    def delta_p(self) -> float:
        return 1.0 / self.waist_radius


@dataclass(frozen=True)
class Moments:
    """First and second phase-space moments of a pure state, with their exact
    Heisenberg updates under the grid's kick, propagation and shift."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float

    def __post_init__(self):
        if not (0 < self.var_x < math.inf and 0 < self.var_p < math.inf   # NaN fails too
                and all(map(math.isfinite, (self.mean_x, self.mean_p, self.cov_xp)))):
            raise DomainError("moments must be finite, with positive variances")

    def _stepped(self, *values: float) -> "Moments":
        """The moments after one step, with only the variances checked:
        guard_windows judges the rest and names the step that left the range."""
        m = object.__new__(Moments)
        m.__dict__.update(zip(("mean_x", "mean_p", "var_x", "var_p", "cov_xp"), values))
        if not (m.var_x > 0 and m.var_p > 0):
            raise DomainError("variances must be positive")
        return m

    def kicked(self, theta: float) -> "Moments":
        """P -> P - theta; the second moments stay."""
        return self._stepped(self.mean_x, self.mean_p - theta, self.var_x, self.var_p,
                             self.cov_xp)

    def propagated(self, t: float) -> "Moments":
        """X -> X + t P with t = z/k; the momentum moments stay."""
        return self._stepped(self.mean_x + t * self.mean_p, self.mean_p,
                             self.var_x + 2.0 * t * self.cov_xp + t**2 * self.var_p,
                             self.var_p, self.cov_xp + t * self.var_p)

    def shifted(self, d: float) -> "Moments":
        """X -> X + d; the second moments stay."""
        return self._stepped(self.mean_x + d, self.mean_p, self.var_x, self.var_p,
                             self.cov_xp)


def guard_windows(m: Moments, grid: Grid, step: str) -> None:
    """Raise GridOverflowError when m leaves half of either grid window:
    |<X>| + 2 Delta X against half_extent, or |<P>| + 2 Delta P against the
    Nyquist momentum pi/dx.  step leads the message; a NaN moment fails."""
    x_pred = abs(m.mean_x)
    radius = 2.0 * math.sqrt(m.var_x)         # w = 2 Delta X for a Gaussian
    if not x_pred + radius <= 0.5 * grid.half_extent:
        raise GridOverflowError(
            f"{step} would grow the beam to radius {radius:.3g} at offset "
            f"{x_pred:.3g}, beyond half of the grid window {grid.half_extent:.3g}")
    p_edge = abs(m.mean_p) + 2.0 * math.sqrt(m.var_p)
    p_max = math.pi / grid.dx
    if not p_edge <= 0.5 * p_max:
        raise GridOverflowError(
            f"{step} would spread the momentum distribution to {p_edge:.3g}, "
            f"beyond half of the momentum window {p_max:.3g}")


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes of the transverse mode in one representation.

    The constructor takes the n amplitudes of one state and copies them.
    traverse_sequence alone stacks its forward/reverse pair as the rows of
    one (2, n) state (one (1, n) row when both orders make the same steps),
    through the private _adopt; the transforms, apply_kick and
    apply_propagation advance it and rows() splits it.  guard_moments,
    set only by _adopt, are the moments carried forward exactly by the
    unitary operators that produced the state, a tuple of one per row for a
    stack; the grid guards read them instead of measuring the state at every
    step.  They take no part in comparisons, and moments() always measures
    the amplitudes, once per instance.
    """

    grid: Grid
    amplitudes: np.ndarray = field(repr=False)
    representation: str = POSITION
    guard_moments: Optional[Moments | tuple[Moments, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.representation not in (POSITION, MOMENTUM):
            raise DomainError(f"unknown representation {self.representation!r}")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.num_points,):
            raise GridError(
                f"amplitude array of shape {amps.shape} does not match grid "
                f"with {self.grid.num_points} points")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @classmethod
    def _adopt(cls, grid: Grid, amps: np.ndarray, representation: str,
               guard_moments: Optional[Moments] = None) -> "WaveFunction":
        """State owning amps, a complex128 array of one state or a stack on
        grid that its caller has just made and keeps no other reference to
        (or a row of such an array); no copy.  A list of guard moments holds
        one per row."""
        if isinstance(guard_moments, list):
            guard_moments = tuple(guard_moments) if amps.ndim == 2 else guard_moments[0]
        psi = object.__new__(cls)
        psi.__dict__.update(grid=grid, amplitudes=_readonly(amps),
                            representation=representation,
                            guard_moments=guard_moments)
        return psi

    def rows(self) -> tuple["WaveFunction", ...]:
        """The states of a stack in order, as read-only views of its rows
        carrying their own guard moments; (self,) for a single state."""
        if self.amplitudes.ndim == 1:
            return (self,)
        carried = self.guard_moments or (None,) * len(self.amplitudes)
        return tuple(WaveFunction._adopt(self.grid, a, self.representation, m)
                     for a, m in zip(self.amplitudes, carried))

    # -- representation handling -------------------------------------------

    @property
    def _weight(self) -> float:
        return self.grid.dx if self.representation == POSITION else self.grid.dp

    def to_position(self) -> "WaveFunction":
        if self.representation == POSITION:
            return self
        g = self.grid
        amps = np.fft.ifft(self.amplitudes)
        amps *= g.num_points * g.dp / math.sqrt(2.0 * math.pi)
        return WaveFunction._adopt(g, amps, POSITION, self.guard_moments)

    def to_momentum(self) -> "WaveFunction":
        if self.representation == MOMENTUM:
            return self
        g = self.grid
        amps = np.fft.fft(self.amplitudes)
        amps *= g.dx / math.sqrt(2.0 * math.pi)
        return WaveFunction._adopt(g, amps, MOMENTUM, self.guard_moments)

    # -- norms ---------------------------------------------------------------

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self._weight)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero wavefunction")
        return WaveFunction._adopt(self.grid, self.amplitudes / n, self.representation)

    def require_normalized(self) -> None:
        # one dot product a row; norm() keeps its own sum, whose bits reach outputs
        for r, a in enumerate(self.amplitudes.reshape(-1, self.grid.num_points)):
            n = math.sqrt(np.vdot(a, a).real * self._weight)
            if not abs(n - 1.0) <= NORM_PRECONDITION_TOL:   # a NaN norm fails too
                row = f" row {r}" if self.amplitudes.ndim == 2 else ""
                raise NormalizationError(f"wavefunction{row} norm {n} deviates "
                                         f"from 1 by more than {NORM_PRECONDITION_TOL}")


def make_gaussian(spec: ProbeSpec, grid: Grid) -> WaveFunction:
    """Normalized Gaussian psi(x) ~ exp(-(x-x0)^2/w0^2) * exp(i p0 x).

    Raises GridError when the grid window is smaller than four waist radii,
    which is the point where clipped tails start to bias the moments, and
    when the centre lies off the grid by the rules of the kick and
    propagation guards: |center_p| + 2/w0 beyond half of the momentum
    window pi/dx, or |center_x| + w0 beyond half of half_extent.
    """
    w0 = spec.waist_radius
    if grid.half_extent < 4.0 * w0:
        raise GridError(
            f"grid half_extent {grid.half_extent} is too small for waist radius "
            f"{w0}; need at least {4.0 * w0}")
    p_max = math.pi / grid.dx
    if not abs(spec.center_p) + 2.0 / w0 <= 0.5 * p_max:
        raise GridError(f"center_p {spec.center_p:g} 1/m plus two momentum spreads "
                        f"lies beyond half of the momentum window {p_max:.3g} 1/m")
    if not abs(spec.center_x) + w0 <= 0.5 * grid.half_extent:
        raise GridError(f"center_x {spec.center_x:g} m plus one waist radius lies "
                        f"beyond half of the grid half_extent {grid.half_extent:.3g} m")
    x = grid.positions
    amps = np.exp(-((x - spec.center_x) ** 2) / spec.waist_radius**2)
    amps = amps.astype(np.complex128)
    if spec.center_p != 0:                    # a unit phase would change no bit
        amps *= np.exp(1j * spec.center_p * x)
    return WaveFunction._adopt(grid, amps, POSITION).normalized()


def overlap(a: WaveFunction, b: WaveFunction) -> complex:
    """Inner product <a|b> by quadrature in a common representation."""
    if a.grid != b.grid:
        raise GridError("wavefunctions live on different grids")
    if a.representation != b.representation:
        b = b.to_position() if a.representation == POSITION else b.to_momentum()
    return _vdot(a.amplitudes, b.amplitudes) * a._weight


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """|<a|b>|^2; insensitive to global phases, symmetric in its arguments."""
    a.require_normalized()
    b.require_normalized()
    return abs(overlap(a, b)) ** 2


def moments(psi: WaveFunction) -> Moments:
    """Phase-space moments <X>, <P>, Var X, Var P and Cov(X,P).

    The covariance is the symmetrized one, Cov = <{X,P}>/2 - <X><P>,
    evaluated as Re<psi| X P |psi> - <X><P> on the grid.  The state is
    immutable, so the measurement is stored on it and a second call on the
    same instance returns it without touching the grid.
    """
    measured = psi.__dict__.get("_moments")
    if measured is not None:
        return measured
    psi.require_normalized()
    pos = psi.to_position()
    mom = psi.to_momentum()
    g = psi.grid
    wx = np.abs(pos.amplitudes) ** 2 * g.dx
    wp = np.abs(mom.amplitudes) ** 2 * g.dp
    mean_x = float(np.sum(g.positions * wx))
    mean_p = float(np.sum(g.momenta * wp))
    var_x = float(np.sum((g.positions - mean_x) ** 2 * wx))
    var_p = float(np.sum((g.momenta - mean_p) ** 2 * wp))
    p_psi = WaveFunction._adopt(g, g.momenta * mom.amplitudes, MOMENTUM).to_position()
    mean_xp = _vdot(g.positions * pos.amplitudes, p_psi.amplitudes).real * g.dx
    measured = Moments(mean_x, mean_p, var_x, var_p, mean_xp - mean_x * mean_p)
    psi.__dict__["_moments"] = measured
    return measured
