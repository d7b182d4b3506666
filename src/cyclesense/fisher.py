"""Quantum Fisher information matrices and Cramer-Rao bounds.

The traversal imprints the two shift weights (g1, g2) on the probe, and the
network average tilt is the scalar function tbar = (g1+g2)/(N(N+1)zbar) of
them.  This module evaluates the information matrix of (g1, g2), a float
(2, 2) array or an (M, 2, 2) stack over M sensor counts, for all query
strategies from closed forms in the initial-probe moments, together with the
closed-form bounds on tbar.  qcrb_global (the eigen projection of one matrix)
and finite differences on grid states are their independent oracles.

For a pure family |psi(g)> the matrix entries are

    Q_jl = 4 Re[ <d_j psi|d_l psi> - <d_j psi|psi><psi|d_l psi> ],

evaluated here with central differences.  The order-switched mixed state
keeps its two branches orthogonal through the ancilla label with constant
weights, so its matrix is the weight-average of the branch matrices; that
shortcut replaces any general logarithmic-derivative machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, EstimabilityError
from .grid import Moments, ProbeSpec, WaveFunction, _vdot

#: eigenvalues below RANK_TOL * max(eigenvalue) are treated as zero.
RANK_TOL = 1e-10


class SwitchMode(Enum):
    """Strategy for ordering the sensor queries."""

    SEQUENTIAL = "sequential"
    QUANTUM_SWITCH = "quantum_switch"
    CLASSICAL_SWITCH = "classical_switch"
    PROBE_ALONE = "probe_alone"


@dataclass(frozen=True)
class JointState:
    """Probe-ancilla state of one query strategy over a branch pair.

    branch_plus / branch_minus are the normalized forward- and reverse-order
    probe states, dynamic phases included, and branches pairs those kept with
    their ancilla populations: the forward branch alone in the fixed order,
    both at 1/2 in the quantum switch (a control-qubit superposition) and the
    classical switch (a mixture whose label keeps them orthogonal).  A switch
    without a reverse branch, or the probe alone, raises DomainError.
    """

    mode: SwitchMode
    branch_plus: WaveFunction
    branch_minus: Optional[WaveFunction]

    def __post_init__(self):
        if self.mode == SwitchMode.SEQUENTIAL:
            object.__setattr__(self, "branch_minus", None)
        elif self.mode == SwitchMode.PROBE_ALONE:
            raise DomainError("the probe alone has no joint state")
        elif self.branch_minus is None:
            raise DomainError(f"{self.mode.value} needs a reverse branch")

    @property
    def is_pure(self) -> bool:
        return self.mode != SwitchMode.CLASSICAL_SWITCH

    @property
    def branches(self) -> tuple[tuple[float, WaveFunction], ...]:
        """(ancilla population, branch) of every branch the state holds."""
        if self.mode == SwitchMode.SEQUENTIAL:
            return ((1.0, self.branch_plus),)
        return ((0.5, self.branch_plus), (0.5, self.branch_minus))


@dataclass(frozen=True)
class GeneratorMoments:
    """Initial-probe moments plus the evolution scalars the closed forms need.

    n_sensors is one sensor count or a 1-D integer array of them, over which
    the closed forms broadcast.  They write every N-dependent square as a
    product: a float's ** goes through libm pow, an array's through
    multiply, and the two can differ in the last bit.
    """

    var_x: float
    var_p: float
    cov_xp: float
    mean_p: float
    wave_number: float
    z_bar: float
    n_sensors: int | np.ndarray
    g1: float = 0.0
    g2: float = 0.0

    @np.errstate(all="ignore")     # an array of N warns where a scalar N does not
    def __post_init__(self):
        if not (self.var_x > 0 and self.var_p > 0):
            raise DomainError("variances must be positive")
        det = self.var_x * self.var_p - self.cov_xp * self.cov_xp
        if not det > 0:                                     # NaN fails too
            raise DomainError(f"Var X Var P - Cov^2 = {det:g} is not positive: "
                              f"no state has these moments")
        if not det < math.inf:
            raise DomainError(f"Var X Var P - Cov^2 overflows the float range at "
                              f"Var X = {self.var_x:g}, Var P = {self.var_p:g}")
        if not (self.wave_number > 0 and self.z_bar > 0 and np.all(self.n_sensors >= 1)):
            raise DomainError("need positive wave number, spacing and sensor count")
        try:            # every N's closed-form terms and span^2 must stay in range
            a, b, c = _terms(self)
            span = self.span
            ok = np.all((0 < a) & (a < math.inf) & (0 < b) & (b < math.inf)
                        & np.isfinite(c + span * span))
        except (OverflowError, ZeroDivisionError):     # float ** out of range
            ok = False
        if not ok:
            raise DomainError(f"Var X / ((N+1) zbar)^2 or Var P / k^2 leaves the float "
                              f"range at k = {self.wave_number:g} 1/m, zbar = {self.z_bar:g} m")
        # so must the squares of the quantum-switch brackets <P>/2k - g u/2k
        g = np.maximum(abs(self.g1), abs(self.g2))          # a NaN g fails too
        bracket = (abs(self.mean_p) + g / span) / (2.0 * self.wave_number)
        if not np.all(4.0 * bracket * bracket < math.inf):
            raise DomainError(f"<P>/2k or g/(2k (N+1) zbar) leaves the float range at "
                              f"<P> = {self.mean_p:g} 1/m, k = {self.wave_number:g} 1/m, "
                              f"g = ({self.g1:g}, {self.g2:g}) m")

    @property
    def span(self) -> float | np.ndarray:
        """(N+1) * zbar, the in-network path length."""
        return (self.n_sensors + 1) * self.z_bar

    @classmethod
    def from_moments(cls, m: Moments, wave_number: float, z_bar: float,
                     n_sensors: int | np.ndarray, g1: float = 0.0,
                     g2: float = 0.0) -> "GeneratorMoments":
        return cls(m.var_x, m.var_p, m.cov_xp, m.mean_p,
                   wave_number, z_bar, n_sensors, g1, g2)

    @classmethod
    def from_probe_spec(cls, spec: ProbeSpec, z_bar: float,
                        n_sensors: int | np.ndarray) -> "GeneratorMoments":
        """Analytic Gaussian moments: Var X = w0^2/4, Var P = 1/w0^2, Cov = 0."""
        try:
            var_x, var_p = spec.delta_x**2, spec.delta_p**2
        except OverflowError:
            raise DomainError(f"waist {spec.waist_radius:g} m: probe variances overflow") from None
        return cls(var_x, var_p, 0.0, spec.center_p, spec.wave_number, z_bar,
                   n_sensors)


def _terms(gm: GeneratorMoments):
    """a = Var X u^2, b = Var P / k^2 and c = Cov u / k, u = 1/((N+1) zbar)."""
    u = 1.0 / gm.span
    k = gm.wave_number
    return gm.var_x * (u * u), gm.var_p / k**2, gm.cov_xp * u / k


# -- closed forms ---------------------------------------------------------------


def _symmetric(q11, q12, q22) -> np.ndarray:
    """The (..., 2, 2) float array [[q11, q12], [q12, q22]] of broadcast entries."""
    q11, q12, q22 = np.broadcast_arrays(q11, q12, q22)
    return np.stack([q11, q12, q12, q22], axis=-1).reshape(q11.shape + (2, 2))


def qfim_sequential(gm: GeneratorMoments) -> np.ndarray:
    """Information matrix of a fixed-order traversal (pure final state)."""
    a, b, c = _terms(gm)
    return _symmetric(4.0 * (a + b + 2.0 * c), 4.0 * (a + c), 4.0 * a)


def qfim_quantum_switch(gm: GeneratorMoments) -> np.ndarray:
    """Information matrix with the control qubit in the balanced superposition.

    The momentum-generator brackets carry the g-dependent displacements
    [<P>/2k - g2/(2k(N+1)zbar)] and [<P>/2k - g1/(2k(N+1)zbar)]; only these
    branch-asymmetric scalars survive in the variances (branch-symmetric
    scalars are pure gauge), which the finite-difference oracle confirms.
    """
    u = 1.0 / gm.span
    k = gm.wave_number
    base = gm.var_x * (u * u) + gm.cov_xp * u / k
    half_p = gm.var_p / (2.0 * k**2)
    bracket1 = gm.mean_p / (2.0 * k) - gm.g2 * u / (2.0 * k)
    bracket2 = gm.mean_p / (2.0 * k) - gm.g1 * u / (2.0 * k)
    var1 = base + half_p + bracket1 * bracket1
    var2 = base + half_p + bracket2 * bracket2
    cov12 = base - bracket1 * bracket2
    return _symmetric(4.0 * var1, 4.0 * cov12, 4.0 * var2)


def qfim_classical_switch(gm: GeneratorMoments) -> np.ndarray:
    """Information matrix of the balanced classical order mixture.

    Equal to the arithmetic mean of the forward- and reverse-order
    sequential matrices: the ancilla label keeps the branches orthogonal and
    the weights carry no parameter dependence.
    """
    a, b, c = _terms(gm)
    diag = a + 0.5 * b + c
    return _symmetric(4.0 * diag, 4.0 * (a + c), 4.0 * diag)


#: the one SwitchMode -> closed-form information matrix dispatch.
#: PROBE_ALONE is absent: its matrix exists only at the origin and is
#: singular, so its bound comes from probe_alone_qfi_at_origin.
QFIM_CLOSED_FORMS: dict[SwitchMode, Callable[[GeneratorMoments], np.ndarray]] = {
    SwitchMode.SEQUENTIAL: qfim_sequential,
    SwitchMode.QUANTUM_SWITCH: qfim_quantum_switch,
    SwitchMode.CLASSICAL_SWITCH: qfim_classical_switch,
}


def _var_h0(gm: GeneratorMoments) -> float | np.ndarray:
    """Var(H0), H0 = P/k + 2X/((N+1)zbar): the probe-alone generator at g = 0."""
    a, b, c = _terms(gm)
    return b + 4.0 * a + 4.0 * c


def probe_alone_qfi_at_origin(gm: GeneratorMoments) -> float | np.ndarray:
    """Bound on tbar from the mixed probe alone, in the small-signal regime.

    1 / (N^2 (N+1)^2 zbar^2 Var(H0)) per sensor count of gm; at g = 0 also
    both switched bounds, 2 w^2 / (q11 + q12) of their equal-diagonal matrices.
    A bound that is not positive and finite raises DomainError naming its N.
    """
    n, span = gm.n_sensors, gm.span
    with np.errstate(all="ignore"):         # what leaves the range fails below
        bound = 1.0 / (n * n * (span * span) * _var_h0(gm))
    if not np.all((0 < bound) & (bound < math.inf)):        # NaN fails too
        b, n_b = next((b, m) for b, m in np.broadcast(bound, n) if not 0 < b < math.inf)
        raise DomainError(f"bound {b:g} at N = {n_b} is not positive and finite")
    return bound


def _qcrb_sequential(gm: GeneratorMoments) -> float | np.ndarray:
    """The projection of qfim_sequential, one per sensor count of gm.

    Var P / (4 N^2 (Var X Var P - Cov^2)), which is w^2 b / (4 (ab - c^2))
    of _terms with the path length cancelled, so it holds at any length.
    """
    n = gm.n_sensors
    return gm.var_p / (4.0 * (n * n) * (gm.var_x * gm.var_p - gm.cov_xp * gm.cov_xp))


def qcrb_global(q: np.ndarray, n_sensors: int, z_bar: float) -> float:
    """Project a 2x2 (g1, g2) information matrix onto the average kick tbar.

    G Q^-1 G^T with G = [w, w], w = 1/(N(N+1)zbar), by eigendecomposition:
    the oracle of the closed-form bounds.  Eigenvalues at or below RANK_TOL
    times the largest in magnitude are dropped.  Nothing kept, or a Jacobian
    component along the null space, raises EstimabilityError; an overflowed
    entry, an eigenvalue below -RANK_TOL times the largest (no information
    matrix has one), a sensor count below 1, a spacing that is not positive
    and finite, or a bound that over- or underflows raises DomainError.
    The projection is elementwise, not a BLAS product.
    """
    if np.shape(q) != (2, 2):
        raise DomainError(f"expected a 2x2 information matrix, got shape {np.shape(q)}")
    if not (1 <= n_sensors < math.inf and 0 < z_bar < math.inf):     # NaN fails too
        raise DomainError(f"need a sensor count of at least 1 and a positive finite "
                          f"spacing, got N = {n_sensors}, zbar = {z_bar}")
    w = 1.0 / (n_sensors * (n_sensors + 1.0) * z_bar)
    if not 0 < w < math.inf:
        raise DomainError(f"weight 1/(N (N+1) zbar) = {w:g} leaves the float range "
                          f"at N = {n_sensors}, zbar = {z_bar:g} m")
    if not np.isfinite(q).all():
        raise DomainError(f"information matrix entries overflow the float range "
                          f"at N = {n_sensors}")
    evals, evecs = np.linalg.eigh(q)
    tol = RANK_TOL * max(np.abs(evals).max(), 1e-300)
    if evals[0] < -tol:                                     # eigh sorts ascending
        raise DomainError(f"information matrix has the negative eigenvalue "
                          f"{evals[0]:g}; it is not positive semidefinite")
    keep = evals > tol
    if not keep.any():
        raise EstimabilityError("information matrix is zero; nothing is estimable")
    proj = w * evecs[0] + w * evecs[1]
    # |G| = sqrt(2) w, and at most one direction is dropped
    if np.any(np.where(keep, 0.0, np.abs(proj)) > 1e-9 * math.sqrt(2.0) * w):
        raise EstimabilityError(
            "average kick is not estimable: Jacobian leaves the row space "
            "of the singular information matrix")
    with np.errstate(over="ignore", under="ignore"):     # what leaves the range fails below
        terms = np.divide(proj**2, evals, out=np.zeros_like(proj), where=keep)
        bound = float(terms[0] + terms[1])
    if not 0 < bound < math.inf:
        raise DomainError(f"bound {bound:g} at N = {n_sensors} is not positive and finite")
    return bound


# -- finite-difference oracle ----------------------------------------------------


StateBuilder = Callable[[float, float], JointState]

#: largest relative Frobenius disagreement between the h and h/2 estimates.
MAX_DISAGREEMENT = 1e-2


def _qfim_fd(builder: StateBuilder, at: tuple[float, float],
             h: float, center: JointState) -> np.ndarray:
    """Central-difference matrix at step h around center = builder(*at).

    With branch projections p_ij = <psi_i|d_j psi_i> over the (w_i, psi_i)
    of JointState.branches, a pure centre subtracts the joint projection
    conj(sum_i w_i p_ij) * sum_i w_i p_il, and a labeled mixture subtracts
    each branch's own, sum_i w_i conj(p_ij) p_il, which makes its matrix the
    weight-average of the branch matrices.  All of it is taken in momentum
    space, where the reduced traversal ends, with weight dp; a position-space
    branch is transformed first (by Parseval, the same matrix to rounding).
    """
    g1, g2 = at
    dp = center.branch_plus.grid.dp

    def amps(state: JointState) -> list[np.ndarray]:
        return [psi.to_momentum().amplitudes for _, psi in state.branches]

    def diff(plus: JointState, minus: JointState) -> list[np.ndarray]:
        return [(a - b) / (2 * h) for a, b in zip(amps(plus), amps(minus))]

    def terms(a, b) -> list[complex]:
        return [w * _vdot(x, y) * dp for (w, _), x, y in zip(center.branches, a, b)]

    ders = (diff(builder(g1 + h, g2), builder(g1 - h, g2)),
            diff(builder(g1, g2 + h), builder(g1, g2 - h)))
    cen = amps(center)
    proj = [terms(cen, d) for d in ders]
    if center.is_pure:
        def projection(j: int, l: int) -> complex:
            return sum(proj[j]).conjugate() * sum(proj[l])
    else:
        def projection(j: int, l: int) -> complex:
            return sum(a.conjugate() * b / w
                       for (w, _), a, b in zip(center.branches, proj[j], proj[l]))
    # swapping the arguments of an inner product conjugates it exactly, so
    # q is symmetric
    q = np.empty((2, 2))
    for j in range(2):
        for l in range(j, 2):
            q[j, l] = q[l, j] = 4.0 * np.real(sum(terms(ders[j], ders[l]))
                                              - projection(j, l))
    return q


def qfim_numerical(builder: StateBuilder, at: tuple[float, float],
                   step: float) -> np.ndarray:
    """Finite-difference 2x2 information matrix of a state family.

    Central differences at h = step and step/2 around at, with one
    Richardson extrapolation level; raises ConvergenceError when either
    estimate has a non-finite entry or the two disagree by more than
    MAX_DISAGREEMENT in relative Frobenius norm.  Pure families are
    differentiated jointly; in a labeled mixture each branch keeps its own
    projection, which gives the weight-average of the branch matrices (the
    weights do not depend on the parameters, the label keeps the branches
    orthogonal).  The centre is built once, so a matrix costs 9 builds.  A
    step that is not positive and finite raises DomainError.
    """
    if not 0 < step < math.inf:                             # NaN fails too
        raise DomainError(f"finite-difference step {step:g} is not positive and finite")
    center = builder(*at)
    with np.errstate(all="ignore"):         # a non-finite matrix fails below
        q_h = _qfim_fd(builder, at, step, center)
        q_h2 = _qfim_fd(builder, at, 0.5 * step, center)
    if not np.isfinite([q_h, q_h2]).all():
        raise ConvergenceError(f"finite-difference matrix is not finite: {q_h2.tolist()}")
    scale = np.linalg.norm(q_h2)
    if scale == 0.0:
        raise ConvergenceError("finite-difference matrix vanished identically")
    disagreement = np.linalg.norm(q_h2 - q_h) / scale
    if disagreement > MAX_DISAGREEMENT:
        raise ConvergenceError(
            f"central-difference estimates at h and h/2 disagree by "
            f"{disagreement:.3e} (limit {MAX_DISAGREEMENT:g}); refine the grid "
            f"or the step")
    return (4.0 * q_h2 - q_h) / 3.0
