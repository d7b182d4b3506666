"""Quantum Fisher information matrices and Cramer-Rao bounds.

The traversal imprints the two shift weights (g1, g2) on the probe, and the
network average tilt is the scalar function tbar = (g1+g2)/(N(N+1)zbar) of
them.  This module evaluates the 2x2 information matrix of (g1, g2) for all
query strategies from closed forms in the initial-probe moments, projects it
onto tbar for the bound, and provides an independent finite-difference
evaluation on grid states as the numerical oracle for every closed form.

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
from .grid import POSITION, Moments, ProbeSpec, WaveFunction, _vdot

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
    """Probe-ancilla state as a weighted branch pair.

    branch_plus / branch_minus are the forward- and reverse-order probe
    states (each normalized, with any dynamic phase folded into the
    amplitudes).  weights are the ancilla populations; coherence is the
    off-diagonal ancilla weight a0 * conj(a1) (1/2 for the balanced control
    qubit, 0 for the classical mixture).  ancilla_labeled records whether
    the ancilla label survives to the measurement: with the label the mixed
    branches stay orthogonal, without it (probe alone) they generally
    overlap.
    """

    branch_plus: WaveFunction
    branch_minus: Optional[WaveFunction]
    weights: tuple[float, float]
    coherence: complex
    ancilla_labeled: bool = True

    def __post_init__(self):
        w0, w1 = self.weights
        if w0 < 0 or w1 < 0 or abs(w0 + w1 - 1.0) > 1e-9:
            raise ValueError(f"branch weights must be a distribution, got {self.weights}")
        if abs(self.coherence) > np.sqrt(w0 * w1) + 1e-9:
            raise ValueError("ancilla coherence violates positivity")
        if self.branch_minus is None and w1 != 0.0:
            raise ValueError("missing reverse branch with nonzero weight")

    @property
    def is_pure(self) -> bool:
        w0, w1 = self.weights
        if w1 == 0.0 or w0 == 0.0:
            return True
        return abs(abs(self.coherence) - np.sqrt(w0 * w1)) <= 1e-9


@dataclass(frozen=True)
class Qfim2:
    """Symmetric 2x2 information matrix over the shift weights (g1, g2)."""

    q11: float
    q12: float
    q22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.q11, self.q12], [self.q12, self.q22]])

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.as_array())

    def is_psd(self, tol: float = RANK_TOL) -> bool:
        tr = abs(self.q11) + abs(self.q22)
        return bool(np.all(self.eigenvalues() >= -tol * max(tr, 1e-300)))

    @classmethod
    def from_array(cls, q: np.ndarray) -> "Qfim2":
        """Matrix from a 2x2 array symmetric to 1e-9 of its largest entry."""
        if q.shape != (2, 2) or abs(q[0, 1] - q[1, 0]) > 1e-9 * (np.max(np.abs(q)) + 1e-300):
            raise ValueError("expected a symmetric 2x2 array")
        return cls(float(q[0, 0]), 0.5 * float(q[0, 1] + q[1, 0]), float(q[1, 1]))


@dataclass(frozen=True)
class QcrbReport:
    """Variance bound on the network-average kick tbar for one strategy."""

    strategy: object
    n_sensors: int
    bound_on_theta_bar: float
    trials: int = 1

    def __post_init__(self):
        if not (self.bound_on_theta_bar > 0 and math.isfinite(self.scaled_bound)):
            raise DomainError(f"bound {self.bound_on_theta_bar:g} at N = "
                              f"{self.n_sensors} is not positive and finite")
        if self.trials < 1:
            raise ValueError("trials must be a positive integer")

    @property
    def scaled_bound(self) -> float:
        """bound * N^4; converges for the switched strategies."""
        return self.bound_on_theta_bar * self.n_sensors**4

    @property
    def per_shot_precision(self) -> float:
        return float(np.sqrt(self.bound_on_theta_bar))

    @property
    def precision(self) -> float:
        return float(np.sqrt(self.trials * self.bound_on_theta_bar))


@dataclass(frozen=True)
class GeneratorMoments:
    """Initial-probe moments plus the evolution scalars the closed forms need."""

    var_x: float
    var_p: float
    cov_xp: float
    mean_p: float
    wave_number: float
    z_bar: float
    n_sensors: int
    g1: float = 0.0
    g2: float = 0.0

    def __post_init__(self):
        if not (self.var_x > 0 and self.var_p > 0):
            raise DomainError("variances must be positive")
        if not (self.wave_number > 0 and self.z_bar > 0 and self.n_sensors >= 1):
            raise DomainError("need positive wave number, spacing and sensor count")
        try:                  # the closed-form terms and span^2 must stay in range
            a, b, c = _terms(self)
            ok = 0 < a < math.inf and 0 < b < math.inf and math.isfinite(c + self.span**2)
        except (OverflowError, ZeroDivisionError):     # float ** out of range
            ok = False
        if not ok:
            raise DomainError(f"Var X / ((N+1) zbar)^2 or Var P / k^2 leaves the float "
                              f"range at k = {self.wave_number:g} 1/m, zbar = {self.z_bar:g} m")

    @property
    def span(self) -> float:
        """(N+1) * zbar, the in-network path length."""
        return (self.n_sensors + 1) * self.z_bar

    @classmethod
    def from_moments(cls, m: Moments, wave_number: float, z_bar: float,
                     n_sensors: int, g1: float = 0.0, g2: float = 0.0
                     ) -> "GeneratorMoments":
        return cls(m.var_x, m.var_p, m.cov_xp, m.mean_p,
                   wave_number, z_bar, n_sensors, g1, g2)

    @classmethod
    def from_probe_spec(cls, spec: ProbeSpec, z_bar: float, n_sensors: int,
                        g1: float = 0.0, g2: float = 0.0) -> "GeneratorMoments":
        """Analytic Gaussian moments: Var X = w0^2/4, Var P = 1/w0^2, Cov = 0."""
        try:
            var_x, var_p = spec.delta_x**2, spec.delta_p**2
        except OverflowError:
            raise DomainError(f"waist {spec.waist_radius:g} m: probe variances overflow") from None
        return cls(var_x, var_p, 0.0, spec.center_p, spec.wave_number, z_bar,
                   n_sensors, g1, g2)


def _terms(gm: GeneratorMoments) -> tuple[float, float, float]:
    """a = Var X u^2, b = Var P / k^2 and c = Cov u / k, u = 1/((N+1) zbar)."""
    u = 1.0 / gm.span
    k = gm.wave_number
    return gm.var_x * u**2, gm.var_p / k**2, gm.cov_xp * u / k


# -- closed forms ---------------------------------------------------------------


def qfim_sequential(gm: GeneratorMoments) -> Qfim2:
    """Information matrix of a fixed-order traversal (pure final state)."""
    a, b, c = _terms(gm)
    return Qfim2(4.0 * (a + b + 2.0 * c), 4.0 * (a + c), 4.0 * a)


def qfim_quantum_switch(gm: GeneratorMoments) -> Qfim2:
    """Information matrix with the control qubit in the balanced superposition.

    The momentum-generator brackets carry the g-dependent displacements
    [<P>/2k - g2/(2k(N+1)zbar)] and [<P>/2k - g1/(2k(N+1)zbar)]; only these
    branch-asymmetric scalars survive in the variances (branch-symmetric
    scalars are pure gauge), which the finite-difference oracle confirms.
    """
    u = 1.0 / gm.span
    k = gm.wave_number
    base = gm.var_x * u**2 + gm.cov_xp * u / k
    half_p = gm.var_p / (2.0 * k**2)
    bracket1 = gm.mean_p / (2.0 * k) - gm.g2 * u / (2.0 * k)
    bracket2 = gm.mean_p / (2.0 * k) - gm.g1 * u / (2.0 * k)
    var1 = base + half_p + bracket1**2
    var2 = base + half_p + bracket2**2
    cov12 = base - bracket1 * bracket2
    return Qfim2(4.0 * var1, 4.0 * cov12, 4.0 * var2)


def qfim_classical_switch(gm: GeneratorMoments) -> Qfim2:
    """Information matrix of the balanced classical order mixture.

    Equal to the arithmetic mean of the forward- and reverse-order
    sequential matrices: the ancilla label keeps the branches orthogonal and
    the weights carry no parameter dependence.
    """
    a, b, c = _terms(gm)
    diag = a + 0.5 * b + c
    return Qfim2(4.0 * diag, 4.0 * (a + c), 4.0 * diag)


#: the one SwitchMode -> closed-form information matrix dispatch.
#: PROBE_ALONE is absent: its matrix exists only at the origin and is
#: singular, so its bound comes from probe_alone_qfi_at_origin.
QFIM_CLOSED_FORMS: dict[SwitchMode, Callable[[GeneratorMoments], Qfim2]] = {
    SwitchMode.SEQUENTIAL: qfim_sequential,
    SwitchMode.QUANTUM_SWITCH: qfim_quantum_switch,
    SwitchMode.CLASSICAL_SWITCH: qfim_classical_switch,
}


def probe_alone_qfim_at_origin(gm: GeneratorMoments) -> Qfim2:
    """Singular information matrix of the traced-out mixture at g = 0.

    Var(H0) * [[1, 1], [1, 1]] with H0 = P/k + 2X/((N+1)zbar): only the sum
    g1 + g2 is estimable from the probe alone.
    """
    v = _var_h0(gm)
    return Qfim2(v, v, v)


def _var_h0(gm: GeneratorMoments) -> float:
    a, b, c = _terms(gm)
    return b + 4.0 * a + 4.0 * c


def probe_alone_qfi_at_origin(gm: GeneratorMoments, trials: int = 1,
                              strategy=None) -> QcrbReport:
    """Bound on tbar from the mixed probe alone, in the small-signal regime.

    1 / (N^2 (N+1)^2 zbar^2 Var(H0)); coincides exactly with the
    classical-switch bound.
    """
    n = gm.n_sensors
    bound = 1.0 / (n**2 * gm.span**2 * _var_h0(gm))
    return QcrbReport(strategy if strategy is not None else "probe_alone",
                      n, bound, trials)


def qcrb_global(q: Qfim2, n_sensors: int, z_bar: float, trials: int = 1,
                strategy=None) -> QcrbReport:
    """Project the (g1, g2) information matrix onto the average kick tbar.

    Computes G Q^-1 G^T with the Jacobian G = [1, 1]/(N(N+1)zbar).  A
    singular matrix is inverted on its range only; if the Jacobian has a
    component along the null space the scalar is not estimable and the call
    raises EstimabilityError.
    """
    w = 1.0 / (n_sensors * (n_sensors + 1) * z_bar)
    jac = np.array([w, w])
    arr = q.as_array()
    evals, evecs = np.linalg.eigh(arr)
    cut = RANK_TOL * max(abs(evals).max(), 1e-300)
    keep = evals > cut
    if not np.any(keep):
        raise EstimabilityError("information matrix is zero; nothing is estimable")
    if not np.all(keep):
        null_part = jac @ evecs[:, ~keep]
        if np.linalg.norm(null_part) > 1e-9 * np.linalg.norm(jac):
            raise EstimabilityError(
                "average kick is not estimable: Jacobian leaves the row space "
                "of the singular information matrix")
    proj = jac @ evecs[:, keep]
    bound = float(np.sum(proj**2 / evals[keep]))
    return QcrbReport(strategy, n_sensors, bound, trials)


# -- finite-difference oracle ----------------------------------------------------


StateBuilder = Callable[[float, float], JointState]

#: default step relative to each parameter value (and its floor at zero).
REL_STEP = 1e-4
#: largest relative Frobenius disagreement between the h and h/2 estimates.
MAX_DISAGREEMENT = 1e-2


def _qfim_fd(builder: StateBuilder, at: tuple[float, float],
             steps: tuple[float, float], center: JointState) -> np.ndarray:
    """Central-difference matrix of a family around center = builder(*at).

    With branch projections p_ij = <psi_i|d_j psi_i>, a pure centre subtracts
    the joint projection conj(sum_i w_i p_ij) * sum_i w_i p_il, and a labeled
    mixture subtracts each branch's own, sum_i w_i conj(p_ij) p_il, which
    makes its matrix the weight-average of the branch matrices.  Differences
    and inner products are taken in the representation the centre's forward
    branch comes in, with that representation's quadrature weight; a branch
    built in the other one is transformed first.  By Parseval the matrix is
    the same in either, to rounding.
    """
    g1, g2 = at
    h1, h2 = steps
    rep = center.branch_plus.representation
    weight = center.branch_plus._weight
    # branches of weight 0 (a missing reverse branch among them) drop out
    used = [(w, pick) for w, pick in zip(center.weights,
                                         ("branch_plus", "branch_minus")) if w != 0.0]

    def amps(state: JointState) -> list[np.ndarray]:
        out = []
        for _, pick in used:
            psi = getattr(state, pick)
            out.append((psi.to_position() if rep == POSITION
                        else psi.to_momentum()).amplitudes)
        return out

    def diff(plus: JointState, minus: JointState, h: float) -> list[np.ndarray]:
        return [(a - b) / (2 * h) for a, b in zip(amps(plus), amps(minus))]

    def terms(a, b) -> list[complex]:
        return [w * _vdot(x, y) * weight for (w, _), x, y in zip(used, a, b)]

    ders = (diff(builder(g1 + h1, g2), builder(g1 - h1, g2), h1),
            diff(builder(g1, g2 + h2), builder(g1, g2 - h2), h2))
    cen = amps(center)
    proj = [terms(cen, d) for d in ders]
    if center.is_pure:
        def projection(j: int, l: int) -> complex:
            return sum(proj[j]).conjugate() * sum(proj[l])
    else:
        def projection(j: int, l: int) -> complex:
            return sum(a.conjugate() * b / w
                       for (w, _), a, b in zip(used, proj[j], proj[l]))
    # swapping the arguments of an inner product conjugates it exactly, so
    # q is symmetric
    q = np.empty((2, 2))
    for j in range(2):
        for l in range(j, 2):
            q[j, l] = q[l, j] = 4.0 * np.real(sum(terms(ders[j], ders[l]))
                                              - projection(j, l))
    return q


def qfim_numerical(builder: StateBuilder, at: tuple[float, float] = (0.0, 0.0),
                   step: Optional[float] = None, richardson: bool = True) -> Qfim2:
    """Finite-difference information matrix of a state family.

    Central differences at step h and h/2 with one Richardson extrapolation
    level; raises ConvergenceError when the two estimates disagree by more
    than MAX_DISAGREEMENT in relative Frobenius norm.  The default step is
    REL_STEP relative to each parameter value (with a floor of REL_STEP for
    parameters at zero).  Pure families are differentiated jointly; in a
    labeled mixture of zero coherence each branch keeps its own projection,
    which gives the weight-average of the branch matrices (the weights do
    not depend on the parameters, the label keeps the branches orthogonal).
    Other mixed centres raise EstimabilityError.  The centre is built once,
    so a matrix costs 9 builds.  richardson=False skips the second
    evaluation and the convergence check (plain second-order differences,
    useful for step-scaling studies).
    """
    center = builder(*at)
    if not (center.is_pure or center.ancilla_labeled and center.coherence == 0):
        raise EstimabilityError(
            "finite differences need a pure state or a labeled mixture with zero "
            "coherence; an unlabeled mixture has a closed form at the origin")
    if step is not None:
        steps = (float(step), float(step))
    else:
        steps = (REL_STEP * max(abs(at[0]), 1.0), REL_STEP * max(abs(at[1]), 1.0))
    q_h = _qfim_fd(builder, at, steps, center)
    if not richardson:
        return Qfim2.from_array(q_h)
    q_h2 = _qfim_fd(builder, at, (0.5 * steps[0], 0.5 * steps[1]), center)
    scale = np.linalg.norm(q_h2)
    if scale == 0.0:
        raise ConvergenceError("finite-difference matrix vanished identically")
    disagreement = np.linalg.norm(q_h2 - q_h) / scale
    if disagreement > MAX_DISAGREEMENT:
        raise ConvergenceError(
            f"central-difference estimates at h and h/2 disagree by "
            f"{disagreement:.3e} (limit {MAX_DISAGREEMENT:g}); refine the grid "
            f"or the step")
    return Qfim2.from_array((4.0 * q_h2 - q_h) / 3.0)
