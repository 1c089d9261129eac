"""Band-driven classical flow: trajectory and action.

The trajectory solves q' = grad E(p), p' = -grad V(q) with the band energy
playing the role of the kinetic Hamiltonian. Alongside it we accumulate the
action integral of p . grad E(p) - E(p) - V(q). The geometric phase is not
integrated here: the envelope carries it (`envelope.geometric_rate`). Momenta
are never folded here: the band table folds its own lookups, and phases
always see the unfolded p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FlowError, PotentialError
from .grid import as_points, rk4, step_count

Q_BOUND = 1e6  # largest |q| the flow accepts before calling it a blow-up


@dataclass(frozen=True)
class QuadraticPotential:
    """V(x) = <linear, x> + 0.5 <x, hessian x>; a constant in V is a global phase."""

    linear: np.ndarray
    hessian: np.ndarray

    @classmethod
    def create(cls, dimension: int, linear=None, hessian=None):
        lin = np.zeros(dimension) if linear is None else np.asarray(linear, float)
        hes = np.zeros((dimension, dimension)) if hessian is None else np.asarray(hessian, float)
        if lin.shape != (dimension,) or hes.shape != (dimension, dimension):
            raise PotentialError("quadratic potential shapes inconsistent")
        if np.max(np.abs(hes - hes.T)) > 1e-12 * max(1.0, np.max(np.abs(hes))):
            raise PotentialError("quadratic potential needs a symmetric Hessian")
        return cls(linear=lin, hessian=0.5 * (hes + hes.T))

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    def value(self, x) -> np.ndarray:
        x = as_points(x, self.dimension)
        quad = 0.5 * np.einsum("...i,ij,...j->...", x, self.hessian, x)
        return x @ self.linear + quad

    def grad(self, x) -> np.ndarray:
        x = as_points(x, self.dimension)
        return self.linear + x @ self.hessian

    def hess(self, x) -> np.ndarray:
        x = as_points(x, self.dimension)
        return np.broadcast_to(self.hessian, x.shape[:-1] + self.hessian.shape).copy()


@dataclass(frozen=True)
class CosineWellPotential:
    """V(x) = amplitude * sum_j (1 - cos(frequency_j x_j)), bounded derivatives."""

    amplitude: float
    frequencies: np.ndarray

    @classmethod
    def create(cls, amplitude: float, frequencies) -> "CosineWellPotential":
        freq = np.atleast_1d(np.asarray(frequencies, dtype=float))
        if amplitude < 0 or np.any(freq <= 0):
            raise PotentialError("cosine well needs amplitude >= 0, frequencies > 0")
        return cls(amplitude=float(amplitude), frequencies=freq)

    @property
    def dimension(self) -> int:
        return self.frequencies.shape[0]

    def value(self, x) -> np.ndarray:
        x = as_points(x, self.dimension)
        return self.amplitude * np.sum(1.0 - np.cos(self.frequencies * x), axis=-1)

    def grad(self, x) -> np.ndarray:
        x = as_points(x, self.dimension)
        return self.amplitude * self.frequencies * np.sin(self.frequencies * x)

    def hess(self, x) -> np.ndarray:
        """Hessians at points (..., d), shape (..., d, d)."""
        x = as_points(x, self.dimension)
        diagonal = self.amplitude * self.frequencies**2 * np.cos(self.frequencies * x)
        return diagonal[..., None] * np.eye(self.dimension)


@dataclass(frozen=True)
class TrajectoryState:
    """Flow state at one time, or at N times with t, S (N,) and q, p (N, d)."""

    t: float
    q: np.ndarray
    p: np.ndarray      # unfolded momentum
    S: float

    @property
    def dimension(self) -> int:
        return np.asarray(self.q).shape[-1]


def flow_rhs(y, band, potential, h0: float) -> np.ndarray:
    """Time derivative (dq, dp, dS) of the flow state y = (q, p, S).

    E(p) + V(q) stays at its initial value h0 along the flow, so the action
    rate p . grad E - E - V is taken as p . q' - h0. The two rates differ
    only by the flow's energy drift, which acceptance criterion 6 bounds.
    """
    d = (y.shape[0] - 1) // 2
    out = np.empty_like(y)
    out[:d] = grad_e = band.grad_energy(y[d : 2 * d])
    out[d : 2 * d] = -potential.grad(y[:d])
    out[2 * d] = y[d : 2 * d] @ grad_e - h0
    return out


class Trajectory:
    """Fixed-step trajectory with cubic Hermite dense output.

    Stores states and their exact time derivatives at the nodes; evaluation
    between nodes uses the Hermite interpolant, so node queries reproduce
    stored states exactly and intermediate queries are fourth order.
    """

    def __init__(self, ts: np.ndarray, states: np.ndarray, derivs: np.ndarray, dimension: int):
        self.ts = ts
        self.states = states      # (N+1, 2d+1): q, p, S
        self.derivs = derivs
        self.dimension = dimension

    def state_at(self, t) -> TrajectoryState:
        """State at time t, or the states at an array of times in one
        Hermite evaluation; node times give the stored states exactly."""
        ts = np.asarray(t, dtype=float)
        outside = (ts < self.ts[0] - 1e-12) | (ts > self.ts[-1] + 1e-12)
        if np.any(outside):
            raise FlowError(
                f"time {float(ts[outside].flat[0])!r} ({np.count_nonzero(outside)} of {ts.size}"
                f" times) outside trajectory window [{self.ts[0]}, {self.ts[-1]}]")
        ts = np.clip(ts, self.ts[0], self.ts[-1])
        i = np.clip(np.searchsorted(self.ts, ts, side="right") - 1, 0, len(self.ts) - 2)
        h = (self.ts[i + 1] - self.ts[i])[..., None]
        s = (ts - self.ts[i])[..., None] / h
        y0, y1 = self.states[i], self.states[i + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s**2 * (3 - 2 * s)
        h11 = s**2 * (s - 1)
        y = h00 * y0 + h10 * h * self.derivs[i] + h01 * y1 + h11 * h * self.derivs[i + 1]
        d = self.dimension  # [()] turns 0-d results of a scalar t into scalars
        return TrajectoryState(t=ts[()], q=y[..., :d], p=y[..., d : 2 * d], S=y[..., 2 * d][()])


def integrate_flow(
    q0,
    p0,
    t_final: float,
    dt: float,
    band,
    potential,
) -> Trajectory:
    """Classical RK4 on (q, p, S) over a uniform grid.

    The step is shrunk to divide t_final exactly. A state that is not
    finite or leaves |q| <= Q_BOUND (read at call time) raises.
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    d = q0.shape[0]
    if p0.shape != (d,):
        raise FlowError("q0 and p0 dimensions differ")
    if t_final <= 0 or dt <= 0:
        raise FlowError("time window and step must be positive")
    nsteps = step_count(t_final, dt)
    h = t_final / nsteps
    h0 = float(band.energy(p0) + potential.value(q0))

    # flow_rhs is looked up at each call, so a wrapper installed on the module sees it
    states, derivs = rk4(
        lambda k, y: flow_rhs(y, band, potential, h0), np.concatenate([q0, p0, [0.0]]), h, nsteps
    )
    ts = np.linspace(0.0, t_final, nsteps + 1)
    bad = ~np.all(np.isfinite(states), axis=1) | (np.linalg.norm(states[:, :d], axis=1) > Q_BOUND)
    if np.any(bad):
        raise FlowError(f"trajectory blow-up near t = {ts[np.argmax(bad)]:.6g}")
    return Trajectory(ts=ts, states=states, derivs=derivs, dimension=d)


def total_energy(state: TrajectoryState, band, potential) -> float:
    """Conserved Hamiltonian E(p) + V(q) of the flow, per time of a batched state."""
    return band.energy(state.p) + potential.value(state.q)
