"""Slow-scale envelope propagation along a trajectory.

The envelope solves i u_t + 0.5 div_z(M(t) grad_z u) = 0.5 <z, Q(t) z> u
+ i beta(t) u, with M(t) the band Hessian at p(t), Q(t) the external
Hessian at q(t) and beta(t) the (purely imaginary) geometric rate. Two
propagators are provided: an exact Gaussian parameter flow A' = i M B,
B' = i Q A for Gaussian data, and a Strang-split Fourier scheme on a
periodic z-grid for general data. Both evolve the same unknown: the
Gaussian state accumulates the integral of beta so its values include the
geometric factor, and the grid scheme applies that factor per step. The
rate beta = <chi, grad_k chi> . grad V(q) is defined once, in
`geometric_rate`; the flow does not integrate it.

The coefficient path is array-valued. A propagator knows every time at
which it needs M, Q and beta before it starts (the RK4 stage times, the
Strang midpoints), so it fetches them in one call per coefficient, and the
three calls share one read per propagation: one dense-output evaluation of
the trajectory and one batched band-table lookup, grouped by table patch.

The grid scheme takes its Fourier split steps from `grid.strang_step`;
the linear Gaussian flow takes each RK4 step as one batched transfer matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError
from .grid import SpatialGrid, as_points, step_count, strang_step

INVARIANT_TOL = 1e-6           # Gaussian structure drift that raises
SPECTRAL_TAIL_FRACTION = 1 / 3  # top spectrum band used by the tail monitor
SPECTRAL_TAIL_TOL = 1e-6


def geometric_rate(band, potential, state):
    """Purely imaginary geometric rate <chi, grad_k chi> . grad V at a flow state (per
    time of a batched state); a real part above rounding means a broken gauge and raises."""
    return _imaginary_rate(band.berry(state.p), potential.grad(state.q))


def _imaginary_rate(berry, grad_v):
    rate = np.sum(berry * grad_v, axis=-1)
    if np.any(np.abs(rate.real) > 1e-10 * np.maximum(1.0, np.abs(rate.imag))):
        raise EnvelopeError("geometric phase rate has a real part")
    return 1j * rate.imag


class HomogenizedCoefficients:
    """Time-dependent envelope coefficients M(t), Q(t), beta(t).

    Each accessor takes an array of N times and returns (N, d, d), (N, d, d)
    or (N,), from the trajectory's own dense-output interpolation, so the
    coefficient smoothness matches the flow data. All three come from one
    trajectory read and one band-table read, kept for the last times asked
    for: a propagator asks all three at the same times.
    """

    def __init__(self, trajectory, band, potential):
        self.trajectory = trajectory
        self.band = band
        self.potential = potential
        self._last = (None, None)  # the last times read, and M, Q, berry and grad V there

    def _read(self, t) -> tuple:
        """M, Q, the connection and grad V at the times t; times equal in value
        to the last ones read are served from that read."""
        t = np.asarray(t, dtype=float)
        times, values = self._last
        if times is None or not np.array_equal(times, t):
            state = self.trajectory.state_at(t)
            hess, berry = self.band.hess_and_berry(state.p)
            values = (hess, self.potential.hess(state.q), berry, self.potential.grad(state.q))
            self._last = (t.copy(), values)
        return values

    def dispersion(self, t) -> np.ndarray:
        """Band Hessians M(t) at the trajectory momenta."""
        return self._read(t)[0]

    def vhess(self, t) -> np.ndarray:
        """External Hessians Q(t) at the trajectory positions."""
        return self._read(t)[1]

    def berry_rate(self, t) -> np.ndarray:
        """Geometric rates beta(t) at the trajectory states."""
        return _imaginary_rate(*self._read(t)[2:])


# ---------------------------------------------------------------------------
# Gaussian parameter flow


@dataclass(frozen=True)
class GaussianEnvelope:
    """Gaussian envelope det(A)^(-1/2) exp(-0.5 <z, B A^-1 z>) times the
    accumulated geometric factor.

    log_det tracks the continued logarithm of det A along the evolution, so
    the amplitude never jumps branches. berry_integral is the integral of
    beta (purely imaginary).
    """

    A: np.ndarray
    B: np.ndarray
    log_det: complex
    berry_integral: complex
    t: float

    @property
    def dimension(self) -> int:
        return self.A.shape[0]

    def width_matrix(self) -> np.ndarray:
        return self.B @ np.linalg.inv(self.A)


def gaussian_invariant_defects(env: GaussianEnvelope) -> dict:
    """Structure defects of the Gaussian parameter pair (symmetry,
    positivity, inverse-width identity, determinant branch)."""
    a, b = env.A, env.B
    w = b @ np.linalg.inv(a)
    sym = float(np.max(np.abs(w - w.T)))
    re_w = 0.5 * (w + w.conj().T).real
    pos = float(np.linalg.eigvalsh(re_w).min())
    inv_identity = float(np.max(np.abs(np.linalg.inv(re_w) - a @ a.conj().T)))
    det_branch = float(abs(np.exp(env.log_det) - np.linalg.det(a)))
    return {"symmetry": sym, "min_re_eig": pos, "inverse_width": inv_identity, "det_branch": det_branch}


def gaussian_init(A, B) -> GaussianEnvelope:
    """Validated Gaussian envelope state at t = 0.

    Requires invertible A, B, symmetric width matrix B A^-1 with positive
    definite real part, and Re(B A^-1)^-1 = A A^*; rejects anything else.
    """
    a = np.atleast_2d(np.asarray(A, dtype=complex))
    b = np.atleast_2d(np.asarray(B, dtype=complex))
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise EnvelopeError("Gaussian parameters must be square and same shape")
    for name, mat in (("A", a), ("B", b)):
        if abs(np.linalg.det(mat)) < 1e-12:
            raise EnvelopeError(f"Gaussian parameter {name} is singular")
    env = GaussianEnvelope(
        A=a, B=b, log_det=complex(np.log(np.linalg.det(a))), berry_integral=0.0 + 0.0j, t=0.0
    )
    defects = gaussian_invariant_defects(env)
    if defects["symmetry"] > 1e-10:
        raise EnvelopeError(f"width matrix not symmetric: {defects['symmetry']:.3e}")
    if defects["min_re_eig"] <= 1e-10:
        raise EnvelopeError("width matrix real part not positive definite")
    if defects["inverse_width"] > 1e-10:
        raise EnvelopeError(
            f"inverse width identity violated: {defects['inverse_width']:.3e}"
        )
    return env


def evolve_gaussian(
    env: GaussianEnvelope,
    coefficients,
    t_final: float,
    dt: float,
) -> GaussianEnvelope:
    """RK4 on the pair (A, B) from env.t to t_final, one transfer matrix per step.

    log det A takes the modulus of det A at the end and its argument
    continued from env.log_det's branch over the RK4 nodes, so evaluation
    uses a smooth square root of det A. The integral of beta adds the RK4
    increments of the prefetched rates, which is Simpson's rule.
    """
    t0, t1 = env.t, float(t_final)
    if t1 == t0:
        return env
    if dt <= 0:
        raise EnvelopeError("dt must be positive")
    nsteps = step_count(abs(t1 - t0), dt)
    h = (t1 - t0) / nsteps

    # every RK4 stage time t0 + k h / 2 fetched at once
    stages = t0 + 0.5 * h * np.arange(2 * nsteps + 1)
    stages[-1] = t1
    ms, qs = coefficients.dispersion(stages), coefficients.vhess(stages)
    betas = coefficients.berry_rate(stages)

    # y = (A; B) solves y' = L y, L = [[0, i M], [i Q, 0]], so an RK4 step is
    # y -> R y with R a polynomial in its stage matrices, built for all steps at once
    d = env.dimension
    lin = np.zeros((2 * nsteps + 1, 2 * d, 2 * d), dtype=complex)
    lin[:, :d, d:], lin[:, d:, :d] = 1j * ms, 1j * qs
    eye = np.eye(2 * d)
    l1, l2, l4 = lin[:-1:2], lin[1::2], lin[2::2]
    k2 = l2 @ (eye + 0.5 * h * l1)
    k3 = l2 @ (eye + 0.5 * h * k2)
    steps = eye + (h / 6.0) * (l1 + 2 * k2 + 2 * k3 + l4 @ (eye + h * k3))
    nodes = np.empty((nsteps + 1, 2 * d, d), dtype=complex)
    nodes[0] = np.concatenate([env.A, env.B])
    for i in range(nsteps):
        nodes[i + 1] = steps[i] @ nodes[i]
    a, b = nodes[-1, :d].copy(), nodes[-1, d:].copy()  # views would keep every node alive

    # Branch snap: exact modulus, argument continued from env.log_det's branch
    # to the nearest 2 pi branch of the principal argument.
    dets = np.linalg.det(nodes[:, :d])
    arg = np.unwrap(np.angle(dets))
    det = dets[-1]
    turns = np.round((env.log_det.imag + arg[-1] - arg[0] - np.angle(det)) / (2 * np.pi))
    ld = complex(np.log(abs(det)), np.angle(det) + 2 * np.pi * turns)

    increments = (h / 6.0) * (betas[:-1:2] + 2 * betas[1::2] + 2 * betas[1::2] + betas[2::2])
    br = np.cumsum(np.concatenate([[env.berry_integral], increments]))[-1]
    br = 1j * br.imag  # beta is purely imaginary; drop roundoff real part

    out = GaussianEnvelope(A=a, B=b, log_det=ld, berry_integral=br, t=t1)
    defects = gaussian_invariant_defects(out)
    worst = max(defects["symmetry"], defects["inverse_width"], defects["det_branch"])
    if worst > INVARIANT_TOL or defects["min_re_eig"] <= 0:
        raise EnvelopeError(
            f"Gaussian invariants drifted to {worst:.3e}; use a smaller dt"
        )
    return out


def gaussian_eval(env: GaussianEnvelope, points) -> np.ndarray:
    """Envelope values at z points (..., d) (or (...,) when d = 1)."""
    z = as_points(points, env.dimension)
    w = env.width_matrix()
    quad = np.einsum("...i,ij,...j->...", z, w, z)
    amp = np.exp(-0.5 * env.log_det + env.berry_integral)
    return amp * np.exp(-0.5 * quad)


# ---------------------------------------------------------------------------
# Grid propagator


@dataclass(frozen=True)
class GridEnvelope:
    """Envelope samples on a periodic z-grid."""

    values: np.ndarray
    grid: SpatialGrid
    t: float

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    def mass(self) -> float:
        return self.grid.norm(self.values)

    def boundary_mass_fraction(self) -> float:
        return self.grid.shell_fraction(self.values)

    def spectral_tail_fraction(self) -> float:
        freq = np.abs(self.grid.freq_axis())
        tail = freq > (1.0 - SPECTRAL_TAIL_FRACTION) * freq.max()
        weights = np.abs(np.fft.fftn(self.values)) ** 2
        return self.grid.edge_fraction(weights, self.grid.edge_mask(tail))


def grid_envelope_from_gaussian(
    env: GaussianEnvelope, half_width: float, npoints: int
) -> GridEnvelope:
    """Sample a Gaussian state onto a periodic z-grid."""
    grid = SpatialGrid(env.dimension, half_width, npoints)
    vals = gaussian_eval(env, grid.points()).reshape(grid.shape)
    return GridEnvelope(values=vals, grid=grid, t=env.t)


def evolve_grid_envelope(
    u: GridEnvelope,
    coefficients,
    t_final: float,
    dt: float,
) -> GridEnvelope:
    """Strang-split Fourier stepping of the envelope equation.

    Each step is one `strang_step`: a half quadratic phase, a full Fourier
    kinetic factor and the second half phase, followed by the geometric
    factor exp(h beta). M, Q and beta are all frozen at the step midpoint,
    which keeps the scheme second order. Every factor has unit modulus, so
    the grid mass is conserved to rounding; a boundary-shell monitor guards
    the periodic box after every step.
    """
    t0, t1 = u.t, float(t_final)
    if t1 == t0:
        return u
    if dt <= 0:
        raise EnvelopeError("dt must be positive")
    grid = u.grid
    grid.guard(u.values, EnvelopeError, t0)
    nsteps = step_count(abs(t1 - t0), dt)
    h = (t1 - t0) / nsteps

    mids = t0 + h * (np.arange(nsteps) + 0.5)
    qs, ms = coefficients.vhess(mids), coefficients.dispersion(mids)
    factors = np.exp(1j * h * coefficients.berry_rate(mids).imag)

    vals = u.values.astype(complex, copy=True)
    for k in range(nsteps):
        if k == 0 or not np.array_equal(qs[k], qs[k - 1]):  # Q is constant in a quadratic well
            half_phase = np.exp(-0.25j * h * grid.quadratic_form(qs[k]))
        kinetic = np.exp(-0.5j * h * grid.quadratic_form(ms[k], fourier=True))
        vals = factors[k] * strang_step(vals, half_phase, kinetic)
        grid.guard(vals, EnvelopeError, t0 + (k + 1) * h)
    return GridEnvelope(values=vals, grid=grid, t=t1)


def spectral_gradient(u: GridEnvelope) -> list[np.ndarray]:
    """First z-derivatives of the grid envelope, one array per axis."""
    grid = u.grid
    hat = np.fft.fftn(u.values)
    return [np.fft.ifftn(1j * grid.along(j, grid.freq_axis()) * hat) for j in range(u.dimension)]


def sigma_norm(u: GridEnvelope) -> float:
    """Weighted Sobolev norm of order 1: ||u|| + sum_j (||z_j u|| + ||d_j u||).

    Derivatives are spectral; a spectral-tail monitor rejects grids too
    coarse to differentiate reliably.
    """
    if u.spectral_tail_fraction() > SPECTRAL_TAIL_TOL:
        raise EnvelopeError("spectral tail too large to differentiate the envelope")
    grid = u.grid
    z = grid.axis()
    total = grid.norm(u.values)
    for j, grad in enumerate(spectral_gradient(u)):
        total += grid.norm(grid.along(j, z) * u.values) + grid.norm(grad)
    return total
