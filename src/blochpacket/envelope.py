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

The grid scheme takes the shared `grid.strang_step`, the Fourier split
step the reference solver uses for the full oscillatory equation; the
Gaussian flow takes the shared `grid.rk4_step`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError
from .grid import THRESHOLD, SpatialGrid, as_points, rk4_step, step_count, strang_step

INVARIANT_TOL = 1e-6           # Gaussian structure drift that raises
SPECTRAL_TAIL_FRACTION = 1 / 3  # top spectrum band used by the tail monitor
SPECTRAL_TAIL_TOL = 1e-6
SIGMA_MAX_ORDER = 5


def geometric_rate(band, potential, state) -> complex:
    """Purely imaginary geometric rate <chi, grad_k chi> . grad V at a flow
    state; a real part above rounding means a broken gauge and raises."""
    rate = complex(band.berry(state.p) @ potential.grad(state.q))
    if abs(rate.real) > 1e-10 * max(1.0, abs(rate.imag)):
        raise EnvelopeError("geometric phase rate has a real part")
    return 1j * rate.imag


class HomogenizedCoefficients:
    """Time-dependent envelope coefficients M(t), Q(t), beta(t).

    Evaluated pointwise at trajectory states obtained from the trajectory's
    own dense-output interpolation, so the coefficient smoothness matches
    the flow data.
    """

    def __init__(self, trajectory, band, potential):
        self.trajectory = trajectory
        self.band = band
        self.potential = potential
        self.dimension = trajectory.dimension

    def dispersion(self, t: float) -> np.ndarray:
        """Band Hessian M(t) at the trajectory momentum."""
        return self.band.hess_energy(self.trajectory.state_at(t).p)

    def vhess(self, t: float) -> np.ndarray:
        """External Hessian Q(t) at the trajectory position."""
        return self.potential.hess(self.trajectory.state_at(t).q)

    def berry_rate(self, t: float) -> complex:
        """Geometric rate beta(t) at the trajectory state."""
        return geometric_rate(self.band, self.potential, self.trajectory.state_at(t))


class ConstantCoefficients:
    """Fixed M, Q, beta; handy for closed-form checks."""

    def __init__(self, dispersion, vhess, berry_rate: complex = 0.0, dimension: int | None = None):
        m = np.atleast_2d(np.asarray(dispersion, dtype=float))
        q = np.atleast_2d(np.asarray(vhess, dtype=float))
        self.dimension = dimension or m.shape[0]
        self._m, self._q = m, q
        self._beta = complex(berry_rate)

    def dispersion(self, t: float) -> np.ndarray:
        return self._m

    def vhess(self, t: float) -> np.ndarray:
        return self._q

    def berry_rate(self, t: float) -> complex:
        return self._beta


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
    eigs = np.linalg.eigvalsh(re_w)
    pos = float(eigs.min())
    inv_identity = float(
        np.max(np.abs(np.linalg.inv(re_w) - a @ a.conj().T))
    )
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
    """RK4 on (A, B, log det A, integral of beta) from env.t to t_final.

    The determinant logarithm is integrated as trace(A^-1 A') alongside the
    parameters and then snapped onto the exact modulus with the continued
    branch, so evaluation uses a smooth square root of det A.
    """
    t0, t1 = env.t, float(t_final)
    if t1 == t0:
        return env
    if dt <= 0:
        raise EnvelopeError("dt must be positive")
    nsteps = step_count(abs(t1 - t0), dt)
    h = (t1 - t0) / nsteps
    d = env.dimension
    n = d * d

    # RK4 stages 2 and 3 share a time, and stage 4 is the next step's stage 1
    @functools.lru_cache(maxsize=2)
    def coefficients_at(t):
        return coefficients.dispersion(t), coefficients.vhess(t), coefficients.berry_rate(t)

    # state vector: A and B row-major, then log det A and the beta integral
    def rhs(t, y):
        a, b = y[:n].reshape(d, d), y[n : 2 * n].reshape(d, d)
        m, q, beta = coefficients_at(t)
        dld = 1j * np.trace(np.linalg.solve(a, m @ b))
        return np.concatenate([(1j * m @ b).ravel(), (1j * q @ a).ravel(), [dld, beta]])

    y = np.concatenate([env.A.ravel(), env.B.ravel(), [env.log_det, env.berry_integral]])
    t = t0
    for _ in range(nsteps):
        y = rk4_step(rhs, t, y, h)
        t += h
    a, b = y[:n].reshape(d, d), y[n : 2 * n].reshape(d, d)
    ld, br = complex(y[-2]), complex(y[-1])

    # Branch snap: exact modulus, tracked argument continued to the nearest
    # 2 pi branch of the principal argument.
    det = np.linalg.det(a)
    turns = np.round((ld.imag - np.angle(det)) / (2 * np.pi))
    ld = complex(np.log(abs(det)), np.angle(det) + 2 * np.pi * turns)
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
    """Envelope samples on a periodic z-box [-half_width, half_width)^d."""

    values: np.ndarray
    half_width: float
    t: float

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.dimension, self.half_width, self.values.shape[0])

    def mass(self) -> float:
        return self.grid.norm(self.values)

    def boundary_mass_fraction(self) -> float:
        return self.grid.shell_fraction(self.values)

    def spectral_tail_fraction(self) -> float:
        freq = np.abs(self.grid.freq_axis())
        tail = freq > (1.0 - SPECTRAL_TAIL_FRACTION) * freq.max()
        return self.grid.edge_fraction(np.abs(np.fft.fftn(self.values)) ** 2, tail)


def grid_envelope_from_gaussian(
    env: GaussianEnvelope, half_width: float, npoints: int
) -> GridEnvelope:
    """Sample a Gaussian state onto a periodic z-grid."""
    grid = SpatialGrid(env.dimension, half_width, npoints)
    vals = gaussian_eval(env, grid.points()).reshape(grid.shape)
    return GridEnvelope(values=vals, half_width=half_width, t=env.t)


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
    if grid.shell_fraction(u.values) > THRESHOLD:
        raise EnvelopeError("initial envelope already touches the box boundary")
    nsteps = step_count(abs(t1 - t0), dt)
    h = (t1 - t0) / nsteps

    vals = u.values.astype(complex, copy=True)
    t = t0
    for _ in range(nsteps):
        mid = t + 0.5 * h
        q = coefficients.vhess(mid)
        m = coefficients.dispersion(mid)
        half_phase = np.exp(-0.25j * h * grid.quadratic_form(q))
        kinetic = np.exp(-0.5j * h * grid.quadratic_form(m, fourier=True))
        beta = coefficients.berry_rate(mid)
        vals = strang_step(vals, half_phase, kinetic)
        vals = np.exp(1j * h * beta.imag) * vals
        t += h
        if grid.shell_fraction(vals) > THRESHOLD:
            raise EnvelopeError(
                f"envelope mass reached the box boundary near t = {t:.6g};"
                " enlarge the z-box"
            )
    return GridEnvelope(values=vals, half_width=u.half_width, t=t1)


def spectral_gradient(u: GridEnvelope) -> list[np.ndarray]:
    """First z-derivatives of the grid envelope, one array per axis."""
    grid = u.grid
    hat = np.fft.fftn(u.values)
    return [np.fft.ifftn(1j * grid.along(j, grid.freq_axis()) * hat) for j in range(u.dimension)]


def spectral_hessian(u: GridEnvelope) -> np.ndarray:
    """Second z-derivatives, shape (d, d) of grid arrays."""
    grid = u.grid
    hat = np.fft.fftn(u.values)
    d = u.dimension
    out = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(i, d):
            zi = grid.along(i, grid.freq_axis())
            zj = grid.along(j, grid.freq_axis())
            out[i, j] = out[j, i] = np.fft.ifftn(-(zi * zj) * hat)
    return out


def sigma_norm(u: GridEnvelope, order: int) -> float:
    """Weighted Sobolev norm: sum of L2 norms of z^a d^b u, |a| + |b| <= order.

    Derivatives are spectral; a spectral-tail monitor rejects grids too
    coarse to differentiate reliably at the requested order.
    """
    if order < 0 or order > SIGMA_MAX_ORDER:
        raise EnvelopeError(f"order must be in [0, {SIGMA_MAX_ORDER}]")
    if order > 0 and u.spectral_tail_fraction() > SPECTRAL_TAIL_TOL:
        raise EnvelopeError("spectral tail too large for the requested order")
    d = u.dimension
    grid = u.grid
    pts = grid.points()
    hat = np.fft.fftn(u.values)
    freq = [grid.along(j, grid.freq_axis()) for j in range(d)]

    total = 0.0
    for a in _multi_indices(d, order):
        rest = order - sum(a)
        for b in _multi_indices(d, rest):
            mult = np.ones(u.values.shape, dtype=complex)
            for axi in range(d):
                if b[axi]:
                    mult = mult * (1j * freq[axi]) ** b[axi]
            db = np.fft.ifftn(mult * hat)
            weight = np.ones(pts.shape[0])
            for axi in range(d):
                if a[axi]:
                    weight = weight * pts[:, axi] ** a[axi]
            total += grid.norm(db.ravel() * weight)
    return total


def _multi_indices(dimension: int, max_total: int):
    """All multi-indices with |a| <= max_total."""
    for combo in itertools.product(range(max_total + 1), repeat=dimension):
        if sum(combo) <= max_total:
            yield combo
