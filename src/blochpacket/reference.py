"""Direct fine-grid solver for the oscillatory equation and error metrology.

The equation  i eps d_t psi = -(eps^2/2) Lap psi + (V_lat(x/eps) + V(x)) psi
is advanced in the rescaled form  i d_t psi = -(eps/2) Lap psi + (1/eps) V_tot psi
by the shared `grid.strang_step`, the same Fourier split step the envelope
propagator takes: the potential factor is a pointwise phase, the kinetic
factor is exact in Fourier space.  Both factors are unimodular, so the grid
mass is conserved to rounding and the time step budget is purely one of
accuracy (default dt = eps/100 against the O(1/eps) effective potential).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import GridWaveField
from .errors import SolverError
from .grid import THRESHOLD, SpatialGrid, step_count, strang_step

DEFAULT_DT_FACTOR = 0.01  # dt = factor * eps
BOUNDARY_CHECK_EVERY = 16  # steps between boundary-shell checks
RESIDUAL_DELTA_LIMIT = 0.1  # require delta <= eps / 10


@dataclass(frozen=True)
class SolverParams:
    """Step control for the split-step reference propagation."""

    dt: float | None = None  # None -> DEFAULT_DT_FACTOR * epsilon
    boundary_threshold: float = THRESHOLD

    def resolve_dt(self, epsilon: float) -> float:
        dt = DEFAULT_DT_FACTOR * epsilon if self.dt is None else float(self.dt)
        if dt <= 0:
            raise SolverError("dt must be positive")
        return dt


def _total_potential_grid(psi: GridWaveField, lattice, lattice_potential, external) -> np.ndarray:
    """(V_lat(x/eps) + V(x)) sampled on the grid, V_lat on one cell and tiled."""
    grid = psi.grid
    vlat = lattice_potential.evaluate(lattice, grid.cell_mesh(lattice.basis, psi.epsilon))
    return grid.tile(vlat) + external.value(grid.points()).reshape(grid.shape)


def _kinetic_symbol(grid: SpatialGrid) -> np.ndarray:
    """|xi|^2 / 2 on the FFT frequency tensor grid."""
    return 0.5 * grid.quadratic_form(np.eye(grid.dimension), fourier=True)


def solve_schrodinger(
    psi0: GridWaveField,
    lattice,
    lattice_potential,
    external,
    times,
    params: SolverParams = SolverParams(),
) -> list:
    """Propagate psi0 and return snapshots at the requested times.

    Times must be non-decreasing and start at or after psi0.time; each
    segment is covered by ceil(segment/dt) equal steps so snapshots land
    exactly.  A boundary monitor aborts if packet mass reaches the outer
    shell of the periodic box.
    """
    times = [float(t) for t in np.atleast_1d(np.asarray(times, dtype=float))]
    if not times:
        raise SolverError("no snapshot times requested")
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise SolverError("snapshot times must be non-decreasing")
    if times[0] < psi0.time - 1e-12:
        raise SolverError("cannot propagate backwards from the initial time")

    eps = psi0.epsilon
    dt = params.resolve_dt(eps)
    vgrid = _total_potential_grid(psi0, lattice, lattice_potential, external)
    ksym = _kinetic_symbol(psi0.grid)

    vals = psi0.values.astype(complex, copy=True)
    t = psi0.time
    snapshots = []
    for target in times:
        span = target - t
        if span > 1e-14:
            nsteps = step_count(span, dt)
            h = span / nsteps
            half_potential = np.exp(-0.5j * h * vgrid / eps)
            kinetic = np.exp(-1j * h * eps * ksym)
            for step in range(nsteps):
                vals = strang_step(vals, half_potential, kinetic)
                if (step + 1) % BOUNDARY_CHECK_EVERY == 0:
                    _boundary_guard(vals, psi0.grid, t + (step + 1) * h, params)
        t = target
        snap = GridWaveField(grid=psi0.grid, epsilon=eps, time=t, values=vals.copy())
        _boundary_guard(vals, psi0.grid, t, params)
        snapshots.append(snap)
    return snapshots


def _boundary_guard(vals: np.ndarray, grid: SpatialGrid, t: float, params: SolverParams):
    frac = grid.shell_fraction(vals)
    if frac > params.boundary_threshold:
        raise SolverError(
            f"packet mass fraction {frac:.3e} reached the box boundary"
            f" near t = {t:.6g}; enlarge the box"
        )


def l2_error(a: GridWaveField, b: GridWaveField) -> float:
    """Grid L2 norm of a - b (exact trapezoid on the periodic grid)."""
    a.require_compatible(b)
    return a.grid.norm(a.values - b.values)


def self_convergence_ratio(
    psi0: GridWaveField,
    lattice,
    lattice_potential,
    external,
    t_final: float,
    dt: float,
) -> float:
    """|psi_dt - psi_dt/2| / |psi_dt/2 - psi_dt/4| at t_final (2nd order -> 4)."""
    outs = []
    for k in range(3):
        params = SolverParams(dt=dt / 2**k)
        outs.append(
            solve_schrodinger(psi0, lattice, lattice_potential, external, [t_final], params)[0]
        )
    coarse = l2_error(outs[0], outs[1])
    fine = l2_error(outs[1], outs[2])
    if fine == 0.0:
        raise SolverError("self-convergence denominator vanished")
    return coarse / fine


def laplacian(field: GridWaveField) -> np.ndarray:
    """Spectral Laplacian of the samples."""
    ksym = _kinetic_symbol(field.grid)
    return np.fft.ifftn(-2.0 * ksym * np.fft.fftn(field.values))


def pde_residual(
    before: GridWaveField,
    middle: GridWaveField,
    after: GridWaveField,
    lattice,
    lattice_potential,
    external,
) -> float:
    """L2 norm of (i eps d_t + (eps^2/2) Lap - V_lat(x/eps) - V(x)) applied
    to three snapshots of a candidate solution, with a centered difference
    in time and the spectral Laplacian in space at the middle snapshot."""
    middle.require_compatible(before, same_time=False)
    middle.require_compatible(after, same_time=False)
    eps = middle.epsilon
    delta_plus = after.time - middle.time
    delta_minus = middle.time - before.time
    if delta_plus <= 0 or delta_minus <= 0:
        raise SolverError("snapshots must be time-ordered around the middle")
    if abs(delta_plus - delta_minus) > 1e-12 * max(delta_plus, delta_minus):
        raise SolverError("centered difference needs symmetric time offsets")
    delta = 0.5 * (delta_plus + delta_minus)
    if delta > RESIDUAL_DELTA_LIMIT * eps:
        raise SolverError(
            f"time offset {delta:.3e} does not resolve the 1/eps phase"
            f" oscillation; need delta <= {RESIDUAL_DELTA_LIMIT * eps:.3e}"
        )
    dpsi_dt = (after.values - before.values) / (2.0 * delta)
    vgrid = _total_potential_grid(middle, lattice, lattice_potential, external)
    resid = (
        1j * eps * dpsi_dt
        + 0.5 * eps**2 * laplacian(middle)
        - vgrid * middle.values
    )
    return middle.grid.norm(resid)
