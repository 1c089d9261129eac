"""Direct fine-grid solver for the oscillatory equation and error metrology.

The equation  i eps d_t psi = -(eps^2/2) Lap psi + (V_lat(x/eps) + V(x)) psi
is advanced in the rescaled form  i d_t psi = -(eps/2) Lap psi + (1/eps) V_tot psi
by the composition SRKN_6^b of Blanes and Moan (J. Comput. Appl. Math. 142 (2002)):
a step of h runs pointwise phases exp(-i b h V / eps) and exact kernel steps
exp(-i a h H) in the order b1 a1 b2 a2 b3 a3 b4 a3 b3 a2 b2 a1 b1, of order four
because [V, [V, [V, H]]] = 0 for a pointwise V (the Runge-Kutta-Nystrom condition).
In d = 1, V is the external potential and H = -(eps/2) Lap + V_lat(x/eps)/eps is exact
by the Bloch decomposition of Huang, Jin, Markowich and Sparber (SIAM J. Sci. Comput.
29 (2007)): on K whole cells of P points it is K Hermitian P x P blocks, one per
residue r of the Fourier index mK + r, built on the cell-Bloch components
X[r, a] = sum_b x[a + P b] e^{-2 pi i r b / K} and diagonalized once per solve (only
r = 0 .. K/2: H_per is real, so block K - r is conj(block r)), so only the splitting
error of V limits the default dt = eps.  A kernel step takes P FFTs of
length K across the cells, applies one of the three propagators W diag(e^{-i a h lam}) W^H
each snapshot segment stores, and transforms back.  In d >= 2 the blocks do not fit in
memory: V is the total potential, H the kinetic part, and each step of dt takes
FOURIER_SUBSTEPS composite steps.  Every factor is unitary, so the mass is conserved to rounding.
The lattice is (2 pi Z)^d, so the solver takes only its potential, sampled on one cell of
side 2 pi eps and tiled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import GridWaveField
from .errors import SolverError
from .grid import SpatialGrid, step_count

DEFAULT_DT_FACTOR = 1.0  # dt = factor * eps
FOURIER_SUBSTEPS = 10  # composite steps per step of dt in d >= 2
RESIDUAL_DELTA_LIMIT = 0.1  # require delta <= eps / 10
RESIDUAL_DELTA_FACTOR = 0.25  # residual sweeps take delta = factor * eps^2
_B = (0.0829844064174052, 0.396309801498368, -0.0390563049223486)  # b1 b2 b3; b4 = 1 - 2 (b1 + b2 + b3)
PHASE_WEIGHTS = (_B[0], 2 * _B[0], _B[1], _B[2], 1 - 2 * sum(_B), _B[2], _B[1])  # first, fused, b2 .. b2
KERNEL_WEIGHTS = (0.245298957184271, 0.604872665711080, 0.5 - 0.245298957184271 - 0.604872665711080)


@dataclass(frozen=True)
class SolverParams:
    """Step control for the reference's SRKN_6^b composite steps."""

    dt: float | None = None  # None -> DEFAULT_DT_FACTOR * epsilon

    def resolve_dt(self, epsilon: float) -> float:
        dt = DEFAULT_DT_FACTOR * epsilon if self.dt is None else float(self.dt)
        if dt <= 0:
            raise SolverError("dt must be positive")
        return dt


def _total_potential_grid(psi: GridWaveField, lattice_potential, external) -> np.ndarray:
    """(V_lat(x/eps) + V(x)) sampled on the grid, V_lat on one cell and tiled."""
    grid = psi.grid
    vlat = lattice_potential.evaluate(grid.cell_mesh(psi.epsilon))
    return grid.tile(vlat) + external.value(grid.points()).reshape(grid.shape)


def _kinetic_symbol(grid: SpatialGrid) -> np.ndarray:
    """|xi|^2 / 2 on the FFT frequency tensor grid."""
    return 0.5 * grid.quadratic_form(np.eye(grid.dimension), fourier=True)


def _bloch_blocks(grid: SpatialGrid, lattice_potential, eps: float) -> np.ndarray:
    """H_per on the cell-Bloch components X[r, a] of a 1D grid of K whole cells
    of P points, shape (K, P, P).  Coefficient mK + r is
    sum_a e^{-2 pi i (mK + r) a / KP} X[r, a], so V_cell(x/eps)/eps is diagonal
    and the kinetic part of block r is e^{2 pi i r (a - b) / KP} c_r[(a - b) mod P],
    with c_r the inverse DFT over m of (eps/2) xi_{mK+r}^2."""
    vcell = lattice_potential.evaluate(grid.cell_mesh(eps))
    a = np.arange(vcell.shape[0])
    xi = grid.freq_axis().reshape(a.size, -1).T
    twist = np.exp(2j * np.pi * np.outer(np.arange(xi.shape[0]), a) / grid.size)
    blocks = np.fft.ifft(0.5 * eps * xi**2, axis=1)[:, (a[:, None] - a) % a.size]
    blocks *= twist[:, :, None]  # in place: no (K, P, P) temporaries beyond the blocks
    blocks *= twist.conj()[:, None, :]
    blocks[:, a, a] += vcell / eps
    return blocks


def _bloch_step(values: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    """H_per's propagator U of shape (K, P, P) applied to the cell-Bloch
    components by FFTs across cells."""
    cells = np.fft.fft(values.reshape(propagator.shape[0], -1), axis=0)
    cells = np.matmul(propagator, cells[..., None])[..., 0]
    return np.fft.ifft(cells, axis=0).ravel()


def solve_schrodinger(
    psi0: GridWaveField, lattice_potential, external, times, params: SolverParams = SolverParams()
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

    eps, grid = psi0.epsilon, psi0.grid
    dt = params.resolve_dt(eps)
    if grid.dimension == 1:  # H_per = W diag(lam) W^H on the cell-Bloch components
        vgrid = external.value(grid.points())
        blocks = _bloch_blocks(grid, lattice_potential, eps)
        lam, vecs = np.linalg.eigh(blocks[: len(blocks) // 2 + 1])  # block K - r = conj(block r)
        mirror, blocks = slice(len(blocks) - len(lam), 0, -1), None  # H_per is real; blocks freed
        lam, vecs = np.concatenate([lam, lam[mirror]]), np.concatenate([vecs, vecs[mirror]])
        np.conjugate(vecs[len(vecs) - mirror.start :], out=vecs[len(vecs) - mirror.start :])  # no copy
        # one Newton step to W^H W = I, or eigh's 1e-15 adds up over six kernel steps per step
        vecs -= 0.5 * vecs @ (vecs.conj().swapaxes(1, 2) @ vecs - np.eye(vecs.shape[1]))
        step_fn, substeps = _bloch_step, 1
    else:  # only the kinetic part, diagonal on the FFT coefficients
        vgrid = _total_potential_grid(psi0, lattice_potential, external)
        lam, substeps = eps * _kinetic_symbol(grid), FOURIER_SUBSTEPS
        step_fn = lambda values, multiplier: np.fft.ifftn(multiplier * np.fft.fftn(values))  # noqa: E731

    vals = psi0.values.astype(complex, copy=True)
    t = psi0.time
    snapshots = []
    for target in times:
        span = target - t
        if span > 1e-14:
            nsteps = step_count(span, dt) * substeps
            h = span / nsteps
            edge, fused, *inner = (np.exp(-1j * b * h / eps * vgrid) for b in PHASE_WEIGHTS)
            kernels = [np.exp(-1j * a * h * lam) for a in KERNEL_WEIGHTS]
            if grid.dimension == 1:  # U = W d W^H = conj(conj(W d) W^T), each over its conj(W d)
                scaled = (np.conjugate(vecs * d[:, None, :]) for d in kernels)
                kernels = [np.conjugate(np.matmul(s, vecs.swapaxes(1, 2)), out=s) for s in scaled]
            for step in range(nsteps):  # the trailing phase waits to be fused into the next step's
                for phase, propagator in zip((fused if step else edge, *inner), kernels + kernels[::-1]):
                    vals = step_fn(phase * vals, propagator)
                if (step + 1) % substeps == 0:  # once per dt; |phase| = 1 leaves the shell mass exact
                    grid.guard(vals, SolverError, t + (step + 1) * h)
            vals = edge * vals
        t = target
        snap = GridWaveField(grid=grid, epsilon=eps, time=t, values=vals.copy())
        grid.guard(vals, SolverError, t)
        snapshots.append(snap)
    return snapshots


def l2_error(a: GridWaveField, b: GridWaveField) -> float:
    """Grid L2 norm of a - b (exact trapezoid on the periodic grid)."""
    a.require_compatible(b)
    return a.grid.norm(a.values - b.values)


def laplacian(field: GridWaveField) -> np.ndarray:
    """Spectral Laplacian of the samples."""
    ksym = _kinetic_symbol(field.grid)
    return np.fft.ifftn(-2.0 * ksym * np.fft.fftn(field.values))


def pde_residual(
    before: GridWaveField,
    middle: GridWaveField,
    after: GridWaveField,
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
    if delta > RESIDUAL_DELTA_LIMIT * eps * (1.0 + 1e-12):
        raise SolverError(
            f"time offset {delta:.3e} does not resolve the 1/eps phase"
            f" oscillation; need delta <= {RESIDUAL_DELTA_LIMIT * eps:.3e}"
        )
    dpsi_dt = (after.values - before.values) / (2.0 * delta)
    vgrid = _total_potential_grid(middle, lattice_potential, external)
    resid = (
        1j * eps * dpsi_dt
        + 0.5 * eps**2 * laplacian(middle)
        - vgrid * middle.values
    )
    return middle.grid.norm(resid)
