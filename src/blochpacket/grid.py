"""Periodic tensor grids and the fixed-step kernels of the flow and grid envelope.

`SpatialGrid` is the one geometry behind the envelope z-box, the fine
x-grid of synthesized packets and the reference solver.  `strang_step` is
the Fourier split step of the grid envelope: the time-splitting spectral
scheme of Bao, Jin and Markowich (J. Comput. Phys. 175 (2002)).
`rk4` is the classical Runge-Kutta integrator of the flow; the linear Gaussian
equations take its step as one transfer matrix (`envelope.evolve_gaussian`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

SHELL = 0.1       # outer fraction of each axis watched for mass
THRESHOLD = 1e-8  # largest mass fraction a guard allows in that shell
CELL_TOL = 1e-9   # relative slack when counting whole cells in a box


def as_points(x, dimension: int) -> np.ndarray:
    """Points of shape (..., d); with d = 1 a trailing axis is added to
    scalars and to arrays of bare coordinates."""
    x = np.asarray(x, dtype=float)
    if dimension == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    return x


def mesh(axes) -> np.ndarray:
    """Points of the tensor grid of the given axes, shape (*shape, d), C order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def step_count(span: float, dt: float) -> int:
    """Number of equal steps, none longer than dt, that cover span."""
    return max(1, int(np.ceil(span / dt - 1e-12)))


def rk4(f, y0, h: float, nsteps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical Runge-Kutta on y' = f(k, y), where k counts half steps, so
    step i takes its stages at k = 2i, 2i + 1, 2i + 1 and 2i + 2.

    Returns the node values and f at every node, each of shape
    (nsteps + 1,) + y0.shape; each node derivative doubles as the next
    step's first stage.
    """
    y = np.asarray(y0)
    k1 = f(0, y)
    ys = np.empty((nsteps + 1,) + y.shape, dtype=np.result_type(y, k1))
    fs = np.empty_like(ys)
    ys[0], fs[0] = y, k1
    for i in range(nsteps):
        k = 2 * i
        k2 = f(k + 1, y + 0.5 * h * k1)
        k3 = f(k + 1, y + 0.5 * h * k2)
        k4 = f(k + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        k1 = f(k + 2, y)
        ys[i + 1], fs[i + 1] = y, k1
    return ys, fs


def strang_step(values: np.ndarray, half_phase: np.ndarray, kinetic: np.ndarray) -> np.ndarray:
    """Half pointwise phase, exact Fourier multiplier, second half phase."""
    fft, ifft = (np.fft.fft, np.fft.ifft) if values.ndim == 1 else (np.fft.fftn, np.fft.ifftn)
    return half_phase * ifft(kinetic * fft(half_phase * values))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [-half_width, half_width)^dimension."""

    dimension: int
    half_width: float
    npoints: int

    def __post_init__(self):
        if self.dimension < 1:
            raise GridError("dimension must be at least 1")
        if self.half_width <= 0:
            raise GridError("half_width must be positive")
        if self.npoints < 2:
            raise GridError("need at least two points per axis")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.npoints

    @property
    def dv(self) -> float:
        """Volume of one grid cell."""
        return self.dx**self.dimension

    @property
    def shape(self) -> tuple:
        return (self.npoints,) * self.dimension

    @property
    def size(self) -> int:
        return self.npoints**self.dimension

    def axis(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.npoints)

    def freq_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.npoints, d=self.dx)

    def along(self, j: int, vec: np.ndarray) -> np.ndarray:
        """A per-axis vector shaped to broadcast along grid axis j."""
        shape = [1] * self.dimension
        shape[j] = self.npoints
        return np.reshape(vec, shape)

    def _mesh(self, axis: np.ndarray) -> np.ndarray:
        return mesh([axis] * self.dimension).reshape(-1, self.dimension)

    def points(self) -> np.ndarray:
        """All grid points, shape (npoints**dimension, dimension)."""
        return self._mesh(self.axis())

    def cell_mesh(self, scale: float) -> np.ndarray:
        """y = x / scale at the grid points of the box's first cell of the
        lattice (2 pi scale Z)^d; shape (P,)*d + (d,).

        A factor periodic on that lattice, sampled here, covers the grid
        exactly through `tile`.  Raises GridError unless the box holds a
        whole number of its cells, each of P whole grid points.
        """
        ratio = 2.0 * self.half_width / (2.0 * np.pi * scale)
        cells = round(ratio)
        if cells < 1 or abs(ratio - cells) > CELL_TOL * ratio or self.npoints % cells:
            raise GridError(
                f"box [-{self.half_width:.6g}, {self.half_width:.6g})^{self.dimension} of"
                f" {self.npoints} points does not hold whole cells of side 2 pi * {scale:.6g}"
            )
        return mesh([self.axis()[: self.npoints // cells] / scale] * self.dimension)

    def tile(self, cell_values: np.ndarray) -> np.ndarray:
        """Samples at the `cell_mesh` points, (P,)*d + trailing axes, repeated
        over the whole grid."""
        cells = self.npoints // cell_values.shape[0]
        trailing = cell_values.ndim - self.dimension
        return np.tile(cell_values, (cells,) * self.dimension + (1,) * trailing)

    @cached_property
    def _products(self) -> dict:
        """x_i x_j (key False) and xi_i xi_j (key True), (d * d, size) each, built on first use."""
        return {}

    def quadratic_form(self, mat: np.ndarray, *, fourier: bool = False) -> np.ndarray:
        """<x, mat x> on the grid points, or <xi, mat xi> on the FFT
        frequencies when fourier is set, shaped like the grid."""
        if fourier not in self._products:
            pts = self._mesh(self.freq_axis() if fourier else self.axis())
            self._products[fourier] = np.einsum("pi,pj->ijp", pts, pts).reshape(-1, self.size)
        return (np.ravel(mat) @ self._products[fourier]).reshape(self.shape)

    def norm(self, values: np.ndarray) -> float:
        """Grid L2 norm (trapezoid rule, exact for the periodic grid)."""
        return float(np.sqrt(np.sum(np.abs(values) ** 2) * self.dv))

    def edge_mask(self, outer: np.ndarray) -> np.ndarray:
        """Nodes flagged by the per-axis mask `outer` along at least one axis."""
        axes = [self.along(j, outer) for j in range(self.dimension)]
        return np.logical_or.reduce(np.broadcast_arrays(*axes))

    def edge_fraction(self, weights: np.ndarray, mask: np.ndarray) -> float:
        """Share of the weights on the nodes of an `edge_mask`."""
        total = float(np.sum(weights))
        if total == 0.0:
            return 0.0
        return float(np.sum(weights[mask])) / total

    @cached_property
    def _shell_index(self) -> np.ndarray:
        return np.flatnonzero(self.edge_mask(np.abs(self.axis()) > (1 - SHELL) * self.half_width))

    def shell_fraction(self, values: np.ndarray) -> float:
        """Mass fraction in the outer SHELL of the box (union over axes)."""
        flat = np.ravel(values)
        shell, total = flat[self._shell_index], np.vdot(flat, flat).real
        return float(np.vdot(shell, shell).real / total) if total else 0.0

    peak_shell_fraction = 0.0  # the largest fraction `guard` has read on this grid

    def guard(self, values: np.ndarray, error: type, t: float | None = None) -> None:
        """Raise error, naming the fraction and t if given, once the
        `shell_fraction` of values passes THRESHOLD, read at call time;
        `peak_shell_fraction` keeps the largest it has read."""
        frac = self.shell_fraction(values)
        # the grid is frozen; like a cached_property, the record goes to the instance dict
        self.__dict__["peak_shell_fraction"] = max(self.peak_shell_fraction, frac)
        if frac > THRESHOLD:
            near = "" if t is None else f" near t = {t:.6g}"
            raise error(f"mass fraction {frac:.3e} reached the box boundary{near}; enlarge the box")
