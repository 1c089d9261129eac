"""Fine-grid synthesis of semiclassical wave packets.

The physical field mixes three scales: the envelope in the stretched frame
z = (x - q) / sqrt(eps), the lattice cell function at y = x / eps, and the
action phase exp(i (S + p.(x - q)) / eps).  Everything here evaluates those
factors on a periodic tensor grid and combines them, so a synthesized field
can be compared in L2 against a direct solution of the oscillatory equation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bloch import BlochEigenpair, evaluate_cell_coeffs
from .corrector import CorrectorField
from .envelope import GaussianEnvelope, GridEnvelope, gaussian_eval
from .errors import GridError
from .flow import TrajectoryState
from .grid import THRESHOLD, SpatialGrid

POINTS_PER_OSCILLATION = 16
MIN_POINTS = 64
MOMENTUM_MATCH_TOL = 1e-8
TIME_MATCH_TOL = 1e-10


def next_pow2(n: int) -> int:
    out = 1
    while out < n:
        out *= 2
    return out


def make_grid_for(
    epsilon: float,
    dimension: int = 1,
    *,
    half_width: float = 16.0,
    lattice_period: float = 2.0 * np.pi,
    points_per_period: int = POINTS_PER_OSCILLATION,
) -> SpatialGrid:
    """Smallest power-of-two grid resolving the eps-scale oscillations.

    The cell function repeats every lattice_period * eps in x, so the grid
    needs points_per_period samples per repeat across the whole box; the
    sqrt(eps) envelope scale is automatically far coarser.
    """
    if not 0.0 < epsilon < 1.0:
        raise GridError("epsilon must lie in (0, 1)")
    oscillations = 2.0 * half_width / (lattice_period * epsilon)
    needed = int(np.ceil(oscillations * points_per_period))
    return SpatialGrid(
        dimension=dimension,
        half_width=half_width,
        npoints=next_pow2(max(MIN_POINTS, needed)),
    )


@dataclass(frozen=True)
class GridWaveField:
    """Complex samples of a wave field at one time on a SpatialGrid."""

    grid: SpatialGrid
    epsilon: float
    time: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise GridError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        return self.grid.norm(self.values)

    def boundary_mass_fraction(self) -> float:
        return self.grid.shell_fraction(self.values)

    def require_compatible(self, other: "GridWaveField", *, same_time: bool = True):
        if self.grid != other.grid:
            raise GridError("fields live on different grids")
        if abs(self.epsilon - other.epsilon) > 1e-15:
            raise GridError("fields have different epsilon")
        if same_time and abs(self.time - other.time) > TIME_MATCH_TOL:
            raise GridError(
                f"fields at different times {self.time} vs {other.time}"
            )


def fourier_interpolate(u: GridEnvelope, target_axes) -> np.ndarray:
    """Trigonometric interpolation of the envelope on a tensor target grid.

    Targets outside [-half_width, half_width) evaluate to zero.  The trig
    interpolant is periodic, and the stretched-frame targets sweep many
    periods of the envelope box; without the mask every period would
    receive a spurious copy of the packet.
    """
    axes = [np.atleast_1d(np.asarray(t, dtype=float)) for t in target_axes]
    if len(axes) != u.dimension:
        raise GridError("need one target axis per envelope dimension")
    n = u.grid.npoints
    coeffs = np.fft.fftn(u.values) / float(n**u.dimension)
    freqs = u.grid.freq_axis()
    out = coeffs.astype(complex, copy=True)
    for j in reversed(range(u.dimension)):
        t = axes[j]
        mat = np.zeros((t.size, n), dtype=complex)
        inside = (t >= -u.half_width) & (t < u.half_width)
        if np.any(inside):
            # chunked to bound the transient phase matrix
            idx = np.nonzero(inside)[0]
            step = 1 << 12
            for start in range(0, idx.size, step):
                rows = idx[start : start + step]
                # samples sit at z_k = -L + k dz, so the interpolant phase
                # is exp(i xi (z + L)), not exp(i xi z)
                mat[rows] = np.exp(1j * np.outer(t[rows] + u.half_width, freqs))
        out = np.moveaxis(np.moveaxis(out, j, -1) @ mat.T, -1, j)
    return out


def _stretched_axes(state: TrajectoryState, epsilon: float, grid: SpatialGrid) -> list:
    root = np.sqrt(epsilon)
    return [(grid.axis() - state.q[j]) / root for j in range(grid.dimension)]


def _envelope_on_grid(envelope, state, epsilon: float, grid: SpatialGrid) -> np.ndarray:
    z_axes = _stretched_axes(state, epsilon, grid)
    if isinstance(envelope, GaussianEnvelope):
        mesh = np.stack(np.meshgrid(*z_axes, indexing="ij"), axis=-1)
        return gaussian_eval(envelope, mesh)
    if isinstance(envelope, GridEnvelope):
        return fourier_interpolate(envelope, z_axes)
    raise GridError(f"unsupported envelope type {type(envelope).__name__}")


def _phase_factor(state: TrajectoryState, epsilon: float, grid: SpatialGrid) -> np.ndarray:
    """exp(i (S + p.(x - q)) / eps) on the tensor grid."""
    phase = np.full(grid.shape, float(state.S))
    axis = grid.axis()
    for j in range(grid.dimension):
        phase = phase + grid.along(j, state.p[j] * (axis - state.q[j]))
    return np.exp(1j * phase / epsilon)


def _cell_on_grid(lattice, cutoff: int, coeffs: np.ndarray, epsilon: float, grid: SpatialGrid) -> np.ndarray:
    pts = grid.points() / epsilon
    return evaluate_cell_coeffs(lattice, cutoff, coeffs, pts).reshape(grid.shape)


def _packet_field(vals, t: float, epsilon: float, grid: SpatialGrid):
    """Packet samples as a field, guarded against mass at the box edge."""
    field = GridWaveField(grid=grid, epsilon=epsilon, time=t, values=vals)
    frac = field.boundary_mass_fraction()
    if frac > THRESHOLD:
        raise GridError(
            f"packet mass fraction {frac:.3e} reached the box boundary;"
            " enlarge the box"
        )
    return field


def _check_node(state: TrajectoryState, pair: BlochEigenpair, grid: SpatialGrid):
    if state.dimension != grid.dimension:
        raise GridError("trajectory node dimension does not match the grid")
    if pair.lattice.dimension != grid.dimension:
        raise GridError("lattice dimension does not match the grid")
    if np.max(np.abs(np.asarray(pair.k) - state.p)) > MOMENTUM_MATCH_TOL:
        raise GridError(
            "cell function momentum disagrees with the trajectory node"
        )


def synthesize_packet(
    envelope,
    state: TrajectoryState,
    pair: BlochEigenpair,
    epsilon: float,
    grid: SpatialGrid,
) -> GridWaveField:
    """Leading-order packet  eps^(-d/4) u(z) chi(x/eps) exp(i phase/eps).

    The envelope is evaluated in the stretched frame by closed form
    (Gaussian) or trigonometric interpolation (grid samples); the cell
    function by its plane-wave sum at x/eps.
    """
    _check_node(state, pair, grid)
    uvals = _envelope_on_grid(envelope, state, epsilon, grid)
    chivals = _cell_on_grid(pair.lattice, pair.cutoff, pair.coeffs, epsilon, grid)
    vals = epsilon ** (-grid.dimension / 4.0) * uvals * chivals
    vals = vals * _phase_factor(state, epsilon, grid)
    return _packet_field(vals, state.t, epsilon, grid)


def synthesize_app(
    u0: CorrectorField,
    u1,
    u2,
    state: TrajectoryState,
    epsilon: float,
    grid: SpatialGrid,
) -> GridWaveField:
    """Corrected packet  eps^(-d/4) (U0 + sqrt(eps) U1 + eps U2) e^(i phase/eps).

    u1 and u2 may be None to ablate the expansion; each corrector is a sum
    of separable terms whose stretched-frame profile is interpolated and
    whose cell profile is synthesized from its plane-wave coefficients.
    """
    if u0 is None:
        raise GridError("the leading corrector term is required")
    pair = u0.pair
    _check_node(state, pair, grid)
    root = np.sqrt(epsilon)
    z_axes = _stretched_axes(state, epsilon, grid)

    total = np.zeros(grid.shape, dtype=complex)
    for order, weight, field in ((0, 1.0, u0), (1, root, u1), (2, epsilon, u2)):
        if field is None:
            continue
        if field.order != order:
            raise GridError("corrector passed in the wrong expansion slot")
        for z_profile, y_coeffs in field.terms:
            env = GridEnvelope(values=z_profile, half_width=field.half_width, t=field.t)
            zvals = fourier_interpolate(env, z_axes)
            yvals = _cell_on_grid(pair.lattice, pair.cutoff, y_coeffs, epsilon, grid)
            total += weight * zvals * yvals
    vals = epsilon ** (-grid.dimension / 4.0) * total * _phase_factor(state, epsilon, grid)
    return _packet_field(vals, state.t, epsilon, grid)


def write_field(field: GridWaveField, stem) -> tuple:
    """Raw export: <stem>.bin (interleaved re,im float64 little-endian,
    row-major over grid axes) plus a <stem>.json sidecar."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    bin_path = stem.with_suffix(".bin")
    json_path = stem.with_suffix(".json")
    flat = np.ascontiguousarray(field.values).ravel()
    interleaved = np.empty(2 * flat.size, dtype="<f8")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    interleaved.tofile(bin_path)
    sidecar = {
        "dimension": field.grid.dimension,
        "epsilon": field.epsilon,
        "time": field.time,
        "box": [-field.grid.half_width, field.grid.half_width],
        "shape": list(field.grid.shape),
        "byte_order": "little-endian",
        "layout": "interleaved-complex",
    }
    json_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return bin_path, json_path


def read_field(stem) -> GridWaveField:
    stem = Path(stem)
    sidecar = json.loads(stem.with_suffix(".json").read_text())
    if sidecar.get("layout") != "interleaved-complex":
        raise GridError(f"unsupported layout {sidecar.get('layout')!r}")
    if sidecar.get("byte_order") != "little-endian":
        raise GridError(f"unsupported byte order {sidecar.get('byte_order')!r}")
    shape = tuple(int(s) for s in sidecar["shape"])
    if len(set(shape)) != 1:
        raise GridError("only square grids are supported")
    raw = np.fromfile(stem.with_suffix(".bin"), dtype="<f8")
    if raw.size != 2 * int(np.prod(shape)):
        raise GridError("binary payload does not match the sidecar shape")
    vals = (raw[0::2] + 1j * raw[1::2]).reshape(shape)
    lo, hi = sidecar["box"]
    if abs(lo + hi) > 1e-12 * max(1.0, abs(hi)):
        raise GridError("only centered boxes are supported")
    grid = SpatialGrid(dimension=len(shape), half_width=float(hi), npoints=shape[0])
    return GridWaveField(
        grid=grid,
        epsilon=float(sidecar["epsilon"]),
        time=float(sidecar["time"]),
        values=vals,
    )
