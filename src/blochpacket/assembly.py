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
from .envelope import GaussianEnvelope, gaussian_eval
from .errors import GridError
from .flow import TrajectoryState
from .grid import CELL_TOL, SpatialGrid, mesh

POINTS_PER_OSCILLATION = 16
MIN_POINTS = 64
BOX_HALF_WIDTH = 2.0 * np.pi  # default fine box [-2 pi, 2 pi)^d
MOMENTUM_MATCH_TOL = 1e-8
TIME_MATCH_TOL = 1e-10


def next_pow2(n: int) -> int:
    out = 1
    while out < n:
        out *= 2
    return out


def make_grid_for(
    epsilon: float, dimension: int = 1, *, half_width: float = BOX_HALF_WIDTH
) -> SpatialGrid:
    """Grid of whole lattice cells resolving the eps-scale oscillations.

    The box holds K cells of side 2 pi eps, the smallest power of two K that
    covers [-half_width, half_width), with POINTS_PER_OSCILLATION points in
    each (more, to reach MIN_POINTS), so every eps-periodic factor can be
    sampled on one cell and tiled; the sqrt(eps) envelope scale is
    automatically far coarser.
    """
    if not 0.0 < epsilon < 1.0:
        raise GridError("epsilon must lie in (0, 1)")
    cell = 2.0 * np.pi * epsilon
    ratio = 2.0 * half_width / cell
    cells = next_pow2(int(np.ceil(ratio * (1.0 - CELL_TOL))))
    per_cell = max(POINTS_PER_OSCILLATION, -(-MIN_POINTS // cells))
    return SpatialGrid(
        dimension=dimension, half_width=0.5 * cells * cell, npoints=cells * per_cell
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


def fourier_interpolate(values, box: SpatialGrid, target_axes) -> np.ndarray:
    """Trigonometric interpolation of periodic z-samples on a tensor target grid.

    The last d axes of values hold samples on the d-dimensional grid box;
    leading axes are a batch.  There is one target axis per box axis, and
    each must be uniform; its targets inside the box are evaluated by a
    chirp-z transform (`_chirp_z`), and targets outside it evaluate to
    zero.  The trig interpolant is periodic, and the stretched-frame targets
    sweep many periods of the envelope box; without the mask every period
    would receive a spurious copy of the packet.
    """
    axes = [np.atleast_1d(np.asarray(t, dtype=float)) for t in target_axes]
    values = np.asarray(values)
    d, half_width = box.dimension, box.half_width
    if len(axes) != d or values.shape[values.ndim - d :] != box.shape:
        raise GridError("need one target axis per axis of the sample box")
    lead = values.ndim - d
    out = np.fft.fftn(values, axes=tuple(range(lead, values.ndim))) / float(box.size)
    for j in reversed(range(d)):
        t = axes[j]
        idx = np.nonzero((t >= -half_width) & (t < half_width))[0]
        moved = np.moveaxis(out, lead + j, -1)
        out = np.zeros(moved.shape[:-1] + t.shape, dtype=complex)
        if idx.size:
            out[..., idx] = _chirp_z(moved, half_width, t[idx])
        out = np.moveaxis(out, -1, lead + j)
    return out


def _chirp_z(coeffs: np.ndarray, half_width: float, targets: np.ndarray) -> np.ndarray:
    """sum_nu c_nu exp(i xi_nu (z + L)), L = half_width, at uniform targets z
    (samples sit at -L + k dz), over the last axis of FFT coefficients c.

    With xi_nu = omega (nu0 + j) and z_k = z_0 + k delta this is the chirp-z
    transform sum_j a_j exp(i theta j k), theta = omega delta; j k = (j^2 +
    k^2 - (k - j)^2) / 2 makes it one linear convolution, done by FFTs of
    length >= n + m - 1 (Bluestein, Proc. IEEE 1968).
    """
    n, m = coeffs.shape[-1], targets.size
    step = (targets[-1] - targets[0]) / (m - 1) if m > 1 else 0.0
    if np.any(np.abs(np.diff(targets) - step) > 1e-9 * abs(step)):
        raise GridError("fourier_interpolate needs uniform target axes")
    omega, start, j, k = np.pi / half_width, targets[0] + half_width, np.arange(n), np.arange(m)
    theta = omega * step
    nu0 = -(n // 2)  # fftshift orders the frequencies nu0 .. nu0 + n - 1
    a = np.fft.fftshift(coeffs, axes=-1) * np.exp(1j * (omega * j * start + 0.5 * theta * j**2))
    size = next_pow2(n + m - 1)
    # kernel[l mod size] = exp(-i theta l^2 / 2) for l = -(n - 1) .. m - 1
    lags = np.concatenate([np.arange(m), np.arange(1 - n, 0)])
    kernel = np.zeros(size, dtype=complex)
    kernel[lags] = np.exp(-0.5j * theta * lags.astype(float) ** 2)
    conv = np.fft.ifft(np.fft.fft(a, size, axis=-1) * np.fft.fft(kernel), axis=-1)[..., :m]
    return conv * np.exp(1j * (omega * nu0 * (start + step * k) + 0.5 * theta * k**2))


def _synthesize(
    state: TrajectoryState, pair: BlochEigenpair, epsilon: float, grid: SpatialGrid,
    zvals, cell_coeffs: np.ndarray, sums=(None,),
) -> list:
    """eps^(-d/4) sum_(r < n) f_r(z) chi_r(x/eps) exp(i (S + p.(x - q)) / eps),
    one packet per n of sums (None sums every term).

    zvals maps the stretched axes z = (x - q) / sqrt(eps) to the R
    profiles f_r on the grid, shape (R, *grid.shape); the columns of
    cell_coeffs (M, R) are the plane-wave coefficients of the chi_r.  The
    node must match the grid and the cell momentum, its center must lie in
    the box and each packet's mass must stay off the box edge.  The chi_r are
    evaluated on one lattice cell and tiled; the profiles, the cell functions
    and the phase carrier serve every packet returned.
    """
    if state.dimension != grid.dimension:
        raise GridError("trajectory node dimension does not match the grid")
    if pair.dimension != grid.dimension:
        raise GridError("cell function dimension does not match the grid")
    if np.max(np.abs(np.asarray(pair.k) - state.p)) > MOMENTUM_MATCH_TOL:
        raise GridError("cell function momentum disagrees with the trajectory node")
    box = grid.half_width
    if np.any((state.q < -box) | (state.q >= box)):
        raise GridError(
            f"packet center q = {state.q} lies outside the box [-{box:.6g}, {box:.6g})"
        )
    cell = grid.cell_mesh(epsilon)
    axis = grid.axis()
    fvals = zvals([(axis - state.q[j]) / np.sqrt(epsilon) for j in range(grid.dimension)])
    chivals = grid.tile(evaluate_cell_coeffs(grid.dimension, pair.cutoff, cell_coeffs, cell))
    phase = np.full(grid.shape, float(state.S))
    for j in range(grid.dimension):
        phase = phase + grid.along(j, state.p[j] * (axis - state.q[j]))
    carrier = np.exp(1j * phase / epsilon)
    packets = []
    for n in sums:
        vals = np.einsum("r...,...r->...", fvals[:n], chivals[..., :n])
        vals = epsilon ** (-grid.dimension / 4.0) * vals * carrier
        grid.guard(vals, GridError)
        packets.append(GridWaveField(grid=grid, epsilon=epsilon, time=state.t, values=vals))
    return packets


def synthesize_packet(
    envelope: GaussianEnvelope,
    state: TrajectoryState,
    pair: BlochEigenpair,
    epsilon: float,
    grid: SpatialGrid,
) -> GridWaveField:
    """Leading-order packet  eps^(-d/4) u(z) chi(x/eps) exp(i phase/eps),
    with the Gaussian u evaluated in closed form."""

    def gaussian(z_axes):
        return gaussian_eval(envelope, mesh(z_axes))[None]

    return _synthesize(state, pair, epsilon, grid, gaussian, pair.coeffs[:, None])[0]


def _synthesize_fields(fields, state, epsilon, grid, sums=(None,)) -> list:
    """`_synthesize` over the separable terms of the corrector fields, each
    weighted by its own order n by eps^(n/2)."""
    box = fields[0].grid
    profiles, cells = [], []
    for field in fields:
        if field.grid != box:
            raise GridError("corrector fields must share one z-grid")
        weight = (1.0, np.sqrt(epsilon), epsilon)[field.order]
        profiles += [weight * f for f, _ in field.terms]
        cells += [g for _, g in field.terms]

    def interpolated(z_axes):
        return fourier_interpolate(np.stack(profiles), box, z_axes)

    return _synthesize(
        state, fields[0].pair, epsilon, grid, interpolated, np.stack(cells, axis=-1), sums
    )


def synthesize_app(
    fields, state: TrajectoryState, epsilon: float, grid: SpatialGrid
) -> GridWaveField:
    """Corrected packet  eps^(-d/4) sum_n eps^(n/2) U_n e^(i phase/eps) over
    the corrector fields given, each weighted by its own order n.

    Passing [U0] alone ablates the expansion.  The weighted z-profiles of
    every separable term are interpolated as one batch, so all fields must
    share one z-grid.
    """
    return _synthesize_fields(fields, state, epsilon, grid)[0]


def synthesize_snapshot(fields, state: TrajectoryState, epsilon: float, grid: SpatialGrid) -> tuple:
    """`synthesize_app` of the fields and of fields[:1] from one synthesis:
    the leading packet sums the U_0 terms of the same interpolated batch."""
    return tuple(_synthesize_fields(fields, state, epsilon, grid, (None, len(fields[0].terms))))


def write_field(field: GridWaveField, stem) -> tuple:
    """Raw export: <stem>.bin (interleaved re,im float64 little-endian,
    row-major over grid axes) plus a <stem>.json sidecar."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    bin_path = stem.with_suffix(".bin")
    json_path = stem.with_suffix(".json")
    np.ascontiguousarray(field.values, dtype="<c16").tofile(bin_path)  # complex128 is re, im interleaved
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
    vals = raw.view("<c16").reshape(shape)
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
