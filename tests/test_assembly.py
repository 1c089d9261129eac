import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import harmonic

from blochpacket.assembly import (
    GridWaveField,
    fourier_interpolate,
    make_grid_for,
    next_pow2,
    read_field,
    synthesize_app,
    synthesize_packet,
    write_field,
)
from blochpacket.bloch import BlochBand, evaluate_cell_coeffs
from blochpacket.corrector import build_U0, build_U1, build_U2
from blochpacket.envelope import (
    GridEnvelope,
    gaussian_eval,
    gaussian_init,
    grid_envelope_from_gaussian,
)
from blochpacket.errors import GridError
from blochpacket.flow import TrajectoryState
from blochpacket.grid import SpatialGrid
from blochpacket.lattice import FourierPotential, LatticeSpec

# leading-order packet mass for u = exp(-z^2/2) and unit-average cell
# function: ||u|| * |Y|^{-1/2} = pi^(1/4) / sqrt(2 pi), by hand
PACKET_MASS = np.pi**0.25 / np.sqrt(2.0 * np.pi)


def make_state(q=0.0, p=0.3, t=0.0, S=0.0):
    return TrajectoryState(t=t, q=np.array([q]), p=np.array([p]), S=S)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1303) == 2048


def test_make_grid_for_sizes():
    # the default box [-2 pi, 2 pi) holds 2 / eps whole cells of 16 points
    g = make_grid_for(2**-4)
    assert g.npoints == 512
    assert g.half_width == 2.0 * np.pi
    g7 = make_grid_for(2**-7)
    assert g7.npoints == 4096
    assert g7.half_width == 2.0 * np.pi
    tiny = make_grid_for(0.9, half_width=1.0)
    assert tiny.npoints == 64  # floor kicks in: one cell of 64 points
    assert tiny.cell_mesh(0.9).shape == (64, 1)
    with pytest.raises(GridError):
        make_grid_for(1.5)


def test_make_grid_for_float_edge_does_not_double_the_grid():
    eps = 2**-7
    g = make_grid_for(eps, half_width=4096.0000001 * np.pi * eps)
    assert g.npoints == 4096 * 16
    assert g.cell_mesh(eps).shape == (16, 1)


@pytest.mark.parametrize("eps, half_width", [(0.1, 2.0 * np.pi), (0.1, 16.0), (2**-4, 16.0)])
def test_make_grid_for_rounds_up_to_whole_cells(eps, half_width):
    g = make_grid_for(eps, half_width=half_width)
    cells = 2.0 * g.half_width / (2.0 * np.pi * eps)
    assert cells == pytest.approx(round(cells), rel=1e-12)
    assert next_pow2(round(cells)) == round(cells)
    assert half_width <= g.half_width < 2.0 * half_width
    assert g.npoints == 16 * round(cells)
    assert g.cell_mesh(eps).shape == (16, 1)


@pytest.mark.parametrize("dimension", [1, 2])
def test_tiled_cell_factors_match_direct_evaluation(dimension):
    eps = 0.25
    lattice = LatticeSpec.cubic(dimension)
    grid = make_grid_for(eps, dimension)
    y = grid.points().reshape(*grid.shape, dimension) / eps
    cell = grid.cell_mesh(eps)
    assert cell.shape == (16,) * dimension + (dimension,)
    rng = np.random.default_rng(0)
    cutoff = 3
    coeffs = rng.normal(size=((2 * cutoff + 1) ** dimension, 2)) * (1 + 1j)
    direct = evaluate_cell_coeffs(lattice, cutoff, coeffs, y)
    tiled = grid.tile(evaluate_cell_coeffs(lattice, cutoff, coeffs, cell))
    assert tiled.shape == direct.shape
    assert np.max(np.abs(tiled - direct)) <= 1e-13 * np.max(np.abs(direct))
    pot = FourierPotential.cosine(dimension)
    direct_v = pot.evaluate(lattice, y)
    tiled_v = grid.tile(pot.evaluate(lattice, cell))
    assert np.max(np.abs(tiled_v - direct_v)) <= 1e-13


def test_cell_mesh_rejects_a_box_without_whole_cells():
    with pytest.raises(GridError):
        SpatialGrid(dimension=1, half_width=16.0, npoints=2048).cell_mesh(2**-4)
    with pytest.raises(GridError):  # three whole cells of 512 / 3 points
        make_grid_for(2**-4).cell_mesh(2.0 / 3.0)


def test_spatial_grid_accessors():
    g = SpatialGrid(dimension=2, half_width=4.0, npoints=8)
    assert g.shape == (8, 8)
    assert g.size == 64
    assert g.dx == pytest.approx(1.0)
    assert g.axis()[0] == pytest.approx(-4.0)
    assert g.points().shape == (64, 2)


def test_fourier_interpolate_reproduces_samples():
    rng = np.random.default_rng(5)
    n, hw = 64, 8.0
    ax = -hw + (2 * hw / n) * np.arange(n)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    # band-limit so the trig interpolant is the unique representation
    spec = np.fft.fft(vals)
    spec[n // 4 : 3 * n // 4] = 0.0
    vals = np.fft.ifft(spec)
    u = GridEnvelope(values=vals, grid=SpatialGrid(1, hw, n), t=0.0)
    got = fourier_interpolate(u.values, u.grid, [ax])
    assert np.max(np.abs(got - vals)) < 1e-12


@given(shift=st.floats(min_value=-0.45, max_value=0.45))
@settings(max_examples=10)
def test_fourier_interpolate_band_limited_exactness(shift):
    # a low-order trig polynomial is interpolated exactly anywhere inside
    n, hw = 32, 4.0
    ax = -hw + (2 * hw / n) * np.arange(n)
    freq = np.pi / hw

    def f(x):
        return (
            1.2
            + np.exp(1j * freq * x)
            - 0.7 * np.exp(-2j * freq * x)
            + 0.3j * np.exp(3j * freq * x)
        )

    u = GridEnvelope(values=f(ax).astype(complex), grid=SpatialGrid(1, hw, n), t=0.0)
    target = np.linspace(-3.9, 3.9, 17) + shift * 0.1
    got = fourier_interpolate(u.values, u.grid, [target])
    assert np.max(np.abs(got - f(target))) < 1e-11


def test_fourier_interpolate_masks_outside_box():
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 8.0, 128)
    target = np.array([-12.0, -8.5, 8.0, 9.3, 40.0])
    got = fourier_interpolate(u.values, u.grid, [target])
    assert np.max(np.abs(got)) < 1e-14


def test_fourier_interpolate_batch_matches_single_calls():
    # leading axes are a batch: each slice is interpolated on its own
    rng = np.random.default_rng(7)
    n, hw = 16, 3.0
    batch = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    axes = [np.linspace(-4.0, 4.0, 9), np.linspace(-2.5, 2.9, 7)]
    box = SpatialGrid(2, hw, n)
    got = fourier_interpolate(batch, box, axes)
    assert got.shape == (3, 9, 7)
    for r in range(3):
        assert np.allclose(got[r], fourier_interpolate(batch[r], box, axes), atol=1e-13)


def dense_interpolate(values, half_width, target_axes):
    """The trigonometric interpolant by one dense phase matrix per axis."""
    d = len(target_axes)
    lead = values.ndim - d
    freqs = SpatialGrid(d, half_width, values.shape[-1]).freq_axis()
    out = np.fft.fftn(values, axes=tuple(range(lead, values.ndim))) / values.shape[-1] ** d
    for j in reversed(range(d)):
        t = np.asarray(target_axes[j], dtype=float)
        inside = (t >= -half_width) & (t < half_width)
        mat = np.exp(1j * np.outer(t + half_width, freqs)) * inside[:, None]
        out = np.moveaxis(np.moveaxis(out, lead + j, -1) @ mat.T, -1, lead + j)
    return out


def test_chirp_z_matches_the_dense_interpolant():
    rng = np.random.default_rng(3)
    # 1D: stretched fine-grid targets (z = (x - q) / sqrt(eps)) sweeping
    # several box periods, over a batch of smooth profiles
    n, hw = 512, 16.0
    z = -hw + (2 * hw / n) * np.arange(n)
    profiles = np.exp(-0.5 * (z - rng.normal(size=(4, 1))) ** 2 + 1j * z)
    for eps, npoints in ((2**-4, 256), (2**-7, 2048)):
        x = -2 * np.pi + (4 * np.pi / npoints) * np.arange(npoints)
        target = (x - 0.123) / np.sqrt(eps)
        want = dense_interpolate(profiles, hw, [target])
        got = fourier_interpolate(profiles, SpatialGrid(1, hw, n), [target])
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        assert np.all(got[:, np.abs(target) > hw + 1e-9] == 0.0)
    # 2D with an odd side and targets outside the box on both axes
    batch = rng.normal(size=(3, 15, 15)) + 1j * rng.normal(size=(3, 15, 15))
    axes = [np.linspace(-6.0, 5.0, 41), np.linspace(-2.5, 4.9, 37)]
    want = dense_interpolate(batch, 4.0, axes)
    got = fourier_interpolate(batch, SpatialGrid(2, 4.0, 15), axes)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_fourier_interpolate_rejects_nonuniform_targets():
    u = grid_envelope_from_gaussian(gaussian_init(np.eye(1), np.eye(1)), 8.0, 64)
    with pytest.raises(GridError):
        fourier_interpolate(u.values, u.grid, [np.array([-1.0, 0.0, 0.5, 2.0])])


def test_free_lattice_leading_packet_closed_form(free_band):
    # chi is the constant |Y|^{-1/2} times a unit phase, so the packet is a
    # pure modulated Gaussian
    eps = 2**-4
    state = make_state(q=0.1, p=0.3, S=0.25)
    pair = free_band.eigenpair(state.p)
    chi_phase = pair.coeffs[pair.cutoff] * np.sqrt(pair.lattice.cell_volume)
    assert abs(chi_phase) == pytest.approx(1.0, abs=1e-12)
    g = gaussian_init(np.eye(1), np.eye(1))
    grid = make_grid_for(eps)
    field = synthesize_packet(g, state, pair, eps, grid)
    x = grid.axis()
    z = (x - state.q[0]) / np.sqrt(eps)
    phase = (state.S + state.p[0] * (x - state.q[0])) / eps
    want = eps**-0.25 * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) * np.exp(1j * phase)
    assert np.max(np.abs(field.values - chi_phase * want)) < 1e-12


def test_packet_mass_converges_to_cell_average(mathieu_band):
    g = gaussian_init(np.eye(1), np.eye(1))
    masses = []
    for eps in (2**-4, 2**-6):
        state = make_state()
        pair = mathieu_band.eigenpair(state.p)
        grid = make_grid_for(eps)
        masses.append(synthesize_packet(g, state, pair, eps, grid).mass())
    # the |chi|^2 cell average is 1/|Y|; the local fluctuation decays with eps
    assert abs(masses[1] - PACKET_MASS) < 2e-3
    assert abs(masses[1] - PACKET_MASS) < abs(masses[0] - PACKET_MASS)


def test_packet_mass_grid_refinement_invariance(mathieu_band):
    eps = 2**-4
    state = make_state()
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    coarse = synthesize_packet(g, state, pair, eps, make_grid_for(eps))
    # the same 32 cells of 2 pi eps, at 32 points per cell instead of 16
    fine_grid = SpatialGrid(1, coarse.grid.half_width, 32 * 32)
    assert fine_grid.npoints == 2 * coarse.grid.npoints
    fine = synthesize_packet(g, state, pair, eps, fine_grid)
    assert coarse.mass() == pytest.approx(fine.mass(), abs=1e-10)


def test_leading_term_gauge_invariant_modulus(mathieu_band):
    eps = 2**-4
    state = make_state()
    pair = mathieu_band.eigenpair(state.p)
    rotated = replace(pair, coeffs=pair.coeffs * np.exp(0.9j))
    g = gaussian_init(np.eye(1), np.eye(1))
    grid = make_grid_for(eps)
    a = synthesize_packet(g, state, pair, eps, grid)
    b = synthesize_packet(g, state, rotated, eps, grid)
    assert np.max(np.abs(np.abs(a.values) - np.abs(b.values))) < 1e-12


def test_synthesize_app_matches_packet_at_leading_order(mathieu_band):
    eps = 2**-5
    state = make_state()
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    grid = make_grid_for(eps)
    direct = synthesize_packet(g, state, pair, eps, grid)
    via_u0 = synthesize_app([build_U0(g, u.grid, pair)], state, eps, grid)
    # closed-form Gaussian vs its trig interpolation from the z-grid
    diff = np.sqrt(np.sum(np.abs(direct.values - via_u0.values) ** 2) * grid.dx)
    assert diff < 1e-10


def test_synthesize_app_corrector_scaling(mathieu_band):
    # U1 enters with weight sqrt(eps) and U2 with weight eps: each
    # contribution is its weight times that of the same terms at order 0
    eps = 2**-4
    state = make_state()
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    grid = make_grid_for(eps)
    u0 = build_U0(g, u.grid, pair)
    lead = synthesize_app([u0], state, eps, grid).values
    u1 = build_U1(g, u.grid, pair)
    u2 = build_U2(g, u.grid, state, pair, harmonic(1))
    for field, weight in ((u1, np.sqrt(eps)), (u2, eps)):
        added = synthesize_app([u0, field], state, eps, grid).values - lead
        unit = synthesize_app([u0, replace(field, order=0)], state, eps, grid).values - lead
        assert np.max(np.abs(unit)) > 1e-3
        assert np.allclose(added, weight * unit, rtol=0, atol=1e-12)
        doubled = replace(field, terms=tuple((2.0 * f, g) for f, g in field.terms))
        twice = synthesize_app([u0, doubled], state, eps, grid).values - lead
        assert np.allclose(twice, 2.0 * added, rtol=0, atol=1e-12)


def test_synthesize_app_rejects_correctors_on_another_box(mathieu_band):
    # the terms of U0, U1 and U2 are interpolated as one batch on one z-grid
    eps = 2**-4
    state = make_state()
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 256)
    u0 = build_U0(g, u.grid, pair)
    grid = make_grid_for(eps)
    for other in (
        grid_envelope_from_gaussian(g, 12.0, 256),
        grid_envelope_from_gaussian(g, 16.0, 512),
    ):
        with pytest.raises(GridError):
            synthesize_app([u0, build_U1(g, other.grid, pair)], state, eps, grid)
        u2 = build_U2(g, other.grid, state, pair, harmonic(1))
        with pytest.raises(GridError):
            synthesize_app([u0, u2], state, eps, grid)


def test_momentum_mismatch_rejected(mathieu_band):
    eps = 2**-4
    state = make_state(p=0.3)
    wrong_pair = mathieu_band.eigenpair(np.array([0.25]))
    g = gaussian_init(np.eye(1), np.eye(1))
    with pytest.raises(GridError):
        synthesize_packet(g, state, wrong_pair, eps, make_grid_for(eps))


def test_support_check_fires_for_offcenter_packet(mathieu_band):
    eps = 2**-4
    state = make_state(q=2.0 * np.pi - 0.5)  # packet parked on the box boundary
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    with pytest.raises(GridError):
        synthesize_packet(g, state, pair, eps, make_grid_for(eps))


def test_support_check_fires_for_packet_outside_the_box(mathieu_band):
    # wholly outside the box the field is zero, so no edge fraction can fire
    eps = 2**-4
    state = make_state(q=40.0)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    with pytest.raises(GridError, match=r"q = \[40\.\].*box"):
        synthesize_packet(g, state, pair, eps, make_grid_for(eps))


def test_write_read_round_trip(tmp_path, mathieu_band):
    eps = 2**-4
    state = make_state(t=0.7, S=0.12)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    field = synthesize_packet(g, state, pair, eps, make_grid_for(eps))
    bin_path, meta_path = write_field(field, tmp_path / "pkt")
    meta = json.loads(meta_path.read_text())
    assert meta["epsilon"] == eps
    assert meta["time"] == 0.7
    assert meta["shape"] == [512]
    assert meta["byte_order"] == "little-endian"
    back = read_field(tmp_path / "pkt")
    assert back.epsilon == field.epsilon
    assert back.time == field.time
    assert np.array_equal(back.values, field.values)


def test_field_file_is_re_im_interleaved_in_row_major_order(tmp_path):
    # the README's layout read back without read_field: float64 re, im of each value, the
    # last grid axis fastest, whatever the memory order of the values
    grid = SpatialGrid(dimension=2, half_width=4.0, npoints=8)
    values = np.asfortranarray(np.arange(64.0).reshape(8, 8) + 1j * (100.0 + np.arange(64.0).reshape(8, 8).T))
    bin_path, _ = write_field(GridWaveField(grid=grid, epsilon=0.1, time=0.0, values=values), tmp_path / "f")
    want = [part for row in values for value in row for part in (value.real, value.imag)]
    assert np.array_equal(np.fromfile(bin_path, dtype="<f8"), want)
    # a trailing float64 is a payload the sidecar's shape does not describe
    with open(bin_path, "ab") as handle:
        handle.write(np.array([0.5], dtype="<f8").tobytes())
    with pytest.raises(GridError, match="^binary payload does not match the sidecar shape$"):
        read_field(tmp_path / "f")


@pytest.mark.parametrize(
    "entry, value, message",
    [
        ("layout", "planar-complex", "unsupported layout 'planar-complex'"),
        ("byte_order", "big-endian", "unsupported byte order 'big-endian'"),
        ("shape", [8, 4], "only square grids are supported"),
        ("shape", [16, 16], "binary payload does not match the sidecar shape"),
        ("box", [-4.0, 5.0], "only centered boxes are supported"),
    ],
)
def test_read_field_rejects_a_corrupt_sidecar(tmp_path, entry, value, message):
    # the sidecar comes from outside the program: one corrupted entry per case
    grid = SpatialGrid(dimension=2, half_width=4.0, npoints=8)
    values = np.arange(64.0).reshape(8, 8) * (1 + 2j)
    _, meta_path = write_field(GridWaveField(grid=grid, epsilon=0.1, time=0.0, values=values), tmp_path / "f")
    assert np.array_equal(read_field(tmp_path / "f").values, values)
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, entry: value}))
    with pytest.raises(GridError, match=f"^{re.escape(message)}$"):
        read_field(tmp_path / "f")


def test_grid_wave_field_compat_checks():
    g1 = SpatialGrid(dimension=1, half_width=4.0, npoints=32)
    g2 = SpatialGrid(dimension=1, half_width=4.0, npoints=64)
    a = GridWaveField(grid=g1, epsilon=0.1, time=0.0, values=np.zeros(32, complex))
    b = GridWaveField(grid=g2, epsilon=0.1, time=0.0, values=np.zeros(64, complex))
    c = GridWaveField(grid=g1, epsilon=0.2, time=0.0, values=np.zeros(32, complex))
    with pytest.raises(GridError):
        a.require_compatible(b)
    with pytest.raises(GridError):
        a.require_compatible(c)
