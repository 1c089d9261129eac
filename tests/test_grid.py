import numpy as np
import pytest

from conftest import ConstantCoefficients

from blochpacket.assembly import GridWaveField, make_grid_for, synthesize_packet
from blochpacket.envelope import GridEnvelope, evolve_grid_envelope, gaussian_init
from blochpacket.errors import EnvelopeError, GridError, SolverError
from blochpacket.flow import QuadraticPotential, TrajectoryState
from blochpacket.grid import SHELL, THRESHOLD, SpatialGrid, as_points, rk4, step_count, strang_step
from blochpacket.lattice import FourierPotential
from blochpacket.reference import solve_schrodinger


def test_shell_fraction_is_union_over_axes_2d():
    grid = SpatialGrid(dimension=2, half_width=4.0, npoints=64)
    row_strip = np.zeros(grid.shape, dtype=complex)
    row_strip[0, :] = 1.0  # x_0 = -4 only: the edge strip of axis 0
    col_strip = np.zeros(grid.shape, dtype=complex)
    col_strip[:, -1] = 1.0j  # x_1 at its upper end: the edge strip of axis 1
    assert grid.shell_fraction(row_strip) == 1.0
    assert grid.shell_fraction(col_strip) == 1.0
    x, y = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    centred = np.exp(-(x**2 + y**2) / 0.1)
    assert grid.shell_fraction(centred) < 1e-50
    assert grid.shell_fraction(np.zeros(grid.shape)) == 0.0


@pytest.mark.parametrize("dimension, npoints", [(1, 64), (2, 32)])
def test_shell_fraction_matches_the_mask_formula(dimension, npoints):
    grid = SpatialGrid(dimension, 3.0, npoints)
    shell = grid.edge_mask(np.abs(grid.axis()) > (1.0 - SHELL) * grid.half_width)
    rng = np.random.default_rng(dimension)
    for _ in range(5):
        v = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        want = grid.edge_fraction(np.abs(v) ** 2, shell)
        assert grid.shell_fraction(v) == pytest.approx(want, rel=1e-14, abs=0)
    assert grid.shell_fraction(np.zeros(grid.shape, dtype=complex)) == 0.0


def test_guard_trips_just_above_the_threshold():
    # a unit spike in the middle and a shell spike carrying the fraction f
    grid = SpatialGrid(1, 3.0, 64)

    def field(frac):
        v = np.zeros(grid.shape, dtype=complex)
        v[32], v[0] = 1.0, np.sqrt(frac / (1.0 - frac))
        return v

    grid.guard(field(0.99 * THRESHOLD), GridError, 0.25)
    with pytest.raises(
        GridError, match=r"mass fraction 1\.010e-08 reached the box boundary near t = 0\.25;"
    ):
        grid.guard(field(1.01 * THRESHOLD), GridError, 0.25)


def test_norm_and_quadratic_forms_2d():
    grid = SpatialGrid(dimension=2, half_width=np.pi, npoints=16)
    assert grid.dv == pytest.approx((2 * np.pi / 16) ** 2)
    assert grid.norm(np.ones(grid.shape)) == pytest.approx(2 * np.pi)
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    x, y = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    want = 2.0 * x * x + x * y + y * y
    assert np.allclose(grid.quadratic_form(mat), want, atol=1e-12)
    xi, eta = np.meshgrid(grid.freq_axis(), grid.freq_axis(), indexing="ij")
    assert np.allclose(grid.quadratic_form(np.eye(2), fourier=True), xi**2 + eta**2)
    assert grid.along(1, grid.axis()).shape == (1, 16)


def test_every_boundary_guard_reports_the_mass_fraction(mathieu_band):
    # the envelope, the reference and the synthesis each name the fraction
    # that tripped (7 of 64 points of a constant lie in the shell), the two
    # propagators the time as well
    grid = SpatialGrid(1, np.pi, 64)
    u = GridEnvelope(values=np.ones(grid.shape, dtype=complex), grid=grid, t=0.0)
    coeffs = ConstantCoefficients(dispersion=np.eye(1), vhess=np.zeros((1, 1)))
    with pytest.raises(EnvelopeError, match=r"mass fraction 1\.094e-01 reached .* near t = 0;"):
        evolve_grid_envelope(u, coeffs, 1.0, 1e-2)
    psi0 = GridWaveField(grid=grid, epsilon=0.125, time=0.0, values=u.values)
    with pytest.raises(SolverError, match=r"mass fraction 1\.094e-01 reached .* near t = 0\.01;"):
        solve_schrodinger(
            psi0, FourierPotential.zero(1), QuadraticPotential.create(1), [0.01]
        )
    state = TrajectoryState(t=0.0, q=np.array([2.0 * np.pi - 0.5]), p=np.array([0.3]), S=0.0)
    with pytest.raises(GridError, match="mass fraction .* reached the box boundary; enlarge"):
        synthesize_packet(
            gaussian_init(np.eye(1), np.eye(1)), state, mathieu_band.eigenpair(state.p),
            2**-4, make_grid_for(2**-4),
        )


def test_grid_rejects_bad_geometry():
    with pytest.raises(GridError):
        SpatialGrid(dimension=0, half_width=1.0, npoints=8)
    with pytest.raises(GridError):
        SpatialGrid(dimension=1, half_width=-1.0, npoints=8)
    with pytest.raises(GridError):
        SpatialGrid(dimension=1, half_width=1.0, npoints=1)


def test_as_points_shapes():
    assert as_points(0.5, 1).shape == (1,)
    assert as_points(np.zeros(7), 1).shape == (7, 1)
    assert as_points(np.zeros((7, 1)), 1).shape == (7, 1)
    assert as_points(np.zeros((7, 2)), 2).shape == (7, 2)


def test_step_count_lands_on_the_span():
    assert step_count(1.0, 1e-3) == 1000
    assert step_count(1.0, 0.3) == 4
    assert step_count(1e-20, 1.0) == 1


def test_rk4_exact_for_cubic_in_time():
    # y' = 3 t^2 is integrated exactly by a fourth-order method; the rate
    # reads t = t0 + k h / 2 from the half-step index k
    t0, h = 0.5, 0.25

    def rate(k, y):
        t = t0 + 0.5 * k * h
        return np.array([3.0 * t * t])

    ys, fs = rk4(rate, np.array([0.0]), h, 3)
    ts = t0 + h * np.arange(4)
    assert ys[:, 0] == pytest.approx(ts**3 - t0**3, abs=1e-15)
    assert fs[:, 0] == pytest.approx(3.0 * ts**2, abs=0)


def test_strang_step_is_unitary():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    phase = np.exp(1j * rng.normal(size=(8, 8)))
    kinetic = np.exp(1j * rng.normal(size=(8, 8)))
    out = strang_step(vals, phase, kinetic)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(vals), rel=1e-13)
