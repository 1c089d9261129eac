import numpy as np
import pytest

from conftest import harmonic
from test_experiments import DISPERSIVE

from blochpacket import reference
from blochpacket.assembly import GridWaveField, make_grid_for, synthesize_packet
from blochpacket.config import ExperimentConfig
from blochpacket.envelope import gaussian_init
from blochpacket.errors import GridError, SolverError
from blochpacket.experiments import _leading_packet, _make_grid, prepare_dynamics
from blochpacket.flow import QuadraticPotential, TrajectoryState
from blochpacket.grid import SpatialGrid, step_count, strang_step
from blochpacket.lattice import FourierPotential
from blochpacket.reference import (
    KERNEL_WEIGHTS,
    SolverParams,
    _bloch_blocks,
    _bloch_step,
    _kinetic_symbol,
    _total_potential_grid,
    l2_error,
    laplacian,
    pde_residual,
    solve_schrodinger,
)


def plane_wave_field(eps=0.125, n=256, mode=8):
    grid = SpatialGrid(dimension=1, half_width=np.pi, npoints=n)
    x = grid.axis()
    k = mode * eps  # integer spatial wavenumber `mode` on the 2 pi box
    vals = np.exp(1j * k * x / eps).astype(complex)
    return grid, x, k, GridWaveField(grid=grid, epsilon=eps, time=0.0, values=vals)


def test_plane_wave_free_evolution_exact(monkeypatch):
    # the plane wave fills the whole box: no boundary guard
    monkeypatch.setattr("blochpacket.grid.THRESHOLD", np.inf)
    grid, x, k, psi0 = plane_wave_field()
    T = 0.37
    out = solve_schrodinger(
        psi0,
        FourierPotential.zero(1),
        QuadraticPotential.create(1),
        [T],
        SolverParams(dt=1e-3),
    )
    exact = np.exp(1j * (k * x - 0.5 * k * k * T) / psi0.epsilon)
    assert l2_error(out[0], GridWaveField(grid=grid, epsilon=psi0.epsilon, time=T, values=exact)) < 1e-12


def test_constant_potential_pure_phase(monkeypatch):
    monkeypatch.setattr("blochpacket.grid.THRESHOLD", np.inf)
    grid, x, k, psi0 = plane_wave_field()
    T = 0.2
    c = 0.7
    out = solve_schrodinger(
        psi0,
        FourierPotential.from_coeffs({0: c}),  # the lattice's zero mode: V = c everywhere
        QuadraticPotential.create(1),
        [T],
        SolverParams(dt=1e-3),
    )
    exact = np.exp(1j * (k * x - (0.5 * k * k + c) * T) / psi0.epsilon)
    err = np.sqrt(np.sum(np.abs(out[0].values - exact) ** 2) * grid.dx)
    assert err < 1e-12


def test_unitarity(cosine1d, mathieu_band):
    eps = 2**-4
    state = TrajectoryState(t=0.0, q=np.array([0.0]), p=np.array([0.3]), S=0.0)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    psi0 = synthesize_packet(g, state, pair, eps, make_grid_for(eps))
    out = solve_schrodinger(
        psi0, cosine1d, harmonic(1), [1.0],
        SolverParams(dt=eps / 100),
    )
    assert abs(out[0].mass() - psi0.mass()) < 1e-12


def test_snapshots_at_multiple_times(cosine1d, mathieu_band):
    eps = 2**-4
    state = TrajectoryState(t=0.0, q=np.array([0.0]), p=np.array([0.3]), S=0.0)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    psi0 = synthesize_packet(g, state, pair, eps, make_grid_for(eps))
    times = [0.1, 0.25, 0.4]
    outs = solve_schrodinger(
        psi0, cosine1d, harmonic(1), times,
        SolverParams(dt=eps / 50),
    )
    assert [o.time for o in outs] == times
    # one-shot solve to the last time agrees with the chained segments
    direct = solve_schrodinger(
        psi0, cosine1d, harmonic(1), [0.4],
        SolverParams(dt=eps / 50),
    )
    assert l2_error(outs[-1], direct[0]) < 1e-10


def test_times_must_be_nondecreasing(cosine1d):
    _, _, _, psi0 = plane_wave_field()
    with pytest.raises(SolverError):
        solve_schrodinger(
            psi0, cosine1d, harmonic(1), [0.4, 0.2],
            SolverParams(dt=1e-3),
        )


def mathieu_packet(mathieu_band, eps):
    state = TrajectoryState(t=0.0, q=np.array([0.0]), p=np.array([0.3]), S=0.0)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    return synthesize_packet(g, state, pair, eps, make_grid_for(eps))


def packet_2d(eps):
    grid = make_grid_for(eps, 2)
    x, y = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    vals = np.exp(-(x**2 + y**2) / (2 * eps) + 1j * (0.3 * x - 0.2 * y) / eps) / np.sqrt(eps)
    return GridWaveField(grid=grid, epsilon=eps, time=0.0, values=vals)


@pytest.mark.parametrize("dimension", [1, 2])
def test_self_convergence_fourth_order(mathieu_band, dimension):
    # |psi_dt - psi_dt/2| / |psi_dt/2 - psi_dt/4| -> 16 for a fourth-order
    # step, at dt = eps/2, eps/4, eps/8: in 1D the block kernel with the
    # external phases, in 2D the Fourier kernel with the total potential at
    # FOURIER_SUBSTEPS composite steps per dt; bounds set before measuring
    eps = 2**-3 if dimension == 1 else 0.25
    psi0 = mathieu_packet(mathieu_band, eps) if dimension == 1 else packet_2d(eps)
    potential = FourierPotential.cosine(dimension)
    outs = [
        solve_schrodinger(
            psi0, potential, harmonic(dimension), [0.25], SolverParams(dt=eps / 2 ** (k + 1))
        )[0]
        for k in range(3)
    ]
    ratio = l2_error(outs[0], outs[1]) / l2_error(outs[1], outs[2])
    assert 13 < ratio < 19


@pytest.mark.parametrize("eps", [2**-4, 2**-5])
def test_bloch_blocks_equal_the_periodic_operator(eps):
    # H_per v = (eps/2) |xi|^2 v^ + V_cell(x/eps) v / eps, with coefficient
    # j = mK + r in block r: this pins the blocks as built on the cell-Bloch
    # components, their residue mapping and the step that applies them;
    # cos y + 0.4 sin 2y is not even, so a transposed block shows too
    tilted = FourierPotential.from_coeffs({1: 0.5, -1: 0.5, 2: -0.2j, -2: 0.2j})
    grid = make_grid_for(eps)
    blocks = _bloch_blocks(grid, tilted, eps)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    lam, vecs = np.linalg.eigh(blocks)
    product = np.matmul(vecs * lam[:, None, :], vecs.conj().swapaxes(1, 2))
    lhs = _bloch_step(v, product)  # W diag(lam) W^H v
    field = GridWaveField(grid=grid, epsilon=eps, time=0.0, values=v)
    vtile = _total_potential_grid(field, tilted, QuadraticPotential.create(1))
    rhs = np.fft.ifft(2 * _kinetic_symbol(grid) * np.fft.fft(v)) * eps / 2 + vtile * v / eps
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def strang_solve(psi0, lattice_potential, external, t_final, dt):
    """Fourier split step on the total potential, the d = 1 reference."""
    eps = psi0.epsilon
    nsteps = step_count(t_final - psi0.time, dt)
    h = (t_final - psi0.time) / nsteps
    vgrid = _total_potential_grid(psi0, lattice_potential, external)
    half = np.exp(-0.5j * h * vgrid / eps)
    kinetic = np.exp(-1j * h * eps * _kinetic_symbol(psi0.grid))
    vals = psi0.values
    for _ in range(nsteps):
        vals = strang_step(vals, half, kinetic)
    return GridWaveField(grid=psi0.grid, epsilon=eps, time=t_final, values=vals)


@pytest.mark.parametrize(
    "eps, times, model",
    [
        (2**-4, [1.0], None),
        (2**-5, [1.0], None),
        (2**-4, [0.31, 1.0], None),
        (2**-5, [0.31, 1.0], None),
        (2**-4, [1.0], DISPERSIVE),
    ],
    ids=["0.0625", "0.03125", "0.0625-two-segments", "0.03125-two-segments", "0.0625-dispersive"],
)
def test_bloch_step_at_default_dt_beats_strang(cosine1d, mathieu_band, eps, times, model):
    # the default dt = eps against a Fourier split step at dt = eps/800; the
    # block kernel leaves only the splitting error of the smooth V, and the
    # bound, set before measuring, is below what the second-order step at
    # dt = eps/10 left (3.7e-6 at 2^-5, 8.5e-6 at 2^-4 on the defaults); with
    # two snapshots the segments step with different h, each with its own
    # stored propagators; the dispersive band's packet starts in a cosine well
    if model is None:
        psi0, potential, ext = mathieu_packet(mathieu_band, eps), cosine1d, harmonic(1)
    else:
        cfg = ExperimentConfig(**model).validate()
        bundle = prepare_dynamics(cfg, [0.0])
        psi0 = _leading_packet(bundle, 0.0, eps, _make_grid(cfg, eps))
        potential, ext = bundle.band.potential, bundle.external
    bloch = solve_schrodinger(psi0, potential, ext, times)[-1]
    fine = strang_solve(psi0, potential, ext, 1.0, eps / 800)
    coarse = strang_solve(psi0, potential, ext, 1.0, eps / 100)
    deviation = l2_error(bloch, fine) / fine.grid.norm(fine.values)
    assert deviation <= 2e-6
    assert deviation < l2_error(coarse, fine) / fine.grid.norm(fine.values)


def test_laplacian_spectral(mathieu_band):
    grid = SpatialGrid(dimension=1, half_width=np.pi, npoints=128)
    x = grid.axis()
    f = GridWaveField(
        grid=grid, epsilon=0.5, time=0.0, values=np.exp(3j * x).astype(complex)
    )
    assert np.max(np.abs(laplacian(f) - (-9.0) * f.values)) < 1e-10


def test_pde_residual_small_for_solver_output(cosine1d, mathieu_band):
    eps = 2**-4
    delta = 0.25 * eps * eps
    state = TrajectoryState(t=0.0, q=np.array([0.0]), p=np.array([0.3]), S=0.0)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    psi0 = synthesize_packet(g, state, pair, eps, make_grid_for(eps))
    ext = harmonic(1)
    snaps = solve_schrodinger(
        psi0, cosine1d, ext, [0.5 - delta, 0.5, 0.5 + delta],
        SolverParams(dt=eps / 100),
    )
    res = pde_residual(snaps[0], snaps[1], snaps[2], cosine1d, ext)
    assert res < 1e-4


def test_pde_residual_rejects_wide_stencil(cosine1d, mathieu_band):
    # centered stencil wider than eps/10 is outside the guard
    eps = 2**-4
    state = TrajectoryState(t=0.0, q=np.array([0.0]), p=np.array([0.3]), S=0.0)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    psi0 = synthesize_packet(g, state, pair, eps, make_grid_for(eps))
    ext = harmonic(1)
    big = eps / 2
    snaps = solve_schrodinger(
        psi0, cosine1d, ext, [0.5 - big, 0.5, 0.5 + big],
        SolverParams(dt=eps / 50),
    )
    with pytest.raises(SolverError):
        pde_residual(snaps[0], snaps[1], snaps[2], cosine1d, ext)


def test_pde_residual_rejects_asymmetric_stencil(cosine1d, mathieu_band):
    eps = 2**-4
    state = TrajectoryState(t=0.0, q=np.array([0.0]), p=np.array([0.3]), S=0.0)
    pair = mathieu_band.eigenpair(state.p)
    g = gaussian_init(np.eye(1), np.eye(1))
    psi0 = synthesize_packet(g, state, pair, eps, make_grid_for(eps))
    ext = harmonic(1)
    d = 0.25 * eps * eps
    snaps = solve_schrodinger(
        psi0, cosine1d, ext, [0.5 - d, 0.5, 0.5 + 2 * d],
        SolverParams(dt=eps / 50),
    )
    with pytest.raises(SolverError):
        pde_residual(snaps[0], snaps[1], snaps[2], cosine1d, ext)


def test_boundary_guard_trips_for_escaping_packet():
    # free packet with momentum in a small box reaches the shell
    eps = 2**-3
    grid = SpatialGrid(dimension=1, half_width=np.pi, npoints=512)
    x = grid.axis()
    z = x / np.sqrt(eps)
    vals = (eps**-0.25) * np.exp(-0.5 * z * z) * np.exp(1j * 0.8 * x / eps)
    psi0 = GridWaveField(grid=grid, epsilon=eps, time=0.0, values=vals.astype(complex))
    with pytest.raises(SolverError):
        solve_schrodinger(
            psi0, FourierPotential.zero(1), QuadraticPotential.create(1),
            [40.0], SolverParams(dt=1e-2),
        )


def test_boundary_guard_trips_mid_segment_at_the_default_dt(monkeypatch):
    # the guard runs at least every 1.6 eps of simulated time, as it did at
    # the earlier dt = eps/10 with a check every 16 steps, so an escaping
    # packet stops inside the one segment and names a time before its end
    eps, target = 2**-3, 40.0
    grid = SpatialGrid(dimension=1, half_width=np.pi, npoints=512)
    z = grid.axis() / np.sqrt(eps)
    vals = (eps**-0.25) * np.exp(-0.5 * z * z) * np.exp(1j * 0.8 * grid.axis() / eps)
    psi0 = GridWaveField(grid=grid, epsilon=eps, time=0.0, values=vals.astype(complex))
    checked = []
    guard = SpatialGrid.guard
    monkeypatch.setattr(SpatialGrid, "guard", lambda self, v, e, t=None: checked.append(t) or guard(self, v, e, t))
    with pytest.raises(SolverError, match="near t = ") as raised:
        solve_schrodinger(
            psi0, FourierPotential.zero(1), QuadraticPotential.create(1), [target], SolverParams()
        )
    assert float(str(raised.value).split("near t = ")[1].split(";")[0]) == pytest.approx(checked[-1], rel=1e-5)
    assert checked[-1] < target
    assert max(np.diff([0.0] + checked)) <= 1.6 * eps


def test_reference_rejects_a_box_without_whole_cells(cosine1d):
    # V_lat(x/eps) is tiled from one cell, so the box must hold whole cells
    eps = 2**-4
    grid = SpatialGrid(dimension=1, half_width=16.0, npoints=2048)
    psi0 = GridWaveField(grid=grid, epsilon=eps, time=0.0, values=np.ones(grid.shape))
    with pytest.raises(GridError):
        solve_schrodinger(
            psi0, cosine1d, harmonic(1), [0.1], SolverParams()
        )


def test_dt_validation():
    params = SolverParams(dt=-1.0)
    with pytest.raises(SolverError):
        params.resolve_dt(0.1)
    assert SolverParams().resolve_dt(0.5) == pytest.approx(0.5)


def test_unitarity_2d():
    eps = 0.25
    psi0 = packet_2d(eps)
    snaps = solve_schrodinger(
        psi0,
        FourierPotential.cosine(2),
        harmonic(2),
        [0.25, 0.5],
        SolverParams(),
    )
    assert [s.time for s in snaps] == [0.25, 0.5]
    for snap in snaps:
        assert abs(snap.mass() - psi0.mass()) <= 1e-12
    assert snaps[-1].boundary_mass_fraction() < 1e-12


@pytest.mark.parametrize("cells", [None, 1, 2, 3], ids=["defaults", "one-cell", "two-cells", "three-cells"])
def test_half_the_blocks_give_the_full_propagators(cosine1d, mathieu_band, monkeypatch, cells):
    # H_per is real, so block K - r is conj(block r) and only residues 0 .. K/2 are
    # solved; the three propagators of a step match a full eigh's to 1e-13
    # relative, a bound set before measuring (the blocks differ by 7.6e-13 in
    # entries up to ~1500 at 2^-7)
    eps = 2**-7 if cells is None else 2**-4
    if cells is None:
        cfg = ExperimentConfig().validate()
        psi0 = _leading_packet(prepare_dynamics(cfg, [0.0]), 0.0, eps, _make_grid(cfg, eps))
    else:  # random data fill the box of K cells: no boundary guard
        monkeypatch.setattr("blochpacket.grid.THRESHOLD", np.inf)
        grid = SpatialGrid(dimension=1, half_width=cells * np.pi * eps, npoints=16 * cells)
        rng = np.random.default_rng(cells)
        psi0 = GridWaveField(grid=grid, epsilon=eps, time=0.0, values=rng.normal(size=16 * cells) + 0j)
    seen, step = [], reference._bloch_step
    monkeypatch.setattr(reference, "_bloch_step", lambda v, u: seen.append(u) or step(v, u))
    solve_schrodinger(psi0, cosine1d, harmonic(1), [eps])  # one step of h = eps
    blocks = _bloch_blocks(psi0.grid, cosine1d, eps)
    lam, vecs = np.linalg.eigh(blocks)
    vecs -= 0.5 * vecs @ (vecs.conj().swapaxes(1, 2) @ vecs - np.eye(vecs.shape[1]))
    assert len(seen) == 2 * len(KERNEL_WEIGHTS) and len(blocks) == (cells or len(blocks))
    for a, got in zip(KERNEL_WEIGHTS, seen):
        want = (vecs * np.exp(-1j * a * eps * lam)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
