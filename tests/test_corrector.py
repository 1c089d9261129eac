from dataclasses import replace

import numpy as np
import pytest

from conftest import harmonic

from blochpacket.bloch import BlochBand, cell_inner
from blochpacket.corrector import (
    _profiles,
    build_U0,
    build_U1,
    build_U2,
    solvability_defect,
    term_profiles,
)
from blochpacket.envelope import (
    HomogenizedCoefficients,
    evolve_gaussian,
    gaussian_init,
    geometric_rate,
    grid_envelope_from_gaussian,
)
from blochpacket.flow import (
    CosineWellPotential,
    QuadraticPotential,
    TrajectoryState,
    integrate_flow,
)
from blochpacket.lattice import FourierPotential


def sampled(field):
    """The field's z-profiles on its grid, each shaped like the grid."""
    return term_profiles([field], field.grid.points()).reshape((-1,) + field.grid.shape)


def chi_projection(field):
    """<chi, field>(z): projection of a corrector onto its cell function."""
    pair = field.pair
    return sum(
        f * cell_inner(pair.dimension, pair.coeffs, g)
        for f, (_, g) in zip(sampled(field), field.terms)
    )


@pytest.fixture(scope="module")
def nodes(mathieu_band):
    # one mid-trajectory node on two bands: the unit cosine, whose anchored
    # connection is the constant -i pi, so the geometric rate at q = 0.8 is
    # -0.8 pi i, and cos y + 0.4 sin 2y, whose connection at p = 0.3 is
    # -2.8476i, so the geometric rate there is -2.2780i
    tilted = FourierPotential.from_coeffs({(1,): 0.5, (-1,): 0.5, (2,): -0.2j, (-2,): 0.2j})
    state = TrajectoryState(t=0.0, q=np.array([0.8]), p=np.array([0.3]), S=0.1)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    return [(mathieu_band, state, g, u), (BlochBand(tilted, 1, 32), state, g, u)]


def test_nodes_cover_a_nonzero_geometric_rate(nodes):
    ext = harmonic(1)
    (cos_band, state, _, _), (tilted_band, _, _, _) = nodes
    assert geometric_rate(cos_band, ext, state) == pytest.approx(-0.8j * np.pi, abs=1e-12)
    assert geometric_rate(tilted_band, ext, state) == pytest.approx(-2.2780j, abs=1e-4)


def test_u0_is_product_state(nodes):
    for band, state, g, u in nodes:
        pair = band.eigenpair(state.p)
        u0 = build_U0(g, u.grid, pair)
        assert u0.order == 0
        assert len(u0.terms) == 1
        axes, ycoef = u0.terms[0]
        assert axes == ()
        assert np.allclose(sampled(u0)[0], u.values)
        assert np.allclose(ycoef, pair.coeffs)
        # norm separates: ||u|| * ||chi||_L2(Y) with unit cell normalization
        assert u0.norm() == pytest.approx(u.mass(), rel=1e-12)


def test_u1_orthogonal_to_cell_function(nodes):
    for band, state, g, u in nodes:
        u1 = build_U1(g, u.grid, band.eigenpair(state.p))
        assert u1.order == 1
        assert np.max(np.abs(chi_projection(u1))) < 1e-12


def test_u2_orthogonal_to_cell_function(nodes):
    for band, state, g, u in nodes:
        u2 = build_U2(g, u.grid, state, band.eigenpair(state.p), harmonic(1))
        assert u2.order == 2
        assert np.max(np.abs(chi_projection(u2))) < 1e-12


def test_correctors_reuse_the_cached_eigendecomposition(nodes, monkeypatch):
    # U0, U1 and U2 at a momentum the band has solved run no eigensolve of their own
    band, state, g, u = nodes[0]
    band.eigenpair(state.p)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    pair = band.eigenpair(state.p)
    build_U0(g, u.grid, pair)
    build_U1(g, u.grid, pair)
    build_U2(g, u.grid, state, pair, harmonic(1))
    assert len(calls) == 0


def test_u1_linear_in_envelope(nodes):
    for band, state, g, u in nodes:
        pair = band.eigenpair(state.p)
        u1 = build_U1(g, u.grid, pair)
        u1b = build_U1(replace(g, berry_integral=np.log(2.5)), u.grid, pair)
        for f, fb, (_, g), (_, gb) in zip(sampled(u1), sampled(u1b), u1.terms, u1b.terms):
            assert np.allclose(2.5 * f, fb, atol=1e-12)
            assert np.allclose(g, gb, atol=1e-14)


def test_scaled_corrector_norm(nodes):
    for band, state, g, u in nodes:
        u1 = build_U1(g, u.grid, band.eigenpair(state.p))
        tripled = replace(u1, terms=tuple((a, 3.0 * g) for a, g in u1.terms))
        assert tripled.norm() == pytest.approx(3.0 * u1.norm(), rel=1e-12)


def test_corrector_norm_resolves_cancelling_terms(nodes):
    # the U1 terms plus their negatives, split or rescaled so that the sum
    # cancels only to rounding: the square root of a Gram sum reads ~1e-8
    # (or 0.0) on these, depending on the sign of the rounding
    for band, state, g, u in nodes:
        u1 = build_U1(g, u.grid, band.eigenpair(state.p))
        split = tuple((a, -0.3 * g) for a, g in u1.terms) + tuple(
            (a, -0.7 * g) for a, g in u1.terms
        )
        rescaled = tuple((a, -3.0 * (g / 3.0)) for a, g in u1.terms)
        for negatives in (split, rescaled):
            cancelled = replace(u1, terms=u1.terms + negatives)
            assert cancelled.norm() <= 1e-15


def test_correctors_vanish_on_free_lattice(free_band):
    state = TrajectoryState(t=0.0, q=np.array([0.1]), p=np.array([0.3]), S=0.0)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 256)
    pair = free_band.eigenpair(state.p)
    ext = harmonic(1)
    assert build_U1(g, u.grid, pair).norm() < 1e-14
    assert build_U2(g, u.grid, state, pair, ext).norm() < 1e-14


def test_solvability_defect1_vanishes(nodes):
    for band, state, g, u in nodes:
        d1, _ = solvability_defect(g, u.grid, state, band, harmonic(1))
        assert d1 < 1e-10


def test_solvability_defect2_consistent_vs_stale(nodes):
    ext = harmonic(1)
    for band, state, g, u in nodes:
        _, d2 = solvability_defect(g, u.grid, state, band, ext)
        assert d2 < 1e-6
        # a time derivative of zeros is maximally stale data
        _, d2_stale = solvability_defect(
            g, u.grid, state, band, ext, du_dt=np.zeros_like(u.values)
        )
        assert d2_stale > 1e-2


def test_solvability_defect2_resolves_rounding(nodes):
    # with i d_t u taken from the envelope equation at the propagators' own
    # M, Q and beta, the cell-parallel projection cancels to rounding
    ext = harmonic(1)
    for band, state, g, u in nodes:
        _, d2 = solvability_defect(g, u.grid, state, band, ext)
        assert d2 <= 1e-12


def test_defects_gauge_invariant(nodes):
    # rebuilding the band data at an equivalent momentum (unfolding by a
    # dual vector) must leave the physical defects unchanged
    ext = harmonic(1)
    for band, state, g, u in nodes:
        d1a, d2a = solvability_defect(g, u.grid, state, band, ext)
        shifted = TrajectoryState(t=state.t, q=state.q, p=state.p + 1.0, S=state.S)
        d1b, d2b = solvability_defect(g, u.grid, shifted, band, ext)
        assert d1a == pytest.approx(d1b, abs=1e-11)
        assert d2a == pytest.approx(d2b, rel=1e-4, abs=1e-9)


def test_effective_mass_identity(nodes):
    # the cell-averaged kinetic coupling reproduces the band Hessian for any
    # cell potential: E'' = 1 + 2 Re t00, t00 = -i <chi, d_y x_0>
    from blochpacket.corrector import _dy, _perp

    for band, state, _, _ in nodes:
        pair = band.eigenpair(state.p)
        x0 = _perp(pair, pair.dk_coeffs[0])
        t00 = -1j * cell_inner(pair.dimension, pair.coeffs, _dy(pair, x0, 0))
        assert 1.0 + 2.0 * t00.real == pytest.approx(pair.hess[0, 0], abs=1e-9)


def test_correctors_in_two_dimensions():
    # band 1 of cos y1 + cos y2 at cutoff 4, a chirped Gaussian whose A is
    # not diagonal and a coupled external well: every off-diagonal term of
    # the second-order hierarchy is nonzero here. Bounds, stated before
    # measuring: U1 and U2 at least 1e-3 in norm and orthogonal to chi to
    # 1e-12, defect1 below 1e-10, defect2 at most 1e-12, and the stale
    # du_dt control above 1e-2.
    band = BlochBand(FourierPotential.cosine(2), 1, 4)
    ext = QuadraticPotential.create(2, hessian=[[1.0, 0.3], [0.3, 1.0]])
    state = TrajectoryState(t=0.0, q=np.array([0.4, -0.2]), p=np.array([0.17, -0.31]), S=0.0)
    a = np.array([[1.0, 0.3], [0.3, 0.8]])
    chirp = np.array([[0.2, -0.1], [-0.1, 0.3]])
    g = gaussian_init(a, np.linalg.inv(a) + 1j * chirp @ a)
    u = grid_envelope_from_gaussian(g, 8.0, 64)
    pair = band.eigenpair(state.p)

    u1 = build_U1(g, u.grid, pair)
    u2 = build_U2(g, u.grid, state, pair, ext)
    for field in (u1, u2):
        assert field.norm() > 1e-3
        assert np.max(np.abs(chi_projection(field))) < 1e-12
    d1, d2 = solvability_defect(g, u.grid, state, band, ext)
    assert d1 < 1e-10
    assert d2 <= 1e-12
    _, d2_stale = solvability_defect(g, u.grid, state, band, ext, du_dt=np.zeros_like(u.values))
    assert d2_stale > 1e-2


def fft_derivatives(u):
    """First and second z-derivatives of grid samples by FFT, as arrays
    (d,) + shape and (d, d) + shape."""
    grid = u.grid
    d = grid.dimension
    hat = np.fft.fftn(u.values)
    xi = [grid.along(j, grid.freq_axis()) for j in range(d)]
    grad = np.array([np.fft.ifftn(1j * xi[j] * hat) for j in range(d)])
    hess = np.array([[np.fft.ifftn(-xi[j] * xi[l] * hat) for l in range(d)] for j in range(d)])
    return grad, hess


def test_closed_form_derivatives_match_fft(mathieu_band):
    # the closed forms grad u = -(W z) u and Hess u = ((W z)(W z)^T - W) u
    # against FFT derivatives of the sampled Gaussian, to 1e-10 of max |u|
    # (bound stated before measuring): in d = 1 with the complex W of a
    # Gaussian carried to t = 1 in a cosine well, in d = 2 with a
    # non-diagonal, complex W
    well = CosineWellPotential.create(2.0, [1.0])
    traj = integrate_flow([1.0], [0.3], 1.0, 1e-3, mathieu_band, well)
    coeffs = HomogenizedCoefficients(traj, mathieu_band, well)
    evolved = evolve_gaussian(gaussian_init(np.eye(1), np.eye(1)), coeffs, 1.0, 1e-3)
    assert np.max(np.abs(evolved.width_matrix().imag)) > 0.1

    a = np.array([[1.0, 0.3], [0.3, 0.8]])
    chirped = gaussian_init(a, np.linalg.inv(a) + 1j * np.array([[0.2, -0.1], [-0.1, 0.3]]) @ a)
    w2 = chirped.width_matrix()
    assert abs(w2[0, 1]) > 0.1 and abs(w2[0, 1].imag) > 0.05

    for g, half_width, npoints in ((evolved, 16.0, 512), (chirped, 8.0, 64)):
        u = grid_envelope_from_gaussian(g, half_width, npoints)
        shaped = (f.reshape(f.shape[:-1] + u.grid.shape) for f in _profiles(g, u.grid.points()))
        values, grad, hess = shaped
        fft_grad, fft_hess = fft_derivatives(u)
        scale = np.max(np.abs(u.values))
        assert np.array_equal(values, u.values)
        assert np.max(np.abs(grad - fft_grad)) <= 1e-10 * scale
        assert np.max(np.abs(hess - fft_hess)) <= 1e-10 * scale
