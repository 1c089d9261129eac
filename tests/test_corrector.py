from dataclasses import replace

import numpy as np
import pytest

from blochpacket.bloch import BlochBand, cell_inner
from blochpacket.corrector import (
    build_U0,
    build_U1,
    build_U2,
    solvability_defect,
    system_residuals,
    time_derivative,
)
from blochpacket.envelope import (
    ConstantCoefficients,
    gaussian_init,
    grid_envelope_from_gaussian,
    spectral_hessian,
)
from blochpacket.flow import QuadraticPotential, TrajectoryState
from blochpacket.lattice import FourierPotential, LatticeSpec


def chi_projection(field):
    """<chi, field>(z): projection of a corrector onto its cell function."""
    pair = field.pair
    return sum(f * cell_inner(pair.lattice, pair.coeffs, g) for f, g in field.terms)


@pytest.fixture(scope="module")
def node(mathieu_band):
    # mid-trajectory state of the flat-band configuration
    state = TrajectoryState(t=0.0, q=np.array([0.02]), p=np.array([0.29]), S=0.1)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    return state, u


def test_u0_is_product_state(node, mathieu_band):
    state, u = node
    pair = mathieu_band.eigenpair(state.p)
    u0 = build_U0(u, pair)
    assert u0.order == 0
    assert len(u0.terms) == 1
    zprof, ycoef = u0.terms[0]
    assert np.allclose(zprof, u.values)
    assert np.allclose(ycoef, pair.coeffs)
    # norm separates: ||u|| * ||chi||_L2(Y) with unit cell normalization
    assert u0.norm(u.grid.dx) == pytest.approx(u.mass(), rel=1e-12)


def test_u1_orthogonal_to_cell_function(node, mathieu_band):
    state, u = node
    pair = mathieu_band.eigenpair(state.p)
    der = mathieu_band.derivatives(state.p)
    u1 = build_U1(u, pair, der)
    assert u1.order == 1
    proj = chi_projection(u1)
    assert np.max(np.abs(proj)) < 1e-12


def test_u2_orthogonal_to_cell_function(node, mathieu_band):
    state, u = node
    u2 = build_U2(u, state, mathieu_band, QuadraticPotential.harmonic(1))
    assert u2.order == 2
    assert np.max(np.abs(chi_projection(u2))) < 1e-12


def test_u1_linear_in_envelope(node, mathieu_band):
    state, u = node
    pair = mathieu_band.eigenpair(state.p)
    der = mathieu_band.derivatives(state.p)
    u1 = build_U1(u, pair, der)
    scaled_env = u.__class__(values=2.5 * u.values, half_width=u.half_width, t=u.t)
    u1b = build_U1(scaled_env, pair, der)
    for (f, g), (fb, gb) in zip(u1.terms, u1b.terms):
        assert np.allclose(2.5 * f, fb, atol=1e-12)
        assert np.allclose(g, gb, atol=1e-14)


def test_scaled_corrector_norm(node, mathieu_band):
    state, u = node
    pair = mathieu_band.eigenpair(state.p)
    der = mathieu_band.derivatives(state.p)
    u1 = build_U1(u, pair, der)
    tripled = replace(u1, terms=tuple((3.0 * f, g) for f, g in u1.terms))
    assert tripled.norm(u.grid.dx) == pytest.approx(3.0 * u1.norm(u.grid.dx), rel=1e-12)


def test_correctors_vanish_on_free_lattice(free_band):
    state = TrajectoryState(t=0.0, q=np.array([0.1]), p=np.array([0.3]), S=0.0)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 256)
    pair = free_band.eigenpair(state.p)
    der = free_band.derivatives(state.p)
    ext = QuadraticPotential.harmonic(1)
    assert build_U1(u, pair, der).norm(u.grid.dx) < 1e-14
    assert build_U2(u, state, free_band, ext).norm(u.grid.dx) < 1e-14


def test_solvability_defect1_vanishes(node, mathieu_band):
    state, u = node
    d1, _ = solvability_defect(u, state, mathieu_band, QuadraticPotential.harmonic(1))
    assert d1 < 1e-10


def test_solvability_defect2_consistent_vs_stale(node, mathieu_band):
    state, u = node
    ext = QuadraticPotential.harmonic(1)
    _, d2 = solvability_defect(u, state, mathieu_band, ext)
    assert d2 < 1e-6
    # a time derivative of zeros is maximally stale data
    _, d2_stale = solvability_defect(
        u, state, mathieu_band, ext, du_dt=np.zeros_like(u.values)
    )
    assert d2_stale > 1e-2


def test_time_derivative_matches_envelope_equation():
    # constant coefficients: i d_t u = -(1/2) m u'' + (q/2) z^2 u - i beta u
    m, q, beta = 0.8, 1.3, 0.21j
    coeffs = ConstantCoefficients(
        dispersion=m * np.eye(1), vhess=q * np.eye(1), berry_rate=beta
    )
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    du = time_derivative(u, coeffs, 1e-6)
    z = u.grid.axis()
    d2u = spectral_hessian(u)[0, 0]
    rhs = 1j * 0.5 * m * d2u - 1j * 0.5 * q * z * z * u.values + beta * u.values
    assert np.max(np.abs(du - rhs)) < 1e-8


def test_system_residuals_hierarchy(node, mathieu_band):
    state, u = node
    ext = QuadraticPotential.harmonic(1)
    pair = mathieu_band.eigenpair(state.p)
    der = mathieu_band.derivatives(state.p)
    u0 = build_U0(u, pair)
    u1 = build_U1(u, pair, der)
    u2 = build_U2(u, state, mathieu_band, ext)
    r0, r1, r2 = system_residuals(u, state, mathieu_band, ext, u0, u1, u2)
    # first two hierarchy equations are solved exactly by construction
    assert r0 < 1e-10
    assert r1 < 1e-10
    # the third is solved up to the envelope-equation defect
    assert r2 < 1e-6


def test_defects_gauge_invariant(node, mathieu_band):
    # rebuilding the band data at an equivalent momentum (unfolding by a
    # dual vector) must leave the physical defects unchanged
    state, u = node
    ext = QuadraticPotential.harmonic(1)
    d1a, d2a = solvability_defect(u, state, mathieu_band, ext)
    shifted = TrajectoryState(t=state.t, q=state.q, p=state.p + 1.0, S=state.S)
    d1b, d2b = solvability_defect(u, shifted, mathieu_band, ext)
    assert d1a == pytest.approx(d1b, abs=1e-11)
    assert d2a == pytest.approx(d2b, rel=1e-4, abs=1e-9)


def test_effective_mass_identity(node, mathieu_band):
    # the cell-averaged kinetic coupling reproduces the band Hessian:
    # delta_jl + 2 sym<x_j, (d_j H) applied in direction l> = hess E
    state, _ = node
    from blochpacket.corrector import _dy, _perp

    pair = mathieu_band.eigenpair(state.p)
    der = mathieu_band.derivatives(state.p)
    chi = pair.coeffs
    x0 = _perp(pair, der.dk_coeffs[0])
    t00 = -1j * cell_inner(pair.lattice, chi, _dy(pair, x0, 0))
    drift = state.p[0] - der.grad[0]
    # 1d identity: E'' = 1 + 2 Re t00 - 2 |<chi, dk chi>|-type drift term;
    # at the flat band the drift contribution is the gradient mismatch
    recon = 1.0 + 2.0 * t00.real + 2.0 * drift * 0.0
    assert recon == pytest.approx(der.hess[0, 0], abs=1e-9)
