from dataclasses import replace

import numpy as np
import pytest

from conftest import harmonic

from blochpacket.bloch import BlochBand, cell_inner
from blochpacket.corrector import (
    build_U0,
    build_U1,
    build_U2,
    solvability_defect,
)
from blochpacket.envelope import gaussian_init, geometric_rate, grid_envelope_from_gaussian
from blochpacket.flow import TrajectoryState
from blochpacket.lattice import FourierPotential, LatticeSpec


def chi_projection(field):
    """<chi, field>(z): projection of a corrector onto its cell function."""
    pair = field.pair
    return sum(f * cell_inner(pair.lattice, pair.coeffs, g) for f, g in field.terms)


@pytest.fixture(scope="module")
def nodes(mathieu_band, lattice1d):
    # one mid-trajectory node on two bands: the unit cosine, whose anchored
    # connection is the constant -i pi, so the geometric rate at q = 0.8 is
    # -0.8 pi i, and cos y + 0.4 sin 2y, whose connection at p = 0.3 is
    # -2.8476i, so the geometric rate there is -2.2780i
    tilted = FourierPotential.from_coeffs({(1,): 0.5, (-1,): 0.5, (2,): -0.2j, (-2,): 0.2j})
    state = TrajectoryState(t=0.0, q=np.array([0.8]), p=np.array([0.3]), S=0.1)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    return [(mathieu_band, state, u), (BlochBand(lattice1d, tilted, 1, 32), state, u)]


def test_nodes_cover_a_nonzero_geometric_rate(nodes):
    ext = harmonic(1)
    (cos_band, state, _), (tilted_band, _, _) = nodes
    assert geometric_rate(cos_band, ext, state) == pytest.approx(-0.8j * np.pi, abs=1e-12)
    assert geometric_rate(tilted_band, ext, state) == pytest.approx(-2.2780j, abs=1e-4)


def test_u0_is_product_state(nodes):
    for band, state, u in nodes:
        pair = band.eigenpair(state.p)
        u0 = build_U0(u, pair)
        assert u0.order == 0
        assert len(u0.terms) == 1
        zprof, ycoef = u0.terms[0]
        assert np.allclose(zprof, u.values)
        assert np.allclose(ycoef, pair.coeffs)
        # norm separates: ||u|| * ||chi||_L2(Y) with unit cell normalization
        assert u0.norm() == pytest.approx(u.mass(), rel=1e-12)


def test_u1_orthogonal_to_cell_function(nodes):
    for band, state, u in nodes:
        u1 = build_U1(u, band.eigenpair(state.p))
        assert u1.order == 1
        assert np.max(np.abs(chi_projection(u1))) < 1e-12


def test_u2_orthogonal_to_cell_function(nodes):
    for band, state, u in nodes:
        u2 = build_U2(u, state, band, harmonic(1))
        assert u2.order == 2
        assert np.max(np.abs(chi_projection(u2))) < 1e-12


def test_u1_linear_in_envelope(nodes):
    for band, state, u in nodes:
        pair = band.eigenpair(state.p)
        u1 = build_U1(u, pair)
        u1b = build_U1(replace(u, values=2.5 * u.values), pair)
        for (f, g), (fb, gb) in zip(u1.terms, u1b.terms):
            assert np.allclose(2.5 * f, fb, atol=1e-12)
            assert np.allclose(g, gb, atol=1e-14)


def test_scaled_corrector_norm(nodes):
    for band, state, u in nodes:
        u1 = build_U1(u, band.eigenpair(state.p))
        tripled = replace(u1, terms=tuple((3.0 * f, g) for f, g in u1.terms))
        assert tripled.norm() == pytest.approx(3.0 * u1.norm(), rel=1e-12)


def test_corrector_norm_resolves_cancelling_terms(nodes):
    # the U1 terms plus their negatives, split or rescaled so that the sum
    # cancels only to rounding: the square root of a Gram sum reads ~1e-8
    # (or 0.0) on these, depending on the sign of the rounding
    for band, state, u in nodes:
        u1 = build_U1(u, band.eigenpair(state.p))
        split = tuple((-f, 0.3 * g) for f, g in u1.terms) + tuple(
            (-f, 0.7 * g) for f, g in u1.terms
        )
        rescaled = tuple((-3.0 * f, g / 3.0) for f, g in u1.terms)
        for negatives in (split, rescaled):
            cancelled = replace(u1, terms=u1.terms + negatives)
            assert cancelled.norm() <= 1e-15


def test_correctors_vanish_on_free_lattice(free_band):
    state = TrajectoryState(t=0.0, q=np.array([0.1]), p=np.array([0.3]), S=0.0)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 256)
    pair = free_band.eigenpair(state.p)
    ext = harmonic(1)
    assert build_U1(u, pair).norm() < 1e-14
    assert build_U2(u, state, free_band, ext).norm() < 1e-14


def test_solvability_defect1_vanishes(nodes):
    for band, state, u in nodes:
        d1, _ = solvability_defect(u, state, band, harmonic(1))
        assert d1 < 1e-10


def test_solvability_defect2_consistent_vs_stale(nodes):
    ext = harmonic(1)
    for band, state, u in nodes:
        _, d2 = solvability_defect(u, state, band, ext)
        assert d2 < 1e-6
        # a time derivative of zeros is maximally stale data
        _, d2_stale = solvability_defect(u, state, band, ext, du_dt=np.zeros_like(u.values))
        assert d2_stale > 1e-2


def test_solvability_defect2_resolves_rounding(nodes):
    # with i d_t u taken from the envelope equation at the propagators' own
    # M, Q and beta, the cell-parallel projection cancels to rounding
    ext = harmonic(1)
    for band, state, u in nodes:
        _, d2 = solvability_defect(u, state, band, ext)
        assert d2 <= 1e-12


def test_defects_gauge_invariant(nodes):
    # rebuilding the band data at an equivalent momentum (unfolding by a
    # dual vector) must leave the physical defects unchanged
    ext = harmonic(1)
    for band, state, u in nodes:
        d1a, d2a = solvability_defect(u, state, band, ext)
        shifted = TrajectoryState(t=state.t, q=state.q, p=state.p + 1.0, S=state.S)
        d1b, d2b = solvability_defect(u, shifted, band, ext)
        assert d1a == pytest.approx(d1b, abs=1e-11)
        assert d2a == pytest.approx(d2b, rel=1e-4, abs=1e-9)


def test_effective_mass_identity(nodes):
    # the cell-averaged kinetic coupling reproduces the band Hessian for any
    # cell potential: E'' = 1 + 2 Re t00, t00 = -i <chi, d_y x_0>
    from blochpacket.corrector import _dy, _perp

    for band, state, _ in nodes:
        pair = band.eigenpair(state.p)
        x0 = _perp(pair, pair.dk_coeffs[0])
        t00 = -1j * cell_inner(pair.lattice, pair.coeffs, _dy(pair, x0, 0))
        assert 1.0 + 2.0 * t00.real == pytest.approx(pair.hess[0, 0], abs=1e-9)
