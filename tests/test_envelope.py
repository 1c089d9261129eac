import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ConstantCoefficients, harmonic

from blochpacket.bloch import BlochBand
from blochpacket.envelope import (
    GridEnvelope,
    HomogenizedCoefficients,
    evolve_gaussian,
    evolve_grid_envelope,
    gaussian_eval,
    gaussian_init,
    gaussian_invariant_defects,
    geometric_rate,
    grid_envelope_from_gaussian,
    sigma_norm,
    spectral_gradient,
)
from blochpacket.errors import EnvelopeError
from blochpacket.flow import Trajectory, TrajectoryState, integrate_flow
from blochpacket.grid import SpatialGrid, rk4, step_count

# Weighted-norm oracles for u(z) = exp(-|z|^2/2) (A = B = 1), by hand:
# in d = 1, ||u|| = pi^(1/4) and ||z u|| = ||u'|| = pi^(1/4)/sqrt(2);
# in d = 2, ||u|| = sqrt(pi) and ||z_j u|| = ||d_j u|| = sqrt(pi/2).
SIGMA0 = np.pi**0.25
SIGMA1 = SIGMA0 * (1.0 + np.sqrt(2.0))
SIGMA1_2D = np.sqrt(np.pi) * (1.0 + 2.0 * np.sqrt(2.0))


def sym(mat):
    return 0.5 * (mat + mat.T)


def random_coefficients(rng, d):
    m = sym(rng.normal(size=(d, d)))
    q = sym(rng.normal(size=(d, d)))
    beta = 1j * rng.normal()
    return ConstantCoefficients(dispersion=m, vhess=q, berry_rate=beta)


def test_gaussian_init_identity():
    g = gaussian_init(np.eye(1), np.eye(1))
    assert g.t == 0.0
    assert g.log_det == pytest.approx(0.0)
    assert np.allclose(g.width_matrix(), np.eye(1))
    z = np.linspace(-3, 3, 11)
    assert np.allclose(gaussian_eval(g, z.reshape(-1, 1)), np.exp(-0.5 * z * z))


def test_gaussian_init_rejects_bad_data():
    with pytest.raises(EnvelopeError):
        gaussian_init(np.zeros((1, 1)), np.eye(1))  # singular A
    with pytest.raises(EnvelopeError):
        gaussian_init(np.eye(1), -np.eye(1))  # Re(BA^-1) not positive
    with pytest.raises(EnvelopeError):
        gaussian_init(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


def test_sigma_norm_oracles():
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    assert sigma_norm(u) == pytest.approx(SIGMA1, rel=1e-12)
    g2 = gaussian_init(np.eye(2), np.eye(2))
    u2 = grid_envelope_from_gaussian(g2, 12.0, 96)
    assert sigma_norm(u2) == pytest.approx(SIGMA1_2D, rel=1e-12)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10)
def test_gaussian_invariants_preserved(seed):
    rng = np.random.default_rng(seed)
    coeffs = random_coefficients(rng, 2)
    g = gaussian_init(np.eye(2), np.eye(2))
    out = evolve_gaussian(g, coeffs, 1.0, 1e-3)
    defects = gaussian_invariant_defects(out)
    assert defects["symmetry"] < 1e-9
    assert defects["inverse_width"] < 1e-9
    assert defects["det_branch"] < 1e-9
    assert defects["min_re_eig"] > 0.0


def test_evolve_gaussian_free_particle_closed_form():
    # M = 1, Q = 0, beta = 0: A(t) = 1 + it, B(t) = 1 (spreading packet)
    coeffs = ConstantCoefficients(dispersion=np.eye(1), vhess=np.zeros((1, 1)))
    g = gaussian_init(np.eye(1), np.eye(1))
    out = evolve_gaussian(g, coeffs, 1.3, 1e-3)
    assert np.allclose(out.A, np.array([[1.0 + 1.3j]]), atol=1e-9)
    assert np.allclose(out.B, np.eye(1), atol=1e-9)
    # complex log det: modulus plus the continued argument of det A
    assert out.log_det.real == pytest.approx(np.log(np.sqrt(1.0 + 1.3**2)), abs=1e-9)
    assert out.log_det.imag == pytest.approx(np.arctan2(1.3, 1.0), abs=1e-9)


@pytest.mark.parametrize("t", [2.2, 7.0])
def test_evolve_gaussian_harmonic_rotation(t):
    # M = Q = 1: A(t) = cos t + i sin t, so |det A| = 1 throughout; arg det A
    # stays short of the branch cut at t = 2.2 and passes a full turn at t = 7
    coeffs = ConstantCoefficients(dispersion=np.eye(1), vhess=np.eye(1))
    g = gaussian_init(np.eye(1), np.eye(1))
    out = evolve_gaussian(g, coeffs, t, 1e-3)
    assert out.A[0, 0] == pytest.approx(np.cos(t) + 1j * np.sin(t), abs=1e-8)
    assert out.B[0, 0] == pytest.approx(np.cos(t) + 1j * np.sin(t), abs=1e-8)
    # det A = e^{it}: unit modulus, argument continued past the branch cut
    assert out.log_det.real == pytest.approx(0.0, abs=1e-9)
    assert out.log_det.imag == pytest.approx(t, abs=1e-8)


def test_evolve_gaussian_backward_returns_to_start():
    rng = np.random.default_rng(3)
    coeffs = random_coefficients(rng, 1)
    g = gaussian_init(np.eye(1), np.eye(1))
    fwd = evolve_gaussian(g, coeffs, 0.8, 1e-3)
    back = evolve_gaussian(fwd, coeffs, 0.0, 1e-3)
    assert np.allclose(back.A, g.A, atol=1e-10)
    assert np.allclose(back.B, g.B, atol=1e-10)
    assert back.log_det == pytest.approx(0.0, abs=1e-10)


def test_evolve_gaussian_time_noop():
    g = gaussian_init(np.eye(1), np.eye(1))
    coeffs = ConstantCoefficients(dispersion=np.eye(1), vhess=np.eye(1))
    assert evolve_gaussian(g, coeffs, 0.0, 1e-3) is g


def test_berry_rate_is_pure_phase():
    # purely imaginary beta rotates the global phase without changing mass
    coeffs = ConstantCoefficients(
        dispersion=np.eye(1), vhess=np.eye(1), berry_rate=0.35j
    )
    g = gaussian_init(np.eye(1), np.eye(1))
    out = evolve_gaussian(g, coeffs, 1.0, 1e-3)
    u = grid_envelope_from_gaussian(out, 16.0, 256)
    base = evolve_gaussian(
        g, ConstantCoefficients(dispersion=np.eye(1), vhess=np.eye(1)), 1.0, 1e-3
    )
    ub = grid_envelope_from_gaussian(base, 16.0, 256)
    assert u.mass() == pytest.approx(ub.mass(), rel=1e-12)
    ratio = u.values[128] / ub.values[128]
    assert abs(ratio - np.exp(0.35j)) < 1e-9


def test_grid_envelope_accessors():
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 8.0, 128)
    assert u.dimension == 1
    assert u.grid.npoints == 128
    assert u.grid.dx == pytest.approx(16.0 / 128)
    assert u.grid.axis()[0] == pytest.approx(-8.0)
    assert u.mass() == pytest.approx(SIGMA0, rel=1e-10)
    assert u.boundary_mass_fraction() < 1e-12
    assert u.spectral_tail_fraction() < 1e-12


def test_grid_propagator_matches_gaussian_random_constant_coefficients():
    rng = np.random.default_rng(11)
    for _ in range(3):
        coeffs = random_coefficients(rng, 1)
        g = gaussian_init(np.eye(1), np.eye(1))
        t = 0.6
        gau = evolve_gaussian(g, coeffs, t, 1e-4)
        u0 = grid_envelope_from_gaussian(g, 16.0, 512)
        ugrid = evolve_grid_envelope(u0, coeffs, t, 1e-4)
        exact = gaussian_eval(gau, ugrid.grid.points()).reshape(ugrid.values.shape)
        err = np.sqrt(np.sum(np.abs(ugrid.values - exact) ** 2) * ugrid.grid.dx)
        assert err < 1e-6


class BreathingCoefficients:
    """M(t) = (1 + 0.3 sin t) M0, Q(t) = (1 + 0.2 cos 2t) Q0 and beta(t) =
    0.4i cos 3t at arrays of times; M0 = Q0 = 1 in d = 1, and both are
    non-diagonal in d = 2."""

    def __init__(self, dimension: int = 1):
        self.dimension = dimension
        self.m0 = np.eye(1) if dimension == 1 else np.array([[1.0, 0.2], [0.2, 0.8]])
        self.q0 = np.eye(1) if dimension == 1 else np.array([[1.0, 0.3], [0.3, 1.0]])

    def dispersion(self, t):
        return (1.0 + 0.3 * np.sin(t))[:, None, None] * self.m0

    def vhess(self, t):
        return (1.0 + 0.2 * np.cos(2.0 * t))[:, None, None] * self.q0

    def berry_rate(self, t):
        return 0.4j * np.cos(3.0 * t)


@pytest.mark.parametrize("dimension", [1, 2])
def test_gaussian_transfer_step_is_stage_by_stage_rk4(dimension):
    # the per-step transfer matrices give the (A, B) of classical RK4 on
    # A' = i M B, B' = i Q A at the same stage coefficients, to rounding,
    # and the scheme is fourth order against a dt / 16 run
    coeffs = BreathingCoefficients(dimension)
    g = gaussian_init(np.eye(dimension), np.eye(dimension))
    t, dt = 1.5, 1e-2
    out = evolve_gaussian(g, coeffs, t, dt)
    nsteps = step_count(t, dt)
    h = t / nsteps
    stages = 0.5 * h * np.arange(2 * nsteps + 1)
    ms, qs = coeffs.dispersion(stages), coeffs.vhess(stages)
    nodes, _ = rk4(
        lambda k, y: np.stack([1j * ms[k] @ y[1], 1j * qs[k] @ y[0]]),
        np.stack([g.A, g.B]), h, nsteps,
    )
    want = nodes[-1]
    assert np.max(np.abs(np.stack([out.A, out.B]) - want)) <= 1e-13 * np.max(np.abs(want))

    def pair(step):
        env = evolve_gaussian(g, coeffs, t, step)
        return np.concatenate([env.A, env.B])

    fine = pair(0.1 / 16)
    errs = [np.max(np.abs(pair(step) - fine)) for step in (0.1, 0.05)]
    assert errs[0] / errs[1] >= 14.0


def test_grid_propagator_time_dependent_geometric_factor():
    # all three coefficients move in time, Q between every two steps; the
    # Gaussian flow at dt 1e-4 is the reference, and the grid scheme must
    # stay second order
    coeffs = BreathingCoefficients()
    g = gaussian_init(np.eye(1), np.eye(1))
    exact = grid_envelope_from_gaussian(evolve_gaussian(g, coeffs, 1.0, 1e-4), 16.0, 512)
    u0 = grid_envelope_from_gaussian(g, 16.0, 512)
    errs = [
        exact.grid.norm(evolve_grid_envelope(u0, coeffs, 1.0, dt).values - exact.values)
        for dt in (1e-3, 2.5e-4)
    ]
    assert errs[0] <= 1e-6
    assert errs[0] / errs[1] >= 12.0


class FixedConnectionBand:
    """Band stub whose connection <chi, d_k chi> is a given constant."""

    def __init__(self, connection):
        self.connection = np.array([connection])

    def berry(self, p):
        return self.connection


def test_geometric_rate_rejects_real_part():
    # grad V = q = 0.5, so an imaginary connection 0.2i gives rate 0.1i
    state = TrajectoryState(t=0.0, q=np.array([0.5]), p=np.array([0.3]), S=0.0)
    pot = harmonic(1)
    assert geometric_rate(FixedConnectionBand(0.2j), pot, state) == pytest.approx(0.1j)
    with pytest.raises(EnvelopeError):
        geometric_rate(FixedConnectionBand(0.1 + 0.2j), pot, state)


def test_geometric_rate_checks_every_element():
    class RowConnectionBand:
        def __init__(self, rows):
            self.rows = np.asarray(rows)[:, None]

        def berry(self, p):
            return self.rows

    states = TrajectoryState(t=np.zeros(3), q=np.full((3, 1), 0.5), p=np.zeros((3, 1)), S=np.zeros(3))
    rates = geometric_rate(RowConnectionBand([0.2j, -0.4j, 0.0]), harmonic(1), states)
    assert np.allclose(rates, [0.1j, -0.2j, 0.0], atol=1e-16)
    with pytest.raises(EnvelopeError):
        geometric_rate(RowConnectionBand([0.2j, 0.1 + 0.2j, 0.3j]), harmonic(1), states)


def test_grid_propagator_mass_conservation():
    coeffs = ConstantCoefficients(dispersion=np.eye(1), vhess=np.eye(1), berry_rate=0.2j)
    g = gaussian_init(np.eye(1), np.eye(1))
    u0 = grid_envelope_from_gaussian(g, 16.0, 256)
    u1 = evolve_grid_envelope(u0, coeffs, 5.0, 1e-3)
    assert abs(u1.mass() - u0.mass()) < 5e-12


def test_grid_propagator_backward_inverts_forward():
    coeffs = ConstantCoefficients(dispersion=np.eye(1), vhess=np.eye(1))
    g = gaussian_init(np.eye(1), np.eye(1))
    u0 = grid_envelope_from_gaussian(g, 16.0, 256)
    u1 = evolve_grid_envelope(u0, coeffs, 0.4, 1e-3)
    u2 = evolve_grid_envelope(u1, coeffs, 0.0, 1e-3)
    err = np.sqrt(np.sum(np.abs(u2.values - u0.values) ** 2) * u0.grid.dx)
    assert err < 1e-10


def test_evolve_grid_envelope_boundary_guard():
    # wide low-frequency state on a tiny box trips the shell monitor
    ax = np.linspace(-2.0, 2.0, 64, endpoint=False)
    vals = np.exp(-0.1 * ax**2).astype(complex)
    u = GridEnvelope(values=vals, grid=SpatialGrid(1, 2.0, 64), t=0.0)
    coeffs = ConstantCoefficients(dispersion=np.eye(1), vhess=np.zeros((1, 1)))
    with pytest.raises(EnvelopeError):
        evolve_grid_envelope(u, coeffs, 4.0, 1e-2)


def test_spectral_derivatives_match_analytic():
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 512)
    z = u.grid.axis()
    du = spectral_gradient(u)[0]
    assert np.max(np.abs(du - (-z) * u.values)) < 1e-11


def test_homogenized_coefficients_interpolate_trajectory(mathieu_band):
    pot = harmonic(1)
    traj = integrate_flow([0.0], [0.3], 1.0, 1e-3, mathieu_band, pot)
    coeffs = HomogenizedCoefficients(traj, mathieu_band, pot)
    ts = np.array([0.0, 0.2, 0.513, 0.75, 1.0])
    m, q, beta = coeffs.dispersion(ts), coeffs.vhess(ts), coeffs.berry_rate(ts)
    assert m.shape == q.shape == (5, 1, 1) and beta.shape == (5,)
    for i, t in enumerate(ts):
        state = traj.state_at(t)
        assert np.allclose(m[i], mathieu_band.hess_energy(state.p), rtol=0, atol=1e-15)
        assert np.array_equal(q[i], pot.hess(state.q))
        # the unit cosine's anchored connection is -i pi, so beta = -i pi q
        assert beta[i] == pytest.approx(-1j * np.pi * state.q[0], abs=1e-12)


def test_each_propagation_reads_the_trajectory_and_the_band_table_once(mathieu_band, monkeypatch):
    # M, Q and beta come from one state_at and one band-table read per
    # propagation, bit-identical to reading each on its own; times are
    # compared by value, so a time array changed in place is read again
    pot = harmonic(1)
    traj = integrate_flow([0.0], [0.3], 1.0, 1e-2, mathieu_band, pot)
    coeffs = HomogenizedCoefficients(traj, mathieu_band, pot)
    reads = {"state_at": 0, "_table": 0}
    for owner, name in ((Trajectory, "state_at"), (BlochBand, "_table")):
        def counted(self, t, _fn=getattr(owner, name), _name=name):
            reads[_name] += 1
            return _fn(self, t)
        monkeypatch.setattr(owner, name, counted)

    g = gaussian_init(np.eye(1), np.eye(1))
    evolve_gaussian(g, coeffs, 0.5, 1e-2)
    assert reads == {"state_at": 1, "_table": 1}
    u = grid_envelope_from_gaussian(g, 8.0, 64)
    evolve_grid_envelope(u, coeffs, 0.5, 1e-2)
    assert reads == {"state_at": 2, "_table": 2}

    ts = np.linspace(0.0, 0.5, 7)
    for shift in (0.0, 0.25):
        ts += shift
        state = traj.state_at(ts)
        assert np.array_equal(coeffs.dispersion(ts), mathieu_band.hess_energy(state.p))
        assert np.array_equal(coeffs.vhess(ts), pot.hess(state.q))
        assert np.array_equal(coeffs.berry_rate(ts), geometric_rate(mathieu_band, pot, state))


def test_sigma_norm_rejects_an_unresolved_grid():
    # dx = 1 leaves a visible part of the unit Gaussian's spectrum in the
    # top third of the frequencies
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 8.0, 16)
    assert u.spectral_tail_fraction() > 1e-6
    with pytest.raises(EnvelopeError, match="spectral tail"):
        sigma_norm(u)


def test_grid_propagator_matches_gaussian_2d():
    coeffs = ConstantCoefficients(
        dispersion=[[1.0, 0.2], [0.2, 0.8]], vhess=np.diag([1.0, 0.5]), berry_rate=0.03j
    )
    g = gaussian_init(np.eye(2), np.eye(2))
    u0 = grid_envelope_from_gaussian(g, 8.0, 64)
    u1 = evolve_grid_envelope(u0, coeffs, 1.0, 1e-3)
    exact = grid_envelope_from_gaussian(evolve_gaussian(g, coeffs, 1.0, 1e-3), 8.0, 64)
    assert u1.grid.norm(u1.values - exact.values) <= 1e-6
    assert abs(u1.mass() - u0.mass()) <= 1e-12
