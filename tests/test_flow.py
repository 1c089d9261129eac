import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QuadraticBand, harmonic

from blochpacket import flow
from blochpacket.bloch import BlochBand
from blochpacket.errors import FlowError
from blochpacket.flow import (
    CosineWellPotential,
    QuadraticPotential,
    TrajectoryState,
    integrate_flow,
    total_energy,
)
from blochpacket.lattice import FourierPotential


def test_quadratic_potential_values():
    pot = harmonic(1)
    x = np.array([1.5])
    assert pot.value(x) == pytest.approx(1.125)
    assert pot.grad(x)[0] == pytest.approx(1.5)
    assert pot.hess(x)[0, 0] == pytest.approx(1.0)
    # create with no hessian is the free external field
    free = QuadraticPotential.create(1)
    assert free.value(x) == pytest.approx(0.0)
    assert np.allclose(free.hess(x), 0.0)


def test_quadratic_potential_general_affine():
    pot = QuadraticPotential.create(2, linear=[1.0, -2.0], hessian=[[2.0, 0.3], [0.3, 1.0]])
    x = np.array([0.4, -0.2])
    want = 1.0 * 0.4 + (-2.0) * (-0.2) + 0.5 * (
        2.0 * 0.16 + 2 * 0.3 * 0.4 * (-0.2) + 1.0 * 0.04
    )
    assert pot.value(x) == pytest.approx(want)
    assert np.allclose(pot.grad(x), [1.0 + 2.0 * 0.4 + 0.3 * (-0.2), -2.0 + 0.3 * 0.4 - 0.2])


def test_cosine_well_gradients_match_fd():
    pot = CosineWellPotential.create(0.7, [1.0])
    step = 1e-4
    for x in np.linspace(-2, 2, 7).reshape(-1, 1):
        fd = (pot.value(x + step) - pot.value(x - step)) / (2 * step)
        assert abs(float(fd) - pot.grad(x)[0]) < 1e-5


def test_harmonic_oscillator_closed_form():
    # free dispersion + (omega^2/2) x^2: q(t) = q0 cos t + p0 sin t
    band = QuadraticBand(1)
    pot = harmonic(1)
    q0, p0, t = 0.3, -0.2, 1.7
    traj = integrate_flow([q0], [p0], t, 1e-3, band, pot)
    st_ = traj.state_at(t)
    assert st_.q[0] == pytest.approx(q0 * np.cos(t) + p0 * np.sin(t), abs=1e-10)
    assert st_.p[0] == pytest.approx(p0 * np.cos(t) - q0 * np.sin(t), abs=1e-10)
    # action: integral of (p^2/2 - V) along the orbit
    amp2 = q0 * q0 + p0 * p0
    s_exact = 0.5 * (p0 * p0 - q0 * q0) * np.sin(t) * np.cos(t) - q0 * p0 * np.sin(t) ** 2
    assert st_.S == pytest.approx(s_exact, abs=1e-9)
    assert amp2 == pytest.approx(st_.q[0] ** 2 + st_.p[0] ** 2, abs=1e-10)


def test_exact_landing():
    band = QuadraticBand(1)
    pot = harmonic(1)
    # t_final not divisible by dt: the step shrinks, never overshoots
    traj = integrate_flow([0.1], [0.2], 0.7003, 1e-2, band, pot)
    assert traj.ts[-1] == pytest.approx(0.7003, abs=1e-15)


def test_dense_output_matches_nodes():
    band = QuadraticBand(1)
    pot = harmonic(1)
    traj = integrate_flow([0.3], [0.1], 1.0, 0.05, band, pot)
    for i in (0, 3, 11, len(traj.ts) - 1):
        interp = traj.state_at(traj.ts[i])
        assert np.allclose(traj.states[i, :1], interp.q, atol=1e-14)
        assert np.allclose(traj.states[i, 1:2], interp.p, atol=1e-14)
        assert traj.states[i, 2] == pytest.approx(interp.S, abs=1e-14)


def test_dense_output_between_nodes_is_accurate():
    band = QuadraticBand(1)
    pot = harmonic(1)
    coarse = integrate_flow([0.3], [0.1], 1.0, 0.05, band, pot)
    t = 0.5123
    st_ = coarse.state_at(t)
    assert st_.q[0] == pytest.approx(0.3 * np.cos(t) + 0.1 * np.sin(t), abs=1e-8)


def test_reverse_retraces():
    # E(p) = p^2 / 2 is even, so flipping the momentum runs the flow backwards
    band = QuadraticBand(1)
    pot = harmonic(1)
    fwd = integrate_flow([0.25], [-0.4], 2.0, 1e-3, band, pot)
    end = fwd.state_at(2.0)
    back = integrate_flow(end.q, -end.p, 2.0, 1e-3, band, pot)
    start = back.state_at(2.0)
    assert start.q[0] == pytest.approx(0.25, abs=1e-10)
    assert start.p[0] == pytest.approx(0.4, abs=1e-10)


def test_energy_conservation_mathieu(mathieu_band):
    pot = harmonic(1)
    traj = integrate_flow([0.0], [0.3], 1.0, 1e-3, mathieu_band, pot)
    e0 = total_energy(traj.state_at(0.0), mathieu_band, pot)
    drift = max(
        abs(total_energy(traj.state_at(traj.ts[i]), mathieu_band, pot) - e0)
        for i in range(0, len(traj.ts), 100)
    )
    assert drift < 1e-12


def test_action_on_a_dispersive_band():
    # band 1 of the amplitude-0.3 cosine, swept across several zones by a
    # cosine well: S(T) against Simpson's rule for p E'(p) - E(p) - V(q)
    # over the trajectory's nodes, to 1e-9 (stated before measuring)
    band = BlochBand(FourierPotential.cosine(1, 0.3), 1, 32)
    well = CosineWellPotential.create(2.0, [1.0])
    traj = integrate_flow([1.0], [0.3], 2.0, 1e-3, band, well)
    nodes = traj.state_at(traj.ts)
    assert np.ptp(nodes.p) > 1.0
    rate = (
        np.sum(nodes.p * band.grad_energy(nodes.p), axis=-1)
        - band.energy(nodes.p)
        - well.value(nodes.q)
    )
    h = traj.ts[1] - traj.ts[0]
    simpson = h / 3 * (rate[0] + 4 * rate[1:-1:2].sum() + 2 * rate[2:-1:2].sum() + rate[-1])
    assert nodes.S[-1] == pytest.approx(simpson, abs=1e-9)


@given(dt=st.sampled_from([0.02, 0.01]))
@settings(max_examples=2)
def test_rk4_order(dt):
    # halving dt shrinks the endpoint error by about 2^4
    band = QuadraticBand(1)
    pot = harmonic(1)
    t = 1.0

    def endpoint_error(step):
        traj = integrate_flow([0.3], [0.0], t, step, band, pot)
        return abs(traj.state_at(t).q[0] - 0.3 * np.cos(t))

    r = endpoint_error(dt) / endpoint_error(dt / 2)
    assert 11.0 < r < 21.0


def test_state_at_outside_window_raises():
    band = QuadraticBand(1)
    traj = integrate_flow([0.0], [0.1], 0.5, 1e-2, band, harmonic(1))
    with pytest.raises(FlowError):
        traj.state_at(0.6)
    with pytest.raises(FlowError):
        traj.state_at(-0.1)


def test_state_at_names_the_first_time_outside_the_window():
    traj = integrate_flow([0.0], [0.1], 0.5, 1e-2, QuadraticBand(1), harmonic(1))
    ts = np.linspace(0.0, 0.6, 2001)
    outside = ts > 0.5 + 1e-12
    with pytest.raises(FlowError) as info:
        traj.state_at(ts)
    message = str(info.value)
    assert f"time {float(ts[outside][0])!r} " in message
    assert f"({np.count_nonzero(outside)} of 2001 times)" in message


def test_state_at_array_matches_scalar_calls():
    # one Hermite evaluation for many times gives the per-time states bit
    # for bit: node times, the window ends, points between nodes and a
    # time past the end within the window's 1e-12 slack
    traj = integrate_flow([0.3], [0.1], 1.0, 0.05, QuadraticBand(1), harmonic(1))
    rng = np.random.default_rng(4)
    ts = np.concatenate([traj.ts[::3], [0.0, 1.0, 1.0 + 5e-13], rng.uniform(0.0, 1.0, 20)])
    batch = traj.state_at(ts)
    assert batch.q.shape == batch.p.shape == (ts.size, 1)
    assert batch.dimension == 1
    for i, t in enumerate(ts):
        one = traj.state_at(float(t))
        assert batch.t[i] == one.t
        assert np.array_equal(batch.q[i], one.q)
        assert np.array_equal(batch.p[i], one.p)
        assert batch.S[i] == one.S
    for i in range(0, len(traj.ts), 3):
        assert np.array_equal(batch.q[i // 3], traj.states[i, :1])
    with pytest.raises(FlowError):
        traj.state_at(np.array([0.2, 1.1, 0.4]))
    with pytest.raises(FlowError):
        traj.state_at(np.array([-0.1, 0.5]))


def test_external_hessians_take_batches_of_points():
    pts = np.random.default_rng(2).normal(size=(6, 2))
    quad = QuadraticPotential.create(2, hessian=[[2.0, 0.3], [0.3, 1.0]])
    well = CosineWellPotential.create(0.7, [1.0, 2.5])
    for pot in (quad, well):
        batch = pot.hess(pts)
        assert batch.shape == (6, 2, 2)
        for x, h in zip(pts, batch):
            assert np.array_equal(h, pot.hess(x))
    # d = 1: N points arrive as (N, 1)
    well1 = CosineWellPotential.create(0.7, [1.3])
    x = np.linspace(-2.0, 2.0, 5)[:, None]
    assert np.allclose(well1.hess(x)[:, 0, 0], 0.7 * 1.3**2 * np.cos(1.3 * x[:, 0]), atol=1e-15)
    assert well1.hess(np.array([0.4])).shape == (1, 1)


def test_q_bound_guard(monkeypatch):
    monkeypatch.setattr(flow, "Q_BOUND", 5.0)
    band = QuadraticBand(1)
    # runaway potential: V = -x^2 -> exponential escape
    pot = QuadraticPotential.create(1, hessian=[[-2.0]])
    # q = cosh(sqrt2 t) + sinh(sqrt2 t) / sqrt2 passes 5 near t = 1.25; the
    # message names that first node, not the end of the window
    with pytest.raises(FlowError, match=r"blow-up near t = 1\.2"):
        integrate_flow([1.0], [1.0], 20.0, 1e-2, band, pot)


def test_invalid_inputs():
    band = QuadraticBand(1)
    pot = harmonic(1)
    with pytest.raises(FlowError):
        integrate_flow([0.0, 0.0], [0.1], 1.0, 1e-2, band, pot)
    with pytest.raises(FlowError):
        integrate_flow([0.0], [0.1], -1.0, 1e-2, band, pot)
    with pytest.raises(FlowError):
        integrate_flow([0.0], [0.1], 1.0, 0.0, band, pot)


def test_trajectory_state_dimension():
    st_ = TrajectoryState(t=0.0, q=np.zeros(3), p=np.zeros(3), S=0.0)
    assert st_.dimension == 3
