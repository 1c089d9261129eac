"""Acceptance gate: nine end-to-end criteria at desk scale (d=1).

Every test prints a single PASS/FAIL line with the measured number, so a
plain pytest run doubles as the acceptance report.  The expensive
reference solves are shared: one solve per epsilon feeds the final-time
error law (1), the reference-mass conservation check (6) and the
Ehrenfest-horizon error trend (8).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import harmonic

from blochpacket.assembly import GridWaveField
from blochpacket.bloch import BlochBand
from blochpacket.config import ExperimentConfig
from blochpacket.corrector import build_U1, build_U2, solvability_defect
from blochpacket.envelope import (
    HomogenizedCoefficients,
    evolve_gaussian,
    gaussian_init,
    gaussian_invariant_defects,
    grid_envelope_from_gaussian,
)
from blochpacket.experiments import (
    _flow,
    _grid_envelopes,
    _leading_packet,
    _reference_snapshots,
    _residual_cell,
    loglog_fit,
    prepare_dynamics,
)
from blochpacket.flow import QuadraticPotential, TrajectoryState, total_energy
from blochpacket.grid import SpatialGrid
from blochpacket.lattice import FourierPotential
from blochpacket.reference import RESIDUAL_DELTA_FACTOR, SolverParams, l2_error, solve_schrodinger

EPS_LIST = (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)
C0 = 0.1
T_FINAL = 1.0
T_STAR = 0.5
LONG_T = 10.0
GOLDEN = Path(__file__).resolve().parent / "acceptance_golden.json"
EPS_NAMES = ("2^-4", "2^-5", "2^-6", "2^-7")


def _ehrenfest_time(eps: float) -> float:
    return C0 * math.log(1.0 / eps)


def _report(capsys, idx: int, name: str, detail: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"acceptance {idx}/9 {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def config():
    # package defaults are the acceptance configuration: 2*pi lattice with a
    # unit cosine cell potential, V(x) = x^2/2, lowest band, Gaussian with
    # A = B = 1 launched from (q, p) = (0, 0.3)
    return ExperimentConfig().validate()


@pytest.fixture(scope="module")
def bundle(config):
    pad = RESIDUAL_DELTA_FACTOR * max(EPS_LIST) ** 2
    times = sorted(
        {_ehrenfest_time(e) for e in EPS_LIST} | {T_STAR, T_STAR + 2 * pad, T_FINAL}
    )
    return prepare_dynamics(config, times)


@pytest.fixture(scope="module")
def sweep(bundle):
    """One reference solve per epsilon on the box the error sweep sizes,
    sampled at the Ehrenfest horizon and at T=1; shared by criteria 1, 6
    and 8."""
    out = {}
    for eps in EPS_LIST:
        t_e = _ehrenfest_time(eps)
        psi0, snaps, _ = _reference_snapshots(bundle, eps, [t_e, T_FINAL])
        grid = psi0.grid
        out[eps] = {
            "error_ehrenfest": l2_error(snaps[0], _leading_packet(bundle, t_e, eps, grid)),
            "error_final": l2_error(snaps[1], _leading_packet(bundle, T_FINAL, eps, grid)),
            "mass_drift": abs(snaps[1].mass() - psi0.mass()),
        }
    return out


@pytest.fixture(scope="module")
def residual_sweep(bundle):
    """Symmetric-difference residual of the three-term packet at t=0.5,
    with and without the corrector terms, as the residual sweep's cells
    compute it."""
    rows = {}
    for eps in EPS_LIST:
        (row,) = _residual_cell(bundle, eps)
        rows[eps] = {label: row[f"residual_{label}"] for label in ("full", "leading")}
    return rows


@pytest.fixture(scope="module")
def long_flow(config):
    band = config.make_band()
    external = config.make_external()
    trajectory, _ = _flow(config, LONG_T, band, external)
    return {"band": band, "external": external, "trajectory": trajectory}


@pytest.fixture(scope="module")
def grid_run(config, bundle):
    """Grid envelope propagated to T=1 on the acceptance coefficients."""
    gauss0 = bundle.at(0.0)[1]
    u0 = grid_envelope_from_gaussian(
        gauss0, config.envelope_half_width, config.envelope_points
    )
    (u1,), _ = _grid_envelopes(config, bundle.coefficients, u0, [T_FINAL])
    return u0, u1


def test_final_time_error_law(capsys, sweep):
    errors = [sweep[eps]["error_final"] for eps in EPS_LIST]
    fit = loglog_fit(np.array(EPS_LIST), np.array(errors))
    slope = fit["slope"]
    ok = 0.35 <= slope <= 0.7
    _report(capsys, 1, "sqrt-eps error law at T=1", f"slope={slope:.4f} target [0.35, 0.70]", ok)
    assert ok, f"error slope {slope} outside [0.35, 0.7]; errors={errors}"


def test_residual_law_and_ablation(capsys, residual_sweep):
    eps = np.array(EPS_LIST)
    full = np.array([residual_sweep[e]["full"] for e in EPS_LIST])
    leading = np.array([residual_sweep[e]["leading"] for e in EPS_LIST])
    slope_full = loglog_fit(eps, full)["slope"]
    slope_leading = loglog_fit(eps, leading)["slope"]
    ok = 1.3 <= slope_full <= 1.7 and slope_leading < 1.0
    _report(
        capsys,
        2,
        "packet residual law at t=0.5",
        f"slope={slope_full:.4f} target [1.30, 1.70], ablated slope={slope_leading:.4f} < 1",
        ok,
    )
    assert 1.3 <= slope_full <= 1.7, f"residual slope {slope_full}; values={full.tolist()}"
    assert slope_leading < 1.0, f"ablated slope {slope_leading}; values={leading.tolist()}"


def test_band_derivative_identities(capsys, cosine1d):
    band = BlochBand(cosine1d, 1, 32)
    direction = np.array([1.0])
    h = 1e-4
    grad_dev = 0.0
    hess_dev = 0.0
    for frac in np.linspace(-0.5, 0.5, 17):
        k = frac * direction
        fd_grad = (band.energy(k + h * direction) - band.energy(k - h * direction)) / (
            2 * h * np.linalg.norm(direction)
        )
        fd_hess = (
            band.grad_energy(k + h * direction) - band.grad_energy(k - h * direction)
        ) / (2 * h * np.linalg.norm(direction))
        grad_dev = max(grad_dev, float(np.max(np.abs(band.grad_energy(k) - fd_grad))))
        hess_dev = max(hess_dev, float(np.max(np.abs(band.hess_energy(k) - fd_hess))))
    ok = grad_dev <= 1e-6 and hess_dev <= 1e-5
    _report(
        capsys,
        3,
        "band derivative identities",
        f"grad dev={grad_dev:.2e} <= 1e-6, hess dev={hess_dev:.2e} <= 1e-5 over 17 k-points",
        ok,
    )
    assert grad_dev <= 1e-6
    assert hess_dev <= 1e-5


def test_gaussian_invariants_long_horizon(capsys, config, long_flow):
    coeffs = HomogenizedCoefficients(
        long_flow["trajectory"], long_flow["band"], long_flow["external"]
    )
    gauss = config.make_gaussian()
    worst = 0.0
    min_eig = float("inf")
    for t in np.arange(1.0, LONG_T + 1e-9, 1.0):
        gauss = evolve_gaussian(gauss, coeffs, float(t), 1e-3)
        defects = gaussian_invariant_defects(gauss)
        worst = max(
            worst, defects["symmetry"], defects["inverse_width"], defects["det_branch"]
        )
        min_eig = min(min_eig, defects["min_re_eig"])
    ok = worst <= 1e-8 and min_eig > 0.0
    _report(
        capsys,
        4,
        "Gaussian invariants on [0, 10]",
        f"max defect={worst:.2e} <= 1e-8, min width eigenvalue={min_eig:.3f} > 0",
        ok,
    )
    assert worst <= 1e-8
    assert min_eig > 0.0


def test_envelope_propagator_equivalence(capsys, config, bundle, grid_run):
    _, u_grid = grid_run
    gauss_final = bundle.at(T_FINAL)[1]
    closed = grid_envelope_from_gaussian(
        gauss_final, config.envelope_half_width, config.envelope_points
    )
    diff = float(
        np.sqrt(np.sum(np.abs(u_grid.values - closed.values) ** 2) * u_grid.grid.dx)
    )
    ok = diff <= 1e-6
    _report(
        capsys,
        5,
        "grid vs closed-form envelope at T=1",
        f"L2 difference={diff:.2e} <= 1e-6",
        ok,
    )
    assert ok, f"grid/Gaussian propagator mismatch {diff}"


def test_conservation_laws(capsys, sweep, long_flow, grid_run):
    u0, u1 = grid_run
    envelope_drift = abs(u1.mass() - u0.mass())
    reference_drift = max(sweep[eps]["mass_drift"] for eps in EPS_LIST)

    trajectory = long_flow["trajectory"]
    e0 = total_energy(trajectory.state_at(0.0), long_flow["band"], long_flow["external"])
    energy_drift = 0.0
    for i in range(len(trajectory.ts)):
        e = total_energy(trajectory.state_at(trajectory.ts[i]), long_flow["band"], long_flow["external"])
        energy_drift = max(energy_drift, abs(e - e0))
    ok = envelope_drift <= 1e-12 and reference_drift <= 1e-12 and energy_drift <= 1e-8
    _report(
        capsys,
        6,
        "conservation laws",
        f"envelope mass drift={envelope_drift:.2e} <= 1e-12, "
        f"reference mass drift={reference_drift:.2e} <= 1e-12, "
        f"flow energy drift={energy_drift:.2e} <= 1e-8 over T=10",
        ok,
    )
    assert envelope_drift <= 1e-12
    assert reference_drift <= 1e-12
    assert energy_drift <= 1e-8


def test_geometric_and_solvability_identities(capsys, config, bundle):
    band = bundle.band
    state, gauss = bundle.at(T_STAR)
    berry_real = float(np.max(np.abs(band.berry(state.p).real)))

    u = grid_envelope_from_gaussian(
        gauss, config.envelope_half_width, config.envelope_points
    )
    defect1, defect2 = solvability_defect(gauss, u.grid, state, band, bundle.external)
    _, stale2 = solvability_defect(
        gauss, u.grid, state, band, bundle.external, du_dt=np.zeros_like(u.values)
    )
    ok = (
        berry_real <= 1e-10
        and defect1 <= 1e-10
        and defect2 <= 1e-6
        and stale2 >= 1e-2
    )
    _report(
        capsys,
        7,
        "geometric phase and solvability",
        f"Re<chi, dk chi>={berry_real:.2e} <= 1e-10, defect1={defect1:.2e} <= 1e-10, "
        f"defect2={defect2:.2e} <= 1e-6, stale control={stale2:.2e} >= 1e-2",
        ok,
    )
    assert berry_real <= 1e-10
    assert defect1 <= 1e-10
    assert defect2 <= 1e-6
    assert stale2 >= 1e-2, "stale-envelope negative control failed to trip"


def test_ehrenfest_error_trend(capsys, sweep):
    errors = [sweep[eps]["error_ehrenfest"] for eps in EPS_LIST]
    ok = all(b < a for a, b in zip(errors, errors[1:]))
    detail = ", ".join(f"{e:.4f}" for e in errors)
    _report(
        capsys,
        8,
        "error at t = 0.1 ln(1/eps)",
        f"errors decreasing across eps sweep: {detail}",
        ok,
    )
    assert ok, f"Ehrenfest-horizon errors not monotone: {errors}"


def test_free_lattice_closed_forms(capsys, monkeypatch, free_band):
    # folded parabola on the first band away from the zone edge
    direction = np.array([1.0])
    parabola_dev = 0.0
    for frac in np.linspace(-0.45, 0.45, 13):
        k = frac * direction
        parabola_dev = max(
            parabola_dev, abs(free_band.energy(k) - 0.5 * float(k @ k))
        )

    # both corrector fields vanish when the cell potential is zero
    state = TrajectoryState(t=0.0, q=np.array([0.1]), p=np.array([0.3]), S=0.0)
    g = gaussian_init(np.eye(1), np.eye(1))
    u = grid_envelope_from_gaussian(g, 16.0, 256)
    pair = free_band.eigenpair(state.p)
    corr_norm = max(
        build_U1(g, u.grid, pair).norm(),
        build_U2(g, u.grid, state, pair, harmonic(1)).norm(),
    )

    # plane wave under the reference solver picks up the exact phase; it
    # fills the whole box, so the boundary guard is switched off
    monkeypatch.setattr("blochpacket.grid.THRESHOLD", np.inf)
    eps, n, mode = 0.125, 256, 8
    grid = SpatialGrid(dimension=1, half_width=np.pi, npoints=n)
    x = grid.axis()
    k_wave = mode * eps
    psi0 = GridWaveField(
        grid=grid, epsilon=eps, time=0.0, values=np.exp(1j * k_wave * x / eps)
    )
    T = 0.37
    out = solve_schrodinger(
        psi0,
        FourierPotential.zero(1),
        QuadraticPotential.create(1),
        [T],
        SolverParams(dt=1e-3),
    )
    exact = GridWaveField(
        grid=grid,
        epsilon=eps,
        time=T,
        values=np.exp(1j * (k_wave * x - 0.5 * k_wave**2 * T) / eps),
    )
    wave_err = l2_error(out[0], exact)

    ok = parabola_dev <= 1e-12 and corr_norm <= 1e-12 and wave_err <= 1e-10
    _report(
        capsys,
        9,
        "free-lattice closed forms",
        f"parabola dev={parabola_dev:.2e} <= 1e-12, corrector norm={corr_norm:.2e} <= 1e-12, "
        f"plane-wave error={wave_err:.2e} <= 1e-10",
        ok,
    )
    assert parabola_dev <= 1e-12
    assert corr_norm <= 1e-12
    assert wave_err <= 1e-10


def test_acceptance_numbers_match_golden(sweep, residual_sweep):
    # the criteria above hold bounds; this holds the numbers themselves, so
    # a change that moves the physics shows even inside every bound
    series = {
        "error_final": [sweep[e]["error_final"] for e in EPS_LIST],
        "error_ehrenfest": [sweep[e]["error_ehrenfest"] for e in EPS_LIST],
        "residual_full": [residual_sweep[e]["full"] for e in EPS_LIST],
        "residual_leading": [residual_sweep[e]["leading"] for e in EPS_LIST],
    }
    measured = {
        f"{key} eps={name}": value
        for key, values in series.items()
        for name, value in zip(EPS_NAMES, values)
    }
    for name, key in (
        ("slope_final", "error_final"),
        ("slope_full", "residual_full"),
        ("slope_leading", "residual_leading"),
    ):
        measured[name] = loglog_fit(np.array(EPS_LIST), np.array(series[key]))["slope"]
    golden = json.loads(GOLDEN.read_text())["numbers"]
    assert sorted(measured) == sorted(golden)
    moved = [
        f"{name}: {measured[name]!r} vs golden {entry['value']!r}"
        for name, entry in golden.items()
        if abs(measured[name] - entry["value"]) > entry["rel_tol"] * abs(entry["value"])
    ]
    assert not moved, "acceptance numbers moved:\n" + "\n".join(moved)
