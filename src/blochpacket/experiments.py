"""Experiment pipelines: band scans, dynamics runs, and epsilon sweeps.

Every pipeline takes an ExperimentConfig, writes CSV tables (plus JSON
summaries and raw field exports) under the config's output directory, and
returns the summary dict.  All integrators are fixed step and all grids are
derived from the config, so identical configs produce identical bytes; each
output row carries the config hash.

The expensive epsilon-independent work (trajectory and envelope evolution
to the sample times) is prepared once and shared by the per
epsilon cells, which run one after another in the calling process.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import make_grid_for, synthesize_app, synthesize_packet, write_field
from .bloch import band_derivatives, build_bloch_hamiltonian
from .config import ExperimentConfig
from .corrector import build_U0, build_U1, build_U2
from .envelope import (
    HomogenizedCoefficients,
    evolve_gaussian,
    evolve_grid_envelope,
    gaussian_invariant_defects,
    grid_envelope_from_gaussian,
    sigma_norm,
)
from .errors import BlochpacketError, EigensolverError
from .flow import integrate_flow, total_energy
from .grid import SpatialGrid
from .reference import SolverParams, l2_error, pde_residual, solve_schrodinger

logger = logging.getLogger("blochpacket")

TIME_KEY_DIGITS = 12
TABLE_DEVIATION_TOL = 1e-10  # largest |table - direct| / max(1, |direct|) a band scan accepts


def _tkey(t: float) -> float:
    return round(float(t), TIME_KEY_DIGITS)


def _write_outputs(config: ExperimentConfig, kind: str, fieldnames, rows, **extra) -> dict:
    """Write the named columns of the rows to <kind>.csv, with the config
    hash on every row, and the summary <kind>_summary.json; return the
    summary."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = config.config_hash()
    csv_path = out / f"{kind}.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=list(fieldnames) + ["config"], extrasaction="ignore"
        )
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "config": config_hash})
    summary = {"kind": kind, "config": config_hash, **extra, "csv": str(csv_path)}
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out / f"{kind}_summary.json").write_text(summary_text)
    return summary


def loglog_fit(epsilons, values) -> dict:
    """OLS fit of ln(value) against ln(epsilon); no outlier rejection."""
    eps = np.asarray(epsilons, dtype=float)
    val = np.asarray(values, dtype=float)
    keep = np.isfinite(val) & (val > 0)
    if np.sum(keep) < 3:
        return {"slope": None, "intercept": None, "points": int(np.sum(keep))}
    slope, intercept = np.polyfit(np.log(eps[keep]), np.log(val[keep]), 1)
    return {"slope": float(slope), "intercept": float(intercept), "points": int(np.sum(keep))}


# ---------------------------------------------------------------------------
# shared epsilon-independent dynamics


@dataclass
class DynamicsBundle:
    """Trajectory, envelope and band shared by every epsilon cell; the
    lattice and its potential are the band's."""

    config: ExperimentConfig
    band: object
    external: object
    trajectory: object
    coefficients: object
    entries: dict  # time -> (TrajectoryState, GaussianEnvelope)

    def at(self, t: float):
        return self.entries[_tkey(t)]


def prepare_dynamics(config: ExperimentConfig, times) -> DynamicsBundle:
    """Integrate the flow once and chain the Gaussian envelope through the
    requested times, keeping the trajectory state at each stop."""
    band = config.make_band()
    external = config.make_external()

    wanted = sorted({_tkey(t) for t in times} | {0.0})
    horizon = max(max(wanted), config.flow_dt)
    trajectory = integrate_flow(
        config.q0, config.p0, horizon, config.flow_dt, band, external
    )
    coefficients = HomogenizedCoefficients(trajectory, band, external)

    entries = {}
    gauss = config.make_gaussian()
    for t in wanted:
        if t > gauss.t:
            gauss = evolve_gaussian(gauss, coefficients, t, config.envelope_dt)
        entries[t] = (trajectory.state_at(t), gauss)
    return DynamicsBundle(
        config=config,
        band=band,
        external=external,
        trajectory=trajectory,
        coefficients=coefficients,
        entries=entries,
    )


def _leading_packet(bundle: DynamicsBundle, t: float, epsilon: float, grid):
    state, gauss = bundle.at(t)
    return synthesize_packet(gauss, state, bundle.band.eigenpair(state.p), epsilon, grid)


def _correctors(bundle: DynamicsBundle, t: float, base_time: float | None = None) -> tuple:
    """Trajectory state and the fields [U_0, U_1, U_2] at t.  With base_time
    set, the envelope is carried from the prepared entry at base_time by a
    short exact-landing hop, so the residual's off-center snapshots stay
    consistent with the envelope dynamics instead of being re-integrated
    from zero."""
    config = bundle.config
    _, gauss = bundle.at(t if base_time is None else base_time)
    gauss = evolve_gaussian(gauss, bundle.coefficients, t, max(abs(t - gauss.t), 1e-12))
    state = bundle.trajectory.state_at(t)
    pair = bundle.band.eigenpair(state.p)
    grid = SpatialGrid(config.dimension, config.envelope_half_width, config.envelope_points)
    u2 = build_U2(gauss, grid, state, bundle.band, bundle.external)
    return state, [build_U0(gauss, grid, pair), build_U1(gauss, grid, pair), u2]


def _residual_packets(bundle: DynamicsBundle, epsilon: float, grid, t_star: float, delta: float):
    """Three-term ("full") and leading-only ("leading") packets at
    t_star - delta, t_star and t_star + delta; each snapshot's correctors
    are built once and serve both."""
    packets = {"full": [], "leading": []}
    for off in (-delta, 0.0, delta):
        state, fields = _correctors(bundle, t_star + off, base_time=t_star)
        packets["full"].append(synthesize_app(fields, state, epsilon, grid))
        packets["leading"].append(synthesize_app(fields[:1], state, epsilon, grid))
    return packets


def _initial_field(bundle: DynamicsBundle, epsilon: float, grid):
    if bundle.config.initial_data == "well_prepared":
        state, fields = _correctors(bundle, 0.0)
        return synthesize_app(fields, state, epsilon, grid)
    return _leading_packet(bundle, 0.0, epsilon, grid)


def _reference_snapshots(bundle: DynamicsBundle, epsilon: float, grid, times) -> tuple:
    """Initial field on the grid and its reference solution at the times."""
    psi0 = _initial_field(bundle, epsilon, grid)
    params = SolverParams(dt=bundle.config.reference_dt_factor * epsilon)
    band = bundle.band
    snaps = solve_schrodinger(psi0, band.lattice, band.potential, bundle.external, times, params)
    return psi0, snaps


def _make_grid(config: ExperimentConfig, epsilon: float):
    return make_grid_for(
        epsilon,
        config.dimension,
        half_width=config.half_width,
        lattice_period=config.lattice_period,
        points_per_period=config.points_per_period,
    )


# ---------------------------------------------------------------------------
# band scan


def run_bands(config: ExperimentConfig) -> dict:
    """Spectrum scan along the first dual axis. The finite-difference checks
    of the Hellmann-Feynman derivatives use direct solves; the band table is
    held against the same solves at every sample and raises above
    TABLE_DEVIATION_TOL."""
    config.validate()
    band = config.make_band()
    lattice, m = band.lattice, config.band_index

    fracs = np.linspace(-0.5, 0.5, config.k_samples)
    direction = lattice.dual_basis[0]
    fd_step = 1e-4

    def direct(k):
        return band_derivatives(lattice, band.potential, k, m, band.cutoff)

    rows = []
    spectra = []
    failures = []
    max_grad_dev = 0.0
    max_hess_dev = 0.0
    max_table_dev = 0.0
    for frac in fracs:
        k = frac * direction
        h = build_bloch_hamiltonian(lattice, band.potential, k, band.cutoff)
        evals = np.linalg.eigvalsh(h)[: config.num_bands]
        spectra.append(evals)
        row = {"k_frac": frac}
        for j, val in enumerate(np.atleast_1d(k)):
            row[f"k_{j}"] = val
        for n, e in enumerate(evals, start=1):
            row[f"E_{n}"] = e
        others = np.delete(evals, m - 1) if evals.size > 1 else np.array([])
        row["gap_m"] = float(np.min(np.abs(others - evals[m - 1]))) if others.size else float("nan")
        rows.append(row)

        try:
            pair = direct(k)
            d = lattice.dimension
            fd_grad = np.zeros(d)
            fd_hess = np.zeros((d, d))
            for j in range(d):
                step = fd_step * np.eye(d)[j]
                ahead, behind = direct(k + step), direct(k - step)
                fd_grad[j] = (ahead.energy - behind.energy) / (2 * fd_step)
                fd_hess[:, j] = (ahead.grad - behind.grad) / (2 * fd_step)
            max_grad_dev = max(max_grad_dev, float(np.max(np.abs(pair.grad - fd_grad))))
            max_hess_dev = max(
                max_hess_dev,
                float(np.max(np.abs(pair.hess - 0.5 * (fd_hess + fd_hess.T)))),
            )
            for table, solved in (
                (band.energy(k), pair.energy),
                (band.grad_energy(k), pair.grad),
                (band.hess_energy(k), pair.hess),
            ):
                dev = np.abs(table - solved) / np.maximum(1.0, np.abs(solved))
                max_table_dev = max(max_table_dev, float(np.max(dev)))
        except BlochpacketError as exc:
            failures.append({"k_frac": float(frac), "reason": str(exc)})
    if max_table_dev > TABLE_DEVIATION_TOL:
        raise EigensolverError(
            f"band table deviates from direct solves by {max_table_dev:.3e}"
            f" (relative, floor 1) above {TABLE_DEVIATION_TOL:.0e}"
        )

    # isolation of band m against every other band over the whole scan:
    # min |E_m(k) - E_n(k')| over scanned k, k' and n != m
    spectra = np.array(spectra)
    others = np.delete(spectra, m - 1, axis=1).ravel()
    gaps = np.abs(spectra[:, m - 1, None] - others)
    uniform_gap = float(gaps.min()) if gaps.size else float("nan")
    return _write_outputs(
        config,
        "bands",
        rows[0].keys(),
        rows,
        k_samples=config.k_samples,
        num_bands=config.num_bands,
        band_index=m,
        uniform_gap=uniform_gap,
        max_grad_deviation=max_grad_dev,
        max_hess_deviation=max_hess_dev,
        max_table_deviation=max_table_dev,
        derivative_failures=failures,
    )


# ---------------------------------------------------------------------------
# flow and envelope runs


def run_flow(config: ExperimentConfig) -> dict:
    config.validate()
    band = config.make_band()
    external = config.make_external()
    trajectory = integrate_flow(
        config.q0, config.p0, config.t_final, config.flow_dt, band, external
    )
    states = trajectory.state_at(trajectory.ts)
    energy = total_energy(states, band, external)
    drift = np.abs(energy - energy[0])
    columns = {"t": states.t}
    columns.update({f"q_{j}": states.q[:, j] for j in range(config.dimension)})
    columns.update({f"p_{j}": states.p[:, j] for j in range(config.dimension)})
    columns.update({"S": states.S, "energy": energy, "energy_drift": drift})
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]

    return _write_outputs(
        config,
        "flow",
        columns,
        rows,
        t_final=config.t_final,
        dt=config.flow_dt,
        max_energy_drift=float(drift.max()),
        band_table=band.table_summary(),
    )


def run_envelope(config: ExperimentConfig) -> dict:
    config.validate()
    times = sorted({_tkey(t) for t in config.sample_times} | {_tkey(config.t_final)})
    bundle = prepare_dynamics(config, times)

    u_grid = grid_envelope_from_gaussian(
        config.make_gaussian(), config.envelope_half_width, config.envelope_points
    )
    mass0 = u_grid.mass()

    rows = []
    max_defect = 0.0
    max_mass_drift = 0.0
    max_diff = 0.0
    for t in times:
        _, gauss = bundle.at(t)
        defects = gaussian_invariant_defects(gauss)
        worst = max(defects["symmetry"], defects["inverse_width"], defects["det_branch"])
        max_defect = max(max_defect, worst)
        if t > u_grid.t:
            u_grid = evolve_grid_envelope(
                u_grid, bundle.coefficients, t, config.grid_envelope_dt
            )
        sampled = grid_envelope_from_gaussian(
            gauss, config.envelope_half_width, config.envelope_points
        )
        diff = u_grid.grid.norm(u_grid.values - sampled.values)
        drift = abs(u_grid.mass() - mass0)
        max_mass_drift = max(max_mass_drift, drift)
        max_diff = max(max_diff, diff)
        rows.append(
            {
                "t": t,
                "gaussian_symmetry_defect": defects["symmetry"],
                "gaussian_width_defect": defects["inverse_width"],
                "gaussian_det_branch_defect": defects["det_branch"],
                "gaussian_min_width_eig": defects["min_re_eig"],
                "grid_mass": u_grid.mass(),
                "grid_mass_drift": drift,
                "grid_boundary_fraction": u_grid.boundary_mass_fraction(),
                "grid_vs_gaussian_l2": diff,
                "sigma1_norm": sigma_norm(u_grid),
            }
        )

    return _write_outputs(
        config,
        "envelope",
        rows[0].keys(),
        rows,
        max_gaussian_defect=max_defect,
        max_grid_mass_drift=max_mass_drift,
        max_grid_vs_gaussian_l2=max_diff,
        band_table=bundle.band.table_summary(),
    )


# ---------------------------------------------------------------------------
# packet synthesis and reference propagation


def run_packet(config: ExperimentConfig) -> dict:
    config.validate()
    out = Path(config.output_dir)
    bundle = prepare_dynamics(config, [0.0])
    rows = []
    for i, eps in enumerate(config.epsilons):
        grid = _make_grid(config, eps)
        field = _initial_field(bundle, eps, grid)
        stem = out / f"packet_eps{i}"
        write_field(field, stem)
        rows.append(
            {
                "epsilon": eps,
                "npoints": grid.npoints,
                "mass": field.mass(),
                "boundary_fraction": field.boundary_mass_fraction(),
                "stem": stem.name,
            }
        )
    return _write_outputs(
        config, "packet", rows[0].keys(), rows, initial_data=config.initial_data
    )


def run_reference(config: ExperimentConfig) -> dict:
    config.validate()
    out = Path(config.output_dir)
    times = sorted({_tkey(t) for t in config.sample_times})
    bundle = prepare_dynamics(config, [0.0])
    rows = []
    max_drift = 0.0
    for i, eps in enumerate(config.epsilons):
        psi0, snaps = _reference_snapshots(bundle, eps, _make_grid(config, eps), times)
        mass0 = psi0.mass()
        for t, snap in zip(times, snaps):
            drift = abs(snap.mass() - mass0)
            max_drift = max(max_drift, drift)
            rows.append({"epsilon": eps, "t": t, "mass": snap.mass(), "mass_drift": drift})
        write_field(snaps[-1], out / f"reference_eps{i}")
    return _write_outputs(config, "reference", rows[0].keys(), rows, max_mass_drift=max_drift)


# ---------------------------------------------------------------------------
# epsilon sweeps: error law, residual law, Ehrenfest horizon


def _cell_times(config: ExperimentConfig, mode: str, eps: float) -> list:
    """Sample times of one error or Ehrenfest cell; the Ehrenfest horizons
    c0 ln(1/eps) follow c0_list."""
    if mode == "ehrenfest":
        return [_tkey(c0 * np.log(1.0 / eps)) for c0 in config.c0_list]
    return sorted({_tkey(t) for t in config.sample_times})


def _error_cell(bundle: DynamicsBundle, eps: float, mode: str) -> list:
    """Leading-packet error against the reference at the cell's times; an
    Ehrenfest cell labels its rows by c0."""
    config = bundle.config
    grid = _make_grid(config, eps)
    times = _cell_times(config, mode, eps)
    solve_times = sorted(set(times))
    _, snaps = _reference_snapshots(bundle, eps, grid, solve_times)
    by_time = dict(zip(solve_times, snaps))
    labels = config.c0_list if mode == "ehrenfest" else [None] * len(times)
    rows = []
    for c0, t in zip(labels, times):
        packet = _leading_packet(bundle, t, eps, grid)
        rows.append(
            {
                "epsilon": eps,
                "c0": c0,
                "time": t,
                "error": l2_error(by_time[t], packet),
                "reference_mass": by_time[t].mass(),
                "packet_mass": packet.mass(),
            }
        )
    return rows


def _residual_cell(bundle: DynamicsBundle, eps: float) -> list:
    config = bundle.config
    grid = _make_grid(config, eps)
    t_star = _tkey(config.residual_time)
    delta = config.residual_delta_factor * eps**2
    band = bundle.band
    row = {"epsilon": eps, "time": t_star, "delta": delta}
    for label, fields in _residual_packets(bundle, eps, grid, t_star, delta).items():
        row[f"residual_{label}"] = pde_residual(
            *fields, band.lattice, band.potential, bundle.external
        )
    return [row]


def _needed_times(config: ExperimentConfig, mode: str) -> list:
    if mode == "residual":
        # pad the horizon so the +delta residual snapshot stays inside the
        # trajectory's dense-output range for every epsilon
        pad = config.residual_delta_factor * max(config.epsilons) ** 2
        return [_tkey(config.residual_time), _tkey(config.residual_time + 2 * pad)]
    return sorted({t for eps in config.epsilons for t in _cell_times(config, mode, eps)})


def _run_sweep(config: ExperimentConfig, mode: str) -> tuple:
    """Rows and failures for every epsilon, in config order; a cell that
    raises a BlochpacketError is recorded as that cell's failure."""
    bundle = prepare_dynamics(config, _needed_times(config, mode))
    rows, failures = [], []
    for eps in config.epsilons:
        logger.info("%s sweep: epsilon = %g", mode, eps)
        try:
            if mode == "residual":
                rows += _residual_cell(bundle, eps)
            else:
                rows += _error_cell(bundle, eps, mode)
        except BlochpacketError as exc:
            failures.append({"epsilon": eps, "reason": f"{type(exc).__name__}: {exc}"})
    return rows, failures


def run_convergence(config: ExperimentConfig) -> dict:
    config.validate()
    mode = config.convergence_mode
    rows, failures = _run_sweep(config, mode)

    if mode == "error":
        fieldnames = ["epsilon", "time", "error", "reference_mass", "packet_mass"]
        slopes = {}
        for t in sorted({row["time"] for row in rows}):
            sub = [row for row in rows if row["time"] == t]
            fit = loglog_fit([r["epsilon"] for r in sub], [r["error"] for r in sub])
            slopes[f"{t:.6g}"] = fit
        extra = {"slopes": slopes}
    else:
        fieldnames = ["epsilon", "time", "delta", "residual_full", "residual_leading"]
        extra = {
            "slope_full": loglog_fit(
                [r["epsilon"] for r in rows], [r["residual_full"] for r in rows]
            ),
            "slope_leading": loglog_fit(
                [r["epsilon"] for r in rows], [r["residual_leading"] for r in rows]
            ),
        }

    return _write_outputs(
        config,
        "convergence",
        fieldnames,
        rows,
        mode=mode,
        initial_data=config.initial_data,
        failures=failures,
        **extra,
    )


def run_ehrenfest(config: ExperimentConfig) -> dict:
    config.validate()
    rows, failures = _run_sweep(config, "ehrenfest")

    monotone = {}
    for c0 in config.c0_list:
        sub = [row for row in rows if row["c0"] == c0]
        # largest epsilon first; the horizon error should fall as eps does
        sub.sort(key=lambda row: -row["epsilon"])
        errs = [row["error"] for row in sub]
        monotone[f"{c0:.6g}"] = {
            "errors": errs,
            "epsilons": [row["epsilon"] for row in sub],
            "monotone_decreasing": bool(
                len(errs) >= 2 and all(b < a for a, b in zip(errs, errs[1:]))
            ),
        }

    return _write_outputs(
        config,
        "ehrenfest",
        ["epsilon", "c0", "time", "error"],
        rows,
        failures=failures,
        horizons=monotone,
    )


RUNNERS = {
    "bands": run_bands,
    "flow": run_flow,
    "envelope": run_envelope,
    "packet": run_packet,
    "reference": run_reference,
    "convergence": run_convergence,
    "ehrenfest": run_ehrenfest,
}
