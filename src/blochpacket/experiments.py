"""Experiment pipelines: band scans, dynamics runs, and epsilon sweeps.

Every pipeline takes an ExperimentConfig, writes CSV tables (plus JSON
summaries and raw field exports) under the config's output directory, and
returns the summary dict.  Unset flow, Gaussian and grid-envelope steps are sized by a
deterministic step doubling (`refine`), an unset reference box from the
prepared dynamics (`_box_terms`), and all grids are derived from the config,
so identical configs produce identical bytes; each output row carries the config hash.

The expensive epsilon-independent work (trajectory and envelope evolution
to the sample times, and the correctors of every snapshot, in one batch) is done
once and shared by the epsilon cells, which run one after another in the calling process.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .assembly import (
    BOX_HALF_WIDTH, make_grid_for, synthesize_app, synthesize_packet, synthesize_snapshot, write_field,
)
from .bloch import band_derivatives, build_bloch_hamiltonian, pw_indices
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
from .errors import BlochpacketError, EigensolverError, EnvelopeError, FlowError, SolverError
from .flow import TrajectoryState, integrate_flow, total_energy
from .grid import THRESHOLD, SpatialGrid, step_count
from .reference import RESIDUAL_DELTA_FACTOR, l2_error, pde_residual, solve_schrodinger

logger = logging.getLogger("blochpacket")

TIME_KEY_DIGITS = 12
TABLE_DEVIATION_TOL = 1e-10  # largest |table - direct| / max(1, |direct|) a band scan accepts
FIRST_DT = 4e-2  # first trial step of a sized layer
MAX_DOUBLINGS = 12  # doublings before a sized layer fails; from FIRST_DT, a finest step of 1e-2 / 2^10
FLOW_TOL = 1e-12  # flow estimate, max over q, p and S
GAUSSIAN_TOL = 1e-12  # Gaussian estimate, max over A, B and the phase integral, as FLOW_TOL
STEP_FIELDS = {"flow": "flow_dt", "gaussian": "envelope_dt", "grid_envelope": "grid_envelope_dt"}
GRID_ENVELOPE_TOL = 1e-7  # grid-envelope estimate in L2: 10 % of criterion 5's 1e-6
BOX_NEIGHBOURS = (-2, -1, 1, 2)  # bands m + j whose speeds at p0 set a sized box's cone
BOX_WIDTHS = 8.0  # a sized box's envelope floor in Gaussian widths; |u| = e^-32 = 1.3e-14 there


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


def refine(run, span: float, dt, layer: str, order: int, deviation, tol: float, error,
           first: float = FIRST_DT):
    """run(dt) and its resolution; with dt None, run(span / n) for n = step_count(span, first),
    2n, ... until the finer run's Richardson estimate deviation(coarse, fine) / (2^order - 1)
    is within tol (Hairer, Norsett & Wanner, ch. II.4); past MAX_DOUBLINGS raise error."""
    if dt is not None:
        logger.info("%s: fixed step %g", layer, dt)
        return run(dt), {"fixed": True, "dt": dt}
    n = step_count(span, first)
    fine = run(span / n)
    for _ in range(MAX_DOUBLINGS):
        coarse, fine, n = fine, run(span / (2 * n)), 2 * n
        estimate = deviation(coarse, fine) / (2**order - 1)
        if estimate <= tol:
            logger.info("%s: %d steps, estimate %.1e <= %.0e", layer, n, estimate, tol)
            return fine, {"steps": n, "dt": span / n, "error_estimate": estimate, "tol": tol}
    raise error(f"{layer}: estimate {estimate:.1e} > tol {tol:.0e} at {n} steps; set {STEP_FIELDS[layer]}")


def _flow(config: ExperimentConfig, horizon: float, band, external) -> tuple:
    """Trajectory to horizon and its resolution, sized on |coarse dense output - fine node|."""

    def deviation(coarse, fine):
        at = coarse.state_at(fine.ts)
        return float(np.max(np.abs(np.column_stack([at.q, at.p, at.S]) - fine.states)))

    return refine(
        lambda dt: integrate_flow(config.q0, config.p0, horizon, dt, band, external),
        horizon, config.flow_dt, "flow", 4, deviation, FLOW_TOL, FlowError,
    )


def _first_step(starts) -> float:
    """First trial step of a layer chained through the times starts[1:]: at most its longest
    segment, so the first pair's finer run halves that segment's step. Were every segment at
    most half the step, each would take one step in both runs, and the estimate would read 0."""
    return float(min(FIRST_DT, max(np.diff(starts), default=FIRST_DT)))


def _gaussians(config: ExperimentConfig, coefficients, times) -> tuple:
    """The Gaussian chained from 0 through the times, by time, and its resolution, sized on
    the largest deviation of A, B or the geometric phase's integral at the times."""
    if times[-1] == 0.0:  # read only at t = 0: a zero span, so the initial Gaussian is not refined
        return {0.0: config.make_gaussian()}, {"steps": 0, "span": 0.0}

    def run(dt):
        out = {0.0: config.make_gaussian()}
        for t, last in zip(times[1:], times):
            out[t] = evolve_gaussian(out[last], coefficients, t, dt)
        return out

    def deviation(coarse, fine):
        return float(max(max(np.abs(f.A - c.A).max(), np.abs(f.B - c.B).max(),
                             abs(f.berry_integral - c.berry_integral))
                         for c, f in zip(coarse.values(), fine.values())))

    return refine(run, times[-1], config.envelope_dt, "gaussian", 4, deviation, GAUSSIAN_TOL,
                  EnvelopeError, _first_step(times))


def _grid_envelopes(config: ExperimentConfig, coefficients, u0, times) -> tuple:
    """u0 carried to each of the times and its resolution, sized on the L2 deviation."""

    def run(dt):
        out = [u0]
        for t in times:
            out.append(evolve_grid_envelope(out[-1], coefficients, t, dt))
        return out[1:]

    return refine(
        run, times[-1] - u0.t, config.grid_envelope_dt, "grid_envelope", 2,
        lambda coarse, fine: max(f.grid.norm(f.values - c.values) for c, f in zip(coarse, fine)),
        GRID_ENVELOPE_TOL, EnvelopeError, _first_step([u0.t, *times]),
    )


# ---------------------------------------------------------------------------
# shared epsilon-independent dynamics


@dataclass
class DynamicsBundle:
    """Trajectory, envelope and band shared by every epsilon cell; the
    lattice potential is the band's."""

    config: ExperimentConfig
    band: object
    external: object
    trajectory: object
    coefficients: object
    entries: dict  # time -> (TrajectoryState, GaussianEnvelope)
    resolution: dict  # layer -> resolution record of `refine`
    snapshots: dict = field(default_factory=dict)  # time -> (state, correctors), or the build's error

    def at(self, t: float):
        return self.entries[_tkey(t)]

    @cached_property
    def neighbour_speed(self) -> float:
        """Largest |d_j E_n(p0)| of the bands m + BOX_NEIGHBOURS that exist, by Hellmann-Feynman."""
        pair = self.band.eigenpair(self.config.p0)
        g_plus_k = pw_indices(pair.dimension, pair.cutoff) + pair.k
        speeds = np.abs((np.abs(pair.evecs) ** 2).T @ g_plus_k)
        rows = [pair.m - 1 + j for j in BOX_NEIGHBOURS if 0 <= pair.m - 1 + j < len(speeds)]
        return float(speeds[rows].max())


def prepare_dynamics(config: ExperimentConfig, times) -> DynamicsBundle:
    """Integrate the flow once and chain the Gaussian envelope through the
    requested times, keeping the trajectory state at each stop."""
    band = config.make_band()
    external = config.make_external()

    wanted = sorted({_tkey(t) for t in times} | {0.0})
    horizon = max(max(wanted), config.flow_dt or FIRST_DT)
    resolution = {}
    trajectory, resolution["flow"] = _flow(config, horizon, band, external)
    coefficients = HomogenizedCoefficients(trajectory, band, external)
    gaussians, resolution["gaussian"] = _gaussians(config, coefficients, wanted)
    return DynamicsBundle(
        config=config,
        band=band,
        external=external,
        trajectory=trajectory,
        coefficients=coefficients,
        entries={t: (trajectory.state_at(t), gaussians[t]) for t in wanted},
        resolution=resolution,
    )


def _leading_packet(bundle: DynamicsBundle, t: float, epsilon: float, grid):
    state, gauss = bundle.at(t)
    return synthesize_packet(gauss, state, bundle.band.eigenpair(state.p), epsilon, grid)


def _build_snapshots(bundle: DynamicsBundle, times, base: float) -> None:
    """Fill bundle.snapshots with the state and the fields [U_0, U_1, U_2] at each of the times
    not built yet, or with the error of that time's build. One `evolve_gaussian` call carries
    the prepared Gaussian at base to the other times, so the residual's off-centre snapshots
    follow the envelope dynamics, and one stacked solve gives their cell data (base's come from
    `eigenpair`). A batched step that raises builds each time alone, so failures stay apart."""
    times = [t for t in dict.fromkeys(times) if _tkey(t) not in bundle.snapshots]
    if not times:
        return
    hops = [t for t in times if t != base]
    try:
        read = bundle.trajectory.state_at(np.array(times, dtype=float))
        states = dict(zip(times, map(TrajectoryState, read.t, read.q, read.p, read.S)))
        gauss = {base: bundle.at(base)[1]}
        pairs = {t: bundle.band.eigenpair(states[t].p) for t in times if t == base}
        if hops:
            span = max(abs(t - base) for t in hops)  # one step to each time
            gauss.update(zip(hops, evolve_gaussian(gauss[base], bundle.coefficients, hops, span)))
            pairs.update(zip(hops, bundle.band.eigenpairs([states[t].p for t in hops])))
    except BlochpacketError as exc:
        if len(times) == 1:
            bundle.snapshots[_tkey(times[0])] = exc
        else:
            for t in times:
                _build_snapshots(bundle, [t], base)
        return
    config = bundle.config
    grid = SpatialGrid(config.dimension, config.envelope_half_width, config.envelope_points)
    for t, state in states.items():
        env, pair = gauss[t], pairs[t]
        try:
            u2 = build_U2(env, grid, state, pair, bundle.external)
            snap = state, [build_U0(env, grid, pair), build_U1(env, grid, pair), u2]
        except BlochpacketError as exc:
            snap = exc
        bundle.snapshots[_tkey(t)] = snap


def _snapshot(bundle: DynamicsBundle, t: float) -> tuple:
    """The state and correctors at t, built at a prepared t on first use; every epsilon
    cell shares them, and a build that failed raises its error again in each."""
    _build_snapshots(bundle, [t], t)
    if isinstance(bundle.snapshots[_tkey(t)], BlochpacketError):
        raise bundle.snapshots[_tkey(t)]
    return bundle.snapshots[_tkey(t)]


def _residual_packets(bundle: DynamicsBundle, epsilon: float, grid, t_star: float):
    """Three-term ("full") and leading-only ("leading") packets at t_star and t_star +- delta,
    delta = RESIDUAL_DELTA_FACTOR eps^2. The first cell builds the snapshots of every epsilon
    of the config in one batch, and each snapshot's one synthesis gives both packets."""
    times = [t_star + side * RESIDUAL_DELTA_FACTOR * eps**2
             for eps in (epsilon, *bundle.config.epsilons) for side in (-1, 0, 1)]
    _build_snapshots(bundle, times, t_star)
    packets = {"full": [], "leading": []}
    for t in times[:3]:
        state, fields = _snapshot(bundle, t)
        full, leading = synthesize_snapshot(fields, state, epsilon, grid)
        packets["full"].append(full)
        packets["leading"].append(leading)
    return packets


def _initial_field(bundle: DynamicsBundle, epsilon: float, grid):
    if bundle.config.initial_data == "well_prepared":
        state, fields = _snapshot(bundle, 0.0)
        return synthesize_app(fields, state, epsilon, grid)
    return _leading_packet(bundle, 0.0, epsilon, grid)


def _box_terms(bundle: DynamicsBundle, epsilon: float, horizon: float) -> dict:
    """The three terms whose sum sizes a reference box to horizon: the flow's largest
    |q_j(t)| (the box is centred at 0), the cone horizon * `neighbour_speed` that the
    out-of-band mass of the packet travels, and BOX_WIDTHS sqrt(eps) times the largest
    Gaussian width sqrt(max eig A A^*) of the prepared stops up to horizon."""
    trajectory = bundle.trajectory
    nodes = trajectory.ts[trajectory.ts < horizon]
    widths = [
        np.linalg.eigvalsh(gauss.A @ gauss.A.conj().T).max()
        for t, (_, gauss) in bundle.entries.items() if t <= horizon
    ]
    return {
        "flow": float(np.abs(trajectory.state_at(np.append(nodes, horizon)).q).max()),
        "cone": horizon * bundle.neighbour_speed,
        "envelope": BOX_WIDTHS * float(np.sqrt(epsilon * max(widths))),
    }


def _reference_snapshots(bundle: DynamicsBundle, epsilon: float, times) -> tuple:
    """Initial field, its reference solution at the times, and the box record.

    A config's half_width fixes the box. Unset, the box is sized by `_box_terms` to the
    last time; if the guard trips on a sized box smaller than BOX_HALF_WIDTH, the box
    doubles and the solve starts over. The record gives the half-width, the cell count,
    the terms (or "fixed"), the doublings and the largest shell fraction a guard read.
    """
    config, band = bundle.config, bundle.band
    terms = {"fixed": True} if config.half_width else _box_terms(bundle, epsilon, times[-1])
    half_width, doublings = config.half_width or sum(terms.values()), 0
    while True:
        grid = _make_grid(config, epsilon, half_width)
        psi0 = _initial_field(bundle, epsilon, grid)
        try:
            snaps = solve_schrodinger(psi0, band.potential, bundle.external, times)
            break
        except SolverError:  # a fixed box is its own default, so it never doubles
            widest = _make_grid(config, epsilon).half_width
            if grid.half_width >= widest or grid.peak_shell_fraction <= THRESHOLD:
                raise
            logger.info("box %.6g tripped the guard at eps = %g; doubling", grid.half_width, epsilon)
            half_width, doublings = 2 * grid.half_width, doublings + 1
    box = {
        "epsilon": epsilon, **terms, "half_width": grid.half_width, "doublings": doublings,
        "cells": round(grid.half_width / (np.pi * epsilon)),
        "boundary_fraction": grid.peak_shell_fraction,
    }
    return psi0, snaps, box


def _make_grid(config: ExperimentConfig, epsilon: float, half_width: float = BOX_HALF_WIDTH):
    """Fine grid at epsilon on the config's box, or on half_width when the config leaves it unset."""
    return make_grid_for(epsilon, config.dimension, half_width=config.half_width or half_width)


# ---------------------------------------------------------------------------
# band scan


def run_bands(config: ExperimentConfig) -> dict:
    """Spectrum scan at k = frac e_1, frac in [-1/2, 1/2]. Each sample k is solved in one
    stacked `band_derivatives` call on [k, k + h e_1, k - h e_1, ..., k - h e_d],
    whose first row gives the spectrum (one `eigvalsh` where the call raises) and whose
    rows give the finite-difference checks of the Hellmann-Feynman derivatives; the band table is held against the solve at k once per Bloch
    momentum, so not at frac = 1/2, which it reads at the first sample's -1/2, and
    raises above TABLE_DEVIATION_TOL."""
    config.validate()
    band = config.make_band()
    potential, m, d = band.potential, config.band_index, band.dimension

    fracs = np.linspace(-0.5, 0.5, config.k_samples)
    ks = np.outer(fracs, np.eye(d)[0])
    fd_step = 1e-4
    steps = fd_step * np.kron(np.eye(d), [[1.0], [-1.0]])  # +h e_1, -h e_1, ..., -h e_d
    spectra, failures = [], []
    worst = dict.fromkeys(("max_grad_deviation", "max_hess_deviation", "max_table_deviation"), 0.0)
    for frac, k in zip(fracs, ks):
        stack = None
        try:
            stack = band_derivatives(potential, np.vstack([k, k + steps]), m, band.cutoff)
            energy, grad, hess = stack.energy[0], stack.grad[0], stack.hess[0]
            fd_grad = (stack.energy[1::2] - stack.energy[2::2]) / (2 * fd_step)
            fd_hess = ((stack.grad[1::2] - stack.grad[2::2]) / (2 * fd_step)).T
            found = {
                "max_grad_deviation": np.max(np.abs(grad - fd_grad)),
                "max_hess_deviation": np.max(np.abs(hess - 0.5 * (fd_hess + fd_hess.T))),
            }
            if frac < 0.5:
                found["max_table_deviation"] = max(
                    np.max(np.abs(table - solved) / np.maximum(1.0, np.abs(solved)))
                    for table, solved in (
                        (band.energy(k), energy), (band.grad_energy(k), grad), (band.hess_energy(k), hess)
                    )
                )
            for name, dev in found.items():
                worst[name] = max(worst[name], float(dev))
        except BlochpacketError as exc:
            failures.append({"k_frac": float(frac), "reason": str(exc)})
        # the spectrum at k is the stack's, or a dense solve's where the stack raised
        spectra.append(np.linalg.eigvalsh(build_bloch_hamiltonian(potential, k, band.cutoff))
                       if stack is None else stack.evals[0])
    # distance of band m to every other band: at the same k (gap_m), and over all
    # scanned k, k' (uniform_gap); nan when there is no other band
    spectra = np.array(spectra)[:, : config.num_bands]
    others = np.delete(spectra, m - 1, axis=1) if spectra.shape[1] > 1 else np.full((len(ks), 1), np.nan)
    columns = {"k_frac": fracs, **{f"k_{j}": ks[:, j] for j in range(d)}}
    columns.update({f"E_{n}": energies for n, energies in enumerate(spectra.T, start=1)})
    columns["gap_m"] = np.abs(others - spectra[:, m - 1, None]).min(axis=1)
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    if worst["max_table_deviation"] > TABLE_DEVIATION_TOL:
        raise EigensolverError(
            f"band table deviates from direct solves by {worst['max_table_deviation']:.3e}"
            f" (relative, floor 1) above {TABLE_DEVIATION_TOL:.0e}"
        )

    return _write_outputs(
        config,
        "bands",
        columns,
        rows,
        k_samples=config.k_samples,
        num_bands=config.num_bands,
        band_index=m,
        uniform_gap=float(np.abs(spectra[:, m - 1, None] - others.ravel()).min()),
        derivative_failures=failures,
        basis=band.basis,
        **worst,
    )


# ---------------------------------------------------------------------------
# flow and envelope runs


def run_flow(config: ExperimentConfig) -> dict:
    config.validate()
    band = config.make_band()
    external = config.make_external()
    trajectory, resolution = _flow(config, config.t_final, band, external)
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
        dt=resolution["dt"],
        resolution={"flow": resolution},
        max_energy_drift=float(drift.max()),
        band_table=band.table_summary(),
    )


def run_envelope(config: ExperimentConfig) -> dict:
    config.validate()
    times = sorted({_tkey(t) for t in config.sample_times} | {_tkey(config.t_final)})
    bundle = prepare_dynamics(config, times)

    u0 = grid_envelope_from_gaussian(
        config.make_gaussian(), config.envelope_half_width, config.envelope_points
    )
    mass0 = u0.mass()
    grids, grid_resolution = _grid_envelopes(config, bundle.coefficients, u0, times)

    rows = []
    for t, u_grid in zip(times, grids):
        _, gauss = bundle.at(t)
        defects = gaussian_invariant_defects(gauss)
        sampled = grid_envelope_from_gaussian(
            gauss, config.envelope_half_width, config.envelope_points
        )
        rows.append(
            {
                "t": t,
                "gaussian_symmetry_defect": defects["symmetry"],
                "gaussian_width_defect": defects["inverse_width"],
                "gaussian_det_branch_defect": defects["det_branch"],
                "gaussian_min_width_eig": defects["min_re_eig"],
                "grid_mass": u_grid.mass(),
                "grid_mass_drift": abs(u_grid.mass() - mass0),
                "grid_boundary_fraction": u_grid.boundary_mass_fraction(),
                "grid_vs_gaussian_l2": u_grid.grid.norm(u_grid.values - sampled.values),
                "sigma1_norm": sigma_norm(u_grid),
            }
        )
    defect_columns = ("gaussian_symmetry_defect", "gaussian_width_defect", "gaussian_det_branch_defect")

    return _write_outputs(
        config,
        "envelope",
        rows[0].keys(),
        rows,
        max_gaussian_defect=max(row[name] for row in rows for name in defect_columns),
        max_grid_mass_drift=max(row["grid_mass_drift"] for row in rows),
        max_grid_vs_gaussian_l2=max(row["grid_vs_gaussian_l2"] for row in rows),
        band_table=bundle.band.table_summary(),
        resolution={**bundle.resolution, "grid_envelope": grid_resolution},
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
        packet = _initial_field(bundle, eps, grid)
        stem = out / f"packet_eps{i}"
        write_field(packet, stem)
        rows.append(
            {
                "epsilon": eps,
                "npoints": grid.npoints,
                "mass": packet.mass(),
                "boundary_fraction": packet.boundary_mass_fraction(),
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
    bundle = prepare_dynamics(config, times)
    rows, boxes = [], []
    for i, eps in enumerate(config.epsilons):
        psi0, snaps, box = _reference_snapshots(bundle, eps, times)
        boxes.append(box)
        mass0 = psi0.mass()
        rows += [
            {"epsilon": eps, "t": t, "mass": snap.mass(), "mass_drift": abs(snap.mass() - mass0)}
            for t, snap in zip(times, snaps)
        ]
        write_field(snaps[-1], out / f"reference_eps{i}")
    return _write_outputs(
        config, "reference", rows[0].keys(), rows, box=boxes,
        max_mass_drift=max(row["mass_drift"] for row in rows),
    )


# ---------------------------------------------------------------------------
# epsilon sweeps: error law, residual law, Ehrenfest horizon


def _cell_times(config: ExperimentConfig, mode: str, eps: float) -> list:
    """Sample times of one error or Ehrenfest cell; the Ehrenfest horizons
    c0 ln(1/eps) follow c0_list."""
    if mode == "ehrenfest":
        return [_tkey(c0 * np.log(1.0 / eps)) for c0 in config.c0_list]
    return sorted({_tkey(t) for t in config.sample_times})


def _error_cell(bundle: DynamicsBundle, eps: float, mode: str) -> tuple:
    """Leading-packet error against the reference at the cell's times, and the
    reference's box record; an Ehrenfest cell labels its rows by c0."""
    config = bundle.config
    times = _cell_times(config, mode, eps)
    solve_times = sorted(set(times))
    psi0, snaps, box = _reference_snapshots(bundle, eps, solve_times)
    by_time = dict(zip(solve_times, snaps))
    labels = config.c0_list if mode == "ehrenfest" else [None] * len(times)
    rows = []
    for c0, t in zip(labels, times):
        packet = _leading_packet(bundle, t, eps, psi0.grid)
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
    return rows, box


def _residual_cell(bundle: DynamicsBundle, eps: float) -> list:
    config = bundle.config
    grid = _make_grid(config, eps)
    t_star = _tkey(config.residual_time)
    band = bundle.band
    row = {"epsilon": eps, "time": t_star, "delta": RESIDUAL_DELTA_FACTOR * eps**2}
    for label, fields in _residual_packets(bundle, eps, grid, t_star).items():
        row[f"residual_{label}"] = pde_residual(*fields, band.potential, bundle.external)
    return [row]


def _needed_times(config: ExperimentConfig, mode: str) -> list:
    if mode == "residual":
        # pad the horizon so the +delta residual snapshot stays inside the
        # trajectory's dense-output range for every epsilon
        pad = RESIDUAL_DELTA_FACTOR * max(config.epsilons) ** 2
        return [_tkey(config.residual_time), _tkey(config.residual_time + 2 * pad)]
    return sorted({t for eps in config.epsilons for t in _cell_times(config, mode, eps)})


def _run_sweep(config: ExperimentConfig, mode: str) -> tuple:
    """Rows and failures for every epsilon, in config order, and the summary's records:
    the step resolutions, the band's basis and, but for residual sweeps, the reference boxes; a cell
    that raises a BlochpacketError is recorded as that cell's failure."""
    bundle = prepare_dynamics(config, _needed_times(config, mode))
    rows, failures, boxes = [], [], []
    for eps in config.epsilons:
        logger.info("%s sweep: epsilon = %g", mode, eps)
        try:
            if mode == "residual":
                rows += _residual_cell(bundle, eps)
            else:
                cell_rows, box = _error_cell(bundle, eps, mode)
                rows += cell_rows
                boxes.append(box)
        except BlochpacketError as exc:
            failures.append({"epsilon": eps, "reason": f"{type(exc).__name__}: {exc}"})
    records = {"resolution": bundle.resolution, "basis": bundle.band.basis}
    return rows, failures, records if mode == "residual" else {**records, "box": boxes}


def run_convergence(config: ExperimentConfig) -> dict:
    config.validate()
    mode = config.convergence_mode
    rows, failures, records = _run_sweep(config, mode)

    def fit(sub, column):
        return loglog_fit([row["epsilon"] for row in sub], [row[column] for row in sub])

    if mode == "error":
        fieldnames = ["epsilon", "time", "error", "reference_mass", "packet_mass"]
        times = sorted({row["time"] for row in rows})
        extra = {"slopes": {f"{t:.6g}": fit([r for r in rows if r["time"] == t], "error") for t in times}}
    else:
        fieldnames = ["epsilon", "time", "delta", "residual_full", "residual_leading"]
        extra = {f"slope_{label}": fit(rows, f"residual_{label}") for label in ("full", "leading")}

    return _write_outputs(
        config,
        "convergence",
        fieldnames,
        rows,
        mode=mode,
        initial_data=config.initial_data,
        failures=failures,
        **records,
        **extra,
    )


def run_ehrenfest(config: ExperimentConfig) -> dict:
    config.validate()
    rows, failures, records = _run_sweep(config, "ehrenfest")

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
        **records,
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
