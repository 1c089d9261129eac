"""Benchmark workloads: seeded pipeline configs and correctness checks.

Each workload is one default pipeline of the package:

- ``error-sweep``: ``run_convergence`` in error mode, eps = 2^-4 .. 2^-7 at
  T = 1, the paper's sqrt(eps) error law. Most of its time is the reference
  split-step solve (the eps = 2^-7 cell above all); the band data enters
  through ``prepare_dynamics``.
- ``residual-sweep``: ``run_convergence`` in residual mode at t = 0.5. It
  synthesizes 24 corrected packets and never runs the reference solver, so
  correctors, packet synthesis and the Bloch cell functions and resolvents
  carry its cost.
- ``envelope-run``: ``run_envelope``, the Gaussian and the 4,000-step grid
  envelope to T = 1. It uses no fine grid; Bloch eigensolves at distinct
  momenta dominate.

Seed 0 is exactly the package defaults. Any other seed moves the launch point
(q0, p0) by a uniform draw of at most Q0_SPREAD and P0_SPREAD, so the same
amount of work is spent on momenta not seen in development. The band is so
flat that q barely moves and p drifts by about -q0 * t; this range keeps p(t)
within [0.14, 0.45] for t <= 1, inside the first Brillouin zone |p| < 0.5.

Trajectories that cross the zone edge meet a sign jump of the pinned gauge,
a known defect: the L2 error is ~1.06 at every eps. ``zone_edge_checks``
runs one such launch point, ZONE_EDGE, with every error-sweep measurement
and reports it apart from the workload's own checks, as a standing failure
until the gauge is fixed.

The stored values in ``expected.json`` apply to seed 0 at full size whatever
the solver settings (dt factors, box widths, splitting), so that a change to
those defaults is still held to them; every seed is also held to the physics
bounds below.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from blochpacket import experiments
from blochpacket.config import ExperimentConfig
from blochpacket.errors import BlochpacketError

Q0_SPREAD = 0.1
P0_SPREAD = 0.05

# Halving the reference dt moves the stored errors by ~2e-5 relative, so this
# admits a more accurate solver and still catches a wrong answer.
STORED_REL_TOL = 1e-3
ERROR_SLOPE_RANGE = (0.35, 0.70)
RESIDUAL_FULL_SLOPE_RANGE = (1.30, 1.70)
RESIDUAL_LEADING_SLOPE_MAX = 1.0
ENVELOPE_L2_MAX = 1e-6
ENVELOPE_DEFECT_MAX = 1e-8
ENVELOPE_MASS_DRIFT_MAX = 1e-12
# Launch point whose momentum crosses the zone edge p = 0.5 before T = 1, run
# at the two largest epsilons with coarse flow and envelope steps. At the
# default launch point these settings give errors of about 0.15 and 0.11; a
# flipped gauge gives ~1.06.
ZONE_EDGE = {
    "kind": "convergence",
    "convergence_mode": "error",
    "q0": (-0.25,),
    "p0": (0.35,),
    "epsilons": (0.0625, 0.03125),
    "flow_dt": 1e-2,
    "envelope_dt": 1e-2,
}
ZONE_EDGE_ERROR_MAX = 0.3

WORKLOADS = {
    "error-sweep": {"kind": "convergence", "convergence_mode": "error"},
    "residual-sweep": {"kind": "convergence", "convergence_mode": "residual"},
    "envelope-run": {"kind": "envelope"},
}

# Small variants for the smoke test only: coarse steps, large epsilons.
TINY = {
    "error-sweep": {"epsilons": (0.25, 0.125, 0.0625), "flow_dt": 1e-2, "envelope_dt": 1e-2},
    "residual-sweep": {"epsilons": (0.25, 0.125, 0.0625), "flow_dt": 1e-2, "envelope_dt": 1e-2},
    "envelope-run": {
        "flow_dt": 1e-2,
        "envelope_dt": 1e-2,
        "grid_envelope_dt": 1e-2,
        "envelope_points": 128,
    },
}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def launch_point(seed: int) -> tuple:
    """(q0, p0) for a seed; seed 0 is the package default."""
    base = ExperimentConfig()
    if seed == 0:
        return base.q0, base.p0
    rng = np.random.default_rng(seed)
    dq = rng.uniform(-Q0_SPREAD, Q0_SPREAD, size=len(base.q0))
    dp = rng.uniform(-P0_SPREAD, P0_SPREAD, size=len(base.p0))
    return tuple(np.add(base.q0, dq)), tuple(np.add(base.p0, dp))


def make_config(workload: str, seed: int, size: str, output_dir) -> ExperimentConfig:
    q0, p0 = launch_point(seed)
    fields = dict(WORKLOADS[workload], q0=q0, p0=p0, output_dir=str(output_dir))
    if size == "tiny":
        fields.update(TINY[workload])
    return ExperimentConfig(**fields).validate()


def run_pipeline(config: ExperimentConfig) -> dict:
    if config.kind == "envelope":
        return experiments.run_envelope(config)
    return experiments.run_convergence(config)


def _read_rows(path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= STORED_REL_TOL * abs(expected)


def _in(value, bounds) -> bool:
    return value is not None and bounds[0] <= value <= bounds[1]


def _stored_checks(workload: str, rows: list, keys) -> list:
    """Each row against the stored seed-0 value; missing rows fail."""
    stored = json.loads(EXPECTED_PATH.read_text()).get(workload, {}).get("rows", [])
    if len(rows) != len(stored) or not stored:
        return [("stored_row_count", False, (len(rows), len(stored)))]
    checks = []
    for row, want in zip(rows, stored):
        eps = want["epsilon"]
        checks.append((f"epsilon@eps={eps}", _close(float(row["epsilon"]), eps), row["epsilon"]))
        for key in keys:
            value = float(row[key])
            checks.append((f"{key}@eps={eps}", _close(value, want[key]), value))
    return checks


def zone_edge_checks(output_dir) -> list:
    """(name, passed, value) for the ZONE_EDGE launch point (known defect)."""
    config = ExperimentConfig(**ZONE_EDGE, output_dir=str(output_dir)).validate()
    try:
        summary = experiments.run_convergence(config)
    except BlochpacketError as exc:
        return [("zone_edge_raised", False, f"{type(exc).__name__}: {exc}")]
    return [("zone_edge_no_failed_cells", not summary["failures"], summary["failures"])] + [
        (f"zone_edge_error@eps={float(r['epsilon']):g}",
         float(r["error"]) <= ZONE_EDGE_ERROR_MAX, float(r["error"]))
        for r in _read_rows(summary["csv"])
    ]


def check(workload: str, seed: int, size: str, config: ExperimentConfig, summary: dict) -> list:
    """(name, passed, value) for every correctness check of one pipeline call.

    Seed 0 at full size is also held to the stored values in expected.json.
    """
    if workload == "envelope-run":
        return [
            ("grid_vs_gaussian_l2", summary["max_grid_vs_gaussian_l2"] <= ENVELOPE_L2_MAX,
             summary["max_grid_vs_gaussian_l2"]),
            ("gaussian_defect", summary["max_gaussian_defect"] <= ENVELOPE_DEFECT_MAX,
             summary["max_gaussian_defect"]),
            ("grid_mass_drift", summary["max_grid_mass_drift"] <= ENVELOPE_MASS_DRIFT_MAX,
             summary["max_grid_mass_drift"]),
        ]

    rows = _read_rows(summary["csv"])
    checks = [("no_failed_cells", not summary["failures"], summary["failures"])]
    if workload == "error-sweep":
        slope = summary["slopes"][f"{config.t_final:.6g}"]["slope"]
        errors = [float(r["error"]) for r in rows]
        checks.append(("error_slope", _in(slope, ERROR_SLOPE_RANGE), slope))
        checks.append(
            ("error_falls_with_eps",
             all(math.isfinite(e) and e > 0 for e in errors)
             and all(b < a for a, b in zip(errors, errors[1:])),
             errors)
        )
        keys = ("error", "reference_mass")
    else:
        full = summary["slope_full"]["slope"]
        leading = summary["slope_leading"]["slope"]
        checks.append(("residual_full_slope", _in(full, RESIDUAL_FULL_SLOPE_RANGE), full))
        checks.append(
            ("residual_leading_slope",
             leading is not None and leading < RESIDUAL_LEADING_SLOPE_MAX, leading)
        )
        checks.append(
            ("correctors_reduce_residual",
             all(float(r["residual_full"]) < float(r["residual_leading"]) for r in rows),
             None)
        )
        keys = ("residual_full", "residual_leading")
    if seed == 0 and size == "full":
        checks += _stored_checks(workload, rows, keys)
    return checks
