import csv
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blochpacket import assembly, experiments
from blochpacket.assembly import make_grid_for, read_field, synthesize_app
from blochpacket.bloch import DIRECT_CACHE_SIZE, BlochBand, cell_inner
from blochpacket.config import ExperimentConfig, ExternalPotentialSpec, LatticePotentialSpec
from blochpacket.envelope import (
    evolve_gaussian,
    evolve_grid_envelope,
    geometric_rate,
    grid_envelope_from_gaussian,
)
from blochpacket.errors import EigensolverError, EnvelopeError, FlowError
from blochpacket.experiments import (
    DynamicsBundle,
    _correctors,
    _grid_envelopes,
    _initial_field,
    _leading_packet,
    _make_grid,
    _needed_times,
    _tkey,
    loglog_fit,
    prepare_dynamics,
    run_bands,
    run_convergence,
    run_ehrenfest,
    run_envelope,
    run_flow,
    run_packet,
    run_reference,
)
from blochpacket.flow import integrate_flow
from blochpacket.grid import SpatialGrid, step_count
from blochpacket.reference import SolverParams, l2_error, solve_schrodinger


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_tkey_rounds_for_dict_lookup():
    assert _tkey(0.1 + 0.2) == _tkey(0.3)
    assert _tkey(1.0000000000001) == _tkey(1.0)
    assert _tkey(0.25) != _tkey(0.26)


def test_loglog_fit_recovers_power_law():
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    vals = 3.7 * eps**1.5
    fit = loglog_fit(eps, vals)
    assert fit["slope"] == pytest.approx(1.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(np.log(3.7), abs=1e-12)
    assert fit["points"] == 4


def test_loglog_fit_needs_three_points():
    fit = loglog_fit([0.1, 0.05], [1.0, np.nan])
    assert fit["slope"] is None
    assert fit["points"] == 1


def test_prepare_dynamics_shares_trajectory():
    cfg = ExperimentConfig(kind="convergence", output_dir="/tmp/unused")
    bundle = prepare_dynamics(cfg, [0.25, 0.5])
    assert isinstance(bundle, DynamicsBundle)
    state, gauss = bundle.at(0.5)
    assert state.t == pytest.approx(0.5)
    assert gauss.t == pytest.approx(0.5)
    # the stored state is the shared trajectory's
    assert np.array_equal(state.p, bundle.trajectory.state_at(0.5).p)
    # times are incremental evolutions of one gaussian, not restarts
    s1, g1 = bundle.at(0.25)
    assert g1.t == pytest.approx(0.25)


def test_run_bands_mathieu(tmp_path):
    cfg = ExperimentConfig(
        kind="bands",
        k_samples=9,
        num_bands=3,
        cutoff=8,
        output_dir=str(tmp_path),
    )
    summary = run_bands(cfg)
    assert summary["derivative_failures"] == []
    assert summary["max_grad_deviation"] < 1e-6
    rows = read_rows(tmp_path / "bands.csv")
    assert len(rows) == 9
    assert {"k_frac", "E_1", "E_2", "E_3", "gap_m"} <= set(rows[0])
    assert all(r["config"] == cfg.config_hash() for r in rows)
    # lowest band of the cosine cell potential stays below the others
    assert all(float(r["E_1"]) < float(r["E_2"]) for r in rows)


def test_run_bands_uniform_gap_positive_for_mathieu(tmp_path):
    cfg = ExperimentConfig(
        kind="bands", k_samples=33, num_bands=4, cutoff=16, output_dir=str(tmp_path)
    )
    assert run_bands(cfg)["uniform_gap"] > 0.4  # first gap of the cos potential is order one
    lone = replace(cfg, num_bands=1, output_dir=str(tmp_path / "lone"))
    assert np.isnan(run_bands(lone)["uniform_gap"])  # no other band to compare against


def test_run_bands_records_degenerate_points(tmp_path, monkeypatch):
    from blochpacket.config import LatticePotentialSpec

    dense, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: dense.append(h.shape) or eigvalsh(h))
    cfg = ExperimentConfig(
        kind="bands",
        lattice_potential=LatticePotentialSpec(type="zero"),
        k_samples=9,
        num_bands=2,
        cutoff=8,
        output_dir=str(tmp_path),
    )
    summary = run_bands(cfg)
    # free lattice: both zone-edge samples are degenerate for the lowest band, and
    # each stacked sample names the node that failed
    assert [f["reason"] for f in summary["derivative_failures"]] == [
        f"band 1 gap 0.000e+00 below 1.0e-08 * 3.600e+01 at k = [{edge}]" for edge in ("-0.5", "0.5")
    ]
    # the spectrum comes from each sample's stacked solve, and from one dense solve only
    # at the two samples whose stack raised; every sample keeps the free bands (k + n)^2 / 2
    assert dense.count((17, 17)) == 2  # the Gaussian check makes its own (1, 1) one
    for row in read_rows(tmp_path / "bands.csv"):
        free = np.sort(0.5 * (float(row["k_frac"]) + np.arange(-8, 9)) ** 2)[:2]
        assert np.allclose([float(row["E_1"]), float(row["E_2"])], free, rtol=0, atol=1e-12)


def test_run_bands_holds_the_band_table_against_direct_solves(tmp_path, monkeypatch):
    from blochpacket.bloch import BlochBand
    from blochpacket.errors import EigensolverError

    cfg = ExperimentConfig(
        kind="bands", k_samples=9, num_bands=3, cutoff=8, output_dir=str(tmp_path)
    )
    assert run_bands(cfg)["max_table_deviation"] < 1e-12
    table_energy = BlochBand.energy
    monkeypatch.setattr(BlochBand, "energy", lambda band, p: table_energy(band, p) + 1e-9)
    with pytest.raises(EigensolverError, match="band table deviates"):
        run_bands(cfg)


@pytest.mark.parametrize("cutoff", [3, 4, 5])
def test_run_bands_in_2d_holds_the_band_table_once_per_bloch_momentum(tmp_path, cutoff):
    # the truncated basis is not symmetric under k -> k + b, so the solve at k = b/2 and
    # the table's value there, read at -b/2, differ (3.3e-4 at cutoff 3); the table is held
    # at -b/2 only; bound set before measuring: the 1D table test's
    cfg = ExperimentConfig(
        kind="bands", dimension=2, q0=(0.0, 0.0), p0=(0.0, 0.0), k_samples=5, num_bands=3,
        cutoff=cutoff, output_dir=str(tmp_path),
    )
    summary = run_bands(cfg)
    assert summary["derivative_failures"] == [] and summary["max_table_deviation"] <= 1e-12


@pytest.mark.parametrize("dimension, cutoff, samples", [(1, 8, 9), (2, 3, 5)], ids=["1d", "2d"])
def test_run_bands_solves_each_sample_in_one_stack(tmp_path, monkeypatch, dimension, cutoff, samples):
    # one band_derivatives call per sample on [k, k + h e_1, k - h e_1, ...] gives the
    # scan of one call per momentum; bound set before measuring: bit for bit
    origin = (0.0,) * dimension
    cfg = ExperimentConfig(
        kind="bands", dimension=dimension, q0=origin, p0=origin, k_samples=samples, num_bands=3,
        cutoff=cutoff, output_dir=str(tmp_path / "stacked"),
    )
    solve, stacks = experiments.band_derivatives, []
    monkeypatch.setattr(experiments, "band_derivatives", lambda *args: stacks.append(np.shape(args[1])) or solve(*args))
    stacked = run_bands(cfg)
    assert stacks == [(1 + 2 * dimension, dimension)] * samples

    def one_call_per_momentum(potential, ks, m, cutoff):
        pairs = [solve(potential, k, m, cutoff) for k in ks]
        return SimpleNamespace(**{name: np.array([getattr(p, name) for p in pairs]) for name in ("energy", "grad", "hess", "evals")})

    monkeypatch.setattr(experiments, "band_derivatives", one_call_per_momentum)
    single = run_bands(replace(cfg, output_dir=str(tmp_path / "single")))
    assert Path(stacked.pop("csv")).read_bytes() == Path(single.pop("csv")).read_bytes()
    assert stacked["derivative_failures"] == [] and stacked == single


def test_run_flow_writes_nodes(tmp_path):
    cfg = ExperimentConfig(
        kind="flow",
        t_final=0.2,
        residual_time=0.2,
        flow_dt=1e-2,
        output_dir=str(tmp_path),
    )
    summary = run_flow(cfg)
    assert summary["max_energy_drift"] < 1e-10
    rows = read_rows(tmp_path / "flow.csv")
    assert len(rows) == 21
    assert list(rows[0]) == ["t", "q_0", "p_0", "S", "energy", "energy_drift", "config"]
    assert float(rows[0]["q_0"]) == pytest.approx(0.0)
    assert float(rows[0]["p_0"]) == pytest.approx(0.3)
    assert float(rows[-1]["t"]) == pytest.approx(0.2)


# band 1 of the amplitude-0.3 cosine in a cosine well from (1, 0.3)
DISPERSIVE = {
    "lattice_potential": LatticePotentialSpec(amplitude=0.3),
    "external": ExternalPotentialSpec(type="cosine-well", amplitude=2.0, frequencies=(1.0,)),
    "q0": (1.0,),
    "p0": (0.3,),
}


def test_default_flow_is_sized_by_step_doubling(tmp_path):
    summary = run_flow(ExperimentConfig(kind="flow", output_dir=str(tmp_path)))
    resolution = summary["resolution"]["flow"]
    assert (resolution["steps"], resolution["dt"], summary["dt"]) == (50, 0.02, 0.02)
    assert resolution["error_estimate"] <= resolution["tol"] == experiments.FLOW_TOL
    assert len(read_rows(summary["csv"])) == 51
    # the finest step the doubling can reach at T = 1
    finest = 1.0 / (step_count(1.0, experiments.FIRST_DT) * 2**experiments.MAX_DOUBLINGS)
    assert finest == pytest.approx(1e-2 / 2**10, rel=1e-15)


@pytest.mark.parametrize("model", [{}, DISPERSIVE], ids=["defaults", "dispersive"])
def test_step_doubling_estimates_hold_against_a_run_ten_times_finer(model):
    # each sized layer against its own integrator at a tenth of the chosen
    # step: the flow read at 777 off-node times through both dense outputs,
    # over q, p and S; the Gaussian over A, B and the geometric phase's
    # integral; the grid envelope in L2. The flow and the Gaussian run to the
    # residual sweep's padded horizon t* + 2 pad = 0.502, whose doubling ladder
    # 13 * 2^k shares no rung with T = 1's, and then to T = 1, where the grid
    # envelope runs too. Bounds set before measuring: each error is within its
    # layer's tolerance; the flow and Gaussian errors are within 10x their
    # estimates plus a 1e-13 rounding floor (a few thousand RK4 steps on O(1)
    # values); the order-2 grid estimate is within 2x its error
    cfg = ExperimentConfig(kind="envelope", **model).validate()
    for times in (_needed_times(cfg, "residual"), [cfg.t_final]):
        horizon = times[-1]
        bundle = prepare_dynamics(cfg, times)
        flow = bundle.resolution["flow"]
        finer = integrate_flow(
            cfg.q0, cfg.p0, horizon, flow["dt"] / 10, bundle.band, bundle.external
        )
        ts = (np.arange(777) + 0.5) * horizon / 777
        got, want = bundle.trajectory.state_at(ts), finer.state_at(ts)
        flow_error = max(np.max(np.abs(got.q - want.q)), np.max(np.abs(got.p - want.p)),
                         np.max(np.abs(got.S - want.S)))
        assert flow_error <= experiments.FLOW_TOL
        assert flow_error <= 10 * flow["error_estimate"] + 1e-13

        gaussian = bundle.resolution["gaussian"]
        got = bundle.at(horizon)[1]
        want = evolve_gaussian(cfg.make_gaussian(), bundle.coefficients, horizon, gaussian["dt"] / 10)
        gaussian_error = max(np.max(np.abs(got.A - want.A)), np.max(np.abs(got.B - want.B)),
                             abs(got.berry_integral - want.berry_integral))
        assert gaussian_error <= experiments.GAUSSIAN_TOL
        assert gaussian_error <= 10 * gaussian["error_estimate"] + 1e-13

    u0 = grid_envelope_from_gaussian(
        cfg.make_gaussian(), cfg.envelope_half_width, cfg.envelope_points
    )
    (u1,), grid = _grid_envelopes(cfg, bundle.coefficients, u0, [cfg.t_final])
    finer = evolve_grid_envelope(u0, bundle.coefficients, cfg.t_final, grid["dt"] / 10)
    grid_error = u1.grid.norm(u1.values - finer.values)
    assert grid_error <= experiments.GRID_ENVELOPE_TOL
    assert 0.5 * grid["error_estimate"] <= grid_error <= 2.0 * grid["error_estimate"]


@pytest.mark.parametrize(
    "tol, layer, error",
    [
        ("FLOW_TOL", "flow", FlowError),
        ("GAUSSIAN_TOL", "gaussian", EnvelopeError),
        ("GRID_ENVELOPE_TOL", "grid_envelope", EnvelopeError),
    ],
)
def test_step_doubling_stops_loudly_at_its_cap(tmp_path, monkeypatch, tol, layer, error):
    # a tolerance no run meets: MAX_DOUBLINGS doublings from the first step
    # count on T = 0.02, then the typed error names the layer, tolerance and field
    monkeypatch.setattr(experiments, tol, 0.0)
    cfg = ExperimentConfig(kind="envelope", t_final=0.02, output_dir=str(tmp_path))
    steps = step_count(0.02, experiments.FIRST_DT) * 2**experiments.MAX_DOUBLINGS
    field = {"gaussian": "envelope"}.get(layer, layer) + "_dt"
    with pytest.raises(error, match=rf"^{layer}: estimate \S+ > tol 0e\+00 at {steps} steps; "
                                    rf"set {field}$"):
        run_envelope(cfg)


def test_chained_layers_halve_their_longest_segment_in_the_first_pair(tmp_path):
    # sample times 0.01 apart, each under half of FIRST_DT: were the first trial
    # step FIRST_DT, every segment would take one step in both runs of the first
    # pair, and the Gaussian and grid estimates would read an exact 0. Each
    # chained layer starts at its longest segment instead, so the estimate is
    # positive and the kept step is at most half a segment
    times = tuple(round(0.01 * i, 2) for i in range(1, 21))
    cfg = ExperimentConfig(kind="envelope", t_final=0.2, sample_times=times, output_dir=str(tmp_path))
    resolution = run_envelope(cfg)["resolution"]
    for layer in ("gaussian", "grid_envelope"):
        assert 0.0 < resolution[layer]["error_estimate"] <= resolution[layer]["tol"]
        assert resolution[layer]["dt"] <= 0.005


def test_explicit_steps_run_the_integrators_unchanged():
    cfg = ExperimentConfig(
        kind="envelope", t_final=0.5, sample_times=(0.2, 0.5), flow_dt=0.01, envelope_dt=0.02,
        grid_envelope_dt=0.005,
    ).validate()
    bundle = prepare_dynamics(cfg, [0.2, 0.5])
    band = cfg.make_band()
    direct = integrate_flow(cfg.q0, cfg.p0, 0.5, 0.01, band, cfg.make_external())
    assert np.array_equal(bundle.trajectory.states, direct.states)
    assert np.array_equal(bundle.trajectory.derivs, direct.derivs)
    assert bundle.resolution == {
        "flow": {"fixed": True, "dt": 0.01}, "gaussian": {"fixed": True, "dt": 0.02}
    }
    # a fixed envelope_dt chains the Gaussian from stop to stop at that step, bit for bit
    gauss = cfg.make_gaussian()
    for t in (0.2, 0.5):
        gauss = evolve_gaussian(gauss, bundle.coefficients, t, 0.02)
        got = bundle.at(t)[1]
        assert np.array_equal(got.A, gauss.A) and np.array_equal(got.B, gauss.B)
        assert (got.log_det, got.berry_integral, got.t) == (gauss.log_det, gauss.berry_integral, t)

    u0 = grid_envelope_from_gaussian(
        cfg.make_gaussian(), cfg.envelope_half_width, cfg.envelope_points
    )
    grids, resolution = _grid_envelopes(cfg, bundle.coefficients, u0, [0.2, 0.5])
    u = evolve_grid_envelope(u0, bundle.coefficients, 0.2, 0.005)
    assert np.array_equal(grids[0].values, u.values)
    u = evolve_grid_envelope(u, bundle.coefficients, 0.5, 0.005)
    assert np.array_equal(grids[1].values, u.values)
    assert resolution == {"fixed": True, "dt": 0.005}


def test_flow_and_envelope_summaries_carry_the_band_table(tmp_path):
    keys = {"basis", "patches", "node_solves", "max_tail", "min_gap"}
    cfg = ExperimentConfig(kind="flow", output_dir=str(tmp_path / "flow"))
    summary = run_flow(cfg)
    table = summary["band_table"]
    assert set(table) == keys
    # the same flow again at the step the run chose, to read the patches the summary counted
    band = cfg.make_band()
    integrate_flow(cfg.q0, cfg.p0, cfg.t_final, summary["dt"], band, cfg.make_external())
    assert band.table_summary() == table
    assert table["node_solves"] == sum(p.nodes**cfg.dimension for p in band.patches.values())
    assert table["max_tail"] <= 1e-12 and table["min_gap"] > 0.5
    short = replace(
        cfg, kind="envelope", t_final=0.2, residual_time=0.2, sample_times=(0.2,),
        output_dir=str(tmp_path / "env"),
    )
    assert set(run_envelope(short)["band_table"]) == keys


def test_envelope_run_in_a_cosine_well(tmp_path):
    # a non-quadratic external potential: Q(t) = a w^2 cos(w q(t)) moves
    # along the flow and reaches both propagators through the batched
    # Hessian; bounds as for the default envelope run
    cfg = ExperimentConfig.from_file(CONFIGS / "envelope_cosine_well.json")
    cfg = replace(cfg, output_dir=str(tmp_path))
    summary = run_envelope(cfg)
    assert summary["max_grid_vs_gaussian_l2"] <= 1e-6
    assert summary["max_grid_mass_drift"] <= 1e-12
    assert summary["max_gaussian_defect"] <= 1e-8
    bundle = prepare_dynamics(cfg, [cfg.t_final])
    ts = np.linspace(0.0, cfg.t_final, 5)
    q = bundle.trajectory.state_at(ts).q[:, 0]
    assert np.allclose(bundle.coefficients.vhess(ts)[:, 0, 0], np.cos(q), rtol=0, atol=1e-15)
    assert np.ptp(q) > 1e-3


def test_run_convergence_error_mode(tmp_path):
    cfg = ExperimentConfig(
        kind="convergence",
        epsilons=(2**-4, 2**-5, 2**-6),
        output_dir=str(tmp_path),
    )
    summary = run_convergence(cfg)
    assert summary["failures"] == []
    assert summary["resolution"]["flow"]["error_estimate"] <= experiments.FLOW_TOL
    slope = summary["slopes"]["1"]["slope"]
    assert 0.35 < slope < 0.7
    rows = read_rows(tmp_path / "convergence.csv")
    assert len(rows) == 3
    errs = [float(r["error"]) for r in rows]
    assert errs == sorted(errs, reverse=True)
    # the default error sweep's first two errors; benchmark/expected.json
    # stores those of the older dt = eps/100 Fourier split step, 2.4e-5 and
    # 1.9e-5 relative away
    assert errs[:2] == pytest.approx([0.14737107658055268, 0.11157796308041386], rel=1e-9)
    # summary JSON is also on disk
    with open(tmp_path / "convergence_summary.json") as fh:
        disk = json.load(fh)
    assert disk["slopes"]["1"]["slope"] == pytest.approx(slope)


def test_error_law_on_a_dispersive_band(tmp_path, monkeypatch):
    # band 1 of the amplitude-0.3 cosine in a cosine well from (1, 0.3): the
    # flow crosses the zone edge and the band table builds all of its
    # patches; the theorem's O(sqrt eps) fixed the bounds before measuring
    bundles = []

    def recorded(*args):
        bundles.append(prepare_dynamics(*args))
        return bundles[-1]

    monkeypatch.setattr(experiments, "prepare_dynamics", recorded)
    summary = run_convergence(ExperimentConfig(
        **DISPERSIVE, t_final=2.0, sample_times=(1.0, 2.0), output_dir=str(tmp_path)
    ))
    assert summary["failures"] == []
    assert bundles[0].band.table_summary()["patches"] == 8
    rows = read_rows(summary["csv"])
    for t, bound in (("1", 2.0), ("2", 3.0)):
        assert summary["slopes"][t]["slope"] >= 0.35
        cells = [r for r in rows if float(r["time"]) == float(t)]
        assert len(cells) == 4
        assert all(float(r["error"]) <= bound * np.sqrt(float(r["epsilon"])) for r in cells)


def test_residual_law_with_nonzero_geometric_phase(capsys, tmp_path):
    # cos y + 0.4 sin 2y launched from q0 = 1: the geometric rate at the
    # residual time is 0.0625i, where the unit cosine gives exactly 0
    tilted = LatticePotentialSpec(
        type="fourier",
        coeffs=(((1,), 0.5, 0.0), ((-1,), 0.5, 0.0), ((2,), 0.0, -0.2), ((-2,), 0.0, 0.2)),
    )
    cfg = ExperimentConfig(
        kind="convergence",
        convergence_mode="residual",
        lattice_potential=tilted,
        q0=(1.0,),
        epsilons=(2**-4, 2**-5, 2**-6),
        output_dir=str(tmp_path),
    ).validate()
    bundle = prepare_dynamics(cfg, [cfg.residual_time])
    state, _ = bundle.at(cfg.residual_time)
    beta = abs(geometric_rate(bundle.band, bundle.external, state))

    summary = run_convergence(cfg)
    rows = read_rows(summary["csv"])
    below = all(float(r["residual_full"]) < float(r["residual_leading"]) for r in rows)
    slope_full = summary["slope_full"]["slope"]
    slope_leading = summary["slope_leading"]["slope"]
    ok = beta > 1e-2 and 1.3 <= slope_full <= 1.7 and slope_leading < 1.0 and below
    with capsys.disabled():
        print(
            f"residual law with geometric phase at t=0.5: |beta|={beta:.4f} > 1e-2, "
            f"slope={slope_full:.4f} target [1.30, 1.70], ablated slope={slope_leading:.4f} < 1, "
            f"full < leading at every eps: {below} -> {'PASS' if ok else 'FAIL'}"
        )
    assert beta > 1e-2
    assert 1.3 <= slope_full <= 1.7
    assert slope_leading < 1.0
    assert below


def test_residual_sweep_on_the_delta_bound_fails_no_cell(tmp_path):
    # at eps = 0.4, delta = 0.25 eps^2 is exactly RESIDUAL_DELTA_LIMIT * eps,
    # and delta rebuilt from the snapshot times rounds to just above it
    assert (0.5 + 0.25 * 0.4**2) - 0.5 > 0.1 * 0.4
    cfg = ExperimentConfig(
        kind="convergence",
        convergence_mode="residual",
        epsilons=(0.4, 0.2, 0.1),
        flow_dt=0.01,
        envelope_dt=0.01,
        output_dir=str(tmp_path),
    )
    assert run_convergence(cfg)["failures"] == []


def test_residual_sweep_solves_each_momentum_once(monkeypatch):
    # t_star and t_star +- delta at the four default eps: 9 distinct momenta,
    # each solved once and all kept by the band's direct cache; every
    # eigensolve is a band-table node or one of those 9
    config = ExperimentConfig(convergence_mode="residual").validate()
    config.make_band().eigenpair(config.p0)  # the anchor point is found once per process
    bundles, calls = [], []
    prepare, eigh = experiments.prepare_dynamics, np.linalg.eigh
    monkeypatch.setattr(
        experiments, "prepare_dynamics", lambda *args: bundles.append(prepare(*args)) or bundles[0]
    )
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    experiments._run_sweep(config, "residual")
    band = bundles[0].band
    info = band._direct.cache_info()
    assert info.misses == info.currsize == 9 < DIRECT_CACHE_SIZE
    # matrices, not calls: a band-table patch passes its nodes to eigh as one stack
    assert sum(h.size // h.shape[-1] ** 2 for h in calls) == band.node_solves + info.misses


def test_residual_sweep_does_each_piece_of_work_once(monkeypatch):
    # two eps: U2 at t* once for the sweep and at t* +- delta once per eps,
    # one interpolation per snapshot, and the leading packet of each
    # snapshot's shared synthesis against a synthesis of [U0] alone. Bound,
    # set before measuring: 1e-13 relative L2, the rounding of a batched
    # cell-function product; the full packet is synthesize_app's bit for bit.
    config = ExperimentConfig(convergence_mode="residual", epsilons=(2**-4, 2**-5)).validate()
    counts, snapshots = {"build_U2": 0, "fourier_interpolate": 0}, []
    for module, name in ((experiments, "build_U2"), (assembly, "fourier_interpolate")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    shared = experiments.synthesize_snapshot
    monkeypatch.setattr(
        experiments, "synthesize_snapshot",
        lambda *args: snapshots.append((args, shared(*args))) or snapshots[-1][1],
    )
    rows, failures, _ = experiments._run_sweep(config, "residual")
    n_eps = len(config.epsilons)
    assert len(rows) == n_eps and failures == []
    assert counts == {"build_U2": 1 + 2 * n_eps, "fourier_interpolate": 3 * n_eps}
    assert len(snapshots) == 3 * n_eps
    for (fields, state, eps, grid), (full, leading) in snapshots:
        alone = synthesize_app(fields[:1], state, eps, grid)
        dev = np.linalg.norm(leading.values - alone.values) / np.linalg.norm(alone.values)
        assert dev <= 1e-13
        assert np.array_equal(full.values, synthesize_app(fields, state, eps, grid).values)


def test_a_failed_t_star_build_fails_every_residual_cell(monkeypatch):
    # the t* correctors are built once per sweep; their failure is still
    # recorded once per eps, with the build tried once
    config = ExperimentConfig(convergence_mode="residual", epsilons=(2**-4, 2**-5)).validate()
    t_star, tried = _tkey(config.residual_time), []
    build = experiments.build_U2

    def failing(gauss, grid, state, pair, external):
        if _tkey(state.t) == t_star:
            tried.append(state.t)
            raise EigensolverError("no U2 at t*")
        return build(gauss, grid, state, pair, external)

    monkeypatch.setattr(experiments, "build_U2", failing)
    rows, failures, _ = experiments._run_sweep(config, "residual")
    assert rows == [] and len(tried) == 1
    assert failures == [
        {"epsilon": eps, "reason": "EigensolverError: no U2 at t*"} for eps in config.epsilons
    ]


# recorded values of the pipelines that the acceptance gate does not run
PIN_REL = 1e-9


@pytest.mark.parametrize(
    "initial_data, masses",
    [
        ("packet", (0.5237827430994135, 0.5309923827940729)),
        ("well_prepared", (0.5247372390011473, 0.5334415469326511)),
    ],
)
def test_run_packet_masses(tmp_path, initial_data, masses):
    cfg = ExperimentConfig(
        kind="packet",
        epsilons=(2**-4, 2**-5),
        initial_data=initial_data,
        output_dir=str(tmp_path),
    ).validate()
    summary = run_packet(cfg)
    assert summary["initial_data"] == initial_data
    rows = read_rows(summary["csv"])
    assert [float(r["mass"]) for r in rows] == pytest.approx(masses, rel=PIN_REL)
    field = read_field(tmp_path / rows[-1]["stem"])
    assert field.epsilon == 2**-5
    assert field.mass() == pytest.approx(masses[-1], rel=PIN_REL)


def test_run_convergence_well_prepared(tmp_path):
    cfg = ExperimentConfig(
        kind="convergence",
        initial_data="well_prepared",
        epsilons=(2**-4, 2**-5, 2**-6),
        flow_dt=1e-2,
        envelope_dt=1e-2,
        output_dir=str(tmp_path),
    ).validate()
    summary = run_convergence(cfg)
    assert summary["failures"] == []
    assert summary["resolution"] == {
        "flow": {"fixed": True, "dt": 1e-2}, "gaussian": {"fixed": True, "dt": 1e-2}
    }
    errors = [float(r["error"]) for r in read_rows(summary["csv"])]
    want = (0.10561087187891074, 0.07057215794748392, 0.051258429214448516)
    assert errors == pytest.approx(want, rel=PIN_REL)


def test_run_ehrenfest_labels_rows_by_c0(tmp_path):
    cfg = ExperimentConfig(
        kind="ehrenfest",
        epsilons=(2**-4, 2**-5),
        c0_list=(0.1, 0.2),
        output_dir=str(tmp_path),
    ).validate()
    summary = run_ehrenfest(cfg)
    assert summary["failures"] == []
    assert summary["resolution"]["flow"]["error_estimate"] <= experiments.FLOW_TOL
    rows = read_rows(summary["csv"])
    assert list(rows[0]) == ["epsilon", "c0", "time", "error", "config"]
    assert [(float(r["epsilon"]), float(r["c0"])) for r in rows] == [
        (2**-4, 0.1), (2**-4, 0.2), (2**-5, 0.1), (2**-5, 0.2)
    ]
    for r in rows:
        horizon = float(r["c0"]) * np.log(1.0 / float(r["epsilon"]))
        assert float(r["time"]) == pytest.approx(horizon)
    want = (0.131319256314022, 0.12383698189220885, 0.09925699410835395, 0.04216012709460421)
    assert [float(r["error"]) for r in rows] == pytest.approx(want, rel=PIN_REL)
    assert summary["horizons"]["0.1"]["errors"] == pytest.approx(want[0::2], rel=PIN_REL)


def test_run_reference_conserves_mass(tmp_path):
    cfg = ExperimentConfig(
        kind="reference", epsilons=(2**-4,), output_dir=str(tmp_path)
    ).validate()
    summary = run_reference(cfg)
    assert summary["max_mass_drift"] <= 1e-12
    assert read_field(tmp_path / "reference_eps0").time == pytest.approx(cfg.t_final)


# Launch point whose momentum crosses the zone edge p = 0.5 before T = 1, at
# the two largest epsilons with coarse flow and envelope steps. The default
# launch point gives errors of about 0.15 and 0.11 at these settings; a cell
# function whose phase jumps at the edge gives about 1.06.
ZONE_EDGE = {
    "kind": "convergence",
    "convergence_mode": "error",
    "q0": (-0.25,),
    "p0": (0.35,),
    "epsilons": (0.0625, 0.03125),
    "flow_dt": 1e-2,
    "envelope_dt": 1e-2,
}


def test_zone_edge_launch_keeps_the_error_law(tmp_path):
    summary = run_convergence(ExperimentConfig(**ZONE_EDGE, output_dir=str(tmp_path)))
    assert not summary["failures"]
    errors = [float(r["error"]) for r in read_rows(summary["csv"])]
    assert len(errors) == 2
    assert max(errors) <= 0.3


# Sized reference boxes against the fixed [-2 pi, 2 pi) box, the default
# before boxes were sized. The bound was set before measuring; the largest
# change measured on these runs is 2e-13.
BOX_REL = 1e-9
BOX_RUNS = {
    "convergence_error": ExperimentConfig.from_file(CONFIGS / "convergence_error.json"),
    "ehrenfest": ExperimentConfig.from_file(CONFIGS / "ehrenfest.json"),
    "zone_edge": ExperimentConfig.from_file(CONFIGS / "zone_edge.json"),
    "dispersive": ExperimentConfig(**DISPERSIVE, epsilons=(2**-4, 2**-5, 2**-6, 2**-7)),
}


def _sweep(config, out, **changes):
    summary = experiments.RUNNERS[config.kind](replace(config, output_dir=str(out), **changes))
    assert summary.get("failures", []) == []
    return summary, read_rows(summary["csv"])


@pytest.mark.parametrize("name", BOX_RUNS)
def test_sized_box_matches_the_fixed_two_pi_box(tmp_path, name):
    config = BOX_RUNS[name]
    sized, rows = _sweep(config, tmp_path / "sized")
    fixed, fixed_rows = _sweep(config, tmp_path / "fixed", half_width=2 * np.pi)
    assert len(rows) == len(fixed_rows) > 0
    keys = ["error", "reference_mass"] if "reference_mass" in rows[0] else ["error"]
    for row, want in zip(rows, fixed_rows):
        for key in keys:
            assert float(row[key]) == pytest.approx(float(want[key]), rel=BOX_REL, abs=0)
    boxes = {box["epsilon"]: box for box in sized["box"]}
    assert list(boxes) == list(config.epsilons)
    for eps, box in boxes.items():
        assert "fixed" not in box and box["doublings"] == 0
        assert box["boundary_fraction"] <= 1e-8
        assert box["cells"] * np.pi * eps == pytest.approx(box["half_width"], rel=1e-12)
        # a power-of-two cell count covering the three terms, and no more than twice it
        assert box["flow"] + box["cone"] + box["envelope"] <= box["half_width"]
        assert box["half_width"] < 2 * (box["flow"] + box["cone"] + box["envelope"])
    assert all(box == {**box, "fixed": True, "half_width": 2 * np.pi} for box in fixed["box"])
    if name == "convergence_error":
        assert [boxes[eps]["half_width"] for eps in (2**-6, 2**-7)] == [np.pi, np.pi]
    if name == "dispersive":
        # the guard trips at half-width pi at 2^-4 (shell fraction 1.0e-8),
        # so the rule must choose 2 pi there
        assert boxes[2**-4]["half_width"] == 2 * np.pi
        tripped = run_convergence(replace(
            config, epsilons=(2**-4,), half_width=np.pi, output_dir=str(tmp_path / "pi")
        ))
        assert "reached the box boundary" in tripped["failures"][0]["reason"]


def test_a_sized_box_that_trips_the_guard_doubles(tmp_path):
    # at 2^-8 the defaults size to pi / 2, where the mass of band 5, at speed
    # 2.25, reaches the shell near t = 0.63; the box doubles to pi
    config = ExperimentConfig(epsilons=(2**-8,))
    summary, rows = _sweep(config, tmp_path / "sized")
    (box,) = summary["box"]
    assert box["flow"] + box["cone"] + box["envelope"] <= np.pi / 2
    assert (box["half_width"], box["doublings"]) == (np.pi, 1)
    assert box["boundary_fraction"] <= 1e-8
    _, fixed_rows = _sweep(config, tmp_path / "fixed", half_width=np.pi)
    assert rows[0]["error"] == fixed_rows[0]["error"]


def test_an_explicit_half_width_keeps_the_fixed_box_bit_for_bit(tmp_path):
    # half_width = 2 pi is the default before boxes were sized: the same grid
    # and the same numbers as the reference solve built on make_grid_for's
    # default box, as every error cell was before
    config = ExperimentConfig(epsilons=(2**-4, 2**-5), half_width=2 * np.pi)
    summary, rows = _sweep(config, tmp_path / "error")
    bundle = prepare_dynamics(config, [0.0, 1.0])
    band = bundle.band
    for row, box, eps in zip(rows, summary["box"], config.epsilons):
        grid = make_grid_for(eps)
        assert grid == SpatialGrid(1, 2 * np.pi, int(32 / eps)) == _make_grid(config, eps)
        assert box == {"epsilon": eps, "fixed": True, "half_width": 2 * np.pi, "doublings": 0,
                       "cells": int(2 / eps), "boundary_fraction": box["boundary_fraction"]}
        psi0 = _leading_packet(bundle, 0.0, eps, grid)
        (snap,) = solve_schrodinger(psi0, band.potential, bundle.external, [1.0], SolverParams(dt=eps))
        assert float(row["error"]) == l2_error(snap, _leading_packet(bundle, 1.0, eps, grid))
        assert float(row["reference_mass"]) == snap.mass()
    # residual and packet runs keep the 2 pi box with half_width unset
    for kind, mode in (("convergence", "residual"), ("packet", "error")):
        unset = ExperimentConfig(kind=kind, convergence_mode=mode, epsilons=(2**-4, 2**-5))
        _, got = _sweep(unset, tmp_path / f"{kind}_unset")
        _, want = _sweep(unset, tmp_path / f"{kind}_fixed", half_width=2 * np.pi)
        drop = {"config", "stem"}
        assert [{k: v for k, v in r.items() if k not in drop} for r in got] == [
            {k: v for k, v in r.items() if k not in drop} for r in want]


@pytest.mark.parametrize(
    "band_index, q0, p0",
    [
        (1, -0.25, 0.35),  # p(1) = 0.598: crosses the zone edge
        (2, 0.3, 0.1),  # crosses k = 0 on the second band
    ],
)
def test_geometric_factor_matches_discrete_transport(tmp_path, band_index, q0, p0):
    # chi(p0) carried along the flow nodes by discrete overlap transport must
    # equal chi(p(1)) times the envelope's geometric factor exp(berry_integral)
    cfg = ExperimentConfig(
        band_index=band_index, q0=(q0,), p0=(p0,), output_dir=str(tmp_path)
    ).validate()
    bundle = prepare_dynamics(cfg, [1.0])
    band, trajectory = bundle.band, bundle.trajectory
    carried = band.eigenpair(trajectory.state_at(0.0).p).coeffs
    for i in range(1, len(trajectory.ts)):
        nxt = band.eigenpair(trajectory.state_at(trajectory.ts[i]).p).coeffs
        link = cell_inner(band.dimension, carried, nxt)
        carried = nxt * np.conj(link) / abs(link)
    state, gauss = bundle.at(1.0)
    chi = band.eigenpair(state.p).coeffs
    overlap = cell_inner(band.dimension, carried, chi * np.exp(gauss.berry_integral))
    assert abs(1.0 - abs(overlap)) <= 1e-9
    assert abs(np.angle(overlap)) <= 1e-9


# cos y + 0.4 sin 2y: its lowest band has no reflection symmetry, so its
# Zak phase, 2.8470635824 (Zak, Phys. Rev. Lett. 62, 2747 (1989)), is not a
# multiple of pi and fixes the sign of the geometric factor
TILTED = LatticePotentialSpec(
    type="fourier",
    coeffs=(((1,), 0.5, 0.0), ((-1,), 0.5, 0.0), ((2,), 0.0, -0.2), ((-2,), 0.0, 0.2)),
)


@pytest.mark.parametrize(
    "lattice_potential, zak_phase, tol",
    [
        (LatticePotentialSpec(), np.pi, 1e-10),
        (TILTED, 2.8470635824, 1e-9),
    ],
    ids=["cosine", "tilted"],
)
def test_bloch_oscillation_closes_the_flow_and_the_gaussian(lattice_potential, zak_phase, tol):
    # V = F x with F = 1: over one period 1/F the momentum sweeps one zone,
    # so q, A and B come back (Q = 0 and the band data are periodic) and the
    # Gaussian picks up exactly -i times the Zak phase
    cfg = replace(
        ExperimentConfig.from_file(CONFIGS / "bloch_oscillation.json"),
        lattice_potential=lattice_potential,
    ).validate()
    bundle = prepare_dynamics(cfg, [1.0])
    state0, gauss0 = bundle.at(0.0)
    state1, gauss1 = bundle.at(1.0)
    assert abs(state1.q[0] - state0.q[0]) <= 1e-12
    assert abs(state1.p[0] - (state0.p[0] - 1.0)) <= 1e-12
    assert np.max(np.abs(gauss1.A - gauss0.A)) <= 1e-12
    assert np.array_equal(gauss1.B, gauss0.B)
    assert abs(gauss1.berry_integral - (-1j * zak_phase)) <= tol


def _theta(k):
    """Smooth, non-periodic re-gauging phase of the gauge covariance test."""
    return 0.7 * np.sin(2 * np.pi * k) + 0.3 * k


def _dtheta(k):
    return 1.4 * np.pi * np.cos(2 * np.pi * k) + 0.3


class RegaugedBand(BlochBand):
    """A 1D band whose cell function is exp(i theta(k)) chi(k): coefficients,
    their k-derivative and the connection (table and direct alike) follow."""

    def eigenpair(self, p):
        pair = super().eigenpair(p)
        k = pair.k[0]
        phase = np.exp(1j * _theta(k))
        dk = pair.dk_coeffs + 1j * _dtheta(k) * pair.coeffs
        return replace(
            pair, coeffs=phase * pair.coeffs, dk_coeffs=phase * dk, berry=pair.berry + 1j * _dtheta(k)
        )

    def hess_and_berry(self, p):  # `berry` reads the connection through it
        hess, berry = super().hess_and_berry(p)
        return hess, berry + 1j * _dtheta(np.asarray(p, dtype=float))


def test_packets_are_gauge_covariant(monkeypatch):
    # re-gauging chi multiplies every packet by the launch phase
    # exp(i theta(p0)): the connection's extra i theta' cancels the cell
    # function's phase along the path. From (0.5, 0.3) p sweeps about half the
    # zone by T = 1. Bound, set before measuring: 1e-12 relative L2.
    cfg = ExperimentConfig(q0=(0.5,), p0=(0.3,)).validate()
    times = [0.0, 0.5, 1.0]
    plain = prepare_dynamics(cfg, times)
    monkeypatch.setattr(
        ExperimentConfig, "make_band",
        lambda self: RegaugedBand(self.make_lattice_potential(), self.band_index, self.cutoff),
    )
    regauged = prepare_dynamics(cfg, times)
    assert abs(regauged.trajectory.state_at(1.0).p[0] - 0.3) >= 0.4

    def packets(bundle, t, eps, grid):
        if t == 0.0:  # the initial data of both kinds
            return [
                _initial_field(replace(bundle, config=replace(cfg, initial_data=kind)), eps, grid)
                for kind in ("packet", "well_prepared")
            ]
        state, fields = _correctors(bundle, t)
        return [_leading_packet(bundle, t, eps, grid), synthesize_app(fields, state, eps, grid)]

    phase = np.exp(1j * _theta(0.3))
    worst = 0.0
    for eps in (2.0**-4, 2.0**-6):
        grid = _make_grid(cfg, eps)
        for t in times:
            for want, got in zip(packets(plain, t, eps, grid), packets(regauged, t, eps, grid)):
                dev = np.linalg.norm(got.values - phase * want.values) / np.linalg.norm(want.values)
                worst = max(worst, dev)
    assert worst <= 1e-12


def test_a_layer_read_only_at_t0_is_not_refined(monkeypatch):
    # run_packet reads only t = 0: the Gaussian is the initial one and is not
    # sized by empty runs; the flow keeps its FIRST_DT window, since state_at(0)
    # needs two nodes
    calls = []
    evolve = experiments.evolve_gaussian
    monkeypatch.setattr(experiments, "evolve_gaussian", lambda *args: calls.append(args) or evolve(*args))
    config = ExperimentConfig(kind="packet").validate()
    bundle = prepare_dynamics(config, [0.0])
    assert calls == []
    assert bundle.resolution["gaussian"] == {"steps": 0, "span": 0.0}
    gauss, initial = bundle.at(0.0)[1], config.make_gaussian()
    assert gauss.t == 0.0 and np.array_equal(gauss.A, initial.A) and np.array_equal(gauss.B, initial.B)
    flow = bundle.resolution["flow"]
    assert flow["steps"] * flow["dt"] == pytest.approx(experiments.FIRST_DT)
