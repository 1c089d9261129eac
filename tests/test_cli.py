import json
import logging
from pathlib import Path

import pytest

from blochpacket import bloch, experiments
from blochpacket.bloch import MAX_PLANE_WAVES
from blochpacket.cli import build_parser, main
from blochpacket.config import EXPERIMENT_KINDS, ExperimentConfig
from blochpacket.experiments import RUNNERS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in EXPERIMENT_KINDS:
        assert name in out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["flow", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_invalid_config_value_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"t_final": -3.0}))
    code = main(["flow", "--config", str(path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "t_final" in err["message"]


def test_gauge_failure_exits_one(tmp_path, capsys, monkeypatch):
    # an anchor floor no Bloch wave reaches fails the first band-table node
    monkeypatch.setattr(bloch, "ANCHOR_FLOOR", 10.0)
    code = main(["flow", "--out", str(tmp_path / "flow")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GaugeError"
    assert "below 1e+01 at k = " in err["message"]


def test_unmet_step_tolerance_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "FLOW_TOL", 0.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"t_final": 0.02}))
    code = main(["flow", "--config", str(path), "--out", str(tmp_path / "flow")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FlowError"
    assert err["message"].startswith("flow: estimate ")
    assert err["message"].endswith("steps; set flow_dt")


@pytest.mark.parametrize(
    "command, data, named",
    [
        ("flow", {"cutoff": 0}, "cutoff"),
        ("bands", {"num_bands": 80, "cutoff": 2}, "num_bands"),
        ("convergence", {"convergence_mode": "residual", "t_final": 0.3}, "residual_time"),
        ("bands", {"band_index": 9, "num_bands": 8}, "num_bands"),
        # the model constructors' own checks surface as config problems
        (
            "flow",
            {"lattice_potential": {"type": "fourier", "coeffs": [[[1], 0.5, 0.0]]}},
            "lattice_potential",
        ),
        ("flow", {"external": {"type": "cosine-well", "amplitude": -1.0}}, "external"),
        ("flow", {"external": {"type": "cosine-well", "frequencies": [0.0]}}, "external"),
        (
            "flow",
            {
                "dimension": 2,
                "q0": [0.0, 0.0],
                "p0": [0.3, 0.0],
                "external": {"hessian": [[1.0, 0.3], [0.0, 1.0]]},
            },
            "external",
        ),
        ("flow", {"envelope_a": [[1.0]], "envelope_b": [[-1.0]]}, "envelope_b"),
        ("ehrenfest", {"c0_list": [-0.1]}, "c0_list"),
        # residual cells that would each fail at run time
        (
            "convergence",
            {"convergence_mode": "residual", "epsilons": [0.5, 0.25]},
            "epsilons",
        ),
        (
            "convergence",
            {
                "convergence_mode": "residual",
                "residual_time": 0.01,
                "epsilons": [0.25, 0.125, 0.0625],
            },
            "residual_time",
        ),
        # a field the chosen type does not read would change the hash, not the model
        ("flow", {"external": {"type": "quadratic", "frequencies": [3.0]}}, "does not read"),
        # retired keys: a period-L lattice is the 2 pi lattice at a rescaled eps, and a
        # constant in V is a global phase; the grid density and the two step factors
        # are the package constants
        ("flow", {"lattice_period": 3.0}, "lattice_period"),
        ("flow", {"points_per_period": 32}, "points_per_period"),
        ("convergence", {"reference_dt_factor": 0.5}, "reference_dt_factor"),
        ("convergence", {"residual_delta_factor": 0.1}, "residual_delta_factor"),
        ("flow", {"external": {"constant": 1.0}}, "constant"),
        # JSON admits NaN and Infinity, and no model check is sure to see them
        ("flow", {"t_final": float("inf")}, "t_final"),
        ("flow", {"lattice_potential": {"amplitude": float("nan")}}, "amplitude"),
        ("flow", {"q0": [float("nan")]}, "q0"),
        ("flow", {"envelope_half_width": float("nan")}, "envelope_half_width"),
        # an unset cutoff is sized in the run, up to MAX_PLANE_WAVES plane waves
        ("flow", {"band_index": MAX_PLANE_WAVES + 1}, "band_index"),
        ("bands", {"num_bands": MAX_PLANE_WAVES + 1}, "num_bands"),
        # every other rejection names its key too
        ("flow", {"band_index": 0}, "band_index is 1-based"),
        ("flow", {"initial_data": "plane_wave"}, "initial_data 'plane_wave' is not one of"),
        ("flow", {"epsilons": []}, "epsilons needs at least one value"),
        ("flow", {"epsilons": [1.5]}, "every value of epsilons must lie in (0, 1)"),
        ("flow", {"convergence_mode": "exact"}, "convergence_mode 'exact' is not one of"),
        ("flow", {"sample_times": [2.0]}, "sample_times must lie in [0, t_final]"),
        ("flow", {"envelope_points": 8}, "envelope_points must be at least 16"),
        ("bands", {"k_samples": 1}, "k_samples >= 2"),
        ("flow", {"envelope_a": [[1.0, 0.0]]}, "envelope_a must be a 1 x 1 matrix"),
        ("flow", {"lattice_potential": {"type": "fourier"}}, "lattice_potential: fourier lattice potential needs"),
        (
            "flow",
            {"lattice_potential": {"type": "fourier", "coeffs": [[[1, 0], 0.5, 0.0], [[-1, 0], 0.5, 0.0]]}},
            "lattice_potential: fourier coefficient rows",
        ),
        (
            "flow",
            {"dimension": 2, "q0": [0.0, 0.0], "p0": [0.3, 0.0], "external": {"hessian": [[1.0, 0.0], [1.0]]}},
            "external: hessian rows differ in length",
        ),
        ("flow", {"external": {"type": "cosine-well", "frequencies": [1.0, 1.0]}}, "external: frequencies have"),
        # a file that is not JSON has no key to name
        ("flow", "{not json", "config is not valid JSON"),
        # validate checks the dimension itself, ahead of every model built in d dimensions
        ("flow", {"dimension": 0}, "dimension: dimension must be >= 1"),
    ],
)
def test_config_problems_exit_two(tmp_path, capsys, command, data, named):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert named in err["message"]


def test_every_experiment_kind_has_a_runner():
    assert tuple(RUNNERS) == EXPERIMENT_KINDS


def test_envelope_run_ignores_residual_time(tmp_path, capsys):
    # residual_time is read by residual-mode convergence runs only
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {"t_final": 0.3, "flow_dt": 1e-2, "envelope_dt": 1e-2, "grid_envelope_dt": 1e-2}
        )
    )
    code = main(["envelope", "--config", str(path), "--out", str(tmp_path / "env")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "envelope"


def test_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"t_fnal": 1.0}))
    code = main(["flow", "--config", str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_malformed_config_value_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"lattice_potential": "cosine"}))
    code = main(["flow", "--config", str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_subcommand_overrides_config_kind(tmp_path, capsys):
    # config says convergence, but the subcommand wins
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "kind": "convergence",
                "t_final": 0.2,
                "residual_time": 0.2,
                "flow_dt": 1e-2,
            }
        )
    )
    out_dir = tmp_path / "runout"
    code = main(["flow", "--config", str(path), "--out", str(out_dir)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "flow"
    assert (out_dir / "flow.csv").exists()
    assert (out_dir / "flow_summary.json").exists()


def test_envelope_run_without_config(tmp_path, capsys, caplog):
    with caplog.at_level(logging.INFO, logger="blochpacket"):
        code = main(["envelope", "--verbose", "--out", str(tmp_path / "env")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "envelope"
    # every sized layer says what it chose, in the summary and in the log
    for layer, tol in (("flow", "1e-12"), ("gaussian", "1e-12"), ("grid_envelope", "1e-07")):
        chosen = summary["resolution"][layer]
        assert chosen["error_estimate"] <= chosen["tol"] == float(tol)
        line = f"{layer}: {chosen['steps']} steps, estimate {chosen['error_estimate']:.1e} <= {tol}"
        assert line in caplog.messages
    with open(tmp_path / "env" / "envelope_summary.json") as fh:
        disk = json.load(fh)
    assert disk["config"] == summary["config"]


def test_parser_lists_every_runner():
    parser = build_parser()
    ns = parser.parse_args(["bands"])
    assert ns.command == "bands"
    assert ns.config is None and ns.out is None


def test_shipped_configs_validate_and_name_a_subcommand():
    # README runs each of them as `blochpacket <kind> --config configs/<file>`
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        config = ExperimentConfig.from_file(path).validate()
        assert config.kind in EXPERIMENT_KINDS, path.name
        assert build_parser().parse_args([config.kind, "--config", str(path)]).command == config.kind
