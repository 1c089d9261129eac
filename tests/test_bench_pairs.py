import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(value: float, probes: int = 5) -> dict:
    """One benchmark run's record as `bench_pairs._run` returns it."""
    return {
        "failed": 0,
        "attempted": 3,
        "metrics": {name: {"value": value} for name in bench_pairs.METRICS},
        "sampled": {name: value for name in bench_pairs.SAMPLED},
        "probe_samples": probes,
    }


def test_one_seed_is_its_own_median_and_quartiles():
    assert bench_pairs._spread([0.25], 4) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "samples": [0.25]}
    entry = bench_pairs._entry({"parent": [_run(0.2)], "change": [_run(0.1)]}, [0])
    for name in bench_pairs.METRICS + tuple(bench_pairs.SAMPLED):
        assert entry[name]["change"]["q1"] == entry[name]["change"]["q3"] == 0.1
        assert entry[name]["change_lower_in"] == "1 of 1" and entry[name]["median_ratio"] == 0.5


def test_quartiles_use_the_inclusive_method():
    spread = bench_pairs._spread([1.0, 2.0, 3.0, 4.0], 4)
    assert (spread["q1"], spread["median"], spread["q3"]) == (1.75, 2.5, 3.25)


def test_each_comparison_keeps_its_per_seed_ratios_and_each_run_its_probe_count():
    # the change's median (0.225) over the parent's (0.25) reads 0.9, while the per-seed
    # ratios 0.5, 2.0, 1.25, 1.0 have median 1.125 and quartiles 0.875 and 1.4375
    parent = [_run(0.4, 3), _run(0.1, 4), _run(0.2, 5), _run(0.3, 6)]
    change = [_run(0.2, 7), _run(0.2, 8), _run(0.25, 9), _run(0.3, 10)]
    entry = bench_pairs._entry({"parent": parent, "change": change}, [0, 1, 2, 3])
    assert entry["probe_samples"] == {"parent": [3, 4, 5, 6], "change": [7, 8, 9, 10]}
    for name in bench_pairs.METRICS + tuple(bench_pairs.SAMPLED):
        assert entry[name]["median_ratio"] == 0.9
        assert entry[name]["ratios"] == {"median": 1.125, "q1": 0.875, "q3": 1.4375, "samples": [0.5, 2.0, 1.25, 1.0]}
