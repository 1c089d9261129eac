import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(value: float) -> dict:
    """One benchmark run's record as `bench_pairs._run` returns it."""
    return {
        "failed": 0,
        "attempted": 3,
        "metrics": {name: {"value": value} for name in bench_pairs.METRICS},
        "sampled": {name: value for name in bench_pairs.SAMPLED},
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
