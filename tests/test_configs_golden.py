"""Golden numbers of the shipped configs.

Every number in the CSVs and `*_summary.json` of each `configs/*.json` run is
held against `configs_golden.json` to one relative tolerance. Rounding-level
monitors (drifts, defects, deviations, grid-vs-Gaussian differences, spectral
tails, boundary fractions, step-doubling error estimates) are left out: their
own bounds hold them.

A change that means to move these numbers re-captures them with
    PYTHONPATH=src python tests/test_configs_golden.py
and says in its description which numbers moved and why.
"""

import csv
import json
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from blochpacket.config import ExperimentConfig
from blochpacket.experiments import RUNNERS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "configs_golden.json"
REL_TOL = 1e-9
MONITOR = re.compile(r"drift|defect|deviation|_vs_|tail|boundary_fraction|estimate")
TEXT_COLUMNS = {"config", "stem"}  # the config hash and the field-file stem


def _flatten(prefix: str, value, out: dict) -> None:
    """Numbers of a summary's nested dicts and lists under dotted names."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}", item, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = float(value)


def config_numbers(path: Path, out_dir: Path) -> dict:
    """Every non-monitor number one shipped config writes, by name."""
    config = replace(ExperimentConfig.from_file(path), output_dir=str(out_dir))
    RUNNERS[config.kind](config)
    numbers = {}
    for summary in sorted(out_dir.glob("*_summary.json")):
        _flatten(f"{path.stem}/{summary.name}", json.loads(summary.read_text()), numbers)
    for table in sorted(out_dir.glob("*.csv")):
        with open(table, newline="") as handle:
            for i, row in enumerate(csv.DictReader(handle)):
                for column, text in row.items():
                    if column not in TEXT_COLUMNS and text != "":
                        numbers[f"{path.stem}/{table.name}[{i}].{column}"] = float(text)
    return {name: value for name, value in numbers.items() if not MONITOR.search(name)}


def shipped_numbers(out_root: Path) -> dict:
    numbers = {}
    for path in sorted(CONFIGS.glob("*.json")):
        numbers.update(config_numbers(path, out_root / path.stem))
    return numbers


def test_shipped_configs_match_golden(tmp_path):
    measured = shipped_numbers(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert sorted(measured) == sorted(golden["numbers"])
    tol = golden["rel_tol"]
    moved = [
        f"{name}: {measured[name]!r} vs golden {value!r}"
        for name, value in golden["numbers"].items()
        if abs(measured[name] - value) > tol * abs(value)
    ]
    assert not moved, f"{len(moved)} shipped-config numbers moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        numbers = shipped_numbers(Path(root))
    GOLDEN.write_text(json.dumps({
        "about": "Every number the shipped configs write to their CSVs and summaries, at full"
                 " precision, less rounding-level monitors (names matching "
                 f"{MONITOR.pattern}). Each must stay within rel_tol of its value.",
        "rel_tol": REL_TOL,
        "numbers": numbers,
    }, indent=1) + "\n")
    sys.stdout.write(f"{len(numbers)} numbers written to {GOLDEN}\n")
