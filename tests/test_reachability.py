"""What the shipped runs reach.

Every `configs/*.json` run, found from the directory, and CI's console runs at
the package defaults go through `cli.main` in a fresh interpreter (no cache
warmed by another test) under `sys.setprofile`. The package functions that none
of them calls must be exactly those of UNREACHED, each with the reason it stays.
A new function that no shipped run reaches fails here until a run uses it, it is
listed with its reason, or it is deleted. A new config joins the runs unedited.

Run as a script, `python tests/test_reachability.py OUT_DIR` makes the runs under
OUT_DIR and writes the (module, first line) of every package function called to
OUT_DIR/reached.json.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import blochpacket
from blochpacket import cli

PACKAGE = Path(blochpacket.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DEFAULT_RUNS = ("flow", "envelope", "reference")  # CI's console runs with no --config

UNREACHED = {
    "corrector.solvability_defect": "acceptance criterion 7 reads it",
    "corrector._first_order_terms": "solvability_defect's order-1 terms, for criterion 7",
    "corrector._chi_profile": "solvability_defect's projection on chi, for criterion 7",
    "envelope.geometric_rate": "solvability_defect's Berry rate, for criterion 7",
    "corrector.CorrectorField.norm": "acceptance criterion 9 reads it",
    "assembly.read_field": "README documents it as the reader of the field files",
    "bloch.BlochBand.berry": "the benchmark tracer wraps it by name",
    "bloch.BlochBand.derivatives": "the benchmark tracer wraps it by name",
    "lattice.LatticeSpec.fold": "the benchmark tracer wraps it by name",
    "assembly.synthesize_app": "reached only with initial_data = well_prepared, which no config sets",
}


def defined_functions() -> dict:
    """Dotted name of every def in the package, keyed by (module, first line): the
    line of its first decorator if it has one, as a code object's co_firstlineno is."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first)] = f"{prefix}.{child.name}"
                visit(child, module, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}.{child.name}")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.stem)
    return found


def shipped_runs(out: Path) -> list:
    """`cli.main` argument lists of every shipped config and CI's default runs."""
    runs = [
        [json.loads(path.read_text())["kind"], "--config", str(path), "--out", str(out / path.stem)]
        for path in sorted(CONFIGS.glob("*.json"))
    ]
    return runs + [[kind, "--out", str(out / kind)] for kind in DEFAULT_RUNS]


def reached(out: Path) -> set:
    """(module, first line) of every package function the shipped runs call."""
    files = {}
    for path in PACKAGE.glob("*.py"):
        name = "blochpacket" if path.stem == "__init__" else f"blochpacket.{path.stem}"
        files[importlib.import_module(name).__file__] = path.stem
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            calls.add((files[frame.f_code.co_filename], frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for argv in shipped_runs(out):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code:
                raise RuntimeError(f"{argv} exited {code}")
    finally:
        sys.setprofile(None)
    return calls


def test_unreached_functions_are_the_listed_ones(tmp_path):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        check=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    calls = {tuple(call) for call in json.loads((tmp_path / "reached.json").read_text())}
    unreached = {name for key, name in defined_functions().items() if key not in calls}
    assert sorted(unreached) == sorted(UNREACHED)


if __name__ == "__main__":
    out = Path(sys.argv[1])
    (out / "reached.json").write_text(json.dumps(sorted(reached(out))))
