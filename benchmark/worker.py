"""One benchmark process: set up, run one pipeline back to back, check it.

run.py starts this script with a fixed BLAS thread count and the package on
PYTHONPATH. Its last line of standard output is one JSON object.

Modes:
  setup    import, build and validate the config, report setup_s, exit.
  measure  untraced calls back to back for --seconds: a call is started only
           while the median call so far still fits, and at least MIN_CALLS
           run. Each call runs under the host-speed probe (speed.py), which
           gives its wall time and its time at reference speed; peak RSS is
           read after the first call. The error-sweep then runs the
           zone-edge launch point once, untimed, and reports its checks
           apart as known defects (workloads.zone_edge_checks).
  trace    untraced, traced, untraced; the per-layer metrics come from the
           traced call and its overhead is measured against the mean of the
           two untraced calls around it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import blochpacket
import speed
import tracing
import workloads
from blochpacket.errors import BlochpacketError

MIN_CALLS = 2


def _call(pipeline, config) -> tuple:
    start = time.perf_counter()
    try:
        summary = pipeline(config)
    except BlochpacketError as exc:
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, summary, None


class Checks:
    """Correctness checks over every call of one process."""

    def __init__(self, workload, seed, size, config):
        self.workload, self.seed, self.size, self.config = workload, seed, size, config
        self.attempted = 0
        self.failures: list = []

    def add(self, summary, error):
        if error is not None:
            results = [("pipeline_raised", False, error)]
        else:
            results = workloads.check(self.workload, self.seed, self.size, self.config, summary)
        self.attempted += len(results)
        self.failures += [
            {"check": name, "value": value} for name, ok, value in results if not ok
        ]


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def provenance(root: Path, config) -> dict:
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "src.lines": lines,
        "package_version": blochpacket.__version__,
        "config_hash": config.config_hash(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    config = workloads.make_config(args.workload, args.seed, args.size, out / "pipeline")
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checks = Checks(args.workload, args.seed, args.size, config)
    result = {"setup_s": setup_s, "known_defects": []}
    if args.mode == "measure":
        probe = speed.SpeedProbe()
        run_s, wall_s, probe_s = [], [], []
        began = time.monotonic()
        while (len(run_s) < MIN_CALLS
               or time.monotonic() - began + statistics.median(wall_s) <= args.seconds):
            (_, summary, error), wall, ref, mean_probe = probe.timed(
                _call, workloads.run_pipeline, config
            )
            run_s.append(ref)
            wall_s.append(wall)
            probe_s.append(mean_probe)
            if len(run_s) == 1:
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checks.add(summary, error)
        result.update(run_s=run_s, wall_s=wall_s, probe_s=probe_s)
        if args.workload == "error-sweep" and args.size == "full":
            result["known_defects"] = [
                {"check": name, "passed": ok, "value": value}
                for name, ok, value in workloads.zone_edge_checks(out / "zone_edge")
            ]
    else:
        elapsed, summary, error = _call(workloads.run_pipeline, config)
        checks.add(summary, error)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced_s, summary, error = _call(
                tracer.timed("experiments.run", workloads.run_pipeline), config
            )
        checks.add(summary, error)
        untraced_s, summary, error = _call(workloads.run_pipeline, config)
        checks.add(summary, error)
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = (traced_s - (elapsed + untraced_s) / 2, "s")
        result["layers"] = layers
        result["warnings"] = tracing.fft_warnings(layers)
        result["run_s"] = [elapsed, traced_s, untraced_s]
        spans_path = out / "spans.json"
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)

    result.update(
        attempted=checks.attempted,
        failed=len(checks.failures),
        failures=checks.failures,
        provenance=provenance(Path(__file__).resolve().parent.parent, config),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
