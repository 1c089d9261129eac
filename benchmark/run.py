"""Benchmark of the blochpacket pipelines at the package defaults.

    python3 benchmark/run.py --workload error-sweep --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): error-sweep, residual-sweep, envelope-run.

Load model: batch, closed loop. One caller runs one pipeline at a time, back
to back, in a single process with the BLAS thread count held at BLAS_THREADS;
sweeps use jobs = 1.

With --trace 0 the end-to-end metrics are measured with tracing off:
  run_s        median time of one pipeline call, from the validated config
               to the written summary, at the reference host speed of
               speed.py: each call's wall time scaled by how much slower
               than its reference time a fixed probe ran during the call.
               Calls run back to back for --seconds, at least 2 of them
               (worker.py). The plain wall times are printed and stored as
               wall_s; on a shared host they move by up to 2x with other
               tenants' load, which the scaling takes out.
  setup_s      median, over the measuring process and SETUP_PROCESSES more
               (half started before it, half after), of the time from
               process start to pipeline-ready (numpy and package imported,
               config built and validated)
  peak_rss_mb  peak resident memory of the measuring process after its
               first pipeline call
With --trace 1 one traced call gives the per-layer metrics (tracing.py).

Every call's outputs are checked (workloads.py). failed_frac, the failed
checks plus raised BlochpacketErrors over the checks attempted, is printed
with the metrics. Known defects (the zone-edge launch point of the
error-sweep) are checked and printed apart, with their own fraction, and do
not count as failed; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Provenance and every sample
go to benchmark/_out/<workload>-seed<seed>-trace<trace>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("error-sweep", "residual-sweep", "envelope-run")
BLAS_THREADS = "1"
SETUP_PROCESSES = 16
DEADLINE_S = 170.0


def _child(args, mode: str, out: Path, env: dict, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--seconds", str(args.seconds), "--mode", mode,
        "--spawned-at", repr(spawned_at), "--out", str(out),
    ]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the smoke test",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "blochpacket" / "__init__.py").is_file():
        print(f"benchmark: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    out = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            result = _child(args, "trace", out, env, deadline)
            setups = [result["setup_s"]]
        else:
            def setup_batch():
                return [
                    _child(args, "setup", out, env, deadline)["setup_s"]
                    for _ in range(SETUP_PROCESSES // 2)
                ]

            setups = setup_batch()
            result = _child(args, "measure", out, env, deadline)
            setups += [result["setup_s"]] + setup_batch()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    run_s = result["run_s"]
    wall_s = result.get("wall_s", run_s)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = result["attempted"], result["failed"]

    record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=args.size, metrics=metrics, run_s_samples=run_s, wall_s_samples=wall_s,
        probe_s_samples=result.get("probe_s"), setup_s_samples=setups,
        attempted=attempted, failed=failed, failures=result["failures"],
        known_defects=result["known_defects"], warnings=result.get("warnings", []),
        provenance=result["provenance"],
    )
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(f"  run_s samples: n={len(run_s)}  " + " ".join(f"{t:.4f}" for t in run_s))
    if not args.trace:
        print(f"  wall_s samples: n={len(wall_s)}  median {statistics.median(wall_s):.4f}  "
              + " ".join(f"{t:.4f}" for t in wall_s))
        print("  probe_ms per call: " + " ".join(f"{t * 1e3:.4f}" for t in result["probe_s"]))
        print(f"  setup_s samples: n={len(setups)}  " + " ".join(f"{t:.4f}" for t in setups))
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for failure in result["failures"]:
        print(f"  FAILED {failure['check']}: {failure['value']}")
    defects = result["known_defects"]
    if defects:
        standing = [d for d in defects if not d["passed"]]
        print(f"  known_defect_frac {len(standing) / len(defects):.6g} "
              f"({len(standing)} of {len(defects)} zone-edge checks fail; not counted as failed)")
        for d in defects:
            print(f"    {'ok' if d['passed'] else 'STANDING'} {d['check']}: {d['value']}")
    for warning in result.get("warnings", []):
        print(f"  WARNING {warning}")
    print("  provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
