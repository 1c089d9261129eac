"""Interleaved parent/change pairs of the benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py --parent 60af990 --change HEAD --slug envelope_transfer \
        --what "..." --seeds 0-9 --seconds 25 --workdir /tmp/bench --claim envelope-run

Both revisions are exported with `git archive` into --workdir, and each runs
its own `benchmark/run.py --trace 0` (its own benchmark code and sources).
Every seed and each of the three workloads gives one pair: the parent runs
first at even seeds and the change first at odd seeds. The end-to-end
metrics of each side are summarised by their median and quartiles
(inclusive method) over the seeds, with how many pairs the change read lower
in. So are two figures per run that `run_s` is scaled from, read from the
run's benchmark/_out/<workload>-seed<S>-trace0/result.json: `wall_s`, the
median of its unscaled `wall_s_samples`, and `probe_s`, the median of its
`probe_s_samples`; the length of that list is kept as the run's probe-sample
count. Every comparison also gives the median and quartiles of its per-seed
ratios, the second side's value over the first's in each pair. With --claim
W, the claimed workload W also runs an A/A block: the parent against an
unmodified second export of itself, in the same interleaved pairs (the parent
first at even seeds), right after each seed's parent/change pair of W. Every
comparison gives the ratio of the second side's median to the first's, so the
claim's ratio sits next to the ratio that two copies of the same code read.
The file is written as BENCH_<slug>.json at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("error-sweep", "residual-sweep", "envelope-run")
METRICS = ("run_s", "setup_s", "peak_rss_mb")
SAMPLED = {"wall_s": "wall_s_samples", "probe_s": "probe_s_samples"}  # per-run medians


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: Path) -> dict:
    """Extract rev's files into dest; its commit, src tree and src line count."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    lines = sum(len(p.read_text().splitlines()) for p in (dest / "src").rglob("*.py"))
    return {
        "commit": _git("rev-parse", rev),
        "src_tree": _git("rev-parse", f"{rev}:src"),
        "src_lines": lines,
    }


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Last JSON line of one untraced benchmark run in tree, with the medians of the
    SAMPLED lists of the result.json it wrote, by name."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(
        (tree / "benchmark" / "_out" / f"{workload}-seed{seed}-trace0" / "result.json").read_text()
    )
    out["sampled"] = {name: statistics.median(result[key]) for name, key in SAMPLED.items()}
    out["probe_samples"] = len(result["probe_s_samples"])
    return out


def _spread(samples: list, digits: int) -> dict:
    """Median, quartiles and samples; one sample is its own median and quartiles."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {
        "median": round(statistics.median(samples), digits),
        "q1": round(q1, digits),
        "q3": round(q3, digits),
        "samples": [round(s, digits) for s in samples],
    }


def _compare(values: dict, digits: int) -> dict:
    """Each side's spread of one metric, in how many pairs the second side read lower,
    the ratio of its median to the first side's, and the spread of the per-seed ratios."""
    (first, a), (second, b) = values.items()
    return {
        **{side: _spread(v, digits) for side, v in values.items()},
        f"{second}_lower_in": f"{sum(y < x for x, y in zip(a, b))} of {len(a)}",
        "median_ratio": round(statistics.median(b) / statistics.median(a), 4),
        "ratios": _spread([y / x for x, y in zip(a, b)], 4),
    }


def _entry(by_side: dict, seeds: list) -> dict:
    """The checks and the compared metrics of one workload's runs, by side."""
    entry = {
        "pairs": len(seeds), "seeds": seeds,
        "failed_checks": {s: sum(r["failed"] for r in rs) for s, rs in by_side.items()},
        "attempted_checks": {s: sum(r["attempted"] for r in rs) for s, rs in by_side.items()},
        "probe_samples": {s: [r["probe_samples"] for r in rs] for s, rs in by_side.items()},
    }
    for metric in METRICS:
        entry[metric] = _compare({s: [r["metrics"][metric]["value"] for r in rs] for s, rs in by_side.items()}, 4)
    for name in SAMPLED:
        entry[name] = _compare({s: [r["sampled"][name] for r in rs] for s, rs in by_side.items()}, 6)
    return entry


def _host() -> dict:
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    models = [ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")]
    model = models[0] if models else platform.processor()
    return {
        "cpu": f"{model}, {platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,  # benchmark/run.py pins the BLAS pools to one thread
    }


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--slug", required=True, help="the file is BENCH_<slug>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--seeds", default="0-9", help="seed range, as 0-9")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workdir", type=Path, required=True, help="where both trees are exported")
    parser.add_argument("--claim", choices=WORKLOADS, help="the claimed workload, which gets an A/A block")
    args = parser.parse_args(argv)

    sides = {side: args.workdir / side for side in ("parent", "change", "copy")}
    record = {"what": args.what}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        record[side] = _export(rev, sides[side])
    if args.claim:
        record["copy"] = _export(args.parent, sides["copy"])
    record["host"] = _host()
    record["command"] = (
        f"python3 benchmark/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
    )
    record["method"] = (
        "one parent/change pair per seed and workload, parent first at even seeds and change first"
        " at odd seeds; medians and quartiles (inclusive method) over the runs of each side; run_s"
        " is the benchmark's probe-scaled time per pipeline call; wall_s is each run's median"
        " unscaled time per call, and probe_s each run's median speed-probe time; probe_samples is"
        " each run's number of probe samples; median_ratio is the second side's median over the"
        " first's, and ratios the spread of the per-seed ratios, second side over first; the aa block, for the claimed workload, pairs"
        " the parent with a second export of itself (copy) in the same interleaved order"
    )

    seeds = _seeds(args.seeds)
    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    aa = {"parent": [], "copy": []}
    for seed in seeds:
        for workload in WORKLOADS:
            blocks = [(runs[workload], "change")] + ([(aa, "copy")] if workload == args.claim else [])
            for block, other in blocks:
                for side in ("parent", other) if seed % 2 == 0 else (other, "parent"):
                    out = _run(sides[side], workload, seed, args.seconds)
                    block[side].append(out)
                    run_s = out["metrics"]["run_s"]["value"]
                    print(f"seed {seed} {workload} {side}: run_s {run_s:.4f}", flush=True)

    record["workloads"] = {workload: _entry(by_side, seeds) for workload, by_side in runs.items()}
    if args.claim:
        record["aa"] = {"workload": args.claim, **_entry(aa, seeds)}

    path = ROOT / f"BENCH_{args.slug}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
