"""Per-layer tracing from outside the package.

Each public function is wrapped where its caller looks it up: the names that
``experiments``, ``corrector`` and ``assembly`` import directly are patched in
those modules, ``band_derivatives`` and ``reduced_resolvent_solve`` in
``bloch`` (``BlochBand`` calls the module globals), and methods on their
classes. A timed wrapper records a span (name, start, end, parent) in memory;
a counted wrapper only counts calls. FFTs are counted by wrapping the
``numpy.fft`` transforms and charged to the innermost open span. All
wrappers are removed when the traced call returns.

Self time is a span's duration minus the durations of its direct children;
spans nest strictly because the pipelines run in one thread.

reference.steps and envelope.grid_steps are computed from each call's
arguments the way solve_schrodinger and evolve_grid_envelope choose their
steps: ceil(span / dt) per segment, with dt from params.resolve_dt(epsilon)
or the grid dt. They count time steps, whatever a step costs in FFTs.

Counts marked "computed" come from array sizes, not hardware counters: the
*ffts_computed figures count calls to the numpy.fft transforms in FFT_NAMES
made inside a span, and reference.bytes_computed is 16 B per complex output
point, read plus written, of each such call inside solve_schrodinger. FFTs
done through another library are not seen; fft_warnings names every layer
that took steps without a counted FFT, and the traced run prints them.

experiments.other_s is the pipeline span's self time (CSV and JSON writing,
fits). trace.overhead_s is the traced call minus the mean of the untraced
calls just before and after it, so it carries the machine's call-to-call
noise.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

EPS7 = 2.0**-7
COMPLEX_BYTES = 16
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn")


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, info dict or None]
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def timed(self, name, fn, note=None):
        """Wrap fn in a span; note(arguments, result) adds to the span's info."""
        signature = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._info(span).update(note(bound.arguments, result))
            return result

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._open:
                info = self._info(self.spans[self._open[-1]])
                info["ffts"] = info.get("ffts", 0) + 1
                info["bytes"] = info.get("bytes", 0) + COMPLEX_BYTES * 2 * out.size
            return out

        return wrapper

    @staticmethod
    def _info(span) -> dict:
        if span[4] is None:
            span[4] = {}
        return span[4]

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans,
                 "counts": dict(self.counts)},
                handle,
            )


def _patch_table(tracer: Tracer) -> list:
    """(owner, attribute, wrapper factory) for every traced entry point."""
    from blochpacket import assembly, bloch, corrector, envelope, experiments, flow, lattice

    def steps(span, dt):
        return max(1, math.ceil(span / dt - 1e-12)) if span > 1e-14 else 0

    def reference_steps(a, result):
        psi0 = a["psi0"]
        dt = a["params"].resolve_dt(psi0.epsilon)
        t, n = psi0.time, 0
        for target in np.atleast_1d(np.asarray(a["times"], dtype=float)):
            n += steps(float(target) - t, dt)
            t = float(target)
        return {"points": int(psi0.grid.size), "epsilon": float(psi0.epsilon), "steps": n}

    def grid_steps(a, result):
        return {"steps": steps(abs(float(a["t_final"]) - a["u"].t), a["dt"])}

    def field_points(a, result):
        return {"points": int(result.values.size)}

    def field_terms(a, result):
        return {"terms": len(result.terms)}

    timed = tracer.timed
    table = [
        (experiments, "prepare_dynamics", lambda f: timed("experiments.prepare", f)),
        (experiments, "integrate_flow", lambda f: timed("flow.integrate", f)),
        (experiments, "evolve_gaussian", lambda f: timed("envelope.gaussian", f)),
        (experiments, "evolve_grid_envelope", lambda f: timed("envelope.grid", f, grid_steps)),
        (experiments, "solve_schrodinger", lambda f: timed("reference.solve", f, reference_steps)),
        (experiments, "pde_residual", lambda f: timed("reference.residual", f)),
        (experiments, "synthesize_packet", lambda f: timed("assembly.synth", f, field_points)),
        (experiments, "synthesize_app", lambda f: timed("assembly.synth", f, field_points)),
        (assembly, "fourier_interpolate", lambda f: timed("assembly.interp", f)),
        (assembly, "evaluate_cell_coeffs", lambda f: timed("assembly.cell_eval", f)),
        (bloch, "band_derivatives", lambda f: timed("bloch.solve", f)),
        (bloch, "reduced_resolvent_solve", lambda f: timed("bloch.resolvent", f)),
        (corrector, "reduced_resolvent_solve", lambda f: timed("bloch.resolvent", f)),
        (lattice.LatticeSpec, "fold", lambda f: timed("lattice.fold", f)),
        (lattice.FourierPotential, "evaluate", lambda f: timed("lattice.evaluate", f)),
        (flow, "flow_rhs", lambda f: tracer.counted("flow.rhs_evals", f)),
        (flow.Trajectory, "state_at", lambda f: tracer.counted("flow.state_at_calls", f)),
    ]
    table += [(np.fft, name, tracer.fft) for name in FFT_NAMES]
    for name in ("build_U0", "build_U1", "build_U2"):
        table.append((experiments, name, lambda f: timed("corrector.build", f, field_terms)))
    for name in ("energy", "grad_energy", "hess_energy", "berry", "eigenpair", "derivatives"):
        table.append((bloch.BlochBand, name, lambda f: tracer.counted("bloch.lookups", f)))
    for name in ("dispersion", "vhess", "berry_rate"):
        table.append(
            (envelope.HomogenizedCoefficients, name,
             lambda f: tracer.counted("envelope.coeff_evals", f))
        )
    return table


@contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrap in _patch_table(tracer):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pipeline call, whose span is the first."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    info: dict = {}
    for i, (name, start, end, _, extra) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        for key, value in (extra or {}).items():
            if key != "epsilon":
                info[(name, key)] = info.get((name, key), 0) + value

    solves = [(s[2] - s[1], s[4] or {}) for s in spans if s[0] == "reference.solve"]
    solve_s = total["reference.solve"]
    point_steps = sum(x.get("points", 0) * x.get("steps", 0) for _, x in solves)
    eps7_s = sum(dur for dur, x in solves if x.get("epsilon") == EPS7)
    bloch_ms = [1e3 * (s[2] - s[1]) for s in spans if s[0] == "bloch.solve"] or [0.0]
    lookups = tracer.counts["bloch.lookups"]
    synth_s = total["assembly.synth"]

    return {
        "bloch.solves": (calls["bloch.solve"], "count"),
        "bloch.solve_s": (total["bloch.solve"], "s"),
        "bloch.solve_ms.p50": (float(np.percentile(bloch_ms, 50)), "ms"),
        "bloch.solve_ms.p99": (float(np.percentile(bloch_ms, 99)), "ms"),
        "bloch.lookups": (lookups, "count"),
        "bloch.hit_ratio": (1.0 - calls["bloch.solve"] / lookups if lookups else 0.0, "ratio"),
        "bloch.resolvent_solves": (calls["bloch.resolvent"], "count"),
        "bloch.resolvent_s": (total["bloch.resolvent"], "s"),
        "lattice.fold_calls": (calls["lattice.fold"], "count"),
        "lattice.fold_s": (total["lattice.fold"], "s"),
        "lattice.evaluate_s": (total["lattice.evaluate"], "s"),
        "flow.integrate_s": (total["flow.integrate"], "s"),
        "flow.self_s": (self_time["flow.integrate"], "s"),
        "flow.rhs_evals": (tracer.counts["flow.rhs_evals"], "count"),
        "flow.state_at_calls": (tracer.counts["flow.state_at_calls"], "count"),
        "envelope.gaussian_s": (total["envelope.gaussian"], "s"),
        "envelope.gaussian_self_s": (self_time["envelope.gaussian"], "s"),
        "envelope.coeff_evals": (tracer.counts["envelope.coeff_evals"], "count"),
        "envelope.grid_s": (total["envelope.grid"], "s"),
        "envelope.grid_self_s": (self_time["envelope.grid"], "s"),
        "envelope.grid_steps": (info.get(("envelope.grid", "steps"), 0), "count"),
        "envelope.grid_ffts_computed": (info.get(("envelope.grid", "ffts"), 0), "count"),
        "corrector.build_s": (total["corrector.build"], "s"),
        "corrector.fields": (calls["corrector.build"], "count"),
        "corrector.terms": (info.get(("corrector.build", "terms"), 0), "count"),
        "assembly.synth_s": (synth_s, "s"),
        "assembly.synth_self_s": (self_time["assembly.synth"], "s"),
        "assembly.fields": (calls["assembly.synth"], "count"),
        "assembly.points": (info.get(("assembly.synth", "points"), 0), "count"),
        "assembly.points_per_s": (
            info.get(("assembly.synth", "points"), 0) / synth_s if synth_s else 0.0, "1/s"
        ),
        "assembly.interp_s": (total["assembly.interp"], "s"),
        "assembly.cell_eval_s": (total["assembly.cell_eval"], "s"),
        "reference.solve_s": (solve_s, "s"),
        "reference.solve_s.eps7": (eps7_s, "s"),
        "reference.steps": (info.get(("reference.solve", "steps"), 0), "count"),
        "reference.points": (info.get(("reference.solve", "points"), 0), "count"),
        "reference.point_steps_per_s": (point_steps / solve_s if solve_s else 0.0, "1/s"),
        "reference.ffts_computed": (info.get(("reference.solve", "ffts"), 0), "count"),
        "reference.bytes_computed": (info.get(("reference.solve", "bytes"), 0), "B"),
        "reference.residual_s": (total["reference.residual"], "s"),
        "experiments.prepare_s": (total["experiments.prepare"], "s"),
        "experiments.other_s": (spans[0][2] - spans[0][1] - child_time[0], "s"),
    }


def fft_warnings(layers: dict) -> list:
    """Layers whose steps ran no counted FFT, so their FFT figures read 0."""
    pairs = (("reference.steps", "reference.ffts_computed"),
             ("envelope.grid_steps", "envelope.grid_ffts_computed"))
    return [
        f"{ffts} is 0 over {layers[steps][0]} steps: FFTs ran outside numpy.fft.{{{','.join(FFT_NAMES)}}}"
        for steps, ffts in pairs if layers[steps][0] and not layers[ffts][0]
    ]
