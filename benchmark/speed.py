"""Host-speed probe: pipeline time at a fixed reference speed of the CPU.

The benchmark's host is a shared virtual machine. Its throughput moves by up
to 2x on a scale of seconds to minutes (another tenant on the same core), and
process CPU time moves with wall time, so a wall-time median of calls that
each last 5-20 s cannot be made steady from run to run.

This module measures the host's speed during each call, on the same core and
in the same process: an interval timer (SIGALRM every PERIOD_S of wall time)
runs a small fixed piece of work, ``probe``, which mixes the operations the
pipelines spend their time in (a dense Hermitian eigensolve, an FFT pair and
interpreted Python), and records how long it took. A call's time at reference
speed is then

    ref_s = (wall_s - probe time inside the call) * mean(REF_PROBE_S / probe_i)

that is, the call's own wall time scaled by how much slower than REF_PROBE_S
the probe ran while the call ran. The probes are evenly spaced in wall time,
so the mean of the speed ratios REF_PROBE_S / probe_i weighs each slice of
the call equally. REF_PROBE_S is a fixed round convention (the probe takes
0.75-1.2 ms on the 2-vCPU Xeon host the benchmark was written on), not a
fitted number; a change to the program moves ref_s exactly as it moves wall
time at constant host speed. The probe takes a few per cent of the call's
wall time, which is subtracted.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.03
REF_PROBE_S = 1e-3

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((41, 41)) + 1j * _rng.standard_normal((41, 41))
_H = _H + _H.conj().T
_X = _rng.standard_normal(8192) + 0j
_PHASE = np.exp(-1j * _rng.standard_normal(8192))


def probe() -> None:
    """Fixed work: one 41x41 Hermitian eigensolve, one FFT pair, a Python loop."""
    np.linalg.eigh(_H)
    _PHASE * np.fft.ifft(_PHASE * np.fft.fft(_X))
    total = 0.0
    for i in range(400):
        total += i * 0.5


class SpeedProbe:
    """Run ``probe`` every PERIOD_S of wall time while ``timed`` runs a call."""

    def __init__(self):
        self.samples: list = []
        for _ in range(50):
            probe()

    def _handler(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def timed(self, fn, *args):
        """(result, wall_s, ref_s, mean probe s) of fn(*args)."""
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall_s = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        own = sum(self.samples[first:])
        if len(self.samples) == first:
            # A call shorter than PERIOD_S: probe once after it.
            self._handler(None, None)
        probes = self.samples[first:]
        speed = sum(REF_PROBE_S / t for t in probes) / len(probes)
        return result, wall_s, (wall_s - own) * speed, sum(probes) / len(probes)
