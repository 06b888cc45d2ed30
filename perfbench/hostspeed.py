"""Host-speed calibration for a shared machine.

The host this benchmark was built on runs other tenants' work on the
same cores, and its speed drifts by tens of percent over tens of
seconds. Wall time and CPU time drift together, so neither can separate
the program's cost from the host's state. A fixed kernel of the same
kind of work, timed between the measured operations, slows down with
the program (over 2-s windows the compute kernel's median and b=1
inference correlated at 0.99). Dividing by it leaves the program's cost
at a reference speed.

Contention does not slow every kind of work alike: in one busy period
JSON-bound checkpoint code slowed 2.2x while numpy-bound training slowed
1.7x. So each phase is scaled by the kernel of its own kind: 'compute'
(small numpy matmuls and interpreter arithmetic) for the model phases
and set-up, 'json' (float-list JSON encoding and decoding) for data I/O.
A timing is reported as raw x NOMINAL_S[kind] / (median kernel time in
its block of BLOCK_S seconds). It still reads in ms, s or 1/s, at the
speed at which the kernel takes NOMINAL_S. The raw figures go to the
result file next to it.
"""

from __future__ import annotations

import json
import time

import numpy as np

from stats import median

NOMINAL_S = {"compute": 1.2e-3, "json": 0.8e-3}   # typical kernel times on the reference host
BLOCK_S = 0.5        # span of time whose kernel samples scale a timing

_A = np.random.default_rng(0).standard_normal((48, 32))
_B = np.random.default_rng(1).standard_normal((32, 32)) / 8.0
_VALUES = np.random.default_rng(2).standard_normal(1000).tolist()


def compute_kernel() -> float:
    """Small-matmul numpy work plus interpreter arithmetic."""
    x = _A
    for _ in range(100):
        x = np.tanh(x @ _B) + 0.5 * x
    s = 0
    for i in range(5000):
        s += i * i
    return float(x[0, 0]) + s


def json_kernel() -> float:
    """Float-list JSON encoding and decoding, as datasets and checkpoints do."""
    return float(len(json.loads(json.dumps(_VALUES))))


KERNELS = {"compute": compute_kernel, "json": json_kernel}


class HostSpeed:
    """Kernel timings taken between the measured operations."""

    def __init__(self):
        self.samples = {kind: [] for kind in KERNELS}   # kind -> [(start, seconds)]

    def sample(self, kind: str, reps: int = 1):
        fn, out = KERNELS[kind], self.samples[kind]
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            out.append((t0, time.perf_counter() - t0))

    def spent_s(self) -> float:
        """Wall time spent in kernel samples so far."""
        return sum(dt for samples in self.samples.values() for _, dt in samples)

    def factor(self, kind: str) -> float:
        """NOMINAL_S over the median of every `kind` sample so far."""
        return NOMINAL_S[kind] / median(dt for _, dt in self.samples[kind])

    def scale(self, timed, kind: str) -> list:
        """[(start time, seconds)] -> seconds at the reference speed.

        Each timing is scaled by NOMINAL_S over the median `kind` kernel
        time in its block; a block without samples borrows the nearest one.
        """
        samples = self.samples[kind]
        if not samples:
            raise ValueError(f"no {kind} host-speed samples")
        start = samples[0][0]
        blocks = {}
        for ts, dt in samples:
            blocks.setdefault(int((ts - start) // BLOCK_S), []).append(dt)
        factors = {b: NOMINAL_S[kind] / median(v) for b, v in blocks.items()}
        out = []
        for t, dt in timed:
            want = int((t - start) // BLOCK_S)
            if want not in factors:
                want = min(factors, key=lambda b: (abs(b - want), b))
            out.append(dt * factors[want])
        return out
