"""Fixed reference kernel: the time unit `ref` of the benchmark.

A small frequency sweep written here in plain numpy: at each of 400 points
one complex SVD, one solve and one Hermitian eigenvalue call on an 8-state
system, then the points are formatted as text and JSON.  That mixes
interpreter overhead, object churn and small LAPACK calls in about the
proportions of a nistab operation, so when the host slows down or speeds up
the kernel and the operation timed next to it move together and their
ratio stays put.  It runs for about 20 ms on a 2-core x86-64 host.  This
module never imports nistab and its inputs do not depend on the workload
seed; changing it changes the unit of every `ref` figure.
"""

from __future__ import annotations

import json
import time

import numpy as np

POINTS = 400
STATES = 8


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20161209)
        self.A = rng.standard_normal((STATES, STATES)) - 3 * np.eye(STATES)
        self.B = rng.standard_normal((STATES, 2)).astype(complex)
        self.C = rng.standard_normal((2, STATES))
        self.omegas = np.logspace(-2, 2, POINTS)
        self.eye = np.eye(STATES)

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        points = []
        for omega in self.omegas:
            resolvent = 1j * float(omega) * self.eye - self.A
            guard = float(np.linalg.svd(resolvent, compute_uv=False).min())
            G = self.C @ np.linalg.solve(resolvent, self.B)
            H = 1j * (G - G.conj().T)
            low = float(np.linalg.eigvalsh((H + H.conj().T) / 2).min())
            points.append({"omega": float(omega), "min_eig": low, "guard": guard})
        "\n".join(f"{p['omega']:.17g},{p['min_eig']:.17g}" for p in points)
        json.dumps(points)
        return time.perf_counter() - t0
