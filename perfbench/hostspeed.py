"""A probe of the host's speed that does not touch sourcescope.

The benchmark runs on virtual machines shared with other tenants, whose
speed drifts by up to a quarter over minutes: the median paper_fig1 run
took 0.99 s in one run of the benchmark and 1.13 s in another a minute
later.  That drift is common to all work on the host, so the benchmark
times a fixed probe between its units and reports its times at a
reference host speed: each time is multiplied by
REFERENCE_S / (median probe time of the run).

The probe is a mix of what a sourcescope run spends its time on, in about
equal parts: numpy arithmetic on a 10 MB array, small symmetric
eigenproblems (as in Gauss-Legendre nodes) and pure-Python dict updates.
Equal parts predicted the median unit time of both paper_fig1 and
random_scenario runs better than a probe made mostly of array arithmetic.
The probe runs in a child process of its own, started once per run, so
that the program's heap, garbage and threads in the benchmark process do
not change its time.
"""
from __future__ import annotations

import statistics
import subprocess
import sys

# About the median probe time on the reference machine: a 2-vCPU shared
# virtual machine, Python 3.11.7, numpy 2.4.6, one BLAS thread.
REFERENCE_S = 0.0500

PROBE = r"""
import sys, time
import numpy as np

rng = np.random.default_rng(0)
big = rng.standard_normal(1_300_000)
tri = [np.diag(rng.random(64)) + np.diag(rng.random(63), 1)
       + np.diag(rng.random(63), -1) for _ in range(8)]


def probe():
    start = time.perf_counter()
    y = np.exp(-np.abs(big))
    y *= np.cumsum(y)
    for _ in range(10):
        for m in tri:
            np.linalg.eigvalsh(m)
    acc = {}
    for i in range(60000):
        acc[i % 97] = acc.get(i % 97, 0) + i * 0.5
    return time.perf_counter() - start


probe()
for _ in sys.stdin:
    print(probe(), flush=True)
"""


class HostSpeed:
    """The probe process; `sample()` times one probe, `factor()` is what
    the run's times are multiplied by.  Use it as a context manager, which
    stops the process and waits for it."""

    def __init__(self, cwd):
        self.samples = []
        self.proc = subprocess.Popen(
            [sys.executable, "-c", PROBE], cwd=cwd, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host speed probe exited with code %s"
                               % self.proc.wait())
        self.samples.append(float(line))

    def factor(self):
        return REFERENCE_S / statistics.median(self.samples)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
