"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the same code runs at very different speeds from one run
to the next: consecutive 10-s runs of density-curves on a 2-vCPU cloud VM
went from 538 to 749 points/s, with the process on the CPU for 96% of the
wall time throughout, so the slack is in how fast each CPU second is, not
in how many the process gets. Each worker therefore times a slice of this
computation between its requests, and the end-to-end timings are scaled to
a host on which one slice takes ``REFERENCE_S``: a request's latency is
multiplied by REFERENCE_S over the mean of the slices run just before and
just after it, and a probe's set-up time by REFERENCE_S over the mean of
the slices it runs after its warm-up. The host's speed drifts within a run
too, so a request is scaled by the speed measured around it, not by the
run's average.

A slice mixes the three kinds of work the workloads do: interpreted float
arithmetic (the CLI, the quadrature drivers), numpy on a few hundred
elements (the density and value integrands) and numpy on tens of thousands
(the Monte Carlo blocks). Nothing in it touches threshold_diffusion, so a
change to the library moves the scaled timings and leaves the slices alone.
The full report keeps the unscaled figures next to the scaled ones.
"""

import math
import time

import numpy as np

# about the slice time on the machine the benchmark was written on (2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6) in its fastest spells; slices
# there mostly took 0.014-0.017 s. It only sets the unit: scaled figures
# read as that machine's at that speed.
REFERENCE_S = 0.012

_SMALL = np.linspace(-3.0, 3.0, 200)


def _interpreted():
    s = 0.0
    for i in range(20000):
        s += math.exp(-i * 1e-3) * math.sqrt(i + 1.0)
    return s


def _small_arrays():
    s = 0.0
    for i in range(400):
        s += float((np.exp(-_SMALL * _SMALL * (1.0 + i * 1e-3)) * np.sqrt(1.0 + _SMALL * _SMALL)).sum())
    return s


def _large_arrays(gen):
    s = 0.0
    for _ in range(4):
        s += float(np.cumsum(gen.standard_normal(50000) * 1e-3 + 0.1).max())
    return s


class Calibrator:
    """Times slices of the reference computation.

    ``slices`` holds one (position, seconds) pair per slice, the position
    being the number of requests issued before it.
    """

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(0))
        self.slices = []

    def slice(self, position):
        """Run one slice; returns its duration in seconds."""
        t0 = time.perf_counter()
        _interpreted()
        _small_arrays()
        _large_arrays(self.gen)
        took = time.perf_counter() - t0
        self.slices.append((position, took))
        return took


def scale(slices):
    """Factor that turns times measured during these slices into reference-host times."""
    return REFERENCE_S * len(slices) / sum(took for _, took in slices)


def request_scales(n, slices):
    """The scale of each of ``n`` requests, from the slices just before and after it.

    ``slices`` are (position, seconds) pairs in order, the first at position
    0; a request with no slice after it takes the one before it alone.
    """
    scales, j = [], 0
    for i in range(n):
        while j + 1 < len(slices) and slices[j + 1][0] <= i:
            j += 1
        around = [slices[j][1]] + ([slices[j + 1][1]] if j + 1 < len(slices) else [])
        scales.append(REFERENCE_S * len(around) / sum(around))
    return scales
