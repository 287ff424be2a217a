"""The machine's speed, measured alongside the program by a fixed kernel.

On a shared virtual machine the speed of the same code drifts: on the 2-vCPU
machine of README.md it switched between two speeds about 1.5x apart within
seconds, and it ran at twice or half the speed from one hour to the next, in
CPU time as well as in wall time. So a fixed kernel that does not call vtopt
is timed every few tenths of a second between the program's operations, and
every operation's CPU time is scaled by (the kernel's reference time) / (the
kernel's time around the operation). A time so scaled reads as it would at the
speed the kernel had when its reference time was measured. What the scaling
removes is the machine's drift, not a change of vtopt's own cost, since the
kernel's code does not change with vtopt.

The kernel is the benchmark's own cantilever solve and neighborhood min/max
(`reference.py`), so it uses the machine the way the program does: a sparse
LU for the large grids, many small numpy calls for the tiny ones.
"""

from __future__ import annotations

from time import perf_counter
from time import thread_time as cpu_clock
from types import SimpleNamespace

import numpy as np

import reference

# workload -> (nx, ny, solves per kernel call, seconds between samples,
#              kernel CPU seconds at the reference speed)
# The reference times are each kernel's median CPU time over 20 s of samples taken
# back to back on the machine described in README.md.
KERNELS = {
    "default_run": (40, 20, 1, 0.25, 0.0092),
    "slice_160x80": (112, 56, 1, 0.5, 0.113),
    "gradcheck_suites": (8, 4, 10, 0.2, 0.0104),
}


def _kernel_config(nx: int, ny: int) -> SimpleNamespace:
    return SimpleNamespace(nx=nx, ny=ny, h=1.0, clamp_edge="left", load_x=None, load_y=None,
                           penalized_reference=False, rho_low=0.5, E0=1.0, rho_min=1e-9,
                           nu=0.3, load_fx=0.0, load_fy=-1.0)


class Calibration:
    """Kernel samples over a run, and the scale they give each operation.

    The machine switches between speeds within seconds (kernel and program
    slow down together, by up to half), so an operation is scaled by the two
    samples that bracket it, not by an average over the run.
    """

    def __init__(self, workload: str):
        nx, ny, self.repeats, self.every_s, self.reference_s = KERNELS[workload]
        self.cfg = _kernel_config(nx, ny)
        self.rho = np.random.default_rng(0).uniform(0.05, 1.0, nx * ny)
        self.times: list[float] = []    # wall time at the end of each sample
        self.kernel_s: list[float] = []  # CPU time of each sample
        self.spent = 0.0                 # CPU time of all samples so far
        self._last = -np.inf

    def measure(self) -> None:
        begin = cpu_clock()
        for _ in range(self.repeats):
            reference.cantilever_compliance(self.cfg, self.rho, 3.0)
            reference.neighborhood_extrema(self.rho, self.cfg.nx, self.cfg.ny, 1.0, 2.5)
        elapsed = cpu_clock() - begin
        self.spent += elapsed
        self._last = perf_counter()
        self.times.append(self._last)
        self.kernel_s.append(elapsed)

    def maybe(self) -> None:
        """A sample, if the last one is `every_s` old."""
        if perf_counter() - self._last >= self.every_s:
            self.measure()

    def speed(self, first: int = 0) -> np.ndarray:
        """REFERENCE_S over the kernel time of each sample from `first` on: the
        machine's speed relative to the reference."""
        return self.reference_s / np.asarray(self.kernel_s[first:])

    def scaled(self, samples) -> list[float]:
        """Durations of (end wall time, duration) samples at the reference speed: each
        scaled by the mean speed of the last sample before its end and the first after."""
        if not samples:
            return []
        when, duration = np.asarray(samples, dtype=float).T
        speed = self.speed()
        after = np.minimum(np.searchsorted(self.times, when), speed.size - 1)
        before = np.maximum(after - 1, 0)
        return list(duration * (speed[before] + speed[after]) / 2)
