"""Op and set-up times scaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM a
fixed busy loop took 12.5 ms and 20 ms of CPU time a minute apart, with
CPU time tracking wall time.  One run cannot average such phases out,
so a fixed calibration kernel is timed between spans (ops, set-ups),
and each span's CPU time is scaled by REFERENCE_KERNEL_S / (the kernel
time around it).  A scaled time reads as the span would take on a host
where the kernel takes REFERENCE_KERNEL_S.

The kernel mixes the kinds of work the program does: interpreted
dict/list code like the solver's search and the CLI's JSON handling, and
small numpy array passes like the feature layer.  The program never runs
it, so a change to the program cannot move it.  CPU time (user + system
of this process) leaves out time the process waited for a CPU another
process held.
"""

import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 0.004
KERNEL_REPEATS = 3

_GRID = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)


def _kernel():
    table, order = {}, []
    for i in range(6000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        order.append(key)
    order.sort()
    grid = _GRID
    for _ in range(6):
        grid = np.sqrt(grid * grid + 0.5)
        grid = grid[::-1] - grid.mean(axis=0)
        np.argsort(grid, axis=None)
    return len(table)


def kernel_time():
    """Median CPU seconds of KERNEL_REPEATS runs of the kernel."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.process_time()
        _kernel()
        times.append(time.process_time() - start)
    return statistics.median(times)


def speed_factors(kernel_times):
    """Scale factor of each span timed between consecutive kernel samples.

    Span i ran between kernel_times[i] and kernel_times[i + 1].  One
    sample is a few milliseconds and noisy, so each factor uses the
    median of those two and one more on either side.
    """
    return [REFERENCE_KERNEL_S
            / statistics.median(kernel_times[max(0, i - 1):i + 3])
            for i in range(len(kernel_times) - 1)]


class Scaled:
    """Times one long span; `seconds` is its scaled CPU time.

        with Scaled() as span:
            work()
        span.seconds
    """

    def __enter__(self):
        self.before = kernel_time()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        self.cpu = time.process_time() - self._cpu
        self.after = kernel_time()
        self.seconds = self.cpu * speed_factors([self.before, self.after])[0]
        return False
