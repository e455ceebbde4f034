"""Process memory and host-speed readings, stdlib and numpy only."""

from __future__ import annotations

import statistics
import time


def peak_rss_mb(status_path: str = "/proc/self/status") -> float:
    """This process's own peak resident set (``VmHWM``), in MiB.

    ``getrusage(RUSAGE_SELF).ru_maxrss`` is not used: on Linux a child
    inherits its parent's high-water mark across fork+exec, so a small
    worker started by a large parent reports the parent's figure.
    ``VmHWM`` starts afresh with the new address space at exec.
    """
    with open(status_path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {status_path}")


#: What :func:`calibration_s` takes on the reference host (a 2.1 GHz
#: Xeon vCPU in its fast state).  CPU-bound times are reported at this
#: host speed: measured seconds x ``REFERENCE_CALIBRATION_S`` / the
#: calibration time measured around them.
REFERENCE_CALIBRATION_S = 0.025


def calibration_s() -> float:
    """Seconds for a fixed loop: pure-Python arithmetic plus one matmul.

    Timed at the start and end of every run as host-noise context (two
    sets of runs that disagree while their calibration times differ
    point at the host, not at the program), and around every CPU-bound
    measurement by :func:`host_speed`.
    """
    import numpy as np

    a = np.arange(160 * 160, dtype=np.float64).reshape(160, 160) / 1e4
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    (a @ a).sum()
    return time.perf_counter() - t0


def host_speed() -> float:
    """Reference-host seconds per measured second, right now.

    The median of five calibration loops (~0.15 s in all).  On a shared
    host the same job's time moves by tens of percent between minutes;
    the calibration loop moves with it (correlation ~0.86 with a
    ``paper-figs`` pass), so scaling a CPU-bound time by this factor
    leaves the program's own cost.
    """
    return REFERENCE_CALIBRATION_S / statistics.median(calibration_s() for _ in range(5))
