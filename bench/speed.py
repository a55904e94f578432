"""Reference-speed correction for timings on a CPU whose speed drifts.

On a shared virtual machine the speed of a virtual CPU follows the load
other tenants put on the same physical core: on a shared 2-vCPU x86_64
virtual machine the same loop ran at two levels about 1.7x apart,
switching every few seconds, and independently on each vCPU.  Raw timings of whole runs then differ by up
to 2x.  The benchmark therefore pins itself (and the processes it starts)
to one CPU and times a fixed reference computation, which uses no
orbitdist code, next to the work it measures: between in-process ops, and
every few milliseconds alongside a child process.  Each timing is scaled
by REF_S / (median reference time around it), i.e. reported in seconds at
the speed where the reference takes REF_S.  Raw timings stay in the
detail output.
"""
from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

# The reference computation takes about this long at full speed on a
# 2 GHz x86_64 vCPU, so scaled timings read close to raw ones there.
REF_S = 6.5e-4
# Probes within this many seconds of a timed interval set its speed.
PAD_S = 0.25
# Fewest probes a speed estimate rests on; nearer ones are added if needed.
MIN_PROBES = 5
# Gap between probes taken alongside a child process.
CHILD_PROBE_GAP_S = 0.02
# A child still running after this long is killed (a run must end in 180 s).
CHILD_TIMEOUT_S = 170.0



class Child(NamedTuple):
    """A finished child process, timed and measured."""

    returncode: int
    stdout: str
    stderr: str
    start: float
    end: float
    peak_rss_mb: float


_REF_A = np.linspace(-1.0, 1.0, 12).reshape(2, 6)


def reference_work() -> float:
    """Fixed mix of interpreter work and small numpy/LAPACK calls, shaped
    like the library's own per-call work."""
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    for _ in range(18):
        b = np.asarray(_REF_A, dtype=np.float64)
        if np.all(np.isfinite(b)):
            c = b - b.mean(axis=1, keepdims=True)
            s += float(np.linalg.norm(np.linalg.svd(c @ c.T)[0]))
    return s


def pin_to_one_cpu() -> int:
    """Run this process and its future children on one CPU, so a probe and
    the work it stands for share the CPU's speed."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Timed reference probes, and the speed factor they give an interval."""

    def __init__(self):
        self.mids: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)

    def factor(self, t0: float, t1: float, pad: float = PAD_S) -> float:
        """REF_S over the median probe time within ``pad`` of [t0, t1];
        at least MIN_PROBES probes, the nearest ones, are used."""
        lo = bisect.bisect_left(self.mids, t0 - pad)
        hi = bisect.bisect_right(self.mids, t1 + pad)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.mids)):
            if lo > 0 and (hi == len(self.mids) or t0 - self.mids[lo - 1] < self.mids[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self.durations[lo:hi])

    def run_child(self, argv: list[str], scratch: Path) -> Child:
        """Run a child process to completion, probing every
        CHILD_PROBE_GAP_S meanwhile; the probes between ``start`` and
        ``end`` are the child's own.  Output goes through unnamed files in
        ``scratch``, so the child is reaped here and its own peak RSS read."""
        done = threading.Event()
        with tempfile.TemporaryFile("w+", dir=scratch) as out, tempfile.TemporaryFile("w+", dir=scratch) as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, text=True)
            box = {}

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                box.update(end=perf_counter(), status=status, usage=usage)
                done.set()

            waiter = threading.Thread(target=reap)
            waiter.start()
            while not done.wait(CHILD_PROBE_GAP_S):
                if perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
                self.probe()
            waiter.join()
            out.seek(0)
            err.seek(0)
            return Child(
                os.waitstatus_to_exitcode(box["status"]), out.read(), err.read(),
                start, box["end"], box["usage"].ru_maxrss / 1024.0,  # KiB on Linux
            )
