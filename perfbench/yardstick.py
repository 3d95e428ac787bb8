"""A fixed CPU yardstick that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host (other guests,
frequency changes). On a 2-vCPU Xeon guest its speed flipped between a
fast and a slow state about 35% apart every few seconds, and the share of
time spent in each state moved the median op time of a 30 s run by up to
20% from run to run. Between ops the benchmark times this kernel, which
does the same kinds of work as pacshift's hot paths -- short numpy calls
in an interpreted loop, array sorts, and parsing floats out of text -- on
fixed inputs and without calling pacshift, so no change to pacshift can
move it. Each timed call is scaled by the mean kernel time measured just
before and just after it: ``cpu * REF_S / mean kernel time`` is the CPU
time the call would have taken on a host where the kernel takes
``REF_S`` ("reference seconds"). The mean, not the median, because the
kernel times are bimodal and the mean weighs both states by their share.
"""

from __future__ import annotations

import resource
import time

import numpy as np

# CPU seconds of one kernel on a quiet 2-vCPU 2.1 GHz Xeon KVM guest.
REF_S = 0.020
# Kernel time run after each op, as a share of the op's CPU time.
SHARE = 0.05
WARMUP = 3


def cpu_now() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(20231019)
        self.dp = rng.integers(-1, 50, size=4096)
        self.keys = rng.random(20000)
        self.text = [",".join(f"{x:.17g}" for x in row) for row in rng.random((400, 11))]
        self.samples: list[float] = []
        for _ in range(WARMUP):
            self.kernel()
        self.resync()

    def kernel(self) -> int:
        """One fixed unit of work; returns a checksum so nothing is skipped."""
        new = np.full(len(self.dp), -1, dtype=np.int64)
        for a in range(0, 1200, 3):
            seg = self.dp[: len(self.dp) - a]
            np.maximum(new[a:], np.where(seg < 0, -1, seg + (a & 7)), out=new[a:])
        total = int(new.sum())
        for _ in range(4):
            total += int(np.argsort(self.keys, kind="stable")[0])
        for line in self.text:
            total += int(sum(float(c) for c in line.split(",")) * 8)
        return total

    def sample(self, op_cpu_s: float) -> list[float]:
        """Kernel CPU times over about SHARE of an op's CPU time, at least one."""
        times = []
        for _ in range(max(1, round(SHARE * op_cpu_s / REF_S))):
            t0 = time.process_time()
            self.kernel()
            times.append(time.process_time() - t0)
        self.samples += times
        return times

    def resync(self):
        """Take the 'before' samples afresh, after untimed work."""
        self.gap = self.sample(0.0)

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns its result and its times.

        The times are wall and CPU seconds, the kernel samples around the
        call, and ``ref``: the CPU time in reference seconds.
        """
        c0, t0 = cpu_now(), time.perf_counter()
        result = fn(*args)
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        before, self.gap = self.gap, self.sample(cpu)
        near = before + self.gap
        ref = cpu * REF_S / (sum(near) / len(near))
        return result, {"wall": wall, "cpu": cpu, "ref": ref, "yardstick": near}
