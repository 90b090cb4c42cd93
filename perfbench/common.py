"""Small helpers shared by the workloads: statistics, digests, memory."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class CheckFailed(Exception):
    """A correctness check failed; the run must print no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def digest(journal: Dict[str, object]) -> str:
    """sha256 of a run journal in canonical JSON."""
    text = json.dumps(journal, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids() -> List[int]:
    """Live children of this process (all threads)."""
    pids: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as fh:
                pids.extend(int(pid) for pid in fh.read().split())
        except OSError:
            continue
    return pids


def host_cpu_ticks() -> List[int]:
    """Aggregate CPU ticks from /proc/stat: [busy, idle, steal].  Steal is
    time the hypervisor ran something else while this VM wanted a CPU;
    it inflates every wall-clock metric of the run."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    return [user + nice + system + irq + softirq, idle + iowait, steal]


def delivered_s(wall_s: float, before: List[int], after: List[int]) -> float:
    """``wall_s`` less the share of it the hypervisor stole: the wall time
    scaled by busy / (busy + steal) over the interval's ticks.

    Only for intervals the program keeps its CPUs busy (a contest, a
    set-up, a saturated server), where stolen time is time the program
    would have spent working.  A halted vCPU accrues no steal."""
    busy, _idle, steal = (b - a for a, b in zip(before, after))
    return wall_s * busy / (busy + steal) if busy + steal else wall_s


#: The host-speed probe: every ``PROBE_PERIOD_S`` of wall time a SIGALRM
#: handler runs a fixed pure-Python kernel of ``PROBE_LOOPS`` iterations
#: and records how long it took.  ``PROBE_NOMINAL_S`` is the kernel's
#: time at the reference speed; it only sets the scale of the normalised
#: seconds and must never change between two versions being compared.
PROBE_PERIOD_S = 0.01
PROBE_LOOPS = 1500
PROBE_NOMINAL_S = 250e-6
#: A sample slower than this many times the window's median was cut
#: short by the scheduler, not slowed by the host; it is left out of the
#: speed estimate (its time is still subtracted from the window).
PROBE_OUTLIER = 3.0

_PROBE_TABLE = {key: key for key in range(64)}


def _probe_kernel(loops: int) -> int:
    """Fixed work of the interpreter's common kind (loop, integer
    arithmetic, dict reads and writes) that allocates no tracked object,
    so garbage collection never runs inside it."""
    table, acc = _PROBE_TABLE, 0
    for i in range(loops):
        key = i & 63
        acc = (acc + table[key] * 3) & 0xFFFFF
        table[key] = acc & 0xFF
    return acc


class SpeedProbe:
    """Samples the speed of the CPU this process runs on, interleaved
    with the program, so a run's timings can be put at a reference speed.

    A shared host's CPU speed wanders (a fixed loop runs at two speeds
    about 1.5x apart, switching within a second, in phases lasting
    minutes), and /proc CPU seconds slow down with it, so neither wall
    time nor CPU time compares one run with the next.  The probe's kernel
    is the benchmark's own code: a faster or slower program leaves its
    duration alone, while a slower host stretches both.

    :meth:`seconds` turns a wall interval into normalised seconds: the
    interval minus the probe time inside it, times ``PROBE_NOMINAL_S``
    over the mean kernel time sampled inside it.  One probe per process;
    the timer is not inherited by forked children.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _probe_kernel(PROBE_LOOPS)
        self.samples.append((t0, time.perf_counter() - t0))

    def seconds(self, start: float, end: float) -> float:
        """Normalised seconds of the ``perf_counter`` interval
        [start, end]; the raw wall time when no sample fell inside it."""
        return normalised_s(start, end, self.samples)


def normalised_s(start: float, end: float,
                 samples: Sequence[Sequence[float]],
                 elapsed: Optional[float] = None) -> float:
    """See :meth:`SpeedProbe.seconds`; ``samples`` are ``(perf_counter
    at start, duration)`` pairs, possibly from another process (on Linux
    ``perf_counter`` is CLOCK_MONOTONIC, shared by all processes).
    ``elapsed`` replaces the wall time of the interval when the seconds
    to normalise are another measure of it (the CPU seconds the sampled
    process spent inside it)."""
    if elapsed is None:
        elapsed = end - start
    inside = [dt for t, dt in samples if start <= t and t + dt <= end]
    if not inside:
        return elapsed
    cap = PROBE_OUTLIER * statistics.median(inside)
    kept = [dt for dt in inside if dt <= cap]
    return (elapsed - sum(inside)) * PROBE_NOMINAL_S / mean(kept)


def out_dir() -> str:
    """``.perfbench/`` under the working directory (the checkout root):
    server logs and span dumps."""
    path = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
