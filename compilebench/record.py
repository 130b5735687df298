"""Environment and noise record, and the ``/proc`` readers behind it.

Each run prints one ``env`` line: CPU count and model, Python and NumPy
versions, source revision.  Its ``noise`` line holds the host's steal
share over the run (time the hypervisor ran someone else while this
machine's CPUs wanted to run), wall time next to process CPU time, and
a fixed-work probe timed before and after.  A run whose wall time is
far above its CPU time on a high steal share, or whose probe reads
high, was slowed by the host, not by the code.
"""

import os
import platform
import time


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def cpu_ticks():
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line of
    ``/proc/stat``; ``(0, 0)`` where it cannot be read."""
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            fields = [int(v) for v in line.split()[1:]]
            steal = fields[7] if len(fields) > 7 else 0
            return steal, sum(fields[:8])
    return 0, 0


def process_cpu_s(pid="self"):
    """utime + stime of a process in seconds, from ``/proc/<pid>/stat``."""
    text = _read(f"/proc/{pid}/stat")
    if not text:
        return 0.0
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid="self"):
    """VmHWM (peak resident set) of a process in MiB."""
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def source_revision(root):
    """The commit the checkout is at, read from ``.git`` when there is
    one (a plain export has none)."""
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if not head:
        return "unknown (no .git)"
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(os.path.join(root, ".git", ref)).strip()
        if not rev:
            for line in _read(os.path.join(root, ".git",
                                           "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    rev = line.split()[0]
        return rev or "unknown"
    return head


def host_probe_ms(repeats=3):
    """Median wall time of a fixed pure-Python load that runs no
    compiler code.  The host's speed changes by up to 2x in phases of
    tens of seconds, in CPU time as well as wall time, and steal does
    not show it; a high reading marks a run made in a slow phase."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        table = {}
        for i in range(150000):
            table[i & 4095] = (i, i % 7)
        times.append((time.perf_counter() - start) * 1000.0)
    return sorted(times)[len(times) // 2]


class NoiseWindow:
    """Steal share, wall time and process CPU time over a window, and
    the host probe at both ends."""

    def __init__(self):
        self.probe_before_ms = host_probe_ms()
        self.steal0, self.total0 = cpu_ticks()
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def close(self):
        steal, total = cpu_ticks()
        span = total - self.total0
        return {
            "steal_frac": (steal - self.steal0) / span if span else 0.0,
            "wall_s": time.perf_counter() - self.wall0,
            "process_cpu_s": time.process_time() - self.cpu0,
            "probe_ms_before": self.probe_before_ms,
            "probe_ms_after": host_probe_ms(),
        }


def environment(root):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "git_rev": source_revision(root),
    }
