"""A fixed slice of work timed between jobs, to follow the machine's speed.

On a shared host the same job can run 40% slower for tens of seconds at a
time. The probe runs between jobs and between set-ups. A time is scaled by
NOMINAL_PROBE_S over the median probe run within WINDOW_S seconds of it,
which gives the time it would take on a machine where the probe takes
NOMINAL_PROBE_S; the median keeps one slow probe from moving a job.

The probe is interpreter and small-array numpy work, like the program's.
It runs in a child process, started before set-up, that imports nothing of
the program, while the benchmark process waits for it. So nothing the
program leaves behind in the benchmark process (threads, caches, imports,
garbage) can slow or speed the probe; only the host can.

Run as a script, this file is that child: it answers each line read on
standard input with the probe's time in seconds, and exits at end of input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Median probe time on a 2-CPU x86-64 VM, Python 3.11, numpy 2.4.
NOMINAL_PROBE_S = 0.015
#: Probes this close to an interval set its speed. The host's speed changes
#: within seconds: on 12 experiment runs a 1 s window (the probes next to a
#: 1.2 s job) left about 40% less run-to-run spread than a 5 s window.
WINDOW_S = 1.0
#: Seconds the child may take to start, answer or exit.
CHILD_TIMEOUT_S = 60

_KEYS = [f"key{i}" for i in range(997)]


def probe() -> float:
    """Seconds taken by the fixed slice of work."""
    import numpy as np

    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(60000):
        key = _KEYS[i % 997]
        counts[key] = counts.get(key, 0) + i
    a = np.arange(64)
    for _ in range(3000):
        a = np.minimum(a + 1, a[::-1])
    return time.perf_counter() - t0


class Speed:
    """Probe times with when they ran; scales a timed interval to nominal speed.

    Use as a context manager: it starts the probe's child process and, on
    exit, ends it and waits for it.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._child: subprocess.Popen | None = None

    def __enter__(self) -> Speed:
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        child, self._child = self._child, None
        try:
            child.stdin.close()
        except BrokenPipeError:  # it has already exited
            pass
        try:
            child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()

    def tick(self) -> None:
        """Run the probe in the child and wait for it; call between timed intervals."""
        start = time.perf_counter()
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        answer = self._child.stdout.readline()
        if not answer:
            raise RuntimeError(f"speed probe exited with code {self._child.wait()}")
        self.probes.append((start, float(answer)))

    def scaled(self, start: float, end: float) -> float:
        """`end - start` at nominal speed, by the median probe within WINDOW_S."""
        near = [d for t, d in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
        return (end - start) * NOMINAL_PROBE_S / statistics.median(near)


def _serve() -> None:
    probe()  # warm up: first-call costs are not the host's speed
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    _serve()
