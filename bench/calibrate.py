"""Host-speed calibration of the benchmark's timings.

On the shared 2-core host this benchmark was sized on, each virtual CPU
switched every second or so between a fast and a slow state (about 1.45x
apart), independently of the other CPU, and CPU time tracked wall time
(slower execution, not waiting). Raw times of one 2-second training run
spread by about a fifth between repeats there.

So while a measured operation runs, a timer signal every PROBE_INTERVAL_S
runs a fixed probe kernel, owned by the benchmark and independent of the
package, on the same CPU and between the operation's own bytecodes. The
operation's time is scaled by the mean of REFERENCE_S / (probe time): the
result is in seconds at the host speed at which the probe takes
REFERENCE_S. Over 30 repeats of that training run, scaling cut the spread
(interquartile range over median) from 19% to 4%. The probes add about 2%
to the raw time, the same on every commit. Raw times are printed next to
the scaled ones.

An operation whose work runs in child processes on every CPU (`crossval
--jobs 2`) leaves the probing parent idle on one CPU, so its probes would
sample that CPU alone. For such an operation each probe moves the parent to
the next CPU in turn, runs once there to settle, and then times the probe;
the parent's CPU set is restored before the operation resumes, so processes
it starts inherit the full set. On that host, over 8 alternating repeats of
that cross-validation, this cut the spread of its scaled time from 11%
to 4%.

A probe that runs between stretches of other work rather than inside them
(the per-sentence loop, and each CPU's first probe above) is timed on its
second run, once its data is back in the caches. On that host, over 4
alternating runs of the loop on crossval-small, this cut the spread of
the median scaled latency from 17% to 2.5%.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time

# Probe time on that host in its fast state (Python 3.11).
REFERENCE_S = 150e-6
PROBE_INTERVAL_S = 0.01


class Meter:
    def __init__(self):
        rnd = random.Random(1)
        words = ["".join(rnd.choice("abcdefghijklmnop")
                         for _ in range(rnd.randint(3, 8)))
                 for _ in range(300)]
        self._tokens = [rnd.choice(words) for _ in range(400)]
        self._cpus = sorted(os.sched_getaffinity(0))

    def probe(self) -> float:
        """Seconds the probe kernel takes now: dict counting over tuple
        keys, the kind of work the learners do."""
        t0 = time.perf_counter()
        counts = {}
        prev = ""
        for word in self._tokens:
            key = (prev, word[-2:], len(word))
            counts[key] = counts.get(key, 0) + 1
            prev = word
        return time.perf_counter() - t0

    def settled_probe(self) -> float:
        """probe() timed on its second run: the first brings the probe's
        data back into the caches after other work has evicted it."""
        self.probe()
        return self.probe()

    def speed(self, probes) -> float:
        """Host-speed factor over an interval sampled by ``probes``."""
        return statistics.mean(REFERENCE_S / p for p in probes)

    def time(self, fn, every_cpu: bool = False) -> tuple:
        """(raw seconds, speed factor, result) of ``fn()``; raw seconds
        times the factor is the scaled time. ``fn`` runs in the main thread
        with SIGALRM taken by the probes; ``every_cpu`` probes the CPUs in
        turn, for work that runs in child processes on all of them."""
        probes = []

        def on_alarm(signum, frame):
            if not every_cpu:
                probes.append(self.probe())
                return
            cpu = self._cpus[len(probes) % len(self._cpus)]
            os.sched_setaffinity(0, {cpu})
            try:
                probes.append(self.settled_probe())
            finally:
                os.sched_setaffinity(0, self._cpus)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not probes:  # shorter than one interval
            probes = [self.probe() for _ in range(3)]
        return raw, self.speed(probes), result
