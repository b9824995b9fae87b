"""Correcting measured times for the machine's speed at the moment.

On a two-core virtual machine (Intel Xeon at 2.0 GHz) the same
pure-Python loop ran up to 1.4 times slower at one moment than a few
seconds earlier, with no steal time reported and no other benchmark
process running, and whole 25 s runs of unchanged code differed by up
to half.  So the benchmark times a fixed calibration kernel between operations
and reports each operation's time scaled to a machine on which the
kernel takes REFERENCE_S: raw time x REFERENCE_S / kernel time, where
the kernel time is the mean of the samples taken just before and just
after the operation.

The kernel is the benchmark's own reference code (reference.py) on
fixed inputs, never the program, so no change to the program can
change it.  Its mix (tuple-keyed set lookups, a small backtracking
search, ancestor-level walks) is close to the program's, which is what
lets the correction track the program's own slowdowns.  It tracks them
well where operations are short and poorly across a single operation
of several seconds, whose speed changes within it; perfbench/README.md
gives the spreads with and without it.  Raw times are kept in the
run's output file.
"""

from __future__ import annotations

import gc
import random
import time

import reference as ref

# About what the kernel took on a two-core Intel Xeon virtual machine at
# 2.0 GHz in its faster moments; corrected times read as seconds there.
REFERENCE_S = 0.010
# A sample is taken after a timed call once this many seconds have
# passed since the previous one.
SAMPLE_EVERY_S = 0.25
# Each sample runs the kernel for this share of the time since the
# previous sample, so that after a long operation the sample spans
# long enough to reflect the speed the operation ran at.
SAMPLE_SHARE = 0.1


def _kernel_inputs():
    order = list(range(1, 28))
    random.Random("perfbench:kernel").shuffle(order)
    position = {x: i + 1 for i, x in enumerate(order)}
    host = {tuple(sorted(position[x] for x in e)) for e in ref.blowup_edges(3, 3, (1, 2), 3)}
    gv, g = ref.canonical_g_edges(3, 3, (1, 2))
    chi = ref.SteppedReference(ref.SteppedReference({(1, 2): 0, (1, 3): 1, (2, 3): 0}, 3), 8)
    rng = random.Random("perfbench:kernel-sets")
    sets = [sorted(rng.sample(range(1, 257), 4)) for _ in range(150)]
    return host, ref.reversed_edges(host, 27), gv, g, chi, sets


class SpeedClock:
    """Times calls and keeps the calibration samples taken between them."""

    def __init__(self):
        self.host, self.rev_host, self.gv, self.g, self.chi, self.sets = _kernel_inputs()
        self.samples: list[float] = []
        self.last = time.perf_counter()
        self.raw: dict[str, list[float]] = {}
        self.marks: dict[str, list[int]] = {}
        self.sample()

    def kernel(self) -> None:
        for _ in range(2):
            ref.contains_f_member(self.host, 27, 3, 3, (1, 2))
            ref.contains_f_member(self.rev_host, 27, 3, 3, (1, 2))
            ref.least_embedding(self.host, 27, self.g, self.gv)
            for X in self.sets:
                self.chi.color(X)

    def sample(self) -> None:
        """Run the kernel for a tenth of the time since the last sample."""
        span = SAMPLE_SHARE * (time.perf_counter() - self.last)
        gc.disable()
        t0 = time.perf_counter()
        runs = 0
        while runs == 0 or time.perf_counter() - t0 < span:
            self.kernel()
            runs += 1
        self.samples.append((time.perf_counter() - t0) / runs)
        gc.enable()
        self.last = time.perf_counter()

    def timed(self, kind: str, fn, *args):
        """Call fn(*args), record its raw time under kind, return its result."""
        self.marks.setdefault(kind, []).append(len(self.samples) - 1)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.raw.setdefault(kind, []).append(time.perf_counter() - t0)
            if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
                self.sample()

    def corrected(self, kind: str) -> list[float]:
        """Raw times of kind scaled to the reference speed.

        Call sample() once after the last timed call first, so that
        every call has a sample after it.
        """
        return [
            t * REFERENCE_S * 2 / (self.samples[k] + self.samples[k + 1])
            for t, k in zip(self.raw.get(kind, []), self.marks.get(kind, []))
        ]
