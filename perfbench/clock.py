"""Segment clock with a reference probe, for timing on a shared host.

On a shared host the same code runs up to twice as slow while another
tenant contends for the physical core, in spells from under a second to
minutes, so that whole runs can fall inside one spell.  Process CPU time
slows with it (the guest sees no steal time), so it does not help.  What
does is a reference: before each segment of a flow the clock runs a fixed
probe computation twice and times the second run (the first warms the
caches the previous segment left cold; unwarmed, the probe read twice as
slow after cache-heavy segments, so the program could move it).  The probe
does what the program does in miniature -- Python dict, tuple and list work
and small numpy matrix operations -- so it slows with the segment that
follows it, and

    segment time * PROBE_REFERENCE_S / probe time before the segment

is the segment's time at a fixed reference speed: the speed at which the
probe takes PROBE_REFERENCE_S, its time on a quiet 2-vCPU Xeon (KVM) host.
The probe runs outside the segments it calibrates and calls no slu code.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

PROBE_REFERENCE_S = 0.125e-3
_WEIGHTS = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32) / 8.0
_INPUT = np.linspace(0.0, 1.0, 32)


def probe() -> float:
    """Run the fixed reference computation; return its wall time in seconds."""
    start = perf_counter_ns()
    counts: dict[tuple[int, str], int] = {}
    for i in range(150):
        key = (i % 37, "k")
        counts[key] = counts.get(key, 0) + 1
    values = sorted((i * 7919) % 101 for i in range(200))
    sum(v for v in values if v & 1)
    x = _INPUT
    for _ in range(10):
        h = np.tanh(_WEIGHTS @ x)
        x = np.concatenate([h, h]) * 0.5
        np.log(np.exp(x - x.max()).sum())
    return (perf_counter_ns() - start) / 1e9


class Clock:
    """Splits a flow into consecutive segments at ``mark()`` calls.

    Each mark runs the probe, then starts the next segment; ``parts[i]`` is
    the wall time of segment i and ``probes[i]`` the probe timed just before
    it.  The first mark starts segment 0 and the last one ends the flow.
    """

    def __init__(self):
        self.parts: list[float] = []
        self.probes: list[float] = []
        self._segment_start: int | None = None

    def mark(self) -> None:
        end = perf_counter_ns()
        if self._segment_start is not None:
            self.parts.append((end - self._segment_start) / 1e9)
        probe()  # warms the caches the segment before left cold
        self.probes.append(probe())
        self._segment_start = perf_counter_ns()

    def segments(self) -> tuple[list[float], list[float]]:
        """(parts, probes), one probe per part."""
        return self.parts, self.probes[: len(self.parts)]
