"""Host-speed-adjusted timing.

Single-shot wall and CPU time do not repeat on a host whose speed
drifts between regimes, so every timed piece of work here is scaled by
how fast the host ran a fixed probe kernel right before and right
after it.  A chunk that took ``raw`` seconds between probes of ``p0``
and ``p1`` seconds counts as ``raw * reference / mean(p0, p1)``: the
time it would have taken on a host whose probe takes ``reference``.

The probe is the benchmark's own code, never the program's: a program
speed-up must not speed up the ruler it is measured with.  It is a
miniature message-driven simulation -- a heap of timestamped events,
handler method calls, one small message object and dict per event --
whose working set is chosen to match the workload's.  A host's slow
regimes do not slow cache-bound and cache-missing code alike: on the
reference host a cache-resident probe swung about 1.4x as much as the
1024-PE stencil, so scaling the stencil by it over-corrected.

The probe's entities are frozen out of the garbage collector's view
(they must not make the program's collections slower), and the
collector is paused while the probe runs, so that a collection the
program owes is not charged to the probe.
"""

from __future__ import annotations

import gc
import heapq
import time
from statistics import mean, median
from typing import Any, Callable, List, Tuple

#: Entities of the probe simulations: a large working set (~25 MB)
#: for workloads that, like the 1024-PE stencil, miss the caches, and a
#: cache-resident one for workloads of small runtimes.
LARGE_PROBE = 1 << 16
SMALL_PROBE = 512
#: Events one probe fires (a few ms on a 2020s x86 core).
PROBE_EVENTS = 3000
_FANOUT = 6


class _Msg:
    def __init__(self, src: int, size: int, payload: Any) -> None:
        self.src = src
        self.size = size
        self.payload = payload


class _Entity:
    def __init__(self, i: int, n: int) -> None:
        self.i = i
        self.count = 0
        self.total = 0
        self.peers = [(i * 7 + k * 131) % n for k in range(_FANOUT)]

    def handle(self, msg: _Msg, now: float, queue: list, entities: list, seq: int) -> None:
        self.count += 1
        self.total += msg.size
        dst = self.peers[(self.count + msg.src) % _FANOUT]
        out = _Msg(self.i, msg.size + 8, {"it": self.count, "from": self.i})
        heapq.heappush(queue, (now + 1.0 + (dst & 7) * 0.125, seq, entities[dst], out))


class Probe:
    """The probe simulation; build once, then call :meth:`seconds`."""

    def __init__(self, entities: int) -> None:
        self.entities = [_Entity(i, entities) for i in range(entities)]
        gc.freeze()

    def _run(self) -> int:
        entities, n = self.entities, len(self.entities)
        queue: list = []
        for k in range(64):
            heapq.heappush(queue, (0.0, k, entities[(k * 97) % n], _Msg(0, 8, None)))
        pop = heapq.heappop
        seq = 64
        for _ in range(PROBE_EVENTS):
            now, _seq, ent, msg = pop(queue)
            seq += 1
            ent.handle(msg, now, queue, entities, seq)
        return seq

    def seconds(self) -> float:
        """Time one probe run, with the garbage collector paused."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._run()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()


class AdjustedClock:
    """Times calls in host-speed-adjusted seconds.

    Consecutive calls share their bracketing probes (probe, call,
    probe, call, probe, ...).  ``raw_s``/``adjusted_s`` accumulate the
    timed calls only; probe time is in neither.
    """

    def __init__(self, reference_ms: float, entities: int) -> None:
        if not reference_ms > 0:
            raise ValueError(f"reference probe must be positive, got {reference_ms!r}")
        self.reference_s = reference_ms / 1e3
        self.probe = Probe(entities)
        self.probes: List[float] = []
        self.raw_s = 0.0
        self.adjusted_s = 0.0
        self._last = self._probe()

    def _probe(self) -> float:
        p = self.probe.seconds()
        self.probes.append(p)
        return p

    def time(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
        """Run ``fn(*args)``; return its result and adjusted seconds."""
        before = self._last
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self._last = self._probe()
        adjusted = raw * self.reference_s / mean((before, self._last))
        self.raw_s += raw
        self.adjusted_s += adjusted
        return out, adjusted

    @property
    def probe_ms(self) -> float:
        """Median probe of this clock so far, in milliseconds."""
        return median(self.probes) * 1e3
