"""Property-based equivalence of the event-queue implementations.

The load-bearing claim behind ``--eventq`` being a pure wall-clock
knob: every implementation pops the identical ``(time, priority,
seq)`` sequence under arbitrary interleavings of ``schedule``,
``schedule_batch`` and ``cancel`` — including operations performed
*from inside running callbacks*, which is where the calendar queue's
mid-rung insort and in-place compaction paths live.  Rejection
atomicity is part of the contract too: a failed batch must leave
queue state (and the sequence counter, which feeds tie-breaking)
untouched on every implementation.

Posted (uncancellable, ``Event``-free) entries share the ``seq``
counter with :meth:`~repro.sim.engine.Simulator.at`, so interleaving
``post`` with ``at``/``schedule_batch``/``cancel`` must pop the same
order everywhere, survive a ``checkpoint_sim``/``restore_sim`` round
trip, survive the auto queue's commit to the calendar, and run the
same whether drained in one ``run()`` or in ``run(max_events=k)``
chunks.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.eventq import (
    AutoSimulator,
    CalendarSimulator,
    CompiledSimulator,
    checkpoint_sim,
    compiled_available,
    restore_sim,
)

IMPLS = [CalendarSimulator, AutoSimulator]
if compiled_available():
    IMPLS.append(CompiledSimulator)

# An op either runs at the top level or inside a driver callback:
#   ("schedule", delay, priority)
#   ("batch", [offsets...], priority)
#   ("cancel", index-into-created-events)
_op = st.one_of(
    st.tuples(st.just("schedule"),
              st.floats(min_value=0.0, max_value=2e-5, allow_nan=False),
              st.integers(min_value=-2, max_value=2)),
    st.tuples(st.just("batch"),
              st.lists(st.floats(min_value=0.0, max_value=2e-5,
                                 allow_nan=False), min_size=1, max_size=6),
              st.integers(min_value=-2, max_value=2)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
)

programs = st.lists(_op, min_size=1, max_size=40)


def _execute(sim_factory, prog):
    """Run a program with ops firing from inside driver callbacks."""
    sim = sim_factory()
    fired = []
    created = []

    def leaf(i):
        fired.append((sim.now, "leaf", i))

    def do(op):
        kind = op[0]
        fired.append((sim.now, kind))
        if kind == "schedule":
            _, delay, prio = op
            created.append(
                sim.schedule(delay, leaf, len(created), priority=prio))
        elif kind == "batch":
            _, offsets, prio = op
            base = len(created)
            created.extend(sim.schedule_batch(
                [(sim.now + off, leaf, (base + j,))
                 for j, off in enumerate(offsets)],
                priority=prio,
            ))
        else:
            _, idx = op
            if created:
                created[idx % len(created)].cancel()

    for i, op in enumerate(prog):
        # driver events interleave with the ops' own events in time
        sim.schedule(i * 3e-6, do, op)
    sim.run()
    return fired, sim.events_processed, sim.now, sim.pending


@given(programs)
@settings(max_examples=120, deadline=None)
def test_all_impls_pop_identical_sequences(prog):
    reference = _execute(Simulator, prog)
    for impl in IMPLS:
        assert _execute(impl, prog) == reference, impl.__name__


@given(programs, st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_step_drain_matches_run(prog, steps):
    """Mixing step() with run() cannot change the fired sequence."""
    def stepped(factory):
        sim = factory()
        fired = []
        for i, op in enumerate(prog):
            sim.schedule(i * 3e-6, fired.append, (op[0], i))
        for _ in range(steps):
            if not sim.step():
                break
        sim.run()
        return fired, sim.events_processed

    reference = stepped(Simulator)
    for impl in IMPLS:
        assert stepped(impl) == reference, impl.__name__


@given(st.lists(st.floats(min_value=0.0, max_value=1e-4, allow_nan=False),
                min_size=1, max_size=10),
       st.integers(min_value=0, max_value=9))
@settings(max_examples=60, deadline=None)
def test_nan_in_batch_is_atomic_everywhere(offsets, nan_at):
    """A NaN anywhere in a batch rejects the whole batch, leaving
    state byte-equivalent to never having submitted it."""
    poisoned = list(offsets)
    poisoned.insert(min(nan_at, len(poisoned)), math.nan)

    def attempt(factory):
        sim = factory()
        sim.schedule(1e-6, lambda: None)
        try:
            sim.schedule_batch([(t, lambda: None, ()) for t in poisoned])
            raise AssertionError("NaN batch must be rejected")
        except SimulationError:
            pass
        # after rejection the sim behaves as if the batch never happened
        fired = []
        sim.schedule_batch([(2e-6, fired.append, (j,)) for j in range(3)])
        sim.run()
        return fired, sim.events_processed, sim.pending

    reference = attempt(Simulator)
    for impl in IMPLS:
        assert attempt(impl) == reference, impl.__name__


@given(programs)
@settings(max_examples=40, deadline=None)
def test_run_before_windows_match(prog):
    """Draining through a sequence of run_before windows (the parallel
    engine's access pattern) pops the same events as one run()."""
    def windows(factory):
        sim = factory()
        fired = []
        for i, op in enumerate(prog):
            sim.schedule(i * 3e-6, fired.append, (op[0], i))
        bound = 0.0
        while sim.next_event_time() != float("inf"):
            bound = max(bound + 4e-6, sim.next_event_time() + 1e-9)
            sim.run_before(bound)
        return fired, sim.events_processed

    reference = windows(Simulator)
    for impl in IMPLS:
        assert windows(impl) == reference, impl.__name__


# ---------------------------------------------------------------------------
# post() interleaved with at() / schedule_batch() / cancel()
# ---------------------------------------------------------------------------

_delay = st.floats(min_value=0.0, max_value=2e-5, allow_nan=False)

# ("post", delay) | ("at", delay, priority) | ("batch", [offsets], priority)
# | ("cancel", index-into-created-events)
_mixed_op = st.one_of(
    st.tuples(st.just("post"), _delay),
    st.tuples(st.just("at"), _delay, st.integers(min_value=-2, max_value=2)),
    st.tuples(st.just("batch"), st.lists(_delay, min_size=1, max_size=5),
              st.integers(min_value=-2, max_value=2)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
)

mixed_programs = st.lists(_mixed_op, min_size=1, max_size=40)

#: Posted filler entries queued before the first run: enough to make
#: AutoSimulator commit to the calendar, converting posted entries.
_FILLER = 300


class _Mixed:
    """A program whose ops fire from driver callbacks, half of the
    drivers posted and half scheduled with at()."""

    def __init__(self, factory, prog, filler=0):
        self.sim = sim = factory()
        self.fired = []
        self.created = []
        for j in range(filler):
            sim.post(j * 1e-7, self.fired.append, ("filler", j))
        for i, op in enumerate(prog):
            if i % 2:
                sim.at(i * 3e-6, self.do, op)
            else:
                sim.post(i * 3e-6, self.do, op)

    def leaf(self, i):
        self.fired.append((self.sim.now, "leaf", i))

    def do(self, op):
        sim, created = self.sim, self.created
        kind = op[0]
        self.fired.append((sim.now, kind))
        if kind == "post":
            sim.post(sim.now + op[1], self.leaf, -len(self.fired))
        elif kind == "at":
            created.append(sim.at(sim.now + op[1], self.leaf, len(created),
                                  priority=op[2]))
        elif kind == "batch":
            base = len(created)
            created.extend(sim.schedule_batch(
                [(sim.now + off, self.leaf, (base + j,))
                 for j, off in enumerate(op[1])],
                priority=op[2],
            ))
        elif created:
            created[op[1] % len(created)].cancel()

    def result(self):
        sim = self.sim
        return (self.fired, sim.events_processed, sim.now, sim.pending,
                sim.pending_active)


@given(mixed_programs, st.sampled_from([0, _FILLER]))
@settings(max_examples=100, deadline=None)
def test_post_interleavings_pop_identically(prog, filler):
    def execute(factory):
        m = _Mixed(factory, prog, filler)
        m.sim.run()
        return m.result()

    reference = execute(Simulator)
    for impl in IMPLS:
        assert execute(impl) == reference, impl.__name__


@given(mixed_programs, st.integers(min_value=1, max_value=25),
       st.sampled_from([0, _FILLER]))
@settings(max_examples=80, deadline=None)
def test_chunked_run_matches_unchunked(prog, chunk, filler):
    """run(max_events=k) repeated until a short chunk equals one run()."""
    def unchunked(factory):
        m = _Mixed(factory, prog, filler)
        m.sim.run()
        return m.result()

    def chunked(factory):
        m = _Mixed(factory, prog, filler)
        sim = m.sim
        while True:
            before = sim.events_processed
            sim.run(max_events=chunk)
            fired = sim.events_processed - before
            assert fired <= chunk
            if fired < chunk:
                break
        return m.result()

    reference = unchunked(Simulator)
    for impl in [Simulator] + IMPLS:
        assert chunked(impl) == reference, impl.__name__


@given(mixed_programs, st.integers(min_value=0, max_value=30),
       st.sampled_from([0, _FILLER]))
@settings(max_examples=80, deadline=None)
def test_checkpoint_restore_replays_posted_entries(prog, prefix, filler):
    """A snapshot taken with posted entries queued replays the exact
    remainder after restore_sim, on every implementation."""
    def replay(factory):
        m = _Mixed(factory, prog, filler)
        sim = m.sim
        sim.run(max_events=prefix)
        snap = checkpoint_sim(sim)
        mark, n_created = len(m.fired), len(m.created)
        sim.run()
        first = m.result()
        tail = m.fired[mark:]
        # roll back: queue state from the snapshot, program state by hand
        restore_sim(sim, snap)
        del m.fired[mark:]
        del m.created[n_created:]
        sim.run()
        assert m.fired[mark:] == tail
        assert m.result() == first
        return first

    reference = replay(Simulator)
    for impl in IMPLS:
        assert replay(impl) == reference, impl.__name__


def test_post_rejects_past_and_nan_everywhere():
    for impl in [Simulator] + IMPLS:
        sim = impl()
        sim.post(1e-6, lambda: None)
        sim.run()
        for bad in (0.5e-6, math.nan):
            try:
                sim.post(bad, lambda: None)
                raise AssertionError(f"{impl.__name__} accepted t={bad!r}")
            except SimulationError:
                pass
        assert sim.pending == 0 and sim.next_event_time() == float("inf")


def test_post_returns_nothing_and_cannot_be_cancelled():
    sim = Simulator()
    fired = []
    assert sim.post(1e-6, fired.append, "p") is None
    ev = sim.at(1e-6, fired.append, "a")
    ev.cancel()
    assert sim.pending == 2 and sim.pending_active == 1
    assert sim.next_event_time() == 1e-6
    sim.run()
    assert fired == ["p"]
