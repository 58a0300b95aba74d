"""The benchmark's workloads and the passes each one runs.

Every workload has a *timed* pass (tracing off, host-speed-adjusted
through :class:`~hostclock.AdjustedClock`) and, under ``--trace 1``, a
*traced* pass that runs the program's own unchunked driver under
cProfile.  Exact work counts come from the program's ``Trace``
counters after the untraced pass.  Every point is compared with the
values pinned in ``expected.json``; a mismatch or an exception counts
as a failed operation.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostclock import AdjustedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The stencil point: Figure 2's full-scale Abe configuration.
STENCIL_PES = 1024
STENCIL_ITERATIONS = 2
#: Probe-bracketed setups per run; setup_s is their median.
SETUP_REPS = 9
#: Shard count of the sharded cross-check (the host's core count
#: where the reference figures were taken).
CROSS_CHECK_SHARDS = 2
#: Pingpong iterations per point, as the paper tables use.
PINGPONG_ITERATIONS = 100
#: Table points per timed sweep call (about 50 ms of host time).
POINTS_PER_CHUNK = 10

#: Program counters reported as per-layer metrics under their own
#: names; a counter the run never touched reads 0.
COUNTERS = (
    "charm.msgs_sent", "charm.msg_bytes", "pe.messages_executed",
    "pe.poll_sweeps", "pe.poll_detections", "ckdirect.puts",
    "ckdirect.put_bytes", "net.transfers", "net.bytes",
    "net.shm_transfers", "mpi.sends", "mpi.puts",
)


@dataclass
class Ledger:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; an exception is recorded as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # one failed point must not hide the rest
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def expect(self, what: str, got: Any, want: Any) -> None:
        """Record a failure when ``got`` differs from the pinned value."""
        if got != want:
            self.failures.append(f"{what}: result differs from expected.json")


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def layer_counts(counters: Dict[str, int], events: int, points: int) -> Dict[str, float]:
    """Per-layer work counts in metric form."""
    out: Dict[str, float] = {"sim.events": events, "sweep.points": points}
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    sweeps = out["pe.poll_sweeps"]
    out["ckdirect.poll_hit_ratio"] = out["pe.poll_detections"] / sweeps if sweeps else 0.0
    return out


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# cProfile grouping
# ---------------------------------------------------------------------------

#: Layers whose self-time share is reported (``repro.<package>``, plus
#: C builtins).
PROFILED_LAYERS = ("sim", "charm", "network", "ckdirect", "mpi", "apps", "sweep", "builtins")
#: Public entry points whose inclusive share is reported:
#: metric prefix -> (file under src/repro, function name).
ENTRY_POINTS = {
    "charm.send": ("charm/runtime.py", "send"),
    "network.transfer": ("network/base.py", "transfer"),
}


def profile_call(fn: Callable[[], Any]) -> Tuple[Any, cProfile.Profile]:
    prof = cProfile.Profile()
    prof.enable()
    try:
        out = fn()
    finally:
        prof.disable()
    return out, prof


def layer_split(prof: cProfile.Profile) -> Dict[str, float]:
    """Self-time share per layer and inclusive share per entry point."""
    import pstats

    pkg_root = os.path.join(SRC, "repro") + os.sep
    stats = pstats.Stats(prof).stats
    self_time: Dict[str, float] = {}
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in stats.items():
        total += tt
        if filename == "~":
            layer = "builtins"
        elif filename.startswith(pkg_root):
            layer = filename[len(pkg_root):].split(os.sep)[0]
        else:
            layer = "other"
        self_time[layer] = self_time.get(layer, 0.0) + tt
    out = {f"{layer}.self_pct": 100.0 * self_time.get(layer, 0.0) / total
           for layer in PROFILED_LAYERS}
    for metric, (rel, func) in ENTRY_POINTS.items():
        path = pkg_root + rel.replace("/", os.sep)
        incl = sum(ct for (f, _l, fn), (_cc, _nc, _tt, ct, _c) in stats.items()
                   if f == path and fn == func)
        out[f"{metric}.incl_pct"] = 100.0 * incl / total
    return out


# ---------------------------------------------------------------------------
# Stencil workloads
# ---------------------------------------------------------------------------


def chunk_events(seed: int) -> int:
    """Events per chunk (about 0.1 s of host time, short enough that the
    bracketing probes see the host speed the chunk ran at).  Varying it
    with the seed exercises the chunked-equals-unchunked property at
    different chunk boundaries."""
    return 1536 + random.Random(seed).randrange(1024)


def _stencil_setup(mode: str, seed: int):
    """``run_stencil``'s setup, split off so the event loop can run in
    chunks: Runtime + array creation + the setup broadcast."""
    from repro.apps.stencil import MODES, PAPER_DOMAIN, PAPER_VR, IterationMonitor, choose_grid
    from repro.charm import Runtime
    from repro.network.params import ABE

    grid = choose_grid(PAPER_DOMAIN, STENCIL_PES * PAPER_VR)
    rt = Runtime(ABE, STENCIL_PES)
    monitor = IterationMonitor(rt, None, STENCIL_ITERATIONS)
    arr = rt.create_array(
        MODES[mode], dims=grid,
        ctor_args=(PAPER_DOMAIN, grid, STENCIL_ITERATIONS, False, seed, monitor),
    )
    monitor.proxy = arr.proxy
    arr.proxy.bcast("setup")
    return rt, monitor


def stencil_digest(iter_times: List[float], events: int, counters: Dict[str, int]) -> dict:
    return {"iter_times": list(iter_times), "events": events,
            "counters": {k: counters[k] for k in sorted(counters)}}


def _run_chunked(clock: AdjustedClock, rt, chunk: int) -> float:
    """Run the event loop to completion in ``chunk``-event slices;
    returns adjusted seconds."""
    loop_s = 0.0
    while True:
        before = rt.events_processed
        _, adj = clock.time(rt.run, None, chunk)
        loop_s += adj
        if rt.events_processed - before < chunk:
            return loop_s


def stencil_timed(clock: AdjustedClock, ledger: Ledger, mode: str, seed: int,
                  seconds: float, setup_reps: int, expected: dict) -> dict:
    """Timed pass: ``setup_reps`` setups, then whole points until
    ``seconds`` have passed (at least one point)."""
    # Load the modules untimed: setup_s is the runtime's set-up, not imports.
    import repro.apps.stencil  # noqa: F401

    chunk = chunk_events(seed)
    setups: List[float] = []
    walls: List[float] = []
    raw_walls: List[float] = []
    loop_total = 0.0
    events_total = 0
    rt = monitor = None
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        for _ in range(setup_reps if not walls else 1):
            # Free the previous runtime (it holds reference cycles)
            # before building the next, so only one is ever alive.
            rt = monitor = None
            gc.collect()
            raw0 = clock.raw_s
            (rt, monitor), setup_s = clock.time(_stencil_setup, mode, seed)
            setups.append(setup_s)
            raw_setup = clock.raw_s - raw0
        raw0 = clock.raw_s
        loop_s = ledger.check(f"stencil-{mode} point", lambda: _run_chunked(clock, rt, chunk))
        if loop_s is None:
            break
        digest = stencil_digest(monitor.iter_times, rt.events_processed, rt.trace.counters)
        ledger.expect(f"stencil-{mode} point", digest, expected)
        walls.append(setups[-1] + loop_s)
        raw_walls.append(raw_setup + clock.raw_s - raw0)
        loop_total += loop_s
        events_total += rt.events_processed
    if not walls:
        raise RuntimeError("; ".join(ledger.failures))
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "raw_wall_s": median(raw_walls),
        "us_per_event": 1e6 * loop_total / events_total,
        "iter_times": monitor.iter_times,
        "runtime": rt,
        "points": len(walls),
    }


def stencil_traced(clock: AdjustedClock, ledger: Ledger, mode: str, seed: int,
                   expected: dict) -> Optional[dict]:
    """Profiled pass through the program's own unchunked driver."""
    from repro.apps.stencil import run_stencil
    from repro.network.params import ABE

    def traced():
        return profile_call(lambda: run_stencil(
            ABE, STENCIL_PES, iterations=STENCIL_ITERATIONS, mode=mode,
            seed=seed, keep_runtime=True))

    out = ledger.check(f"stencil-{mode} unchunked point", lambda: clock.time(traced))
    if out is None:
        return None
    (res, prof), adj = out
    rt = res.runtime
    ledger.expect(f"stencil-{mode} unchunked point",
                  stencil_digest(res.iter_times, rt.events_processed, rt.trace.counters),
                  expected)
    return {"adjusted_s": adj, "split": layer_split(prof)}


def stencil_sharded(mode: str, seed: int, serial_iter_times: List[float]) -> dict:
    """The point once on the sharded engine.  Reported, not gated: the
    simulated times are expected to equal the serial run's, and
    ``shard.sim_delta_ns`` shows by how much they do not."""
    from repro.apps.stencil import run_stencil
    from repro.network.params import ABE

    t0 = time.perf_counter()
    res = run_stencil(ABE, STENCIL_PES, iterations=STENCIL_ITERATIONS, mode=mode,
                      seed=seed, keep_runtime=True, shards=CROSS_CHECK_SHARDS)
    wall = time.perf_counter() - t0
    rt = res.runtime
    cpu = rt.shard_cpu_times or [0.0]
    compute_pct = 100.0 * sum(cpu) / (len(cpu) * wall)
    stats = rt.transport_stats or {}
    return {
        "parallel.rounds": rt.parallel_rounds or 0,
        "transport.frames": stats.get("frames", 0),
        "transport.bytes": stats.get("bytes", 0),
        "shard.events": rt.events_processed,
        "shard.compute_pct": compute_pct,
        "shard.wait_pct": 100.0 - compute_pct,
        "shard.sim_delta_ns": 1e9 * max(
            abs(a - b) for a, b in zip(res.iter_times, serial_iter_times)),
    }


# ---------------------------------------------------------------------------
# Pingpong tables
# ---------------------------------------------------------------------------

#: Per table, its (row name, stack, MPI flavor) rows in the paper's order.
TABLE_ROWS = {
    "table1": [("Default CHARM++", "charm", None), ("CkDirect CHARM++", "ckdirect", None),
               ("MPICH-VMI", "mpi", "MPICH-VMI"), ("MVAPICH", "mpi", "MVAPICH"),
               ("MVAPICH-Put", "mpi-put", "MVAPICH")],
    "table2": [("Default CHARM++", "charm", None), ("CkDirect CHARM++", "ckdirect", None),
               ("MPI", "mpi", None), ("MPI-Put", "mpi-put", None)],
}


def table_points(seed: int) -> Dict[str, List[Tuple[str, int, Any]]]:
    """Per table, its (row, size index, spec) points in a seed-chosen
    order; results are pinned per point, so the order is free."""
    from repro.bench.paper_data import PINGPONG_SIZES
    from repro.network.params import ABE, SURVEYOR
    from repro.sweep import RunSpec

    rng = random.Random(seed)
    machines = {"table1": ABE, "table2": SURVEYOR}
    out = {}
    for table, rows in TABLE_ROWS.items():
        pts = [(name, j, RunSpec.make("pingpong", machines[table].name, stack, size=size,
                                      iterations=PINGPONG_ITERATIONS,
                                      **({"flavor": flavor} if flavor else {})))
               for name, stack, flavor in rows
               for j, size in enumerate(PINGPONG_SIZES)]
        rng.shuffle(pts)
        out[table] = pts
    return out


def sim_err_pct(rows: Dict[str, Dict[str, List[float]]]) -> float:
    """MAPE (%) of the measured RTTs against the paper's Tables 1-2."""
    from repro.bench.paper_data import TABLE1_RTT_US, TABLE2_RTT_US

    errs = [abs(m - p) / p
            for table, paper in (("table1", TABLE1_RTT_US), ("table2", TABLE2_RTT_US))
            for name, ps in paper.items()
            for m, p in zip(rows[table][name], ps)]
    return 100.0 * sum(errs) / len(errs)


def sweep_points(points) -> List[Any]:
    """Run ``(row, size index, spec)`` points through the serial sweep runner."""
    from repro.sweep import SweepRunner

    return SweepRunner(jobs=1, label="perfbench").run([spec for _n, _j, spec in points])


def fill_rows(rows: Dict[str, List[Optional[float]]], points, results) -> None:
    """Store each point's RTT (None when the point failed) in its table row."""
    from repro.bench.paper_data import PINGPONG_SIZES

    for (name, j, _spec), res in zip(points, results):
        row = rows.setdefault(name, [None] * len(PINGPONG_SIZES))
        row[j] = res.values.get("rtt_us") if res.ok else None


@contextmanager
def summed_counters():
    """Sum the counters of every ``repro`` Trace built inside the block
    (the pingpong points build and drop their runtimes inside the sweep
    runner).  The sum is taken, and the traces let go, on exit."""
    from repro.sim.trace import Trace

    made: List[Any] = []
    totals: Dict[str, int] = {}
    original = Trace.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    Trace.__init__ = init
    try:
        yield totals
    finally:
        Trace.__init__ = original
        for tr in made:
            for k, v in tr.counters.items():
                totals[k] = totals.get(k, 0) + v
        made.clear()


def import_setup_s(reference_ms: float, reps: int) -> Tuple[List[float], List[float]]:
    """The tables' one-time pre-loop cost: importing the program's table
    harness in a fresh interpreter, bracketed inside the child by the
    large probe (unmarshalling a package tracks it better than the small
    one).  One unmeasured import first fills the bytecode cache.
    Returns the adjusted and the raw seconds of each import."""
    from hostclock import LARGE_PROBE

    child = (
        "import json, sys, time\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "from hostclock import Probe\n"
        "probe = Probe(int(sys.argv[3]))\n"
        "p0 = probe.seconds()\n"
        "t0 = time.perf_counter()\n"
        "import repro.bench\n"
        "raw = time.perf_counter() - t0\n"
        "print(json.dumps([raw, p0, probe.seconds()]))\n"
    )
    adjusted, raws = [], []
    for i in range(reps + 1):
        proc = subprocess.run([sys.executable, "-c", child, HERE, SRC, str(LARGE_PROBE)],
                              capture_output=True, text=True, timeout=120, check=True)
        raw, p0, p1 = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            adjusted.append(raw * reference_ms / 1e3 / ((p0 + p1) / 2))
            raws.append(raw)
    return adjusted, raws


def pingpong_timed(clock: AdjustedClock, ledger: Ledger, seed: int, seconds: float,
                   expected: dict) -> dict:
    """Timed pass: whole passes over both tables until ``seconds`` have
    passed, at least one pass.  Each sweep call runs ``POINTS_PER_CHUNK``
    points between probes."""
    points = table_points(seed)
    passes: List[float] = []
    raw_passes: List[float] = []
    events = 0
    counters: Dict[str, int] = {}
    rows: Dict[str, Dict[str, List[Optional[float]]]] = {}
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        pass_s = 0.0
        raw0 = clock.raw_s
        for table, pts in points.items():
            gc.collect()
            rows[table] = {}
            table_events = 0
            for i in range(0, len(pts), POINTS_PER_CHUNK):
                chunk = pts[i:i + POINTS_PER_CHUNK]
                with summed_counters() as chunk_counters:
                    results, adj = clock.time(sweep_points, chunk)
                if not passes:
                    for k, v in chunk_counters.items():
                        counters[k] = counters.get(k, 0) + v
                pass_s += adj
                fill_rows(rows[table], chunk, results)
                ledger.attempted += len(results)
                for res in results:
                    if not res.ok:
                        ledger.failures.append(f"{res.spec.label()}: {res.error.strip()}")
                table_events += sum(r.events for r in results)
            events += table_events
            ledger.expect(f"{table} events", table_events, expected["events"][table])
            for name, vals in rows[table].items():
                for j, got in enumerate(vals):
                    if got is not None:
                        ledger.expect(f"{table} {name} size#{j}", got, expected[table][name][j])
        passes.append(pass_s)
        raw_passes.append(clock.raw_s - raw0)
    complete = all(v is not None for t in rows.values() for r in t.values() for v in r)
    return {
        "pass_s": median(passes),
        "raw_pass_s": median(raw_passes),
        "points": len(passes),
        "us_per_event": 1e6 * sum(passes) / events,
        # A failed point is already counted; its table then has no error figure.
        "sim_err_pct": sim_err_pct(rows) if complete else 0.0,
        "counts": layer_counts(counters, events // len(passes),
                               sum(len(p) for p in points.values())),
    }


def pingpong_traced(clock: AdjustedClock, ledger: Ledger, expected: dict) -> Optional[dict]:
    """Profiled pass through the program's own unchunked table runners."""
    from repro.bench import run_table1, run_table2

    def traced():
        return profile_call(lambda: (run_table1(iterations=PINGPONG_ITERATIONS),
                                     run_table2(iterations=PINGPONG_ITERATIONS)))

    out = ledger.check("tables unchunked", lambda: clock.time(traced))
    if out is None:
        return None
    ((t1, t2), prof), adj = out
    for table, res in (("table1", t1), ("table2", t2)):
        ledger.expect(f"{table} unchunked", res["measured"], expected[table])
    return {"adjusted_s": adj, "split": layer_split(prof)}
