"""End-to-end benchmark of the CkDirect reproduction.

Run from the repository root::

    python3 perfbench/run.py --large-probe-ms 7.5 --small-probe-ms 5.0 \\
        --workload stencil-msg --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds a profiled pass and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is the result object; the line before it is a
record with host metadata and the raw (unadjusted) timings.

``--pin`` reruns every workload through the program's own unchunked
drivers and rewrites ``expected.json``; do that only when a change is
meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stencil-msg", "stencil-ckd", "pingpong-tables")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--large-probe-ms", type=float,
                    help="reference time of the large probe (stencil workloads)")
    ap.add_argument("--small-probe-ms", type=float,
                    help="reference time of the small probe (pingpong-tables)")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite expected.json from unchunked runs and exit")
    args = ap.parse_args(argv)
    if not args.pin and None in (args.workload, args.large_probe_ms, args.small_probe_ms):
        ap.error("--workload, --large-probe-ms and --small-probe-ms are required")
    return args


def host_metadata(args: argparse.Namespace) -> dict:
    from repro.sim.eventq import compiled_available, resolved_eventq_name
    from repro.sim.shm import resolve_transport
    from repro.sim.timewarp import resolve_engine

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "eventq": resolved_eventq_name(),
        "engine": resolve_engine(),
        "transport": resolve_transport(),
        "compiled_core": compiled_available(),
        "reference_probe_ms": {"large": args.large_probe_ms, "small": args.small_probe_ms},
    }


def pin() -> None:
    """Rewrite expected.json from the program's unchunked drivers."""
    import workloads as wl
    from repro.apps.stencil import run_stencil
    from repro.network.params import ABE

    out = {}
    for mode in ("msg", "ckd"):
        r = run_stencil(ABE, wl.STENCIL_PES, iterations=wl.STENCIL_ITERATIONS, mode=mode,
                        keep_runtime=True)
        out[f"stencil-{mode}"] = wl.stencil_digest(
            r.iter_times, r.runtime.events_processed, r.runtime.trace.counters)
        del r
        gc.collect()
    tables: dict = {"events": {}}
    for table, pts in wl.table_points(0).items():
        results = wl.sweep_points(pts)
        rows: dict = {}
        wl.fill_rows(rows, pts, results)
        tables[table] = {name: rows[name] for name, _s, _f in wl.TABLE_ROWS[table]}
        tables["events"][table] = sum(r.events for r in results)
    tables["sim_err_pct"] = wl.sim_err_pct(tables)
    out["pingpong-tables"] = tables
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def measure(args: argparse.Namespace) -> tuple:
    """Run one workload; returns (ledger, metric values, record)."""
    import workloads as wl
    from hostclock import LARGE_PROBE, SMALL_PROBE, AdjustedClock

    expected = wl.load_expected()[args.workload]
    # The probe's working set matches the workload's: the 1024-PE
    # stencil misses the caches, the pingpong points' runtimes fit.
    if args.workload.startswith("stencil-"):
        clock = AdjustedClock(args.large_probe_ms, LARGE_PROBE)
    else:
        clock = AdjustedClock(args.small_probe_ms, SMALL_PROBE)
    ledger = wl.Ledger()
    values: dict = {}
    record: dict = {}
    # The traced run times one setup and one point: its timings only
    # feed trace.overhead_x and host.raw_wall_s.
    seconds, reps = (0.0, 1) if args.trace else (args.seconds, wl.SETUP_REPS)
    if args.workload.startswith("stencil-"):
        mode = args.workload.split("-", 1)[1]
        timed = wl.stencil_timed(clock, ledger, mode, args.seed, seconds, reps, expected)
        rt = timed.pop("runtime")
        serial_iter_times = timed["iter_times"]
        untraced_s = timed["wall_s"]  # what run_stencil does: one setup + the loop
        counts = wl.layer_counts(rt.trace.counters, rt.events_processed, 0)
        counts["sim_err_pct"] = 0.0  # the figures print no values
        del rt
        gc.collect()
    else:
        setups, raw_setups = wl.import_setup_s(args.large_probe_ms, reps)
        timed = wl.pingpong_timed(clock, ledger, args.seed, seconds, expected)
        timed["setup_s"] = median(setups)
        timed["wall_s"] = timed["setup_s"] + timed["pass_s"]
        timed["raw_wall_s"] = median(raw_setups) + timed["raw_pass_s"]
        untraced_s = timed["pass_s"]  # what run_table1 + run_table2 do
        counts = timed.pop("counts")
        counts["sim_err_pct"] = timed["sim_err_pct"]
        ledger.expect("sim_err_pct", timed["sim_err_pct"], expected["sim_err_pct"])
    values.update({k: timed[k] for k in ("wall_s", "setup_s", "us_per_event")})
    values["peak_rss_mb"] = wl.peak_rss_mb()
    record.update(raw_wall_s=timed["raw_wall_s"], raw_s=clock.raw_s, adjusted_s=clock.adjusted_s,
                  probe_ms=clock.probe_ms, probes=len(clock.probes),
                  points=timed["points"])
    if not args.trace:
        return ledger, values, record

    values.update(counts)
    values["host.raw_wall_s"] = timed["raw_wall_s"]
    values["host.probe_ms"] = clock.probe_ms
    if args.workload.startswith("stencil-"):
        traced = wl.stencil_traced(clock, ledger, mode, args.seed, expected)
    else:
        traced = wl.pingpong_traced(clock, ledger, expected)
    if traced is not None:
        values.update(traced["split"])
        values["trace.overhead_x"] = traced["adjusted_s"] / untraced_s
    shard = None
    if args.workload == "stencil-ckd":
        gc.collect()
        shard = ledger.check("stencil-ckd sharded point",
                             lambda: wl.stencil_sharded(mode, args.seed, serial_iter_times))
    values.update(shard or {
        "parallel.rounds": 0, "transport.frames": 0, "transport.bytes": 0,
        "shard.events": 0, "shard.compute_pct": 0.0, "shard.wait_pct": 0.0,
        "shard.sim_delta_ns": 0.0,
    })
    return ledger, values, record


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # Default knobs only: the benchmark measures the program as shipped.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.pin:
        pin()
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ledger, values, record = measure(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not ledger.failures:
        raise KeyError(f"metrics not measured: {missing}")
    # A pass that failed (already counted) leaves its metrics at 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  host=host_metadata(args), failures=ledger.failures[:20])
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
