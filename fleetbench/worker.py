"""One benchmark process: set up a workload, drain it, report as JSON lines.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``
and BLAS pinned to one thread. It writes ``{"event": "ready"}`` to stdout
as soon as the first ``FleetScheduler`` is constructed (the parent times
set-up up to that line), then one ``{"event": "result", ...}`` line, or
``{"event": "error", ...}`` and exit code 1.

Modes:

``timed``   drain the panel members in ``--members`` in turn, untraced,
            while another drain fits in ``--budget`` seconds from the
            process start (at least one drain), timing every
            ``FleetScheduler.step`` and ``run``.
``traced``  two untraced drains of panel member 0, then one drain with
            every layer entry point wrapped by :class:`tracer.Tracer`;
            reports per-layer metrics and writes the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List

START = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def emit(event: str, **fields: Any) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record() -> Dict[str, Any]:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def drain(wl: Any, scheduler: Any) -> Dict[str, Any]:
    """Run one fleet to completion, timing each tick; check and digest it."""
    import workloads

    ticks: List[float] = []
    step = scheduler.step
    clock = time.perf_counter

    def timed_step(tick: int) -> None:
        t0 = clock()
        step(tick)
        ticks.append(clock() - t0)

    scheduler.step = timed_step
    t0 = clock()
    result = scheduler.run()
    run_s = clock() - t0
    failed, failures = wl.check(result)
    return {
        "run_s": run_s,
        "steps": result.aggregates.n_evaluations,
        "tick_ms": [t * 1e3 for t in ticks],
        "digest": workloads.digest(wl.export_text(result)),
        "failed": failed,
        "failures": failures[:5],
        "sim": workloads.sim_metrics(result),
    }


def timed(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads

    members = [int(m) for m in args.members.split(",")]
    wl = workloads.build(args.workload, args.seed, members[0])
    scheduler = wl.scheduler()
    emit("ready")
    drains = []
    for i in itertools.count():
        member = members[i % len(members)]
        if i:
            wl = workloads.build(args.workload, args.seed, member)
            scheduler = wl.scheduler()
        drains.append({"member": member, **drain(wl, scheduler)})
        if i == 0:
            # Later drains would raise the peak with their count, which
            # depends on the host's speed.
            first_drain_rss_mb = peak_rss_mb()
        if time.perf_counter() - START + drains[-1]["run_s"] > args.budget:
            break
    return {
        "drains": drains,
        "peak_rss_mb": first_drain_rss_mb,
        "host": host_record(),
    }


def traced(args: argparse.Namespace) -> Dict[str, Any]:
    from tracer import Tracer

    t0 = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    compile_s = time.perf_counter() - t0
    emit("ready")
    plain = [drain(wl, wl.scheduler()) for _ in range(2)]
    untraced_s = statistics.median(out["run_s"] for out in plain)

    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    scheduler = wl.scheduler()
    tracer.install()
    try:
        t0 = time.perf_counter()
        result = scheduler.run()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failed, failures = wl.check(result)
    if args.spans:
        tracer.dump(args.spans)
    return {
        "untraced": plain,
        "traced": {
            "run_s": traced_s,
            "digest": workloads.digest(wl.export_text(result)),
            "failed": failed,
            "failures": failures[:5],
        },
        "layers": {
            **layer_metrics(tracer, result, import_s, compile_s, traced_s, untraced_s),
            "sim_mean_best_cost": plain[0]["sim"]["sim_mean_best_cost"],
            "sim_p95_epsilon": plain[0]["sim"]["sim_p95_epsilon"],
        },
        "peak_rss_mb": peak_rss_mb(),
        "host": host_record(),
    }


def layer_metrics(
    tracer: Any,
    result: Any,
    import_s: float,
    compile_s: float,
    traced_s: float,
    untraced_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced drain, by BENCHMARK.json name."""
    stats = tracer.stats

    def calls(span: str) -> int:
        return int(stats[span][0])

    def self_ms(*spans: str) -> float:
        return sum(stats[s][2] for s in spans) * 1e3

    def per_call(span: str) -> float:
        return stats[span][3] / stats[span][0] if stats[span][0] else 0.0

    topo = result.topology_stats or {}
    lookups = calls("store.lookup")
    admits = calls("edge.place")
    layers = tracer.layer_self_s()
    m: Dict[str, float] = {
        "import.repro_s": import_s,
        "scenarios.compile_s": compile_s,
        "scheduler.self_ms": self_ms("scheduler.tick"),
        "scheduler.ticks": calls("scheduler.tick"),
        "session.admit.calls": calls("session.admit"),
        "session.admit.self_ms": self_ms("session.admit"),
        "session.step.calls": calls("session.step"),
        "session.step.self_ms": self_ms("session.step"),
        "session.finish.calls": calls("session.finish"),
        "session.finish.self_ms": self_ms("session.finish"),
        "core.begin.calls": calls("core.begin"),
        "core.begin.self_ms": self_ms("core.begin"),
        "ar.distribute.calls": calls("ar.distribute"),
        "ar.distribute.self_ms": self_ms("ar.distribute"),
        "ar.apply_ratios.self_ms": self_ms("ar.apply_ratios"),
        "ar.degradation_error.calls": calls("ar.degradation_error"),
        "ar.degradation_error.self_ms": self_ms("ar.degradation_error"),
        "ar.average_quality.self_ms": self_ms("ar.average_quality"),
        "device.measure_period.calls": calls("device.measure_period"),
        "device.measure_period.self_ms": self_ms("device.measure_period"),
        "backend.solve.calls": calls("backend.solve"),
        "backend.solve.self_ms": self_ms("backend.solve"),
        "backend.solve.rows_per_call": per_call("backend.solve"),
        "bo.tell.self_ms": self_ms("bo.tell"),
        "bo.perturb_batch.self_ms": self_ms("bo.perturb_batch"),
        "bo.sample.self_ms": self_ms("bo.sample"),
        "batch.propose.calls": calls("batch.propose"),
        "batch.propose.self_ms": self_ms("batch.propose"),
        "batch.propose.rows_per_call": per_call("batch.propose"),
        "batch.posterior.self_ms": self_ms("batch.posterior"),
        "store.lookups": lookups,
        "store.hit_ratio": result.store_stats["hits"] / lookups if lookups else 0.0,
        "store.donations": calls("store.donate"),
        "store.lookup.self_ms": self_ms("store.lookup"),
        "store.donate.self_ms": self_ms("store.donate"),
        "edge.admit.calls": admits,
        "edge.reject_ratio": topo.get("rejections", 0) / admits if admits else 0.0,
        "edge.sheds": topo.get("sheds", 0),
        "edge.migrations": topo.get("migrations", 0),
        "edge.self_ms": layers["edge"] * 1e3,
        "table.build_plan.self_ms": self_ms("table.build_plan"),
        "table.refresh_plan_row.self_ms": self_ms("table.refresh_plan_row"),
        "telemetry.reports_ms": layers["telemetry"] * 1e3,
        "trace.unattributed_frac": (traced_s - tracer.top_level_s) / traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for layer, seconds in layers.items():
        m[f"share.{layer}"] = seconds / traced_s
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("timed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--members", default="0")
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    try:
        out = timed(args) if args.mode == "timed" else traced(args)
    except Exception as exc:  # report, let the parent count the failure
        emit("error", message=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
        sys.exit(1)
    emit("result", **out)


if __name__ == "__main__":
    main()
