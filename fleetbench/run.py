"""Fleet benchmark: drain one workload, print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 fleetbench/run.py --workload burst-512 [--seed 2024] \
        [--seconds 30] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics: it starts fresh
interpreters (``worker.py timed``), times each one's set-up, and lets each
drain the seed's panel of inputs until its share of ``--seconds`` is used
up. ``--trace 1`` runs traced workers (``worker.py traced``) and reports
the per-layer metrics instead. Every run checks the outputs (completed
budgets, finite costs, identical export digests for repeated inputs and
between traced and untraced drains) and, when tracing, the layer
predictions in ``PREDICTIONS``. The last stdout line is the JSON result; a
record with every drain, the host and the percentiles used is written
under ``.fleetbench/`` in the checkout. See README.md.

This file imports nothing from ``repro`` or NumPy, so it adds no work to
the set-up it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".fleetbench")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, PANEL, SESSIONS  # noqa: E402  (no repro import)

#: Fresh interpreters per timed run: each gives one set-up sample.
TIMED_WORKERS = 3
#: Workers still running this long after the run started are killed, so a
#: run always ends well inside three minutes.
RUN_TIMEOUT_S = 150.0
#: The tail percentile is the highest with at least this many ticks beyond it.
TAIL_BEYOND = 10

#: Per-layer predictions each workload relies on (checked on traced runs).
PREDICTIONS: Dict[str, Tuple[Tuple[str, str, Callable[[float], bool]], ...]] = {
    "burst-512": (
        ("store.hit_ratio", "== 0", lambda v: v == 0),
        ("edge.admit.calls", "== 0", lambda v: v == 0),
        ("batch.propose.rows_per_call", ">= 256", lambda v: v >= 256),
    ),
    "diurnal-trickle": (
        ("store.hit_ratio", "> 0.5", lambda v: v > 0.5),
        ("edge.admit.calls", "== 0", lambda v: v == 0),
        ("batch.propose.rows_per_call", "< 64", lambda v: v < 64),
    ),
    "topology-collapse": (
        ("edge.admit.calls", "> 0", lambda v: v > 0),
        ("edge.sheds", "> 0", lambda v: v > 0),
    ),
}

#: Units of the figures a timed run prints without gating them.
REPORT_ONLY_UNITS = {"failed_frac": "ratio", "sim_mean_best_cost": "phi", "sim_p95_epsilon": "epsilon"}

#: Per-layer metrics that are exact counts (or ratios of counts).
EXACT_SUFFIXES = (".calls", ".ticks", ".lookups", ".donations", ".sheds",
                  ".migrations", "rows_per_call", "_ratio")


class WorkerError(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def run_worker(args: List[str], deadline: float) -> Tuple[float, Dict[str, Any]]:
    """Start ``worker.py`` in a fresh interpreter; return (set-up seconds,
    result payload). Set-up runs from the launch to the worker's ``ready``
    line. Raises :class:`WorkerError` on a failed worker, or on one still
    running at ``deadline`` (a ``time.perf_counter`` value), which is
    killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    setup_s: Optional[float] = None
    payload: Optional[Dict[str, Any]] = None
    error = ""
    other: List[str] = []  # anything else the worker printed, for errors
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                error = f"worker still running after {time.perf_counter() - start:.0f} s"
                break
            if not sel.select(remaining):
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if not line.startswith('{"event"'):
                other = (other + [line])[-40:]
                continue
            event = json.loads(line)
            if event["event"] == "ready" and setup_s is None:
                setup_s = time.perf_counter() - start
            elif event["event"] == "result":
                payload = event
            elif event["event"] == "error":
                error = event["message"] + "\n" + event.get("traceback", "")
    finally:
        sel.close()
        if proc.poll() is None and (error or payload is None):
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if payload is None or setup_s is None or proc.returncode != 0:
        raise WorkerError(error or "".join(other).strip() or f"exit code {proc.returncode}")
    return setup_s, payload


def tail(drains: List[List[float]]) -> Tuple[float, float, int]:
    """(value, percentile, ticks beyond) of a run's tick tail.

    The percentile is the highest with ``TAIL_BEYOND`` ticks of each drain
    beyond it, taken over all the run's ticks, so the run has
    ``TAIL_BEYOND`` ticks beyond it per drain. A drain with too few ticks
    for that (burst-512 has five) contributes its slowest tick instead,
    and the run reports their median.
    """
    if min(len(ticks) for ticks in drains) <= TAIL_BEYOND:
        return statistics.median(max(ticks) for ticks in drains), 100.0, 0
    pooled = sorted(t for ticks in drains for t in ticks)
    beyond = TAIL_BEYOND * len(drains)
    return pooled[-beyond - 1], 100.0 * (len(pooled) - beyond) / len(pooled), beyond


def timed_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """``TIMED_WORKERS`` fresh workers, each given an equal share of
    ``seconds``; worker k drains panel members k, k+1, ... in turn, so the
    run covers every member and repeats some on the shorter workloads."""
    start = time.perf_counter()
    workers: List[Dict[str, Any]] = []
    errors: List[str] = []
    for k in range(TIMED_WORKERS):
        budget = (k + 1) * seconds / TIMED_WORKERS - (time.perf_counter() - start)
        members = ",".join(str((k + i) % PANEL) for i in range(PANEL))
        try:
            setup_s, payload = run_worker(
                ["timed", "--workload", workload, "--seed", str(seed),
                 "--members", members, "--budget", repr(max(budget, 0.0))],
                start + RUN_TIMEOUT_S,
            )
        except WorkerError as exc:
            errors.append(str(exc))
            continue
        payload["setup_s"] = setup_s
        workers.append(payload)

    drains = [d for w in workers for d in w["drains"]]
    sessions = SESSIONS[workload]
    attempted = sessions * (len(drains) + len(errors))
    failed = sum(d["failed"] for d in drains) + sessions * len(errors)
    by_member: Dict[int, List[Dict[str, Any]]] = {}
    for d in drains:
        by_member.setdefault(d["member"], []).append(d)
    checks = {
        "no_worker_errors": not errors,
        "all_sessions_completed": failed == 0,
        "every_member_drained": sorted(by_member) == list(range(PANEL)),
        "repeats_identical": all(
            len({d["digest"] for d in ds}) == 1 for ds in by_member.values()
        ),
    }
    record: Dict[str, Any] = {
        "mode": "timed", "workload": workload, "seed": seed,
        "checks": checks, "errors": errors,
        "attempted": attempted, "failed": failed,
        "host": workers[0]["host"] if workers else None,
        "workers": [
            {k: v for k, v in w.items() if k not in ("drains", "event", "host")}
            for w in workers
        ],
        "drains": drains,
    }
    metrics: Dict[str, float] = {}
    if drains:
        tail_ms, tail_pct, tail_beyond = tail([d["tick_ms"] for d in drains])
        sims = [ds[0]["sim"] for _, ds in sorted(by_member.items())]

        def panel_mean(name: str) -> float:
            return statistics.fmean(sim[name] for sim in sims)

        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "steps_per_s": statistics.median(d["steps"] / d["run_s"] for d in drains),
            "tick_ms_p50": statistics.median(t for d in drains for t in d["tick_ms"]),
            "tick_ms_tail": tail_ms,
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "completed_frac": 1.0 - failed / attempted,
            "sim_p50_quality": panel_mean("sim_p50_quality"),
        }
        record["tail"] = {
            "percentile": tail_pct,
            "ticks_beyond": tail_beyond,
            "ticks_per_drain": [len(d["tick_ms"]) for d in drains],
        }
        record["report_only"] = {
            "failed_frac": failed / attempted,
            "sim_mean_best_cost": panel_mean("sim_mean_best_cost"),
            "sim_p95_epsilon": panel_mean("sim_p95_epsilon"),
        }
    record["metrics"] = metrics
    return record


def traced_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Traced workers on panel member 0, started while another one fits
    in ``seconds`` (at least one)."""
    start = time.perf_counter()
    workers: List[Dict[str, Any]] = []
    errors: List[str] = []
    os.makedirs(OUT_DIR, exist_ok=True)
    worker_s = 0.0
    while not workers or time.perf_counter() - start + worker_s <= seconds:
        began = time.perf_counter()
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{len(workers)}.json.gz")
        try:
            _, payload = run_worker(
                ["traced", "--workload", workload, "--seed", str(seed), "--spans", spans],
                start + RUN_TIMEOUT_S,
            )
        except WorkerError as exc:
            errors.append(str(exc))
            break
        workers.append(payload)
        worker_s = time.perf_counter() - began

    sessions = SESSIONS[workload]
    attempted = 3 * sessions * (len(workers) + len(errors))
    failed = 3 * sessions * len(errors) + sum(
        w["traced"]["failed"] + sum(d["failed"] for d in w["untraced"]) for w in workers
    )
    digests = sorted(
        {d["digest"] for w in workers for d in w["untraced"]}
        | {w["traced"]["digest"] for w in workers}
    )
    checks: Dict[str, bool] = {
        "no_worker_errors": not errors,
        "all_sessions_completed": failed == 0,
        "untraced_repeats_and_traced_identical": len(digests) == 1,
    }
    metrics: Dict[str, float] = {}
    if workers:
        layers = [w["layers"] for w in workers]
        for name in layers[0]:
            values = [m[name] for m in layers]
            if name.endswith(EXACT_SUFFIXES) or name.startswith("sim_"):
                checks.setdefault("counts_repeat", True)
                checks["counts_repeat"] &= len(set(values)) == 1
            metrics[name] = statistics.median(values)
        for name, text, holds in PREDICTIONS[workload]:
            checks[f"predict {name} {text}"] = bool(holds(metrics[name]))
    return {
        "mode": "traced", "workload": workload, "seed": seed,
        "checks": checks, "errors": errors, "digests": digests,
        "attempted": attempted, "failed": failed,
        "host": workers[0]["host"] if workers else None,
        "workers": [
            {"untraced_run_s": [d["run_s"] for d in w["untraced"]],
             "traced_run_s": w["traced"]["run_s"], "peak_rss_mb": w["peak_rss_mb"]}
            for w in workers
        ],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Fleet benchmark (see README.md).")
    parser.add_argument("--workload", required=True, choices=sorted(SESSIONS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"fleetbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {**REPORT_ONLY_UNITS, **{m["name"]: m["unit"] for m in declared}}

    run = traced_run if args.trace else timed_run
    record = run(args.workload, args.seed, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    record["checks"]["declared_metrics_reported"] = not missing
    correct = all(record["checks"].values())
    record["correct"] = correct
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} host={json.dumps(record['host'])}")
    for name, value in {**record["metrics"], **record.get("report_only", {})}.items():
        print(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")
    if "tail" in record:
        t = record["tail"]
        print(f"  tick_ms_tail is p{t['percentile']:.2f} of the run's ticks "
              f"({t['ticks_beyond']} beyond it; ticks per drain {t['ticks_per_drain']})")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for error in record["errors"]:
        print(f"  worker error: {error.strip().splitlines()[-1]}", file=sys.stderr)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in record["metrics"]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
