"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro`` layer from the
outside: for a method it replaces the class attribute, for a function
imported by name it replaces the attribute of the module that calls it
(``repro.core.system.distribute_triangles``, not the defining module),
because that is the name the caller looks up. ``uninstall`` puts every
original back. Nothing in ``src/`` knows it is being traced.

Each span records its name, start, end, parent span and the fleet tick it
ran in, under one run id. Spans stay in memory until :meth:`Tracer.dump`.
Very hot spans (``record=False``) are timed and counted but not kept as
records. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` becomes span ``span``."""

    owner: str  # dotted module path, optionally ``:Class``
    attr: str
    span: str
    layer: str
    record: bool = True
    #: Work size of one call, from its positional arguments.
    rows: Optional[Callable[[Tuple[Any, ...]], int]] = None


def _plan_rows(args: Tuple[Any, ...]) -> int:
    return int(args[0].n_rows)


def _optimizer_rows(args: Tuple[Any, ...]) -> int:
    return len(args[1])  # (self, optimizers, rngs)


#: The layer boundaries the benchmark attributes time to.
TARGETS: Tuple[Target, ...] = (
    Target("repro.fleet.scheduler:FleetScheduler", "step", "scheduler.tick", "scheduler"),
    Target("repro.fleet.session:FleetSession", "admit", "session.admit", "session"),
    Target("repro.fleet.session:FleetSession", "finish_step", "session.step", "session"),
    Target("repro.fleet.session:FleetSession", "finish", "session.finish", "session"),
    Target("repro.core.algorithm:HBOIteration", "begin", "core.begin", "core"),
    Target("repro.core.system", "distribute_triangles", "ar.distribute", "ar"),
    Target("repro.ar.scene:Scene", "apply_ratios", "ar.apply_ratios", "ar"),
    Target("repro.ar.scene:Scene", "average_quality", "ar.average_quality", "ar"),
    Target(
        "repro.ar.degradation:DegradationModel", "error",
        "ar.degradation_error", "ar", record=False,
    ),
    Target(
        "repro.device.executor:DeviceSimulator", "measure_period",
        "device.measure_period", "device",
    ),
    Target("repro.fleet.scheduler", "solve", "backend.solve", "backend", rows=_plan_rows),
    Target("repro.bo.optimizer:BayesianOptimizer", "tell", "bo.tell", "bo"),
    Target("repro.bo.space:HBOSpace", "perturb_batch", "bo.perturb_batch", "bo"),
    Target("repro.bo.space:HBOSpace", "sample", "bo.sample", "bo"),
    Target(
        "repro.fleet.batch:SharedOptimizerService", "propose",
        "batch.propose", "batch", rows=_optimizer_rows,
    ),
    Target("repro.fleet.batch:BatchedGPService", "posterior", "batch.posterior", "batch"),
    Target("repro.fleet.store:SharedConfigStore", "warm_start_for", "store.lookup", "store"),
    Target("repro.fleet.store:SharedConfigStore", "donate", "store.donate", "store"),
    Target("repro.fleet.session", "place", "edge.place", "edge"),
    Target("repro.fleet.scheduler:FleetScheduler", "_maintain_topology", "edge.maintain", "edge"),
    Target("repro.fleet.scheduler:FleetScheduler", "_shed_overloaded", "edge.shed", "edge"),
    Target("repro.fleet.scheduler:FleetScheduler", "_migrate_sessions", "edge.migrate", "edge"),
    Target(
        "repro.device.executor:DeviceSimulator", "_sync_edge_demand",
        "edge.sync_demand", "edge", record=False,
    ),
    Target("repro.fleet.table:SessionTable", "build_plan", "table.build_plan", "table"),
    Target(
        "repro.fleet.table:SessionTable", "refresh_plan_row",
        "table.refresh_plan_row", "table",
    ),
    Target("repro.fleet.table:SessionTable", "build_reports", "telemetry.reports", "telemetry"),
    Target("repro.fleet.table:SessionTable", "aggregates", "telemetry.aggregates", "telemetry"),
    Target("repro.fleet.table:SessionTable", "histogram", "telemetry.histogram", "telemetry"),
)


def _resolve(owner: str) -> Any:
    import importlib

    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """In-memory span recorder with per-name call/total/self aggregates."""

    def __init__(self, run_id: str, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.run_id = run_id
        self.targets = targets
        #: Recorded spans: (name, start_s, end_s, parent_index, tick).
        self.spans: List[Tuple[str, float, float, int, int]] = []
        #: name -> [calls, total_s, self_s, rows]
        self.stats: Dict[str, List[float]] = {t.span: [0, 0.0, 0.0, 0] for t in targets}
        self.tick = -1
        #: Wall time covered by spans that ran with no parent span.
        self.top_level_s = 0.0
        self._stack: List[List[float]] = []  # [start, child_s, span_index]
        self._originals: List[Tuple[Any, str, Any]] = []

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        stat = self.stats[target.span]
        name, record, rows = target.span, target.record, target.rows
        is_tick = name == "scheduler.tick"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if is_tick:
                self.tick = args[1]
            index = -1
            if record:
                parent = int(stack[-1][2]) if stack else -1
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent, self.tick))
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_s += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if rows is not None:
                    stat[3] += rows(args)
                if record:
                    spans[index] = (name, frame[0], end, spans[index][3], spans[index][4])

        return traced

    def install(self) -> None:
        """Wrap every target; raises if a target no longer exists."""
        for target in self.targets:
            owner = _resolve(target.owner)
            original = owner.__dict__[target.attr] if isinstance(owner, type) else getattr(owner, target.attr)
            self._originals.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for target in self.targets:
            out[target.layer] = out.get(target.layer, 0.0) + self.stats[target.span][2]
        return out

    def dump(self, path: str) -> None:
        """Write every recorded span, gzip-compressed JSON."""
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent", "tick"],
            "spans": self.spans,
            "stats": {
                name: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2], "rows": int(s[3])}
                for name, s in self.stats.items()
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
