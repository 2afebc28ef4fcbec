"""The benchmark's three closed-loop fleet workloads.

Each workload turns ``--seed`` into the inputs of one fleet drain (session
specs, fleet seed, fleet config) through the public ``repro`` API only,
and knows how to reduce a finished drain to a canonical digest and to the
correctness facts the benchmark checks. The program receives only the
generated inputs; nothing here changes how ``repro`` runs.

Imports of ``repro`` happen inside functions, so that the caller can time
``import repro`` on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: Default workload seed; ``HELD_OUT_SEED`` is kept for confirming claims.
DEFAULT_SEED = 2024
HELD_OUT_SEED = 4242
#: A seed names a panel of this many independent inputs of one workload;
#: a timed run drains every member, so its figures average over inputs.
PANEL = 3

BURST_SESSIONS = 512
SCENARIO_SESSIONS = 256


@dataclass
class Workload:
    """One drain's inputs plus how to export it."""

    name: str
    specs: tuple
    fleet_seed: int
    config: Any
    budget: int
    #: ``CompiledScenario`` for catalog workloads, ``None`` for burst-512.
    compiled: Any = None

    def scheduler(self) -> Any:
        from repro.fleet import FleetScheduler

        return FleetScheduler(self.specs, seed=self.fleet_seed, config=self.config)

    def export_text(self, result: Any) -> str:
        """Canonical JSON of a drained fleet: the determinism digest input.

        Catalog workloads use the scenario engine's own ``export_json``;
        burst-512 uses the same session/aggregate fields, built here.
        """
        if self.compiled is not None:
            from repro.scenarios import ScenarioRun, export_json

            return export_json(ScenarioRun(compiled=self.compiled, result=result))
        agg = result.aggregates
        payload = {
            "workload": self.name,
            "fleet_seed": self.fleet_seed,
            "ticks": result.ticks,
            "sessions": [
                {
                    "session_id": r.session_id,
                    "device": r.device,
                    "scenario": r.scenario,
                    "warm_started": r.warm_started,
                    "best_cost": r.best_cost,
                    "converged_at": r.converged_at,
                    "costs": list(r.costs),
                    "epsilons": list(r.epsilons),
                    "qualities": list(r.qualities),
                }
                for r in result.reports
            ],
            "aggregates": {
                "n_evaluations": agg.n_evaluations,
                "p50_latency_ms": agg.p50_latency_ms,
                "p95_latency_ms": agg.p95_latency_ms,
                "p50_quality": agg.p50_quality,
                "mean_best_cost": agg.mean_best_cost,
                "p95_epsilon": agg.p95_epsilon,
            },
            "store": result.store_stats,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def check(self, result: Any) -> Tuple[int, List[str]]:
        """Count failed sessions: a session fails unless it ran exactly its
        budget of control periods with finite costs, ε and quality."""
        failures: List[str] = []
        for r in result.reports:
            values = (*r.costs, *r.epsilons, *r.qualities, r.best_cost)
            if len(r.costs) != self.budget:
                failures.append(
                    f"{r.session_id}: {len(r.costs)} periods, budget {self.budget}"
                )
            elif not all(math.isfinite(v) for v in values):
                failures.append(f"{r.session_id}: non-finite cost/epsilon/quality")
        if len(result.reports) != len(self.specs):
            failures.append(
                f"{len(result.reports)} reports for {len(self.specs)} sessions"
            )
        return len(failures), failures


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _burst_512(seed: int) -> Workload:
    """512 sessions at t=0: the two Table I devices in their SC1/CF1 and
    SC2/CF2 cohorts, scenes shared within a cohort, 2+3 budget."""
    from repro.core.controller import HBOConfig
    from repro.device.profiles import GALAXY_S22, PIXEL7
    from repro.fleet import FleetConfig, SessionSpec
    from repro.rng import derive_seed

    hbo = HBOConfig(n_initial=2, n_iterations=3)
    cohorts = ((PIXEL7, "SC1", "CF1"), (GALAXY_S22, "SC2", "CF2"))
    specs = []
    for i in range(BURST_SESSIONS):
        device, scenario, taskset = cohorts[i % 2]
        specs.append(
            SessionSpec(
                session_id=f"b{i:04d}",
                device=device,
                scenario=scenario,
                taskset=taskset,
                arrival_s=0.0,
                placement_seed=derive_seed(seed, "burst-placement", scenario, device),
            )
        )
    return Workload(
        name="burst-512",
        specs=tuple(specs),
        fleet_seed=derive_seed(seed, "burst-fleet"),
        config=FleetConfig(hbo=hbo),
        budget=hbo.total_evaluations,
    )


def _catalog(name: str, scenario: str) -> Callable[[int], Workload]:
    def build(seed: int) -> Workload:
        from repro.core.controller import HBOConfig
        from repro.scenarios import compile_scenario, get_scenario

        hbo = HBOConfig()  # the paper's 5+15 budget
        compiled = compile_scenario(
            get_scenario(scenario), seed, hbo=hbo, n_sessions=SCENARIO_SESSIONS
        )
        return Workload(
            name=name,
            specs=compiled.session_specs,
            fleet_seed=compiled.fleet_seed,
            config=compiled.fleet_config,
            budget=hbo.total_evaluations,
            compiled=compiled,
        )

    return build


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "burst-512": _burst_512,
    "diurnal-trickle": _catalog("diurnal-trickle", "diurnal-baseline"),
    "topology-collapse": _catalog("topology-collapse", "network-collapse"),
}

#: Sessions per drain, known without importing ``repro``.
SESSIONS: Dict[str, int] = {
    "burst-512": BURST_SESSIONS,
    "diurnal-trickle": SCENARIO_SESSIONS,
    "topology-collapse": SCENARIO_SESSIONS,
}


def member_seed(seed: int, member: int) -> int:
    """Input seed of panel member ``member``; member 0 is ``seed`` itself."""
    if member == 0:
        return seed
    from repro.rng import derive_seed

    return derive_seed(seed, "fleetbench-member", member)


def build(name: str, seed: int, member: int = 0) -> Workload:
    return WORKLOADS[name](member_seed(seed, member))


def sim_metrics(result: Any) -> Dict[str, float]:
    """The model's own outputs for a drain (deterministic per input).

    ``p95_epsilon`` pools per-step ε over every session, device-only
    workloads included."""
    agg = result.aggregates
    return {
        "sim_mean_best_cost": agg.mean_best_cost,
        "sim_p95_epsilon": agg.p95_epsilon,
        "sim_p50_quality": agg.p50_quality,
    }
