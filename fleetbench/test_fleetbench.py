"""Self-checks of the fleet benchmark.

Run with ``python3 -m pytest fleetbench`` from the repo root (about two
minutes: one traced run per workload). They assert the per-layer
predictions the workloads are chosen for, and that the tracer's
arithmetic and the failure paths behave.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types
from typing import Any, Dict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "fleetbench", "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def traced() -> Dict[str, Dict[str, Any]]:
    out = {}
    for workload in ("burst-512", "diurnal-trickle", "topology-collapse"):
        proc = _bench(workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def metric(result: Dict[str, Any], name: str) -> float:
    return result["metrics"][name]["value"]


def test_traced_runs_are_correct(traced):
    for workload, result in traced.items():
        assert result["correct"], workload
        assert result["failed"] == 0, workload


def test_store_is_write_only_on_burst_and_read_heavy_on_trickle(traced):
    assert metric(traced["burst-512"], "store.hit_ratio") == 0
    assert metric(traced["burst-512"], "store.donations") == 512
    assert metric(traced["diurnal-trickle"], "store.hit_ratio") > 0.5


def test_edge_runs_only_on_topology_collapse(traced):
    for workload in ("burst-512", "diurnal-trickle"):
        for name in ("edge.admit.calls", "edge.sheds", "edge.migrations"):
            assert metric(traced[workload], name) == 0
    topo = traced["topology-collapse"]
    assert metric(topo, "edge.admit.calls") > 0
    assert metric(topo, "edge.sheds") > 0
    assert metric(topo, "edge.migrations") > 0


def test_proposal_batch_shapes(traced):
    assert metric(traced["burst-512"], "batch.propose.rows_per_call") >= 256
    assert metric(traced["diurnal-trickle"], "batch.propose.rows_per_call") < 64


def test_ar_dominates_burst_and_gp_dominates_trickle(traced):
    burst, trickle = traced["burst-512"], traced["diurnal-trickle"]
    assert metric(burst, "share.ar") > metric(trickle, "share.ar")
    assert metric(trickle, "share.batch") > metric(burst, "share.batch")


def test_shares_account_for_the_drain(traced):
    for workload, result in traced.items():
        shares = sum(v["value"] for k, v in result["metrics"].items() if k.startswith("share."))
        unattributed = metric(result, "trace.unattributed_frac")
        assert shares + unattributed == pytest.approx(1.0, abs=1e-6), workload


def test_tail_takes_highest_percentile_with_ten_beyond_per_drain():
    ticks = [float(i) for i in range(1, 101)]
    assert bench.tail([ticks]) == (90.0, 90.0, 10)
    assert bench.tail([ticks, ticks[::-1]]) == (90.0, 90.0, 20)
    assert bench.tail([[3.0, 1.0, 2.0], [5.0, 4.0, 1.0]]) == (4.0, 100.0, 0)


def test_tracer_self_time_excludes_children(monkeypatch):
    module = types.ModuleType("fleetbench_synthetic")

    def inner() -> None:
        time.sleep(0.02)

    def outer() -> None:
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fleetbench_synthetic", module)
    tracer = Tracer(
        "t",
        targets=(
            Target("fleetbench_synthetic", "outer", "outer", "a"),
            Target("fleetbench_synthetic", "inner", "inner", "b", record=False),
        ),
    )
    tracer.install()
    try:
        module.outer()
    finally:
        tracer.uninstall()
    assert module.outer is outer and module.inner is inner
    calls, total, self_s, _ = tracer.stats["outer"]
    assert calls == 1 and tracer.stats["inner"][0] == 1
    assert self_s == pytest.approx(total - tracer.stats["inner"][1])
    assert 0.005 < self_s < 0.02
    assert [s[0] for s in tracer.spans] == ["outer"]  # inner is count-only
    assert tracer.top_level_s == pytest.approx(total)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "fleetbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("burst-512", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
