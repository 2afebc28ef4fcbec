"""Tests for the columnar SoA fleet core.

`SessionTable` is the scheduler's source of truth; `FleetSession` is a
row view into it. Covered here: batched search-space ops against their
per-row references, SessionTable <-> FleetSession row-view parity, and
the columnar telemetry path's value-identity with the per-report legacy
path.
"""

import numpy as np
import pytest

from repro.bo.space import HBOSpace
from repro.core.controller import HBOConfig
from repro.device.profiles import GALAXY_S22, PIXEL7
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    SessionSpec,
    SharedConfigStore,
)
from repro.fleet.table import PHASE_DONE
from repro.fleet.telemetry import (
    convergence_from_columns,
    convergence_histogram,
    fleet_aggregates,
    iterations_to_converge,
)
from repro.rng import make_rng

FAST = HBOConfig(n_initial=2, n_iterations=3)


def _specs(n, arrival_gap_s=0.0, positions=4):
    """A mixed-cohort fleet; positions spread users for `nearest`."""
    cohorts = [
        (PIXEL7, "SC1", "CF1"),
        (GALAXY_S22, "SC1", "CF1"),
        (PIXEL7, "SC2", "CF2"),
    ]
    return [
        SessionSpec(
            session_id=f"s{i:02d}",
            device=cohorts[i % len(cohorts)][0],
            scenario=cohorts[i % len(cohorts)][1],
            taskset=cohorts[i % len(cohorts)][2],
            arrival_s=arrival_gap_s * i,
            placement_seed=11 + (i % len(cohorts)),
            position=10.0 * (i % positions),
        )
        for i in range(n)
    ]


class TestBatchedSpaceOps:
    def test_perturb_batch_bitwise_matches_sequential(self):
        space = HBOSpace(5)
        z = space.sample(make_rng(3))
        a, b = make_rng(99), make_rng(99)
        batch = space.perturb_batch(z, 0.1, 6, a)
        rows = np.stack([space.perturb(z, 0.1, b) for _ in range(6)])
        np.testing.assert_array_equal(batch, rows)
        # Stream contract: both generators end at the same position.
        assert a.uniform() == b.uniform()

    def test_project_rows_bitwise_matches_per_row(self):
        simplex = HBOSpace(4).simplex
        c = make_rng(5).normal(size=(8, simplex.n))
        rows = np.stack([simplex.project(c[i]) for i in range(len(c))])
        np.testing.assert_array_equal(simplex.project_rows(c), rows)


@pytest.fixture(scope="module")
def device_run():
    """One 9-session device-mode fleet, scheduler kept for inspection."""
    scheduler = FleetScheduler(
        _specs(9, arrival_gap_s=1.5),
        seed=2024,
        config=FleetConfig(hbo=FAST),
        store=SharedConfigStore(),
    )
    result = scheduler.run()
    return scheduler, result


class TestRowViewParity:
    """FleetSession is a thin row-view: every lifecycle attribute it
    exposes must be the table column, not a shadow copy."""

    def test_session_views_mirror_table_columns(self, device_run):
        scheduler, _ = device_run
        table = scheduler.table
        for i, session in enumerate(scheduler.sessions):
            assert session.index == i
            assert session.done and int(table.phase[i]) == PHASE_DONE
            assert session.start_tick == int(table.start_tick[i])
            assert session.end_tick == int(table.end_tick[i])
            assert session.migrations == int(table.migrations[i])
            assert session.warm_started == bool(table.warm_started[i])
            assert session.budget == int(table.budget[i])
            assert session.best_cost() == float(table.best_cost[i])
            n = int(table.n_results[i])
            assert len(session.results) == n
            np.testing.assert_array_equal(session.costs(), table.costs[i, :n])

    def test_reports_are_built_from_columns(self, device_run):
        scheduler, result = device_run
        table = scheduler.table
        for i, report in enumerate(result.reports):
            n = int(table.n_results[i])
            assert list(report.costs) == [float(c) for c in table.costs[i, :n]]
            assert report.best_cost == float(table.best_cost[i])
            assert report.warm_started == bool(table.warm_started[i])


class TestColumnarTelemetry:
    def test_aggregates_value_identical_to_report_path(self, device_run):
        _, result = device_run
        assert result.aggregates == fleet_aggregates(result.reports)

    def test_histogram_value_identical_to_report_path(self, device_run):
        _, result = device_run
        assert result.histogram == convergence_histogram(result.reports)

    def test_convergence_columns_match_scalar_helper(self):
        rng = make_rng(17)
        n, width = 32, 10
        costs = rng.uniform(0.5, 4.0, size=(n, width))
        lengths = rng.integers(1, width + 1, size=n)
        costs[np.arange(width)[None, :] >= lengths[:, None]] = np.nan
        targets = rng.uniform(0.4, 2.0, size=n)
        vec = convergence_from_columns(costs, lengths, targets)
        for i in range(n):
            scalar = iterations_to_converge(
                list(costs[i, : lengths[i]]), target=targets[i]
            )
            assert int(vec[i]) == scalar
