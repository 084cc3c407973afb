"""Fault-injection tests for the resilient sweep runner.

These tests use :mod:`repro.engine.faults` to make workers crash, raise or
stall on *chosen* grid points deterministically, and pin down every
degradation path documented in ``docs/sweeps.md``:

* attributable faults (raise, timeout) consume the point's retry budget and
  quarantine past it — the rest of the grid always completes;
* a dead worker (``BrokenProcessPool``) re-runs the implicated points on a
  single-worker isolation pool, so the crash is charged to the point that
  actually causes it and innocent neighbours are never quarantined;
* an interrupted store-backed sweep, resumed, yields the same rows as an
  uninterrupted run (the kill-resume equivalence acceptance test).
"""

import dataclasses
import os

import pytest

from repro.engine.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
)
from repro.engine.store import ResultStore
from repro.engine.sweep import build_grid, run_point, run_sweep
from repro.errors import ConfigurationError
from repro.specs import OverlaySpec

KERNELS = ["gradient", "chebyshev", "mibench", "poly5"]


def _grid(kernels=KERNELS):
    return build_grid(list(kernels), overlays=[OverlaySpec(variant="v2")])


def _strip(row, ignore=("elapsed_s", "attempts")):
    return {k: v for k, v in dataclasses.asdict(row).items() if k not in ignore}


class TestFaultPlan:
    def test_plan_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(mode="exit", kernel="gradient", times=2),
                FaultRule(mode="stall", variant="v2", stall_s=1.5),
            ),
            state_dir=str(tmp_path),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_install_sets_and_restores_the_env_var(self):
        plan = FaultPlan(rules=(FaultRule(mode="raise"),))
        assert os.environ.get(FAULT_PLAN_ENV) is None
        with plan.install():
            assert active_plan() == plan
        assert os.environ.get(FAULT_PLAN_ENV) is None
        assert active_plan() is None

    def test_dict_rules_coerce(self):
        plan = FaultPlan(rules=({"mode": "raise", "kernel": "gradient"},))
        assert plan.rules[0] == FaultRule(mode="raise", kernel="gradient")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault mode"):
            FaultRule(mode="segfault")

    def test_bounded_rule_requires_state_dir(self):
        with pytest.raises(ConfigurationError, match="state_dir"):
            FaultPlan(rules=(FaultRule(mode="exit", times=1),))

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault rule field"):
            FaultPlan.from_json('{"rules": [{"mode": "raise", "bogus": 1}]}')

    def test_exit_refused_in_the_main_process(self):
        # A mis-scoped plan must never kill the test runner itself: in the
        # main process an exit rule degrades to a raise.
        plan = FaultPlan(rules=(FaultRule(mode="exit", kernel="gradient"),))
        point = _grid(["gradient"])[0]
        with plan.install():
            with pytest.raises(InjectedFault, match="refused outside a worker"):
                run_point(point)


class TestSerialRetries:
    def test_transient_raise_is_retried_to_success(self, tmp_path):
        plan = FaultPlan(
            rules=(FaultRule(mode="raise", kernel="gradient", times=1),),
            state_dir=str(tmp_path),
        )
        with plan.install():
            rows = run_sweep(_grid(), jobs=1, retries=2)
        by_kernel = {r.kernel: r for r in rows}
        assert not any(r.quarantined for r in rows)
        assert by_kernel["gradient"].attempts == 2
        assert by_kernel["chebyshev"].attempts == 1

    def test_exhausted_budget_quarantines_only_the_faulty_point(self):
        plan = FaultPlan(rules=(FaultRule(mode="raise", kernel="gradient"),))
        with plan.install():
            rows = run_sweep(_grid(), jobs=1, retries=1)
        by_kernel = {r.kernel: r for r in rows}
        bad = by_kernel["gradient"]
        assert bad.quarantined and bad.infeasible
        assert bad.attempts == 2  # 1 try + 1 retry
        assert "injected fault" in bad.error
        assert all(
            not r.quarantined for k, r in by_kernel.items() if k != "gradient"
        )

    def test_retries_zero_fails_immediately(self):
        plan = FaultPlan(rules=(FaultRule(mode="raise", kernel="gradient"),))
        with plan.install():
            rows = run_sweep(_grid(["gradient", "poly5"]), jobs=1, retries=0)
        assert rows[0].quarantined and rows[0].attempts == 1
        assert not rows[1].quarantined

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            run_sweep(_grid(["gradient"]), jobs=1, retries=-1)


class TestPoolRaises:
    """A raise inside a pool worker is a fault of that point alone."""

    def test_transient_raise_in_a_worker_is_retried_to_success(self, tmp_path):
        plan = FaultPlan(
            rules=(FaultRule(mode="raise", kernel="chebyshev", times=1),),
            state_dir=str(tmp_path),
        )
        with plan.install():
            rows = run_sweep(_grid(), jobs=2, retries=2)
        by_kernel = {r.kernel: r for r in rows}
        assert [r.kernel for r in rows] == KERNELS
        assert not any(r.quarantined for r in rows)
        assert by_kernel["chebyshev"].attempts == 2
        assert all(
            r.attempts == 1 for k, r in by_kernel.items() if k != "chebyshev"
        )

    def test_persistent_raise_in_a_worker_is_quarantined_with_its_message(self):
        # The worker's exception is reported on its own row; the neighbours
        # are neither re-run nor charged for it.
        plan = FaultPlan(rules=(FaultRule(mode="raise", kernel="chebyshev"),))
        with plan.install():
            rows = run_sweep(_grid(), jobs=2, retries=0)
        by_kernel = {r.kernel: r for r in rows}
        bad = by_kernel["chebyshev"]
        assert bad.quarantined and bad.attempts == 1
        assert "injected fault" in bad.error
        for kernel in ("gradient", "mibench", "poly5"):
            row = by_kernel[kernel]
            assert not row.quarantined and row.attempts == 1
            assert row.matches_reference is True


class TestWorkerDeath:
    def test_single_worker_death_retries_and_recovers(self, tmp_path):
        # chebyshev kills its worker exactly once; isolation re-runs it and
        # every point of the grid still produces a measured row.
        plan = FaultPlan(
            rules=(FaultRule(mode="exit", kernel="chebyshev", times=1),),
            state_dir=str(tmp_path),
        )
        with plan.install():
            rows = run_sweep(_grid(), jobs=2, retries=2)
        assert [r.kernel for r in rows] == KERNELS  # grid order kept
        assert not any(r.quarantined for r in rows)
        assert all(r.matches_reference is True for r in rows)

    def test_poisonous_point_is_quarantined_alone(self):
        # chebyshev kills every worker that ever runs it; the grid must
        # finish with exactly one quarantined row and full results for the
        # innocent neighbours that shared the broken pools (isolation
        # attributes the crash instead of charging everyone in flight).
        plan = FaultPlan(rules=(FaultRule(mode="exit", kernel="chebyshev"),))
        with plan.install():
            rows = run_sweep(_grid(), jobs=2, retries=1)
        by_kernel = {r.kernel: r for r in rows}
        bad = by_kernel["chebyshev"]
        assert bad.quarantined
        assert "worker process died" in bad.error
        assert bad.attempts == 2
        for kernel in ("gradient", "mibench", "poly5"):
            row = by_kernel[kernel]
            assert not row.quarantined
            assert row.attempts == 1  # never charged for the neighbour
            assert row.matches_reference is True

    def test_death_results_match_a_clean_run(self, tmp_path):
        plan = FaultPlan(
            rules=(FaultRule(mode="exit", kernel="chebyshev", times=1),),
            state_dir=str(tmp_path),
        )
        with plan.install():
            faulted = run_sweep(_grid(), jobs=2, retries=2)
        clean = run_sweep(_grid(), jobs=1)
        assert [_strip(r) for r in faulted] == [_strip(r) for r in clean]


class TestTimeouts:
    def test_stalled_point_is_killed_and_quarantined(self):
        plan = FaultPlan(rules=(FaultRule(mode="stall", kernel="gradient", stall_s=30.0),))
        with plan.install():
            rows = run_sweep(_grid(), jobs=2, retries=0, timeout_s=1.0)
        by_kernel = {r.kernel: r for r in rows}
        assert by_kernel["gradient"].quarantined
        assert "timed out after 1s" in by_kernel["gradient"].error
        assert all(
            not r.quarantined for k, r in by_kernel.items() if k != "gradient"
        )

    def test_timeout_retry_happens_in_isolation(self):
        plan = FaultPlan(rules=(FaultRule(mode="stall", kernel="gradient", stall_s=30.0),))
        with plan.install():
            rows = run_sweep(_grid(), jobs=2, retries=1, timeout_s=1.0)
        by_kernel = {r.kernel: r for r in rows}
        assert by_kernel["gradient"].quarantined
        assert by_kernel["gradient"].attempts == 2
        assert all(
            r.attempts == 1 for k, r in by_kernel.items() if k != "gradient"
        )


class TestKillResumeEquivalence:
    """The PR's acceptance test: interrupt + resume == uninterrupted."""

    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path):
        store_dir = str(tmp_path / "store")
        # Pass 1, "interrupted": chebyshev's worker dies on every attempt,
        # so the run ends with a quarantined row for it — the moral
        # equivalent of a sweep killed partway: some rows persisted, one
        # never completed.  Quarantined rows are never stored.
        plan = FaultPlan(rules=(FaultRule(mode="exit", kernel="chebyshev"),))
        with plan.install():
            interrupted = run_sweep(
                _grid(), jobs=2, retries=0, store=ResultStore(store_dir)
            )
        assert any(r.quarantined for r in interrupted)
        survivors = [r.kernel for r in interrupted if not r.quarantined]
        assert sorted(survivors) == sorted(k for k in KERNELS if k != "chebyshev")
        assert len(ResultStore(store_dir)) == len(survivors)

        # Pass 2, "resumed": no faults.  Only chebyshev re-runs (the other
        # keys hit the store) and the rows equal a fresh uninterrupted run.
        probe = ResultStore(store_dir)
        resumed = run_sweep(_grid(), jobs=2, store=probe)
        assert probe.stats.hits == len(survivors)
        uninterrupted = run_sweep(_grid(), jobs=1)
        assert [_strip(r) for r in resumed] == [_strip(r) for r in uninterrupted]
        assert not any(r.quarantined for r in resumed)
