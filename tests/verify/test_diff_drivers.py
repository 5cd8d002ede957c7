"""Differential-oracle drivers (verify suite: ``pytest -m verify``).

Includes the deliberate-bug acceptance test: an off-by-one injected into the
vectorized cost kernel must be caught by ``diff_scalar_batch`` at step 0.
"""

import numpy as np
import pytest

from repro.experiments.lockstep import LockstepSessions
from repro.sparksim.cost_model import CostModel
from repro.verify import run_all
from repro.verify.diff import (
    diff_live_replay,
    diff_lockstep_sequential,
    diff_refit_incremental,
    diff_retrieval_bruteforce,
    diff_scalar_batch,
)

pytestmark = pytest.mark.verify


class TestAllPathsAgree:
    def test_run_all_is_equivalent(self):
        reports = run_all(seed=0)
        assert set(reports) == {
            "scalar_vs_batch",
            "refit_vs_incremental", "live_vs_replay",
            "lockstep_vs_sequential", "retrieval_vs_bruteforce",
            "switch_inert", "sharded_vs_single", "pruned_vs_full",
        }
        for report in reports.values():
            assert report.equivalent, report.summary()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scalar_batch_bitwise_across_seeds(self, seed):
        report = diff_scalar_batch(n_configs=16, seed=seed)
        assert report.equivalent, report.summary()
        assert report.tolerance == 0.0

    def test_refit_incremental_within_atol(self):
        report = diff_refit_incremental(seed=1, n_points=24, n_init=6)
        assert report.equivalent, report.summary()
        assert report.tolerance == 1e-7

    def test_live_replay_bitwise(self):
        report = diff_live_replay(seed=1, n_iterations=24, cooldown=4)
        assert report.equivalent, report.summary()

    def test_lockstep_sequential_bitwise(self):
        # The default population is fig-15-shaped: K >= 64 sessions, noisy,
        # guardrailed, with scheduled latency-spike faults.
        report = diff_lockstep_sequential(seed=0)
        assert report.equivalent, report.summary()
        assert report.tolerance == 0.0
        assert report.steps_compared >= 12 + 2 * 64  # steps + 2 rows/session

    def test_lockstep_sequential_bitwise_across_seeds(self):
        report = diff_lockstep_sequential(
            seed=2, n_workloads=6, n_iterations=10, fault_every=3
        )
        assert report.equivalent, report.summary()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_retrieval_bruteforce_across_seeds(self, seed):
        report = diff_retrieval_bruteforce(seed=seed)
        assert report.equivalent, report.summary()


class TestDeliberateBugIsCaught:
    def test_off_by_one_in_batch_kernel_diverges_at_step_zero(self, monkeypatch):
        original = CostModel.estimate_batch

        def off_by_one(self, plan, configs, layout=None, *, space=None,
                       pool=None, data_scale=1.0, overlay=None,
                       breakdown=False):
            out = original(self, plan, configs, layout, space=space,
                           pool=pool, data_scale=data_scale, overlay=overlay,
                           breakdown=breakdown)
            totals = out.total_seconds if breakdown else out
            if len(totals) > 1:  # scalar path wraps 1-row batches: unaffected
                totals[:] = np.roll(totals, 1)
            return out

        monkeypatch.setattr(CostModel, "estimate_batch", off_by_one)
        report = diff_scalar_batch(n_configs=16, seed=3)
        assert not report.equivalent
        assert report.divergence is not None
        assert report.divergence.step == 0
        assert report.divergence.field in {"observed_seconds", "true_seconds"}
        assert "NOT equivalent" in report.summary()

    def test_shrunken_batch_reports_length_mismatch(self, monkeypatch):
        from repro.sparksim.executor import SparkSimulator

        original_rb = SparkSimulator.run_batch

        def truncating(self, plan, configs, *, space=None, data_scale=1.0):
            return original_rb(
                self, plan, configs, space=space, data_scale=data_scale
            )[:-1]

        monkeypatch.setattr(SparkSimulator, "run_batch", truncating)
        report = diff_scalar_batch(n_configs=8, seed=0)
        assert not report.equivalent
        assert report.length_mismatch == (8, 7)

    def test_one_session_centroid_off_by_one_caught_at_faulting_step(self):
        # A classic vectorization bug: the batched centroid update writes
        # one session's row from its neighbor's result (index off by one
        # within the update batch).  The centroid updated at step FAULT_STEP
        # is first consumed by suggest() at FAULT_STEP + 1, so the oracle
        # must flag exactly that record — and the 'config' field, since only
        # the suggestion is perturbed.
        FAULT_STEP = 5

        class OffByOneEngine(LockstepSessions):
            def _update_centroids(self, upd, t, n_win):
                super()._update_centroids(upd, t, n_win)
                if t == FAULT_STEP and upd.size >= 2:
                    self._centroids[upd[0]] = self._centroids[upd[1]]

        report = diff_lockstep_sequential(
            seed=0, n_workloads=6, n_iterations=10, fault_every=3,
            lockstep_factory=OffByOneEngine,
        )
        assert not report.equivalent
        assert report.divergence is not None
        assert report.divergence.step == FAULT_STEP + 1
        assert report.divergence.field == "config"
        assert "NOT equivalent" in report.summary()

    # The lock-step engine writes its arrays back into the optimizer objects
    # in _sync_state; a write-back bug leaves every trace record right and
    # shows only in the session trail's summary rows.  With 10 iterations
    # the trail holds 10 iteration rows, then per session 10 observation
    # rows and one summary row: session 0's summary is row 20, session 1's
    # row 31.
    def test_short_update_count_write_back_caught_at_summary_row(self):
        class ShortUpdateCount(LockstepSessions):
            def _sync_state(self):
                super()._sync_state()
                self._opts[0]._n_updates -= 1

        report = diff_lockstep_sequential(
            seed=0, n_workloads=6, n_iterations=10, fault_every=3,
            lockstep_factory=ShortUpdateCount,
        )
        assert not report.equivalent
        assert report.divergence is not None
        assert report.divergence.step == 20
        assert report.divergence.field == "n_updates"
        assert report.divergence.lhs == report.divergence.rhs + 1

    def test_cross_session_last_best_write_back_caught_at_summary_row(self):
        class LeakyLastBest(LockstepSessions):
            def _sync_state(self):
                super()._sync_state()
                self._opts[1]._last_best = self._opts[0]._last_best

        report = diff_lockstep_sequential(
            seed=0, n_workloads=6, n_iterations=10, fault_every=3,
            lockstep_factory=LeakyLastBest,
        )
        assert not report.equivalent
        assert report.divergence is not None
        assert report.divergence.step == 31
        assert report.divergence.field == "last_best"

    def test_broken_tie_break_in_index_topk_diverges(self, monkeypatch):
        # Drop the deterministic id tie-break: equal-score entries (the
        # planted duplicates) then surface in partition order, which the
        # brute-force lexsort reference must flag.
        import repro.retrieval.index as index_mod

        original = index_mod._top_k_row

        def reversed_ranking(scores_row, ids_row, k):
            return original(scores_row, ids_row, k)[::-1]

        monkeypatch.setattr(index_mod, "_top_k_row", reversed_ranking)
        report = diff_retrieval_bruteforce(seed=0)
        assert not report.equivalent
        assert report.divergence is not None
        assert "NOT equivalent" in report.summary()
