"""The sharded-vs-single differential oracle and its misroute sensitivity.

``diff_sharded_single`` is the contract for the whole sharded service: a
tenant session must not be able to tell whether it was served by one
scalar backend or an N-way sharded deployment with batched drains —
observation trails, centroid and guardrail state, and every
non-``service.*`` telemetry counter must match bit-for-bit, with every
session guardrailed as in production.  The planted hash-ring misroute is the
acceptance check that the oracle actually *can* detect a routing bug: a
misrouted tenant silently grows a second session on the wrong shard, and
collecting the sharded trail must fail on it, naming the tenant and both
shards.
"""

import pytest

from repro.service.sharded import ShardedAutotuneService
from repro.verify.diff import diff_sharded_single
from tests.service.test_sharded import MisroutingService

pytestmark = pytest.mark.verify


class TestShardedOracle:
    def test_sharded_equals_single_bitwise(self):
        report = diff_sharded_single(seed=0)
        assert report.equivalent, report.summary()
        assert report.tolerance == 0.0
        # A real fleet comparison, not a vacuous one.
        assert report.steps_compared > 100

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equivalence_across_seeds(self, seed):
        report = diff_sharded_single(
            seed=seed, n_workloads=6, n_iterations=6, n_shards=3
        )
        assert report.equivalent, report.summary()

    def test_equivalence_without_event_forwarding(self):
        report = diff_sharded_single(seed=0, events=False)
        assert report.equivalent, report.summary()

    def test_sessions_run_guarded_through_disable_and_reenable(self):
        # The oracle runs the production shape: every session carries a
        # guardrail with a cooldown, and at the default size some of them
        # trip, sit out the cooldown and come back — all of it inside the
        # bitwise contract.
        built = []

        def recording(*args, **kwargs):
            built.append(ShardedAutotuneService(*args, **kwargs))
            return built[-1]

        report = diff_sharded_single(seed=0, service_factory=recording)
        assert report.equivalent, report.summary()
        guardrails = [
            session.optimizer.guardrail
            for session in built[0].sessions().values()
        ]
        assert any(d.violated for g in guardrails for d in g.decisions)
        assert any(g.reenable_count > 0 for g in guardrails)

    def test_planted_misroute_is_caught(self):
        built = []

        def misrouting(*args, **kwargs):
            built.append(MisroutingService(
                *args, victim="artifact-0000", after=5, **kwargs
            ))
            return built[-1]

        # The victim's sessions now live on two shards: the sharded trail
        # refuses to pick one copy.
        with pytest.raises(RuntimeError, match="hosted on both") as exc_info:
            diff_sharded_single(seed=0, service_factory=misrouting)
        message = str(exc_info.value)
        service = built[0]
        assert "artifact-0000" in message
        assert service.ring.owner("artifact-0000") in message
        assert service.wrong_shard in message
