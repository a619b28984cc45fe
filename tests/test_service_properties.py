"""Hypothesis properties of the serving layer.

* :class:`AdmissionQueueMachine` drives an :class:`AdmissionQueue` under a
  fake clock through offers (with priorities, deadlines and quotas), batch
  takes, withdrawals, close and reopen, against a model of what was
  admitted.  After every step: sizes and per-tenant depths match the
  model, every admitted item is in exactly one of queued / taken / shed /
  withdrawn, and ``stats`` reconcile.  Each take is checked to be FIFO
  (by priority, then arrival) within a tenant and round-robin across
  tenants, and every shed item to be reported once, expired.
* :class:`CircuitBreakerMachine` drives a :class:`CircuitBreaker` under a
  fake clock as the server does: a request asks ``allow_full``, and only a
  granted one later reports success or failure, in any order.  A model
  predicts every answer.  After every step: at most one probe is in
  flight while half-open, the backoff is the base doubled once per trip
  since the last success and capped at ``max_backoff_s``, and ``trips``,
  ``probes`` and ``short_circuits`` equal the model's.
* A degraded rung of the ladder — replay-only, single-phase or
  unoptimized — never answers with a plan whose estimated cost exceeds
  the unoptimized plan's, over canned workloads, request seeds and what
  the decision cache was warmed with.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.baselines import make_optimizer
from repro.cluster import ClusterSpec
from repro.profiler import Profiler
from repro.service import AdmissionQueue, CircuitBreaker, PlanningServer
from repro.service.admission import AdmissionRejected
from repro.service.degradation import LEVEL_REPLAY_ONLY, LEVEL_SINGLE_PHASE, LEVEL_UNOPTIMIZED
from repro.workloads import WORKLOAD_ORDER, build_workload

CLUSTER = ClusterSpec.paper_cluster()
TENANTS = ("a", "b", "c")


class AdmissionQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 100.0
        self.capacity, self.quota = 6, 3
        self.queue = AdmissionQueue(self.capacity, self.quota, clock=lambda: self.now)
        self.shed_reports = []
        self.queue.on_shed = self.shed_reports.append
        self.ids = itertools.count()
        #: item -> (tenant, (-priority, arrival), deadline_at) while queued.
        self.queued = {}
        self.taken, self.shed, self.withdrawn = set(), set(), set()
        self.accepted = self.offered = self.rejected = 0
        self.peak = 0
        self.closed = False

    # ----------------------------------------------------------- rules
    @rule(
        tenant=st.sampled_from(TENANTS),
        priority=st.integers(0, 2),
        deadline_in=st.one_of(st.none(), st.integers(-1, 3)),
    )
    def offer(self, tenant, priority, deadline_in):
        item = next(self.ids)
        deadline_at = None if deadline_in is None else self.now + deadline_in
        mine = sum(1 for owner, _, _ in self.queued.values() if owner == tenant)
        admitted = not self.closed and len(self.queued) < self.capacity and mine < self.quota
        self.offered += 1
        try:
            self.queue.offer(tenant, item, priority=priority, deadline_at=deadline_at)
        except AdmissionRejected:
            assert not admitted
            self.rejected += 1
            return
        assert admitted
        self.accepted += 1
        self.queued[item] = (tenant, (-priority, item), deadline_at)
        self.peak = max(self.peak, len(self.queued))

    @rule(limit=st.integers(1, 4))
    def take_batch(self, limit):
        live = {
            item: entry for item, entry in self.queued.items()
            if entry[2] is None or self.now < entry[2]
        }
        before = len(self.shed_reports)
        batch = self.queue.take_batch(limit)
        reported = self.shed_reports[before:]

        assert len(batch) == len(set(batch)) == min(limit, len(live))
        assert all(item in live for item in batch)
        for item in reported:
            # Shed once, only while queued, and only once expired.
            assert item in self.queued and item not in live and item not in self.shed
            self.shed.add(item)
            del self.queued[item]
        for item in batch:
            del self.queued[item]
        self.taken.update(batch)

        counts = {}
        for item in batch:
            tenant, order, _ = live[item]
            # FIFO within the tenant: nothing live it still holds drains first.
            assert all(
                order < entry[1] for entry in self.queued.values()
                if entry[0] == tenant and (entry[2] is None or self.now < entry[2])
            )
            counts[tenant] = counts.get(tenant, 0) + 1
        # Round-robin: a tenant gets a second turn only after every tenant
        # that still holds live work has had its first.
        still_live = {
            entry[0] for entry in self.queued.values() if entry[2] is None or self.now < entry[2]
        }
        for tenant, count in counts.items():
            for other in still_live:
                assert count <= counts.get(other, 0) + 1, (tenant, other, counts)

    @precondition(lambda self: self.queued or self.taken)
    @rule(data=st.data())
    def remove(self, data):
        item = data.draw(st.sampled_from(sorted(self.queued) + sorted(self.taken)))
        tenant = self.queued[item][0] if item in self.queued else data.draw(st.sampled_from(TENANTS))
        found = self.queue.remove(tenant, item)
        assert found == (item in self.queued)
        if found:
            del self.queued[item]
            self.withdrawn.add(item)

    @rule(seconds=st.integers(0, 2))
    def advance(self, seconds):
        self.now += seconds

    @rule()
    def close(self):
        self.queue.close()
        self.closed = True

    @rule()
    def reopen(self):
        self.queue.reopen()
        self.closed = False

    # ------------------------------------------------------ invariants
    @invariant()
    def sizes_match(self):
        assert len(self.queue) == len(self.queued)
        for tenant in TENANTS:
            queued = self.queue._tenants.get(tenant)
            assert (len(queued.items) if queued else 0) == sum(
                1 for owner, _, _ in self.queued.values() if owner == tenant
            )
        assert self.queue._closed == self.closed

    @invariant()
    def every_item_is_in_one_place(self):
        places = (set(self.queued), self.taken, self.shed, self.withdrawn)
        assert sum(map(len, places)) == self.accepted == len(set().union(*places))
        assert len(self.shed_reports) == len(set(self.shed_reports)) == len(self.shed)

    @invariant()
    def stats_reconcile(self):
        stats = self.queue.stats
        assert stats.offered == self.offered == stats.accepted + stats.rejected
        assert stats.accepted == self.accepted and stats.rejected == self.rejected
        assert stats.taken == len(self.taken)
        assert stats.shed_expired == len(self.shed)
        assert stats.cancelled_in_queue == len(self.withdrawn)
        assert stats.accepted == (
            stats.taken + stats.shed_expired + stats.cancelled_in_queue + len(self.queue)
        )
        assert stats.peak_depth == self.peak


AdmissionQueueMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40)
TestAdmissionQueueMachine = AdmissionQueueMachine.TestCase


class CircuitBreakerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 50.0
        self.ids = itertools.count()
        #: Granted request -> the half-open episode it probes (``None``: granted closed).
        self.in_flight = {}
        self.episode = 0
        self.state, self.failures, self.retry_at, self.probing = "closed", 0, 0.0, False
        self.trips = self.trips_since_success = self.probes = self.short_circuits = 0

    @initialize(
        threshold=st.integers(1, 3),
        base=st.sampled_from((0.25, 0.5, 1.0)),
        cap=st.sampled_from((1.0, 2.0, 8.0)),
    )
    def build(self, threshold, base, cap):
        self.threshold, self.base, self.cap = threshold, base, cap
        self.backoff = base
        self.breaker = CircuitBreaker(
            failure_threshold=threshold, backoff_s=base, max_backoff_s=cap, clock=lambda: self.now
        )

    # ----------------------------------------------------------- rules
    @rule()
    def request(self):
        if self.state == "open" and self.now >= self.retry_at:
            self.state, self.probing = "half_open", False
            self.episode += 1
        expected = self.state == "closed" or (self.state == "half_open" and not self.probing)
        probe = self.state == "half_open" and expected
        if probe:
            self.probing = True
            self.probes += 1
        elif not expected:
            self.short_circuits += 1
        assert self.breaker.allow_full() is expected
        if expected:
            self.in_flight[next(self.ids)] = self.episode if probe else None

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data())
    def succeed(self, data):
        del self.in_flight[data.draw(st.sampled_from(sorted(self.in_flight)))]
        self.breaker.record_success()
        self.state, self.failures, self.probing = "closed", 0, False
        self.backoff, self.trips_since_success = self.base, 0

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data())
    def fail(self, data):
        del self.in_flight[data.draw(st.sampled_from(sorted(self.in_flight)))]
        self.breaker.record_failure()
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            assert self.breaker.retry_at == self.now + self.backoff
            self.state, self.retry_at, self.probing = "open", self.now + self.backoff, False
            self.backoff = min(self.backoff * 2, self.cap)
            self.trips += 1
            self.trips_since_success += 1

    @rule(seconds=st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0)))
    def advance(self, seconds):
        self.now += seconds

    # ------------------------------------------------------ invariants
    @invariant()
    def one_probe_at_most_while_half_open(self):
        if self.breaker.state == "half_open":
            assert sum(1 for episode in self.in_flight.values() if episode == self.episode) <= 1

    @invariant()
    def backoff_doubles_per_trip_since_success_up_to_the_cap(self):
        expected = self.base
        if self.trips_since_success:
            expected = min(self.base * 2 ** self.trips_since_success, self.cap)
        assert self.breaker.current_backoff_s == self.backoff == expected

    @invariant()
    def state_and_counters_match_the_model(self):
        breaker = self.breaker
        assert (breaker.state, breaker.consecutive_failures) == (self.state, self.failures)
        assert (breaker.trips, breaker.probes, breaker.short_circuits) == (
            self.trips, self.probes, self.short_circuits
        )


CircuitBreakerMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40)
TestCircuitBreakerMachine = CircuitBreakerMachine.TestCase


# --------------------------------------------------------------------------
# The ladder's degraded rungs
# --------------------------------------------------------------------------
_PLANS = {}


def _plan(label):
    if label not in _PLANS:
        workload = build_workload(label, scale=0.05)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        _PLANS[label] = workload.plan
    return _PLANS[label]


@settings(max_examples=30)
@given(
    label=st.sampled_from(WORKLOAD_ORDER),
    seed=st.integers(0, 40),
    rung=st.sampled_from((LEVEL_REPLAY_ONLY, LEVEL_SINGLE_PHASE, LEVEL_UNOPTIMIZED)),
    warmed_with=st.sampled_from((None, ("vertical",), ("vertical", "horizontal"))),
)
def test_a_degraded_rung_never_costs_more_than_the_unoptimized_plan(label, seed, rung, warmed_with):
    plan = _plan(label)
    server = PlanningServer(CLUSTER)
    server.register_workload(label, plan)
    if warmed_with is not None:
        # Recorded decisions give the replay-only rung something to replay.
        make_optimizer(
            "Stubby", CLUSTER, seed=seed, cost_service=server.costs, decision_cache=server.decisions
        ).optimize(plan.copy(), phases=warmed_with)
    unoptimized = server._run_rung(LEVEL_UNOPTIMIZED, "Stubby", seed, plan, None).estimated_cost_s
    answer = server._run_rung(rung, "Stubby", seed, plan, None)
    assert answer.estimated_cost_s <= unoptimized
    if rung == LEVEL_REPLAY_ONLY:
        assert answer.decision_stats.stores == 0
