"""One guarded call: a statement's call context is set once, and every
co-database read is one ``ResiliencePolicy.call``.

A transport spy records ``current_policy()`` on every send while one
browser runs one statement of each class.  Whatever the statement —
resolution, explore read, wrapper call — every hop must carry the
statement's deadline and the policy's retry budget; co-database reads
are idempotent (so they may be retried and resent), wrapper calls are
not.  With one co-database refused, an explore read is retried, recorded
and refused by the breaker exactly as a frontier consultation is.

Marked ``chaos``: CI's ``tier2-faults`` job runs it beside the
degraded-report suites on ``CHAOS_SEED`` 7 / 23 / 1999 (the seed of the
fault fabric and of the retry jitter).
"""

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.resilience import (HealthBoard, ResiliencePolicy,
                                   RetryBudget, RetryPolicy, current_policy)
from repro.errors import CircuitOpen, CommFailure
from repro.orb import InMemoryNetwork, TcpTransport
from repro.orb.faults import FaultyTransport
from repro.orb.giop import decode_message

pytestmark = pytest.mark.chaos

DEADLINE = 5.0

#: One statement of each class, and what it must reach: co-databases
#: (``codb``), wrappers (``isi``) or both.
STATEMENTS = [
    ("Find Coalitions With Information 'Medical Insurance'", {"codb"}),
    ("Find Sources With Information 'Medical Insurance' "
     "Structure (PlanName)", {"codb"}),
    ("Connect To Coalition 'Medical'", {"codb"}),
    ("Display Instances of Class 'Medical'", {"codb"}),
    ("Display Document of Instance 'Royal Brisbane Hospital'", {"codb"}),
    ("Display Service Links of Coalition Medical", {"codb"}),
    ("Display Interface of Instance 'Royal Brisbane Hospital'", {"isi"}),
    ("Invoke 'Funding' Of Type 'ResearchProjects' "
     "On 'Royal Brisbane Hospital' With ('AIDS and drugs')", {"isi"}),
    ("Invoke Funding Of Type ResearchProjects On Coalition Research "
     "With ('AIDS and drugs')", {"codb", "isi"}),
    ("Query 'Royal Brisbane Hospital' Native "
     "'SELECT * FROM MedicalStudent'", {"isi"}),
]


class SpyTransport(FaultyTransport):
    """Records the target (``codb-<source>``, ``isi-<source>``,
    ``NameService``) and the call context of every send."""

    def __init__(self, seed):
        super().__init__(InMemoryNetwork(), seed=seed)
        self.sends = []

    def send(self, endpoint, data):
        request = decode_message(data)
        target = bytes(request.object_key).decode().rsplit("/", 1)[-1]
        self.sends.append((target, request.operation, endpoint,
                           current_policy()))
        return super().send(endpoint, data)


def deploy(transport, seed, **retry):
    budget = RetryBudget(ratio=0.1, burst=1.0)
    policy = ResiliencePolicy(
        retry=RetryPolicy(sleep=lambda __: None, seed=seed, budget=budget,
                          **retry),
        health=HealthBoard(failure_threshold=3, reset_timeout=60.0),
        default_deadline=DEADLINE)
    deployment = build_healthcare_system(transport=transport,
                                         resilience=policy,
                                         isolate_sources=True)
    return deployment, policy


class TestEveryHopCarriesTheStatementsContext:
    @pytest.fixture(scope="class")
    def federation(self, chaos_seed):
        spy = SpyTransport(chaos_seed)
        deployment, policy = deploy(spy, chaos_seed)
        return spy, deployment.browser(topo.QUT), policy

    @pytest.mark.parametrize("statement, reaches", STATEMENTS)
    def test_deadline_budget_and_idempotence(self, federation, statement,
                                             reaches):
        spy, browser, policy = federation
        del spy.sends[:]
        browser.submit(statement)
        assert {target.split("-")[0] for target, *__ in spy.sends} >= reaches
        deadlines = {id(context.deadline) for *__, context in spy.sends}
        assert len(deadlines) == 1, "one statement, one deadline"
        for target, operation, __, context in spy.sends:
            hop = f"{target}.{operation}"
            assert context.deadline is not None, hop
            assert context.deadline.budget == DEADLINE, hop
            assert context.retry_budget is policy.retry.budget, hop
            if target.startswith("codb-"):
                assert context.idempotent, hop
            if target.startswith("isi-"):
                assert not context.idempotent, hop

    def test_a_later_statement_gets_a_fresh_deadline(self, federation):
        spy, browser, __ = federation
        seen = []
        for __unused in range(2):
            del spy.sends[:]
            browser.submit("Display Instances of Class 'Research'")
            seen.append(spy.sends[0][-1].deadline)
        assert seen[0] is not seen[1]


class TestAnExploreReadIsGuardedLikeAConsultation:
    DOCUMENT = "Display Document of Instance 'Royal Brisbane Hospital'"

    @pytest.fixture()
    def refused(self, chaos_seed):
        spy = SpyTransport(chaos_seed)
        deployment, policy = deploy(spy, chaos_seed, max_attempts=3)
        rbh = deployment.codatabase_endpoint(topo.RBH)
        spy.refuse(rbh)
        return spy, deployment.browser(topo.QUT), policy, rbh

    @staticmethod
    def sends_to(spy, endpoint):
        return [operation for __, operation, target, __unused in spy.sends
                if target == endpoint]

    def test_retried_within_the_budget_recorded_and_tripped(self, refused):
        spy, browser, policy, rbh = refused
        # One token in RBH's bucket: the first read is retried once, the
        # second retry is denied; later reads get no retry at all.
        with pytest.raises(CommFailure):
            browser.submit(self.DOCUMENT)
        assert self.sends_to(spy, rbh) == ["documents_of"] * 2
        assert policy.retry.retries == 1
        assert policy.retry.budget_denials == 1
        assert policy.health.snapshot()[topo.RBH]["failures"] == 1
        for __ in range(2):
            with pytest.raises(CommFailure):
                browser.submit(self.DOCUMENT)
        assert self.sends_to(spy, rbh) == ["documents_of"] * 4
        assert policy.health.state(topo.RBH) == "open"
        # Open: refused without a send, for an explore read ...
        with pytest.raises(CircuitOpen):
            browser.submit(self.DOCUMENT)
        # ... and for a frontier consultation: one board, one guard.
        result = browser.submit(
            "Find Coalitions With Information 'Medical Insurance'").data
        assert topo.RBH in result.degraded.by_reason()["tripped"]
        assert self.sends_to(spy, rbh) == ["documents_of"] * 4

    def test_failed_consultations_refuse_the_explore_read(self, refused):
        spy, browser, policy, rbh = refused
        for __ in range(3):
            result = browser.submit(
                "Find Coalitions With Information 'Medical Insurance'").data
            assert topo.RBH in result.unreachable
        assert policy.health.state(topo.RBH) == "open"
        sent = len(self.sends_to(spy, rbh))
        with pytest.raises(CircuitOpen):
            browser.submit(self.DOCUMENT)
        assert len(self.sends_to(spy, rbh)) == sent

    def test_a_wrapper_call_is_never_retried(self, refused):
        spy, browser, policy, rbh = refused  # its wrapper's endpoint too
        del spy.sends[:]
        with pytest.raises(CommFailure):
            browser.submit("Query 'Royal Brisbane Hospital' Native "
                           "'SELECT * FROM MedicalStudent'")
        assert [target for target, __, endpoint, __unused in spy.sends
                if endpoint == rbh] == [f"isi-{topo.RBH}"]
        assert policy.retry.retries == 0


def test_a_spent_budget_stops_the_stale_connection_resend(chaos_seed):
    """``TcpTransport._gate_resend`` reads the retry budget from the call
    context: during a discovery that context must be the statement's."""
    transport = TcpTransport()
    deployment, policy = deploy(transport, chaos_seed, max_attempts=1)
    try:
        browser = deployment.browser(topo.QUT)
        find = "Find Coalitions With Information 'Medical Insurance'"
        assert not browser.submit(find).data.degraded  # warms the pool
        endpoint = deployment.codatabase_endpoint(topo.RBH)
        # Sever RBH's idle connections behind the pool's back ...
        stale = []
        while (connection := transport._pool.checkout(endpoint)) is not None:
            connection.close()
            stale.append(connection)
        assert stale
        for connection in stale:
            transport._pool.checkin(endpoint, connection)
        # ... and spend the endpoint's only retry token.
        key = f"{endpoint[0]}:{endpoint[1]}"
        while policy.retry.budget.try_acquire(key):
            pass
        result = browser.submit(find).data
        [entry] = [entry for entry in result.degraded.entries
                   if entry.database == topo.RBH]
        assert "retry budget exhausted" in entry.detail
    finally:
        transport.close()
