"""Every way a maintenance write is committed, journaled and recovered
ends at the same co-database.

Scripts come from the declaration (``tests/core/write_scripts.py``).
Each runs through a plain ``CoDatabase`` (the reference), a fan-out and
a quorum replica set, durable journals reloaded by a fresh facade,
snapshot + tail, and a bare replay of the journal — all must agree on
the ``export_codatabase`` payload, the epoch and which writes were
refused.

Tier-1 runs derandomised at hypothesis's default example count; CI's
tier-2 replication and quorum jobs load the ``ci`` profile (ten times
the examples, matrix seed).
"""

import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codatabase import CoDatabase
from repro.core.journal import ReplicaJournal, replay_entries
from repro.core.replication import ReplicatedCoDatabase
from repro.core.snapshot import export_codatabase
from tests.core.golden.generate import FakeTime
from tests.core.write_scripts import LEASE, OWNER, run, scripts

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None)


def durable(directory, **kwargs):
    def factory(owner, index):
        return ReplicaJournal(str(directory / f"r{index}" / "journal.wal"))
    return ReplicatedCoDatabase(OWNER, replicas=3, journal_factory=factory,
                                **kwargs)


@SETTINGS
@given(script=scripts, quorum=st.booleans(),
       lapse_at=st.integers(min_value=0, max_value=24),
       snapshot_every=st.integers(min_value=1, max_value=5))
def test_every_write_path_ends_at_the_same_codatabase(script, quorum,
                                                      lapse_at,
                                                      snapshot_every):
    reference = CoDatabase(OWNER)
    refused = run(reference, script)
    accepted = len(script) - len(refused)
    expected = export_codatabase(reference)
    assert reference.epoch == accepted

    def agrees(facade):
        assert facade.epoch == accepted
        for runtime in facade.runtimes:
            assert runtime.alive and runtime.epoch == accepted
            assert export_codatabase(runtime.codatabase) == expected

    # In memory, under both disciplines (the quorum lease lapses once,
    # so the script is journaled under two fences).
    fanout = ReplicatedCoDatabase(OWNER, replicas=3)
    assert run(fanout, script) == refused
    agrees(fanout)
    fake = FakeTime()
    majority = ReplicatedCoDatabase(
        OWNER, replicas=3, quorum=True, lease_duration=LEASE,
        clock=fake.clock, sleep=fake.sleep)

    def lapse(step):
        if step == lapse_at:
            fake.now += LEASE + 1

    assert run(majority, script, before_step=lapse) == refused
    agrees(majority)
    assert majority.aborted_writes == 0
    for facade in (fanout, majority):
        for runtime in facade.runtimes:
            # A refused write left no entry: the log is the accepted
            # writes, gap-free — and replays onto an empty co-database.
            entries = runtime.journal.entries()
            assert [entry.epoch for entry in entries] \
                == list(range(1, accepted + 1))
            replayed = CoDatabase(OWNER)
            assert replay_entries(replayed, entries) == accepted
            assert export_codatabase(replayed) == expected

    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        # Durable v2 journals, reloaded by a fresh facade; then the
        # same with the snapshot cadence on (snapshot + tail).
        for directory, options in ((scratch / "log", {}),
                                   (scratch / "snap",
                                    {"snapshot_every": snapshot_every})):
            first = durable(directory, quorum=quorum, **options)
            assert run(first, script) == refused
            agrees(first)
            for runtime in first.runtimes:
                runtime.journal.close()
            reborn = durable(directory, quorum=quorum, **options)
            agrees(reborn)
            for runtime in reborn.runtimes:
                journal = runtime.journal
                assert journal.torn_records == 0
                assert journal.last_epoch == accepted
                assert len(journal) == accepted if not options \
                    else len(journal) < snapshot_every
                runtime.journal.close()
