"""Crash honesty of the replica journal (docs/quorum.md §journal v2).

The central property: truncate a durable journal at ANY byte offset —
the crash model for a torn append — and reloading recovers exactly the
longest valid record prefix, repairs the file tail, and keeps
accepting appends.  Checked for the checksummed v2 format and for a
legacy JSON-lines file (which reloads as v2), via hypothesis over all
(entry count, cut offset) pairs.
"""

import logging
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.journal import (JOURNAL_MAGIC, JournalEntry, ReplicaJournal,
                                encode_record)
from tests.core.golden.generate import jsonl_record

MAX_ENTRIES = 6


def entry(epoch, fence=0):
    return JournalEntry(epoch=epoch, operation="attach_document",
                        arguments=(f"s{epoch}", "html", "x" * epoch, ""),
                        fence=fence)


def write_journal(path, fmt, count):
    """*count* entries, through the journal ("v2") or as the legacy
    JSON lines earlier releases wrote ("jsonl")."""
    entries = [entry(epoch, fence=1 + epoch // 3)
               for epoch in range(1, count + 1)]
    if fmt == "jsonl":
        path.write_bytes(b"".join(map(jsonl_record, entries)))
        return entries
    journal = ReplicaJournal(str(path))
    for item in entries:
        journal.append(item)
    journal.close()
    return entries


def record_boundaries(fmt, entries):
    """Byte offsets at which a whole record ends (prefix lengths)."""
    encode = encode_record if fmt == "v2" else jsonl_record
    offsets = [len(JOURNAL_MAGIC) if fmt == "v2" else 0]
    for item in entries:
        offsets.append(offsets[-1] + len(encode(item)))
    return offsets


@settings(max_examples=120, deadline=None)
@given(fmt=st.sampled_from(["v2", "jsonl"]),
       count=st.integers(min_value=0, max_value=MAX_ENTRIES),
       data=st.data())
def test_truncation_at_any_offset_recovers_longest_valid_prefix(
        tmp_path_factory, fmt, count, data):
    root = tmp_path_factory.mktemp("torn")
    path = root / "journal.wal"
    entries = write_journal(path, fmt, count)
    # With zero appends the lazy handle never created the file at all.
    blob = path.read_bytes() if path.exists() else b""
    cut = data.draw(st.integers(min_value=0, max_value=len(blob)),
                    label="cut")
    path.write_bytes(blob[:cut])

    reloaded = ReplicaJournal(str(path))
    recovered = reloaded.entries()

    # Recovered entries are a strict prefix of what was written...
    assert recovered == entries[:len(recovered)]
    boundaries = record_boundaries(fmt, entries)
    # A cut inside the magic header itself leaves zero durable records.
    durable = max((i for i, offset in enumerate(boundaries)
                   if offset <= cut), default=0)
    if fmt == "v2":
        # ...and for v2 EXACTLY the records wholly within the cut.
        assert len(recovered) == durable
    else:
        # JSONL additionally accepts a final record whose JSON survived
        # complete but lost only its trailing newline to the crash.
        assert len(recovered) in (durable, durable + 1)
        if cut:
            # ... and the file was upgraded in place: v2, same prefix.
            assert path.read_bytes().startswith(JOURNAL_MAGIC)
            assert ReplicaJournal(str(path)).entries() == recovered

    # The tail was repaired: appending works and survives a re-read.
    fresh = entry(epoch=97, fence=9)
    reloaded.append(fresh)
    reloaded.close()
    assert path.read_bytes().startswith(JOURNAL_MAGIC)
    reread = ReplicaJournal(str(path))
    assert reread.entries() == recovered + [fresh]
    assert reread.torn_records == 0  # the repair left a clean file


@settings(max_examples=60, deadline=None)
@given(count=st.integers(min_value=1, max_value=MAX_ENTRIES),
       flip=st.data())
def test_v2_checksum_rejects_corrupted_record(tmp_path_factory, count, flip):
    root = tmp_path_factory.mktemp("corrupt")
    path = root / "journal.wal"
    entries = write_journal(path, "v2", count)
    blob = bytearray(path.read_bytes())
    position = flip.draw(st.integers(min_value=len(JOURNAL_MAGIC),
                                     max_value=len(blob) - 1), label="pos")
    blob[position] ^= 0xFF
    path.write_bytes(bytes(blob))

    reloaded = ReplicaJournal(str(path))
    recovered = reloaded.entries()
    assert recovered == entries[:len(recovered)]
    assert len(recovered) < count  # the damaged record never replays
    assert reloaded.torn_records == 1


def test_torn_jsonl_tail_warns_and_counts(tmp_path, caplog):
    path = tmp_path / "journal.jsonl"
    write_journal(path, "jsonl", 3)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 4])  # tear the final record
    with caplog.at_level(logging.WARNING, logger="repro.journal"):
        journal = ReplicaJournal(str(path))
    assert journal.torn_records == 1
    assert len(journal) == 2
    assert any("torn record" in record.message for record in caplog.records)


def test_group_commit_batches_fsyncs(tmp_path):
    journal = ReplicaJournal(str(tmp_path / "j.wal"), sync="batch",
                             group_size=3)
    for epoch in range(1, 8):
        journal.append(entry(epoch))
    assert journal.fsyncs == 2  # 7 appends / group of 3
    journal.sync_now()
    assert journal.fsyncs == 3  # the forced barrier drains the tail
    journal.sync_now()
    assert journal.fsyncs == 3  # nothing pending: no extra barrier
    journal.close()


def test_sync_always_fsyncs_every_append(tmp_path):
    journal = ReplicaJournal(str(tmp_path / "j.wal"), sync="always")
    for epoch in range(1, 5):
        journal.append(entry(epoch))
    assert journal.fsyncs == 4
    journal.close()


def test_sync_never_issues_no_barriers(tmp_path):
    journal = ReplicaJournal(str(tmp_path / "j.wal"))
    for epoch in range(1, 5):
        journal.append(entry(epoch))
    assert journal.fsyncs == 0
    journal.close()


def test_discard_rewrites_atomically(tmp_path):
    path = tmp_path / "j.wal"
    journal = ReplicaJournal(str(path))
    for epoch in range(1, 5):
        journal.append(entry(epoch))
    journal.discard(4)
    assert not os.path.exists(str(path) + ".tmp")  # no debris
    reread = ReplicaJournal(str(path))
    assert [item.epoch for item in reread.entries()] == [1, 2, 3]
    assert reread.torn_records == 0  # the rewrite is a complete file


def test_install_snapshot_rewrites_atomically(tmp_path):
    path = tmp_path / "j.wal"
    journal = ReplicaJournal(str(path))
    for epoch in range(1, 6):
        journal.append(entry(epoch))
    journal.install_snapshot({"format": "webfindit-codatabase/1",
                              "epoch": 3})
    assert not os.path.exists(str(path) + ".tmp")
    assert not os.path.exists(journal.snapshot_path + ".tmp")
    reread = ReplicaJournal(str(path))
    assert [item.epoch for item in reread.entries()] == [4, 5]
    assert reread.snapshot["epoch"] == 3
    assert reread.last_epoch == 5


def test_existing_jsonl_file_is_upgraded_to_v2(tmp_path):
    path = tmp_path / "journal.jsonl"
    entries = write_journal(path, "jsonl", 2)
    # Rewritten on load, before anything is appended, so a file never
    # mixes formats; the path stays what the deployment opened.
    journal = ReplicaJournal(str(path))
    assert path.read_bytes().startswith(JOURNAL_MAGIC)
    assert not os.path.exists(str(path) + ".tmp")  # no debris
    assert journal.entries() == entries
    journal.append(entry(3))
    journal.close()
    reread = ReplicaJournal(str(path))
    assert reread.entries() == entries + [entry(3)]
    assert reread.torn_records == 0


def test_last_fence_reports_journaled_high_water(tmp_path):
    journal = ReplicaJournal(str(tmp_path / "j.wal"))
    assert journal.last_fence == 0
    journal.append(entry(1, fence=2))
    journal.append(entry(2, fence=5))
    journal.close()
    assert ReplicaJournal(str(tmp_path / "j.wal")).last_fence == 5
