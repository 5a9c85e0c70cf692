"""Write-ahead journaling of co-database maintenance operations.

Every maintenance write a replica set commits is first appended to each
replica's journal as a :class:`JournalEntry` — the operation name, its
wire-encoded arguments, the monotonic epoch the write produces, and
(under quorum replication) the **fence** of the primary lease that
issued it.  Which operations exist, and the value type of each
argument, is declared once (:data:`repro.core.codatabase.
MAINTENANCE_WRITES`); :func:`encode_operation` and :func:`apply_entry`
are generic over that table.  A crashed replica owns, on disk (or in
memory for ephemeral deployments), exactly the prefix of writes it had
applied; :func:`replay_entries` rebuilds the co-database from a
snapshot plus that prefix (see :mod:`repro.core.replication`).

Two on-disk formats, one read path (the format is sniffed on open):

* **v2** (``journal.wal``, every new file) — an 8-byte magic header
  (``WFJRNL2\\n``) followed by length-prefixed records::

      [u32 length][u32 CRC32(payload)][payload: compact JSON, UTF-8]

  with payload ``{"epoch":…,"op":…,"args":[…],"fence":…}``.  Replay
  verifies every record's length and checksum and halts at the first
  that fails either — a **torn write** (crash mid-append) — recovering
  the longest valid prefix and truncating the file back to it.
* **jsonl** (legacy ``journal.jsonl``) — the same object, one per line,
  as earlier releases wrote it; an existing file keeps its format.
  Equally torn-tolerant: a line that no longer parses halts the replay
  there with a counted warning.

``sync=`` governs durability: ``"never"`` flushes to the OS only,
``"always"`` fsyncs every append, ``"batch"`` is **group commit** — one
fsync per *group_size* appends (or on :meth:`ReplicaJournal.sync_now`).

A snapshot (``snapshot.json`` beside the journal) is the export format
of :mod:`repro.core.snapshot` (``webfindit-codatabase/1``) plus one
key, ``fence`` — the fence high-water of the entries it subsumed — and
truncates the journal it covers.  Rewrites (snapshot installs,
compensating :meth:`ReplicaJournal.discard`) go through a temp file +
``os.replace``: a crash leaves the old file or the new, both complete.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.codatabase import MAINTENANCE_WRITES
from repro.errors import WebFinditError

log = logging.getLogger("repro.journal")

#: Maintenance operations a journal may carry — exactly the mutator
#: surface :data:`~repro.core.codatabase.MAINTENANCE_WRITES` declares.
JOURNALED_OPERATIONS = frozenset(MAINTENANCE_WRITES)

#: File magic of the checksummed v2 journal format.
JOURNAL_MAGIC = b"WFJRNL2\n"

#: ``[u32 payload length][u32 CRC32]`` — big-endian, 8 bytes.
_RECORD_HEADER = struct.Struct(">II")

#: Journal formats :class:`ReplicaJournal` can write.
JOURNAL_FORMATS = ("v2", "jsonl")

#: Durability policies for file-backed journals.
SYNC_POLICIES = ("never", "batch", "always")


@dataclass(frozen=True)
class JournalEntry:
    """One logged maintenance write, wire-encoded and epoch-stamped.

    *fence* is the fencing epoch of the primary lease that issued the
    write (0 for non-quorum deployments): replicas refuse to journal an
    entry whose fence is older than the newest lease they promised.
    """

    epoch: int
    operation: str
    arguments: tuple
    fence: int = 0

    def to_wire(self) -> dict[str, Any]:
        return {"epoch": self.epoch, "op": self.operation,
                "args": list(self.arguments), "fence": self.fence}

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "JournalEntry":
        return cls(epoch=int(payload["epoch"]), operation=payload["op"],
                   arguments=tuple(payload.get("args", ())),
                   fence=int(payload.get("fence", 0)))


def _argument_types(operation: str) -> tuple:
    types = MAINTENANCE_WRITES.get(operation)
    if types is None:
        raise WebFinditError(
            f"journal entry for unknown operation {operation!r}")
    return types


def encode_operation(operation: str, args: tuple) -> tuple:
    """Wire-encode a mutator call's arguments for journaling: plain
    names as they are, declared value types through ``to_wire``."""
    return tuple(argument if kind is str else argument.to_wire()
                 for kind, argument in zip(_argument_types(operation), args))


def apply_entry(codatabase, entry: JournalEntry) -> None:
    """Re-apply one journaled write to *codatabase*.

    Replay is idempotent at the epoch level: an entry at or below the
    co-database's current epoch has already been applied and is
    skipped, so overlapping snapshot + journal sources are safe.
    """
    types = _argument_types(entry.operation)
    if entry.epoch <= codatabase.epoch:
        return
    getattr(codatabase, entry.operation)(*(
        wire if kind is str else kind.from_wire(wire)
        for kind, wire in zip(types, entry.arguments)))


def replay_entries(codatabase, entries) -> int:
    """Apply *entries* in order; returns how many actually applied."""
    applied = 0
    for entry in entries:
        before = codatabase.epoch
        apply_entry(codatabase, entry)
        if codatabase.epoch != before:
            applied += 1
    return applied


def encode_record(entry: JournalEntry) -> bytes:
    """One v2 record: length + CRC32 header, compact-JSON payload."""
    payload = json.dumps(entry.to_wire(),
                         separators=(",", ":")).encode("utf-8")
    return _RECORD_HEADER.pack(len(payload),
                               zlib.crc32(payload) & 0xFFFFFFFF) + payload


def decode_records(data: bytes) -> tuple[list[JournalEntry], int, bool]:
    """Decode a v2 journal body (magic already consumed).

    Returns ``(entries, valid_bytes, torn)``: the longest valid record
    prefix, how many bytes of *data* it covers, and whether a torn or
    corrupt record was detected after it.
    """
    entries: list[JournalEntry] = []
    position = 0
    while True:
        if position == len(data):
            return entries, position, False
        if position + _RECORD_HEADER.size > len(data):
            return entries, position, True  # torn header
        length, crc = _RECORD_HEADER.unpack_from(data, position)
        body_start = position + _RECORD_HEADER.size
        if body_start + length > len(data):
            return entries, position, True  # torn payload
        payload = data[body_start:body_start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return entries, position, True  # corrupt payload
        try:
            entries.append(JournalEntry.from_wire(json.loads(payload)))
        except (ValueError, KeyError, TypeError):
            return entries, position, True  # checksummed garbage
        position = body_start + length


def decode_jsonl(data: bytes) -> tuple[list[JournalEntry], int, bool]:
    """Decode a legacy JSON-lines journal, torn-tolerantly.

    Same contract as :func:`decode_records`.  A record whose trailing
    newline was lost to the crash but whose JSON is complete still
    counts as valid (its bytes are part of the recovered prefix).
    """
    entries: list[JournalEntry] = []
    position = 0
    for raw_line in data.split(b"\n"):
        line = raw_line.strip()
        if line:
            try:
                entries.append(JournalEntry.from_wire(
                    json.loads(line.decode("utf-8"))))
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                return entries, position, True  # torn / corrupt record
        position += len(raw_line) + 1
        if position > len(data):  # last line had no trailing newline
            position = len(data)
    return entries, position, False


class ReplicaJournal:
    """The write-ahead log of one co-database replica.

    In-memory always; file-backed when *path* is given (appended before
    the write is applied — the WAL ordering).  A snapshot covers every
    entry up to its epoch, so taking one truncates the journal;
    :attr:`snapshot` holds the latest snapshot payload (and its file,
    when durable).

    *fmt* selects the on-disk format for **new** files ("v2" binary
    checksummed records, or legacy "jsonl"); an existing file keeps the
    format it was written in, sniffed from its first bytes.  *sync*
    and *group_size* implement the durability policy described in the
    module docstring.  :attr:`torn_records` counts crash-truncated
    tails detected (and repaired) on load; :attr:`fsyncs` counts disk
    barriers actually issued — the currency of the group-commit bench.
    """

    def __init__(self, path: Optional[str] = None, fmt: str = "v2",
                 sync: str = "never", group_size: int = 8):
        if fmt not in JOURNAL_FORMATS:
            raise WebFinditError(f"unknown journal format {fmt!r}")
        if sync not in SYNC_POLICIES:
            raise WebFinditError(f"unknown journal sync policy {sync!r}")
        self.path = path
        self.fmt = fmt
        self.sync = sync
        self.group_size = max(1, group_size)
        self._entries: list[JournalEntry] = []
        self._lock = threading.RLock()
        self._handle = None
        self._pending_sync = 0
        #: Latest snapshot payload (``webfindit-codatabase/1``), if any.
        self.snapshot: Optional[dict[str, Any]] = None
        #: Torn-write events detected on load (the tail was truncated
        #: back to the longest valid prefix).
        self.torn_records = 0
        #: Disk barriers issued (``os.fsync``), for group-commit tests.
        self.fsyncs = 0
        #: High-water of every fence appended, loaded or snapshotted.
        self._fence = 0
        if path is not None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._load_files()
            self._fence = max(
                [int((self.snapshot or {}).get("fence", 0))]
                + [entry.fence for entry in self._entries])

    # ----------------------------------------------------------- durability --

    @property
    def snapshot_path(self) -> Optional[str]:
        if self.path is None:
            return None
        return os.path.join(os.path.dirname(self.path), "snapshot.json")

    def _load_files(self) -> None:
        snapshot_path = self.snapshot_path
        if snapshot_path and os.path.exists(snapshot_path):
            with open(snapshot_path, encoding="utf-8") as handle:
                self.snapshot = json.load(handle)
        if not (self.path and os.path.exists(self.path)):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        if not data:
            return
        if data.startswith(JOURNAL_MAGIC):
            self.fmt = "v2"
            body = data[len(JOURNAL_MAGIC):]
            self._entries, valid, torn = decode_records(body)
            valid += len(JOURNAL_MAGIC)
        elif len(data) < len(JOURNAL_MAGIC) \
                and JOURNAL_MAGIC.startswith(data):
            # Crash while writing the magic itself: an empty journal.
            self._entries, valid, torn = [], 0, True
            self.fmt = "v2"
        else:
            self.fmt = "jsonl"
            self._entries, valid, torn = decode_jsonl(data)
            if not torn and not data.endswith(b"\n"):
                # The final record is complete but its newline was lost
                # (crash between the bytes and the separator): restore
                # it so the next append starts its own line.
                with open(self.path, "ab") as handle:
                    handle.write(b"\n")
        if torn:
            self.torn_records += 1
            log.warning(
                "journal %s: torn record after %d valid entr%s "
                "(%d trailing byte(s) dropped); replay halted at the "
                "longest valid prefix", self.path, len(self._entries),
                "y" if len(self._entries) == 1 else "ies",
                len(data) - valid)
            # Repair the tail so later appends start from a clean
            # record boundary instead of extending the torn bytes.
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())
                self.fsyncs += 1

    def _open_handle(self):
        if self._handle is None:
            fresh = not os.path.exists(self.path) \
                or os.path.getsize(self.path) == 0
            self._handle = open(self.path, "ab")
            if fresh and self.fmt == "v2":
                self._handle.write(JOURNAL_MAGIC)
        return self._handle

    def _encode(self, entry: JournalEntry) -> bytes:
        """One record in this journal's on-disk format."""
        if self.fmt == "v2":
            return encode_record(entry)
        return (json.dumps(entry.to_wire()) + "\n").encode("utf-8")

    def _write_record(self, entry: JournalEntry) -> None:
        handle = self._open_handle()
        handle.write(self._encode(entry))
        # Data always reaches the OS (a crashed *process* loses
        # nothing); the fsync policy decides when it reaches the disk.
        handle.flush()
        if self.sync != "never":
            self._pending_sync += 1
            if self.sync == "always" \
                    or self._pending_sync >= self.group_size:
                self.sync_now()

    def sync_now(self) -> None:
        """Force the group-commit barrier: fsync any pending appends."""
        with self._lock:
            if self._handle is not None and self._pending_sync:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self.fsyncs += 1
                self._pending_sync = 0

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self.sync_now()
                self._handle.close()
                self._handle = None

    def _rewrite(self) -> None:
        """Crash-atomically replace the journal file with the current
        in-memory entries (temp file + ``os.replace``): a crash
        mid-rewrite leaves either the complete old log or the complete
        new one, never a half-written file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._pending_sync = 0
        temp_path = self.path + ".tmp"
        with open(temp_path, "wb") as handle:
            if self.fmt == "v2":
                handle.write(JOURNAL_MAGIC)
            handle.writelines(map(self._encode, self._entries))
            handle.flush()
            os.fsync(handle.fileno())
            self.fsyncs += 1
        os.replace(temp_path, self.path)

    # ------------------------------------------------------------- the log --

    def append(self, entry: JournalEntry) -> None:
        with self._lock:
            # File first: an append that faults has appended nothing.
            if self.path is not None:
                self._write_record(entry)
            self._entries.append(entry)
            self._fence = max(self._fence, entry.fence)

    def entries(self) -> list[JournalEntry]:
        with self._lock:
            return list(self._entries)

    def entries_after(self, epoch: int) -> list[JournalEntry]:
        with self._lock:
            return [entry for entry in self._entries if entry.epoch > epoch]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def last_epoch(self) -> int:
        """Highest epoch this journal (snapshot included) accounts for."""
        with self._lock:
            if self._entries:
                return self._entries[-1].epoch
            if self.snapshot is not None:
                return int(self.snapshot.get("epoch", 0))
            return 0

    @property
    def last_fence(self) -> int:
        """Highest fencing epoch this journal ever recorded.  It never
        falls: entries a snapshot subsumed count through the stored
        snapshot's ``fence`` key (absent in older files: 0)."""
        return self._fence

    def discard(self, epoch: int) -> None:
        """Drop entries at exactly *epoch* — the compensation when a
        journaled write then fails validation or loses its quorum (the
        replication layer rolls the version back with it)."""
        with self._lock:
            self._entries = [entry for entry in self._entries
                             if entry.epoch != epoch]
            if self.path is not None:
                self._rewrite()

    # ----------------------------------------------------------- snapshots --

    def install_snapshot(self, payload: dict[str, Any]) -> None:
        """Record *payload* as the recovery base and drop covered
        entries (the snapshot subsumes every write up to its epoch),
        keeping their fence high-water beside it."""
        epoch = int(payload.get("epoch", 0))
        with self._lock:
            self.snapshot = payload = {**payload, "fence": self._fence}
            self._entries = [entry for entry in self._entries
                             if entry.epoch > epoch]
            if self.path is not None:
                temp_path = self.snapshot_path + ".tmp"
                with open(temp_path, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=2)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_path, self.snapshot_path)
                self._rewrite()
