"""The append-only campaign journal: one JSONL file, every paid answer.

A campaign's crowd answers are *paid for*; losing them to a crash means
paying twice.  The journal makes every externally-visible platform event
durable the moment it happens, in the exact pattern ``srdedupe`` uses for
its ``pair_decisions.jsonl`` cluster builder: newline-delimited JSON
records, appended and fsynced, replayed through the one answer-application
code path on restart.

Format (see ``docs/service.md`` for the full specification):

* Record 0 is the **header**: ``{"seq": 0, "type": "header", "version": 3,
  "campaign_id": ..., "spec": {...}}`` — the spec dict is byte-for-byte the
  same schema the HTTP create endpoint accepts
  (:meth:`repro.spec.CampaignSpec.to_dict`).
* Every subsequent record carries a **monotonic sequence number** (``seq``:
  1, 2, 3, …) stamped by :meth:`Journal.append` and a ``type`` in
  ``{"issue", "completion", "expiry", "review", "cancel", "note",
  "snapshot"}``.
* A **snapshot** record (format v2) embeds the full engine/client/runtime
  state at the moment every record up to ``last_seq`` (= its own ``seq`` -
  1) had been applied.  Recovery fast-paths from the latest snapshot and
  replays only the records after it.
* A completion or expiry record carrying ``"more": true`` (format v3) had
  more events of the same run behind it: the runtime applied them together
  and replay does the same.
* :meth:`Journal.compact` atomically rewrites the file as header +
  latest snapshot + post-snapshot tail (write temp, fsync, rename, fsync
  directory).  Tail records keep their original ``seq``, so a compacted
  journal's second record is a snapshot whose ``seq`` jumps past the
  dropped prefix — the only legal discontinuity.
* A record is durable once its line is written and the batched fsync has
  caught up; :class:`Journal` fsyncs every ``fsync_every`` records and on
  :meth:`flush`/:meth:`close`.

Crash anatomy: a process killed mid-``write`` leaves at most one **torn
final line** (no trailing newline, or truncated JSON).  That is expected
damage — :meth:`Journal.read` truncates it with a :class:`UserWarning` and
the campaign replays to the last durable record.  A crash mid-*compaction*
leaves either the intact original (plus a stray ``journal.jsonl.tmp``,
removed with a warning on the next open) or the intact rewrite — the
rename is the commit point.  Anything else — a malformed record *before*
the final line, a sequence gap, a missing header — is real corruption and
raises :class:`JournalCorruptError` with the byte offset and line number,
because silently dropping interior records would replay a *different
campaign*.
"""

from __future__ import annotations

import io
import json
import os
import warnings
from typing import Any, Dict, List, Optional, Tuple

#: Journal format version (bumped only on incompatible record changes).
#: v2 added the ``snapshot`` record type and compaction; v3 marks the run
#: boundaries the runtime applied events in (``"more": true`` on a
#: completion or expiry record with more of its run behind it).  v1 and v2
#: journals remain readable: without the flag every event replays as a run
#: of one, which is how the runtime applied them then.
JOURNAL_VERSION = 3

#: Header versions :meth:`Journal.read` accepts.
SUPPORTED_JOURNAL_VERSIONS = (1, 2, 3)

#: Default number of appends between fsyncs.  1 = maximally durable;
#: the default amortizes the disk flush over a small burst of events
#: while bounding loss to the current batch.
DEFAULT_FSYNC_EVERY = 16

#: The record types a journal may contain after the header.
EVENT_TYPES = (
    "issue", "completion", "expiry", "review", "cancel", "note", "snapshot",
)


class JournalCorruptError(ValueError):
    """The journal is damaged beyond the expected torn final line.

    Attributes:
        path: the journal file.
        offset: byte offset of the offending record's first byte.
        line_number: 1-based line number of the offending record.
    """

    def __init__(self, message: str, *, path: str, offset: int, line_number: int):
        super().__init__(
            f"{path}: {message} (line {line_number}, byte offset {offset})"
        )
        self.path = path
        self.offset = offset
        self.line_number = line_number


class JournalReplayError(RuntimeError):
    """Replay diverged: the runtime did not re-issue what the journal says
    it issued.  Either the journal belongs to a different spec or the
    runtime lost determinism — both must fail loudly, never resume onto a
    wrong state."""


class Journal:
    """Append-only JSONL writer with monotonic sequence numbers.

    Args:
        path: journal file; created (with parent directory) on first use,
            opened in append mode so recovery continues an existing file.
        fsync_every: append count between fsyncs (1 = every record).
        resume_seq: the next sequence number, for callers that *just*
            parsed this file via :meth:`read` (``repair=True``) — recovery
            opens journals with hundreds of thousands of records, and
            parsing each one twice would double its fixed restart cost.
            Omitted, an existing file is read (and validated) to find it.

    ``append`` stamps ``seq`` into each record and returns it.  The writer
    never rewrites existing bytes — recovery-side repair of a torn line is
    performed by :meth:`read` before a writer is reopened on the file.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        resume_seq: Optional[int] = None,
    ):
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = str(path)
        self._fsync_every = fsync_every
        self._since_sync = 0
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        # A crash between writing the compaction temp file and the rename
        # leaves the original journal intact plus a stray temp: the rename
        # never happened, so the temp is dead weight, not data.
        tmp = self._tmp_path()
        if os.path.exists(tmp):
            warnings.warn(
                f"{tmp}: removing stray compaction temp file — a previous "
                "process died before committing a compaction; the journal "
                "itself is intact",
                UserWarning,
                stacklevel=2,
            )
            os.remove(tmp)
        # Continue an existing journal: next seq follows the last record.
        self._next_seq = 0
        if resume_seq is not None:
            self._next_seq = resume_seq
        elif os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            header, events = Journal.read(self.path)
            self._next_seq = (events[-1]["seq"] if events else header["seq"]) + 1
        self._fh: Optional[io.TextIOWrapper] = open(
            self.path, "a", encoding="utf-8"
        )

    def _tmp_path(self) -> str:
        return self.path + ".tmp"

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`append` will stamp."""
        return self._next_seq

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the append handle."""
        return self._fh is None

    def append(self, record: Dict[str, Any]) -> int:
        """Write one record (stamping ``seq``); returns the stamped seq."""
        if self._fh is None:
            raise ValueError(f"journal {self.path} is closed")
        seq = self._next_seq
        stamped = {"seq": seq, **record}
        self._fh.write(json.dumps(stamped, sort_keys=True) + "\n")
        self._next_seq += 1
        self._since_sync += 1
        if self._since_sync >= self._fsync_every:
            self.flush()
        return seq

    def flush(self) -> None:
        """Flush userspace buffers and fsync to the disk."""
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def compact(self) -> int:
        """Atomically drop every record before the latest snapshot.

        The file is rewritten as header + latest snapshot + post-snapshot
        tail through a temp file that is fsynced, renamed over the journal,
        and committed with a directory fsync — a crash at any point leaves
        either the intact original or the intact rewrite.  Tail records
        keep their original ``seq`` (the snapshot's ``seq`` becomes the one
        legal discontinuity), so :attr:`next_seq` is unaffected and replay
        offsets stay meaningful.  The header's ``version`` is stamped to
        the current :data:`JOURNAL_VERSION`, since the rewrite introduces
        snapshot semantics regardless of what created the journal (a
        kept record without a run flag still replays as a run of one).

        Returns:
            the number of records dropped (0 when already compact).

        Raises:
            ValueError: when the journal holds no snapshot record.
        """
        was_open = self._fh is not None
        if was_open:
            self.flush()
        header, events = Journal.read(self.path, repair=False)
        snapshot_index = None
        for i in range(len(events) - 1, -1, -1):
            if events[i].get("type") == "snapshot":
                snapshot_index = i
                break
        if snapshot_index is None:
            raise ValueError(
                f"journal {self.path} has no snapshot record to compact to"
            )
        if snapshot_index == 0 and header.get("version") == JOURNAL_VERSION:
            return 0
        header = {**header, "version": JOURNAL_VERSION}
        kept = [header] + events[snapshot_index:]
        tmp = self._tmp_path()
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in kept:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if was_open:
            self._fh.close()
            self._fh = None
        os.replace(tmp, self.path)
        dir_fd = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        if was_open:
            self._fh = open(self.path, "a", encoding="utf-8")
        return snapshot_index

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading / recovery
    # ------------------------------------------------------------------
    @staticmethod
    def read(
        path: str, *, repair: bool = True
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Parse a journal into ``(header, events)``, repairing torn tails.

        A torn **final** line (the expected artifact of a crash mid-write)
        is dropped with a :class:`UserWarning`; with ``repair=True`` the
        file is also truncated to the last good record so a reopened writer
        appends after it.  Any other damage raises
        :class:`JournalCorruptError` with the byte offset: a malformed
        interior record, a non-monotonic or gapped ``seq``, an unknown
        record type, or a missing/invalid header.
        """
        path = str(path)
        with open(path, "rb") as fh:
            raw = fh.read()
        records: List[Dict[str, Any]] = []
        offset = 0
        good_end = 0  # byte offset just past the last intact record
        line_number = 0
        torn: Optional[str] = None
        for line in raw.split(b"\n"):
            line_number += 1
            if offset + len(line) >= len(raw):
                # Final chunk with no trailing newline: an unterminated
                # write.  Empty means the file ended cleanly at a newline.
                if line.strip():
                    torn = f"torn final line (no trailing newline, {len(line)} bytes)"
                break
            if not line.strip():
                # A blank interior line means bytes were lost mid-file.
                raise JournalCorruptError(
                    "blank interior line",
                    path=path, offset=offset, line_number=line_number,
                )
            try:
                record = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                # Only the final *terminated* line can still be blamed on a
                # torn write if nothing follows it... it can't: a trailing
                # newline means the write completed.  Interior => corrupt.
                raise JournalCorruptError(
                    f"malformed record: {exc}",
                    path=path, offset=offset, line_number=line_number,
                ) from None
            if not isinstance(record, dict) or "seq" not in record:
                raise JournalCorruptError(
                    "record is not an object with a 'seq' field",
                    path=path, offset=offset, line_number=line_number,
                )
            expected_seq = (records[-1]["seq"] + 1) if records else 0
            if record["seq"] != expected_seq:
                # One discontinuity is legal: a compacted journal's second
                # record is a snapshot carrying its original seq, past the
                # dropped prefix.  Everything else is lost records.
                compaction_jump = (
                    len(records) == 1
                    and record.get("type") == "snapshot"
                    and isinstance(record["seq"], int)
                    and record["seq"] > expected_seq
                )
                if not compaction_jump:
                    raise JournalCorruptError(
                        f"sequence discontinuity: expected seq {expected_seq}, "
                        f"found {record['seq']!r}",
                        path=path, offset=offset, line_number=line_number,
                    )
            if len(records) == 0:
                if record.get("type") != "header" or "spec" not in record:
                    raise JournalCorruptError(
                        "first record is not a campaign header",
                        path=path, offset=offset, line_number=line_number,
                    )
                if record.get("version") not in SUPPORTED_JOURNAL_VERSIONS:
                    raise JournalCorruptError(
                        f"unsupported journal version {record.get('version')!r}",
                        path=path, offset=offset, line_number=line_number,
                    )
            elif record.get("type") not in EVENT_TYPES:
                raise JournalCorruptError(
                    f"unknown record type {record.get('type')!r}",
                    path=path, offset=offset, line_number=line_number,
                )
            elif record.get("type") == "snapshot" and (
                record.get("last_seq") != record["seq"] - 1
            ):
                # Snapshots are taken at a quiescent point, so by
                # construction they cover exactly the records before them.
                raise JournalCorruptError(
                    f"snapshot last_seq {record.get('last_seq')!r} does not "
                    f"cover the records before seq {record['seq']}",
                    path=path, offset=offset, line_number=line_number,
                )
            records.append(record)
            offset += len(line) + 1
            good_end = offset
        if torn is not None:
            warnings.warn(
                f"{path}: dropping {torn} — expected damage from a crash "
                "mid-write; the campaign resumes from the last durable record",
                UserWarning,
                stacklevel=2,
            )
            if repair:
                with open(path, "r+b") as fh:
                    fh.truncate(good_end)
        if not records:
            raise JournalCorruptError(
                "journal has no intact header record",
                path=path, offset=0, line_number=1,
            )
        return records[0], records[1:]
