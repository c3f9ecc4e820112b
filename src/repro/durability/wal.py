"""Segmented, checksummed write-ahead log of the system's logical history.

The durable truth of a Moctopus instance is a sequence of **records**,
each stamped with a monotonically increasing LSN (log sequence number):

* ``BOOTSTRAP`` — the initial bulk load (every edge in replay order plus
  the node list, so the radical greedy partitioner re-observes the exact
  stream it saw the first time);
* ``BATCH`` — one update batch (the ``UpdateOp`` stream plus optional
  per-op labels), appended *before* ``UpdateProcessor.apply_batch``
  mutates any state (write-ahead: a batch is committed once its record
  is on disk, whether or not the process survives the in-memory apply);
* ``MIGRATIONS`` — the partition-map change journal of one maintenance
  pass (``(node, from_module, to_module)`` triples), appended *after*
  the moves are applied (a redo journal: migration decisions depend on
  volatile misplacement reports, so they are logged as outcomes, not
  re-derived).

Records are written to fixed-size-bounded **segments**
(``wal-<n>.seg``); a record never spans segments.  Each record carries a
CRC-32 over its header and payload, so recovery can distinguish a torn
tail (the crash hit mid-write: truncate and continue) from corruption in
the middle of the log (hard error).  Replaying the same segment twice is
idempotent — records whose LSN is not past the already-applied prefix
are skipped.

All physical writes funnel through :func:`wal_write`, which the
fault-injection harness monkeypatches to kill the process at (and in the
middle of) every durable write — that hook is what makes the crash
matrix in ``tests/test_durability.py`` deterministic.  Files are opened
unbuffered so a partial write is really on the OS side when the
simulated crash hits.

Durability caveat: by default the log relies on the OS page cache
(``flush`` per record, no ``fsync``) — that survives process crashes,
which is what the simulator models.  Set ``MoctopusConfig.wal_fsync``
for power-loss durability at the usual latency cost.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.stream import UpdateKind, UpdateOp

#: First two bytes of every record.
RECORD_MAGIC = b"WR"
#: Header layout after the magic: type (1B) | lsn (8B) | payload length (4B).
_HEADER = struct.Struct("<BQI")
#: Trailing CRC-32 of (type | lsn | length | payload).
_CRC = struct.Struct("<I")
#: Fixed bytes around a record's payload.
RECORD_OVERHEAD = len(RECORD_MAGIC) + _HEADER.size + _CRC.size

#: Record types.
RT_BOOTSTRAP = 1
RT_BATCH = 2
RT_MIGRATIONS = 3
#: Compensation marker: the batch at the referenced LSN raised while
#: applying and must be skipped on replay (transaction aborted).
RT_ABORT = 4

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


class CorruptWalError(RuntimeError):
    """A WAL segment is damaged somewhere other than its final record."""


class WalGapError(CorruptWalError):
    """The LSN sequence has a hole (a segment went missing)."""


def wal_write(handle, payload: Union[bytes, memoryview]) -> None:
    """Write ``payload`` to an (unbuffered) file handle.

    Every durable byte of the WAL *and* of checkpoints goes through this
    one function so the fault-injection harness can crash the process at
    any write boundary — or after only a prefix of ``payload``, which is
    how torn records and torn checkpoints are manufactured
    deterministically.
    """
    handle.write(payload)


def fsync_directory(path: str) -> None:
    """``fsync`` a directory so its entry table is on stable storage.

    Under ``wal_fsync`` a fully-fsynced file is not durable until its
    *directory entry* is too: a power loss after the file's fsync but
    before the directory's can orphan the bytes in an unlinked inode.
    Both durability sites that create or rename durable files — WAL
    segment creation here and the checkpoint ``os.replace`` in
    :mod:`repro.durability.checkpoint` — route through this one
    function, which (like :func:`wal_write`) the fault-injection
    harness monkeypatches to crash at every directory-fsync boundary.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Record encoding
# ----------------------------------------------------------------------
def encode_record(record_type: int, lsn: int, payload: bytes) -> bytes:
    """Frame ``payload`` as one WAL record."""
    header = _HEADER.pack(record_type, lsn, len(payload))
    crc = zlib.crc32(header)
    crc = zlib.crc32(payload, crc)
    return b"".join((RECORD_MAGIC, header, payload, _CRC.pack(crc)))


def encode_batch(
    ops: Sequence[UpdateOp], labels: Optional[Sequence[int]]
) -> bytes:
    """Payload of a ``BATCH`` record.

    Layout: has_labels flag (1B) | count (8B) | kinds ``uint8[count]`` |
    srcs/dsts (and labels when flagged) ``int64[count]`` each.
    """
    count = len(ops)
    kinds = np.fromiter(
        (op.kind is UpdateKind.INSERT for op in ops), dtype=np.uint8, count=count
    )
    srcs = np.fromiter((op.src for op in ops), dtype=np.int64, count=count)
    dsts = np.fromiter((op.dst for op in ops), dtype=np.int64, count=count)
    chunks = [
        struct.pack("<BQ", 1 if labels is not None else 0, count),
        kinds.tobytes(),
        srcs.tobytes(),
        dsts.tobytes(),
    ]
    if labels is not None:
        chunks.append(
            np.fromiter(labels, dtype=np.int64, count=count).tobytes()
        )
    return b"".join(chunks)


def decode_batch(payload: bytes) -> Tuple[List[UpdateOp], Optional[List[int]]]:
    """Inverse of :func:`encode_batch`."""
    has_labels, count = struct.unpack_from("<BQ", payload, 0)
    offset = struct.calcsize("<BQ")
    kinds = np.frombuffer(payload, dtype=np.uint8, count=count, offset=offset)
    offset += count
    srcs = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
    offset += 8 * count
    dsts = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
    offset += 8 * count
    labels: Optional[List[int]] = None
    if has_labels:
        labels = np.frombuffer(
            payload, dtype=np.int64, count=count, offset=offset
        ).tolist()
    ops = [
        UpdateOp(
            UpdateKind.INSERT if kind else UpdateKind.DELETE, int(src), int(dst)
        )
        for kind, src, dst in zip(kinds.tolist(), srcs.tolist(), dsts.tolist())
    ]
    return ops, labels


def encode_bootstrap(table: np.ndarray, nodes: Sequence[int]) -> bytes:
    """Payload of a ``BOOTSTRAP`` record (edges and nodes in replay order).

    ``table`` is the bulk load's ``(n, 3)`` edge table
    (:func:`~repro.graph.stream.edge_table`) — the array the loader
    walks next, so a durable load reads the graph once and the edges are
    copied into the payload once.
    """
    node_array = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
    return b"".join(
        [struct.pack("<QQ", len(table), len(nodes)), table, node_array]
    )


def decode_bootstrap(payload: bytes) -> Tuple[np.ndarray, List[int]]:
    """Inverse of :func:`encode_bootstrap`: ``(edge table, nodes)``.

    The edge table is a read-only ``(n, 3)`` view of the payload.
    """
    num_edges, num_nodes = struct.unpack_from("<QQ", payload, 0)
    offset = struct.calcsize("<QQ")
    edges = np.frombuffer(
        payload, dtype=np.int64, count=3 * num_edges, offset=offset
    ).reshape(num_edges, 3)
    offset += 24 * num_edges
    nodes = np.frombuffer(payload, dtype=np.int64, count=num_nodes, offset=offset)
    return edges, nodes.tolist()


def encode_migrations(moves: Sequence[Tuple[int, int, int]]) -> bytes:
    """Payload of a ``MIGRATIONS`` record: (node, from, to) triples."""
    array = np.asarray(moves, dtype=np.int64).reshape(len(moves), 3)
    return struct.pack("<Q", len(moves)) + array.tobytes()


def decode_migrations(payload: bytes) -> List[Tuple[int, int, int]]:
    """Inverse of :func:`encode_migrations`."""
    (count,) = struct.unpack_from("<Q", payload, 0)
    offset = struct.calcsize("<Q")
    moves = np.frombuffer(
        payload, dtype=np.int64, count=3 * count, offset=offset
    ).reshape(count, 3)
    return [tuple(move) for move in moves.tolist()]


def encode_abort(aborted_lsn: int) -> bytes:
    """Payload of an ``ABORT`` record: the LSN it compensates."""
    return struct.pack("<Q", aborted_lsn)


def decode_abort(payload: bytes) -> int:
    """Inverse of :func:`encode_abort`."""
    (aborted_lsn,) = struct.unpack_from("<Q", payload, 0)
    return aborted_lsn


# ----------------------------------------------------------------------
# Segment scanning
# ----------------------------------------------------------------------
@dataclass
class WalRecord:
    """One decoded record plus where it physically lives."""

    lsn: int
    record_type: int
    payload: bytes
    segment: str
    offset: int


@dataclass
class TornTail:
    """A partially written final record (crash mid-append)."""

    segment: str
    #: Byte offset of the first torn byte (the valid prefix length).
    valid_bytes: int


def segment_path(directory: str, index: int) -> str:
    """Path of segment ``index`` inside ``directory``."""
    return os.path.join(directory, f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}")


def list_segments(directory: str) -> List[str]:
    """Sorted paths of the WAL segments under ``directory``."""
    if not os.path.isdir(directory):
        return []
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    ]
    return [os.path.join(directory, name) for name in sorted(names)]


def _parse_frame(
    data: bytes, offset: int
) -> Optional[Tuple[int, int, bytes, int]]:
    """Parse one record frame at ``offset``.

    Returns ``(record_type, lsn, payload, next_offset)``, or ``None``
    when no complete CRC-valid record starts there.  This is the single
    definition of the on-disk frame — segment scanning and the
    corruption-vs-torn-tail probe both build on it, so they can never
    disagree about what parses.
    """
    magic_len = len(RECORD_MAGIC)
    end = offset + magic_len + _HEADER.size
    if data[offset : offset + magic_len] != RECORD_MAGIC or end > len(data):
        return None
    record_type, lsn, length = _HEADER.unpack(data[offset + magic_len : end])
    payload_end = end + length
    crc_end = payload_end + _CRC.size
    if crc_end > len(data):
        return None
    payload = data[end:payload_end]
    (stored_crc,) = _CRC.unpack(data[payload_end:crc_end])
    crc = zlib.crc32(data[offset + magic_len : end])
    crc = zlib.crc32(payload, crc)
    if crc != stored_crc:
        return None
    return record_type, lsn, payload, crc_end


def _valid_record_after(data: bytes, offset: int) -> bool:
    """Whether any complete record survives past a damaged ``offset``.

    This is what tells *corruption* apart from a *torn tail*: a crash
    interrupts the last append, so nothing parseable can follow the
    damage — if something does, earlier bytes were damaged after the
    fact and truncating would silently discard committed records.
    """
    position = data.find(RECORD_MAGIC, offset + 1)
    while position != -1:
        if _parse_frame(data, position) is not None:
            return True
        position = data.find(RECORD_MAGIC, position + 1)
    return False


def _scan_segment(path: str) -> Tuple[List[WalRecord], Optional[int], bytes]:
    """Decode one segment.

    Returns the valid records, the offset of a torn/damaged suffix
    (``None`` when the segment is clean), and the raw bytes (for the
    caller's corruption-vs-torn-tail discrimination).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[WalRecord] = []
    offset = 0
    while offset < len(data):
        frame = _parse_frame(data, offset)
        if frame is None:
            return records, offset, data
        record_type, lsn, payload, next_offset = frame
        records.append(
            WalRecord(
                lsn=lsn,
                record_type=record_type,
                payload=payload,
                segment=path,
                offset=offset,
            )
        )
        offset = next_offset
    return records, None, data


def scan_wal(directory: str) -> Tuple[List[WalRecord], Optional[TornTail]]:
    """Decode every segment of the log, oldest first.

    A torn record is tolerated only at the very end of the *last*
    segment (the append the crash interrupted); anywhere else — an
    earlier segment, or damage with parseable records after it — means
    the log was damaged after the fact and :class:`CorruptWalError` is
    raised instead of silently discarding committed records.  Records
    are returned in physical order — the caller skips duplicate LSNs,
    which makes re-reading a segment idempotent.
    """
    segments = list_segments(directory)
    records: List[WalRecord] = []
    torn: Optional[TornTail] = None
    for position, path in enumerate(segments):
        decoded, torn_offset, data = _scan_segment(path)
        records.extend(decoded)
        if torn_offset is not None:
            if position != len(segments) - 1:
                raise CorruptWalError(
                    f"segment {os.path.basename(path)} is damaged at byte "
                    f"{torn_offset} but is not the final segment"
                )
            if _valid_record_after(data, torn_offset):
                raise CorruptWalError(
                    f"segment {os.path.basename(path)} is damaged at byte "
                    f"{torn_offset} with committed records after the damage"
                )
            torn = TornTail(segment=path, valid_bytes=torn_offset)
    return records, torn


def truncate_torn_tail(torn: TornTail) -> None:
    """Physically drop a torn final record (crash-interrupted append)."""
    with open(torn.segment, "rb+") as handle:
        handle.truncate(torn.valid_bytes)


def prune_segments(directory: str, safe_lsn: int) -> List[str]:
    """Delete leading segments whose records are all ``<= safe_lsn``.

    ``safe_lsn`` must be the LSN of the *oldest retained* checkpoint:
    everything at or below it can be reconstructed from that checkpoint,
    so its segments are dead weight.  The active (last) segment is never
    touched, and pruning stops at the first segment that still carries a
    live record, so the remaining log always starts at or before
    ``safe_lsn + 1``.  Returns the removed paths.
    """
    removed: List[str] = []
    for path in list_segments(directory)[:-1]:
        records, torn_offset, _ = _scan_segment(path)
        if torn_offset is not None or not records:
            break
        if max(record.lsn for record in records) > safe_lsn:
            break
        os.remove(path)
        removed.append(path)
    return removed


# ----------------------------------------------------------------------
# The appender
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Appender over a directory of WAL segments.

    ``open()`` scans the existing segments (truncating a torn tail, so a
    recovered system can keep appending to the same directory) and
    resumes the LSN sequence after the last valid record.
    """

    def __init__(
        self,
        directory: str,
        segment_bytes: int,
        fsync: bool = False,
        resume_lsn: Optional[int] = None,
    ) -> None:
        """Open (or create) the log under ``directory``.

        ``resume_lsn`` is the recovery fast path: the caller has already
        scanned the log, truncated any torn tail and applied everything
        up to that LSN, so the appender only needs the last segment's
        position — no second full-log CRC scan.
        """
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        os.makedirs(directory, exist_ok=True)
        self._handle = None
        self._segment_index = 0
        self._segment_size = 0
        #: Set when an append failed mid-write: the segment tail holds
        #: partial bytes that must be trimmed before the next record, or
        #: a later successful append would strand damage mid-segment
        #: (which recovery rightly treats as corruption).
        self._tail_dirty = False
        self.last_lsn = 0
        self._resume(resume_lsn)

    def _resume(self, resume_lsn: Optional[int]) -> None:
        segments = list_segments(self.directory)
        if segments:
            if resume_lsn is None:
                records, torn = scan_wal(self.directory)
                if torn is not None:
                    truncate_torn_tail(torn)
                if records:
                    self.last_lsn = max(record.lsn for record in records)
            else:
                # Fast path, but still verified: the log's tail LSN is
                # whatever the *last* segment ends with, so scanning
                # that one segment (bounded by segment_bytes, not by
                # history) is enough to fail loudly if the directory
                # gained records behind the recovery that computed
                # ``resume_lsn`` — silently resuming would mint
                # duplicate LSNs and lose one writer's batches.
                tail_records, torn_offset, _ = _scan_segment(segments[-1])
                if torn_offset is not None:
                    raise CorruptWalError(
                        f"segment {os.path.basename(segments[-1])} still "
                        f"has a torn tail at byte {torn_offset} on resume"
                    )
                tail_lsn = max(
                    (record.lsn for record in tail_records), default=None
                )
                if tail_lsn is not None and tail_lsn != resume_lsn:
                    raise CorruptWalError(
                        f"resume expected the log to end at lsn "
                        f"{resume_lsn}, found {tail_lsn}"
                    )
                self.last_lsn = resume_lsn
            last = segments[-1]
            name = os.path.basename(last)
            self._segment_index = int(
                name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            )
            self._segment_size = os.path.getsize(last)
            self._handle = open(last, "ab", buffering=0)
        else:
            self.last_lsn = resume_lsn or 0
            self._open_segment(0)

    def _open_segment(self, index: int) -> None:
        if self._handle is not None:
            self._handle.close()
        self._segment_index = index
        path = segment_path(self.directory, index)
        self._handle = open(path, "ab", buffering=0)
        self._segment_size = os.path.getsize(path)
        if self.fsync:
            # Power-loss contract: the new segment's directory entry
            # must be stable before records land in it, or a crash could
            # orphan fsync'd record bytes in an unlinked file.
            fsync_directory(self.directory)

    def append(self, record_type: int, payload: bytes) -> int:
        """Durably append one record; returns its LSN.

        The record is framed, CRC'd and written in one :func:`wal_write`
        call; the segment is rotated first when the record would push the
        current segment past ``segment_bytes`` (a record never spans
        segments, so every segment is independently scannable).
        """
        if self._handle is None:
            raise RuntimeError("write-ahead log is closed")
        if self._tail_dirty:
            # A previous append died mid-write (e.g. ENOSPC): trim the
            # partial bytes back to the last good record so this append
            # lands on a clean boundary.  The handle is in append mode,
            # so the next write lands at the new (repaired) end.
            os.ftruncate(self._handle.fileno(), self._segment_size)
            self._tail_dirty = False
        record = encode_record(record_type, self.last_lsn + 1, payload)
        if (
            self._segment_size > 0
            and self._segment_size + len(record) > self.segment_bytes
        ):
            self._open_segment(self._segment_index + 1)
        try:
            wal_write(self._handle, record)
            if self.fsync:
                # Inside the guard: if the fsync fails after a complete
                # write, the record would otherwise be durable-but-
                # unaccounted, and a retry would mint a second record
                # with the same LSN behind it.
                # repro: noqa REP003 — file-handle fsync has no funnel;
                # the bytes above went through wal_write, which is the
                # crash axis; fsync failure handling is the guard here.
                os.fsync(self._handle.fileno())
        except BaseException:
            self._tail_dirty = True
            raise
        self._segment_size += len(record)
        self.last_lsn += 1
        return self.last_lsn

    def append_bootstrap(self, table: np.ndarray, nodes: Sequence[int]) -> int:
        """Append the initial bulk load as one record."""
        return self.append(RT_BOOTSTRAP, encode_bootstrap(table, nodes))

    def append_batch(
        self, ops: Sequence[UpdateOp], labels: Optional[Sequence[int]]
    ) -> int:
        """Append one update batch (call *before* applying it)."""
        return self.append(RT_BATCH, encode_batch(ops, labels))

    def append_migrations(self, moves: Sequence[Tuple[int, int, int]]) -> int:
        """Append one maintenance pass's migration journal (redo)."""
        return self.append(RT_MIGRATIONS, encode_migrations(moves))

    def append_abort(self, aborted_lsn: int) -> int:
        """Mark the record at ``aborted_lsn`` as never-applied (skip it)."""
        return self.append(RT_ABORT, encode_abort(aborted_lsn))

    def close(self) -> None:
        """Close the current segment handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog(dir={self.directory!r}, last_lsn={self.last_lsn}, "
            f"segment={self._segment_index})"
        )
