"""Framed WAL records: checksummed framing, fenced checkpoints, salvage.

The byte-level substrate under :class:`repro.storage.journal.JournalFile`,
the one WAL engine: every record is *structurally* verifiable and every
log reads through one :func:`read_log`.

Record framing
--------------
A framed record is one text line::

    #W1 <generation> <length> <crc32> <payload>\\n

* ``#W1`` — frame magic plus format version (version byte, in spirit);
* ``generation`` — the checkpoint generation current at append time
  (decimal), the fence that keeps a crash between checkpoint-write and
  WAL-truncate from double-applying the tail;
* ``length`` — byte length of the UTF-8 payload;
* ``crc32`` — CRC-32 of the payload bytes, eight hex digits;
* ``payload`` — one compact JSON object (never containing a newline).

Every WAL line is framed: a line that does not start with ``#W`` is
damage like any other failed check (see below).

Damage taxonomy
---------------
Records are written whole-line; a crash mid-append therefore leaves an
*unterminated* final line.  That single observation drives the
classification:

* **torn** — the final line lacks its newline and fails structural
  checks (including a missing or partial frame tag): crash residue,
  silently truncated by recovery (both modes).
* **corrupt** — a newline-terminated line fails its checks (bit flip,
  interior truncation, no frame tag), or any line's payload passes its
  checksum but fails semantic decoding (``decode`` raised): never crash
  residue.
  Strict mode raises :class:`~repro.core.errors.CorruptRecordError`;
  salvage mode truncates the log to the last valid record and
  quarantines the damaged suffix into a ``.corrupt`` sidecar.
* a final line that is *valid but unterminated* (crash after the payload
  byte, before the newline) is **kept** — dropping it would discard a
  fully-written record — and repair re-terminates it.

Checkpoint fencing
------------------
:func:`write_checkpoint` publishes ``{"format": 2, "generation": G,
"state": ...}`` through :func:`atomic_write_bytes` (temp file, fsync,
rename, directory fsync) — atomic on POSIX.  Recovery replays only
WAL records whose generation is at least the checkpoint's; a tail left
behind by a crash before WAL truncation carries the previous generation
and is fenced off.  :func:`load_checkpoint` accepts nothing but that
envelope; any other document is corrupt.
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from ..core.errors import CorruptRecordError, JournalError
from ..obs.metrics import FSYNC_BUCKETS, REGISTRY
from .faults import RealFS, StorageFS

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "CHECKPOINT_FORMAT",
    "RECOVERY_MODES",
    "DurabilityPolicy",
    "FramedRecord",
    "LogDamage",
    "LogScan",
    "SalvageReport",
    "encode_frame",
    "frame_payload",
    "scan_log",
    "read_log",
    "fence_records",
    "timed_fsync",
    "atomic_write_bytes",
    "write_checkpoint",
    "load_checkpoint",
]

logger = logging.getLogger(__name__)

FRAME_MAGIC = b"#W"
FRAME_VERSION = 1
_FRAME_TAG = b"#W1"
CHECKPOINT_FORMAT = 2

#: Recovery modes accepted throughout the storage layer.
RECOVERY_MODES = ("strict", "salvage")

_FSYNCS = REGISTRY.counter(
    "repro_wal_fsyncs_total", "File fsyncs issued by the durability layer"
)
_FSYNC_SECONDS = REGISTRY.histogram(
    "repro_wal_fsync_seconds", "Latency of one WAL/checkpoint fsync",
    buckets=FSYNC_BUCKETS,
)
_TORN_TAILS = REGISTRY.counter(
    "repro_wal_torn_tails_total",
    "Torn trailing writes discarded during recovery",
)
_CRC_FAILURES = REGISTRY.counter(
    "repro_wal_crc_failures_total",
    "Framed records rejected by checksum/length verification",
)
_SALVAGED = REGISTRY.counter(
    "repro_wal_salvaged_records_total",
    "Damaged or unreachable records quarantined by salvage recovery",
)
_QUARANTINED_BYTES = REGISTRY.counter(
    "repro_wal_quarantined_bytes_total",
    "Bytes moved into .corrupt quarantine sidecars",
)
_FENCED = REGISTRY.counter(
    "repro_wal_fenced_records_total",
    "Stale-generation WAL records skipped by checkpoint fencing",
)
_QUARANTINE_FAILURES = REGISTRY.counter(
    "repro_wal_quarantine_failures_total",
    "Quarantine sidecar writes that failed (e.g. disk full); the "
    "damaged bytes were truncated without a preserved copy",
)


@dataclass(frozen=True)
class DurabilityPolicy:
    """When the storage layer folds its WAL into a checkpoint.

    Durability itself is not a policy: every appended record is fsynced
    before the write is acknowledged, and every checkpoint is fsynced
    before the WAL is truncated.

    Attributes
    ----------
    fsync:
        Kept so existing ``DurabilityPolicy(fsync="always")`` calls
        still construct; ``"always"`` is the only accepted value and
        nothing reads it.
    checkpoint_every:
        Auto-checkpoint after this many records since the last
        checkpoint (``None`` disables; the ROADMAP's compaction policy).
    replay_budget_seconds:
        Auto-checkpoint right after open when replaying the WAL tail
        took longer than this budget (``None`` disables).
    """

    fsync: str = "always"
    checkpoint_every: int | None = None
    replay_budget_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.fsync != "always":
            raise ValueError(
                f"fsync policy {self.fsync!r} is not supported: the "
                f"'batch' and 'never' policies were removed and every "
                f"acknowledged write is fsynced"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")


@dataclass(frozen=True)
class FramedRecord:
    """One valid record recovered from a log."""

    payload: dict
    decoded: Any
    generation: int
    lineno: int
    line: bytes  #: the record's bytes as stored, minus the newline


@dataclass(frozen=True)
class LogDamage:
    """The first invalid point of a log, classified."""

    kind: str  #: "torn" | "corrupt"
    offset: int  #: where the valid prefix ends
    lineno: int
    reason: str


@dataclass
class LogScan:
    """Everything :func:`scan_log` can tell about a log's bytes."""

    records: list[FramedRecord]
    damage: LogDamage | None
    valid_end: int  #: byte offset of the end of the valid prefix
    size: int
    dropped_records: int  #: complete-looking lines beyond the damage
    needs_newline: bool  #: final record valid but unterminated


@dataclass
class SalvageReport:
    """What recovery kept, fenced, and threw away."""

    mode: str
    path: str
    records_recovered: int = 0
    records_fenced: int = 0
    records_dropped: int = 0
    torn_tail_bytes: int = 0
    bytes_quarantined: int = 0
    quarantine_path: str | None = None
    quarantine_error: str | None = None  #: sidecar write failed (ENOSPC…)
    damage_reason: str | None = None

    @property
    def clean(self) -> bool:
        return (
            self.torn_tail_bytes == 0
            and self.bytes_quarantined == 0
            and self.records_dropped == 0
        )

    def summary(self) -> str:
        if self.clean:
            return (
                f"{self.path}: clean; {self.records_recovered} record(s) "
                f"live, {self.records_fenced} fenced"
            )
        parts = [
            f"{self.path}: {self.records_recovered} record(s) recovered"
        ]
        if self.torn_tail_bytes:
            parts.append(f"torn tail of {self.torn_tail_bytes} byte(s)")
        if self.records_dropped or self.bytes_quarantined:
            where = (
                f" -> {self.quarantine_path}" if self.quarantine_path else ""
            )
            parts.append(
                f"{self.records_dropped} record(s) / "
                f"{self.bytes_quarantined} byte(s) quarantined{where}"
            )
        if self.quarantine_error:
            parts.append(
                f"quarantine sidecar failed ({self.quarantine_error}); "
                f"damaged bytes discarded"
            )
        if self.damage_reason:
            parts.append(f"cause: {self.damage_reason}")
        return "; ".join(parts)


def encode_frame(payload: str, generation: int) -> bytes:
    """One framed record line (including the trailing newline)."""
    if "\n" in payload:
        raise ValueError("record payloads must not contain newlines")
    data = payload.encode("utf-8")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return b"%s %d %d %08x " % (_FRAME_TAG, generation, len(data), crc) \
        + data + b"\n"


def frame_payload(line: str | bytes) -> dict:
    """Parse one framed line back to its payload object.

    For tools (plan loaders, inspectors) that read WAL lines outside the
    recovery path; raises :class:`CorruptRecordError` on any mismatch.
    """
    raw = line.encode("utf-8") if isinstance(line, str) else line
    record, reason = _parse_line(raw.rstrip(b"\n"), None, 1)
    if record is None:
        raise CorruptRecordError(f"bad WAL frame: {reason}")
    return record.payload


def _parse_line(
    line: bytes,
    decode: Callable[[dict], Any] | None,
    lineno: int,
) -> tuple[FramedRecord | None, str | None]:
    """Parse one log line; ``(record, None)`` or ``(None, reason)``.

    Structural failures return a reason; semantic failures (the payload
    verified but ``decode`` rejected it) are prefixed ``"semantic: "``
    so the caller can classify them as corruption even on a torn line.
    """
    if not line.startswith(FRAME_MAGIC):
        return None, "not a framed record (no #W frame tag)"
    parts = line.split(b" ", 4)
    if len(parts) != 5:
        return None, "incomplete frame header"
    if parts[0] != _FRAME_TAG:
        return None, f"unsupported frame version {parts[0][2:]!r}"
    try:
        generation = int(parts[1])
        length = int(parts[2])
        crc = int(parts[3], 16)
    except ValueError:
        return None, "unparseable frame header"
    payload = parts[4]
    if len(payload) != length:
        _CRC_FAILURES.inc()
        return None, (
            f"length mismatch: header says {length}, "
            f"line carries {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        _CRC_FAILURES.inc()
        return None, f"checksum mismatch (expected {crc:08x})"
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # The checksum passed but the payload is not JSON: the writer
        # itself misbehaved — semantic, not torn.
        return None, f"semantic: checksummed payload is not JSON: {exc}"
    if not isinstance(obj, dict):
        return None, f"semantic: record is not an object: {obj!r}"
    decoded: Any = obj
    if decode is not None:
        try:
            decoded = decode(obj)
        except (ValueError, KeyError, TypeError) as exc:
            return None, f"semantic: undecodable record: {exc}"
    return (
        FramedRecord(
            payload=obj, decoded=decoded, generation=generation,
            lineno=lineno, line=line,
        ),
        None,
    )


def scan_log(
    data: bytes, decode: Callable[[dict], Any] | None = None
) -> LogScan:
    """Classify a log's bytes into a valid prefix plus optional damage.

    Never raises and never touches the filesystem — pure classification;
    :func:`read_log` applies the recovery-mode policy on top.
    """
    records: list[FramedRecord] = []
    damage: LogDamage | None = None
    valid_end = 0
    needs_newline = False
    dropped = 0
    pos = 0
    lineno = 0
    size = len(data)
    while pos < size:
        newline = data.find(b"\n", pos)
        terminated = newline != -1
        line_end = newline + 1 if terminated else size
        line = data[pos:newline] if terminated else data[pos:size]
        lineno += 1
        if line.strip():
            if damage is not None:
                dropped += 1
                pos = line_end
                continue
            record, reason = _parse_line(line, decode, lineno)
            if record is None:
                semantic = reason is not None and reason.startswith(
                    "semantic: "
                )
                torn = not terminated and not semantic
                damage = LogDamage(
                    kind="torn" if torn else "corrupt",
                    offset=valid_end,
                    lineno=lineno,
                    reason=reason or "unreadable record",
                )
            else:
                records.append(record)
                valid_end = line_end if terminated else size
                needs_newline = not terminated
        elif damage is None:
            valid_end = line_end
        pos = line_end
    return LogScan(
        records=records,
        damage=damage,
        valid_end=valid_end,
        size=size,
        dropped_records=dropped,
        needs_newline=needs_newline,
    )


def read_log(
    path: Path,
    *,
    fs: StorageFS | None = None,
    mode: str = "strict",
    decode: Callable[[dict], Any] | None = None,
    repair: bool = False,
) -> tuple[list[FramedRecord], SalvageReport]:
    """Read a WAL, applying the recovery-mode policy.

    ``mode="strict"`` raises :class:`CorruptRecordError` on corruption
    and silently (but countedly) ignores a torn tail; ``mode="salvage"``
    keeps the valid prefix whatever the damage.  With ``repair=True``
    the file is additionally healed in place: torn tails are truncated
    away (both modes), an unterminated-but-valid final record gets its
    newline, and salvage mode moves every damaged byte into a
    ``<name>.corrupt`` quarantine sidecar before truncating.  Read-only
    callers (plan analysis) leave ``repair`` off.
    """
    if mode not in RECOVERY_MODES:
        raise ValueError(
            f"recovery mode must be one of {RECOVERY_MODES}, not {mode!r}"
        )
    fs = fs or RealFS()
    path = Path(path)
    report = SalvageReport(mode=mode, path=str(path))
    if not fs.exists(path):
        return [], report
    data = fs.read_bytes(path)
    scan = scan_log(data, decode)
    report.records_recovered = len(scan.records)
    if scan.damage is not None:
        report.damage_reason = (
            f"line {scan.damage.lineno}: {scan.damage.reason}"
        )
        if scan.damage.kind == "corrupt":
            if mode == "strict":
                raise CorruptRecordError(
                    f"{path} is corrupt at line {scan.damage.lineno}: "
                    f"{scan.damage.reason} (run `repro recover "
                    f"--mode salvage` to quarantine the damage)"
                )
            report.records_dropped = scan.dropped_records + 1
        else:
            _TORN_TAILS.inc()
            report.torn_tail_bytes = scan.size - scan.damage.offset
            logger.warning(
                "%s: discarding torn tail of %d byte(s) (%s)",
                path, report.torn_tail_bytes, scan.damage.reason,
            )
    if repair:
        _repair_in_place(path, fs, scan, report)
    return scan.records, report


def _repair_in_place(
    path: Path, fs: StorageFS, scan: LogScan, report: SalvageReport
) -> None:
    """Heal ``path`` to exactly its valid prefix (see :func:`read_log`)."""
    if scan.damage is not None:
        doomed_start = scan.damage.offset
        if report.mode == "salvage" and scan.damage.kind == "corrupt":
            quarantine = path.with_suffix(path.suffix + ".corrupt")
            data = fs.read_bytes(path)
            condemned = data[doomed_start:]
            header = json.dumps({
                "quarantined_from": str(path),
                "offset": doomed_start,
                "lineno": scan.damage.lineno,
                "reason": scan.damage.reason,
                "bytes": len(condemned),
            }, sort_keys=True)
            try:
                fs.append_bytes(
                    quarantine, b"#QUARANTINE " + header.encode() + b"\n"
                )
                fs.append_bytes(quarantine, condemned)
                if not condemned.endswith(b"\n"):
                    fs.append_bytes(quarantine, b"\n")
            except OSError as exc:
                # Best effort: quarantine preserves evidence, but the
                # *repair* (truncating to the valid prefix) must succeed
                # even on a full disk.  Drop the partial sidecar so a
                # later salvage does not mistake it for a whole copy.
                try:
                    fs.unlink(quarantine)
                except OSError:
                    pass
                report.quarantine_error = str(exc)
                _QUARANTINE_FAILURES.inc()
                logger.error(
                    "%s: quarantine to %s failed (%s); truncating the "
                    "damaged suffix without a preserved copy",
                    path, quarantine, exc,
                )
            else:
                report.bytes_quarantined = len(condemned)
                report.quarantine_path = str(quarantine)
                _QUARANTINED_BYTES.inc(len(condemned))
            _SALVAGED.inc(report.records_dropped)
            logger.warning(
                "%s: salvaged around %d byte(s) (%d record(s)) at line %d",
                path, len(condemned), report.records_dropped,
                scan.damage.lineno,
            )
        fs.truncate(path, doomed_start)
    elif scan.needs_newline:
        # Crash after the last payload byte but before its newline: the
        # record is whole, so keep it and just re-terminate the line.
        fs.append_bytes(path, b"\n")


def timed_fsync(fs: StorageFS, path: Path) -> None:
    """fsync ``path``, observed; an EIO becomes a typed JournalError."""
    started = perf_counter()
    try:
        fs.fsync_file(path)
    except OSError as exc:
        raise JournalError(
            f"fsync of {path} failed; durability cannot be guaranteed: "
            f"{exc}"
        ) from exc
    _FSYNCS.inc()
    _FSYNC_SECONDS.observe(perf_counter() - started)


def fence_records(
    records: list[FramedRecord], generation: int
) -> tuple[list[FramedRecord], int]:
    """Drop records older than the checkpoint generation.

    Returns ``(live, fenced_count)``.
    """
    live = [r for r in records if r.generation >= generation]
    fenced = len(records) - len(live)
    if fenced:
        _FENCED.inc(fenced)
        logger.info(
            "fenced %d stale WAL record(s) predating checkpoint "
            "generation %d", fenced, generation,
        )
    return live, fenced


def atomic_write_bytes(fs: StorageFS, path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically: temp file, fsync, rename,
    fsync the directory.

    A crash at any boundary leaves either the old or the new content
    fully intact, never a torn hybrid.  A failed write or fsync (disk
    full, EIO) never touches the destination: the partial temp is
    removed and a typed :class:`JournalError` raised.  Checkpoints and
    the snapshot savers all publish through here.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        fs.write_bytes(tmp, data)
        timed_fsync(fs, tmp)
        fs.replace(tmp, path)
    except (OSError, JournalError) as exc:
        try:
            fs.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, JournalError):
            raise
        raise JournalError(
            f"publishing {path} failed; the previous version is "
            f"intact: {exc}"
        ) from exc
    fs.fsync_dir(path.parent if str(path.parent) else Path("."))


def write_checkpoint(
    path: Path,
    state: dict,
    generation: int,
    *,
    fs: StorageFS | None = None,
) -> None:
    """Atomically publish a fenced checkpoint document (see
    :func:`atomic_write_bytes`)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "generation": generation,
        "state": state,
    }
    atomic_write_bytes(
        fs or RealFS(),
        path,
        json.dumps(doc, sort_keys=True).encode("utf-8"),
    )


def load_checkpoint(
    path: Path, *, fs: StorageFS | None = None
) -> tuple[dict | None, int]:
    """Read a fenced checkpoint: ``(state, generation)``.

    A missing checkpoint is ``(None, 0)``.  Anything but a
    ``{"format": 2, "generation": <int>, "state": <object|null>}``
    document raises :class:`CorruptRecordError`; ``null`` is the state
    a replica installs for an empty primary.
    """
    fs = fs or RealFS()
    path = Path(path)
    if not fs.exists(path):
        return None, 0
    raw = fs.read_bytes(path)
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptRecordError(
            f"checkpoint {path} is unreadable: {exc} (checkpoints are "
            f"written atomically; this is external damage and cannot be "
            f"salvaged from the WAL alone)"
        ) from exc
    if not (
        isinstance(data, dict)
        and data.get("format") == CHECKPOINT_FORMAT
        and type(data.get("generation")) is int
        and "state" in data
        and (data["state"] is None or isinstance(data["state"], dict))
    ):
        raise CorruptRecordError(
            f"checkpoint {path} is not a format-{CHECKPOINT_FORMAT} "
            f"checkpoint document"
        )
    return data["state"], data["generation"]
