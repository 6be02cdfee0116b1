"""The replica: a durable WAL mirror replayed into lock-free snapshots.

:class:`ReplicaStore` owns the replica's local files — the *same* WAL +
checkpoint layout as a primary, holding verbatim copies of the shipped
frames — and the published :class:`~repro.concurrent.SchemaSnapshot`
readers serve from.  Durability before visibility: every shipped batch
is appended to the local WAL and fsynced *before* it is applied and
published, so a replica that crashes mid-replay recovers (by the
ordinary storage-layer recovery) to exactly the prefix it had
acknowledged, and resumes from there.

:class:`ReplicationClient` is the background thread that keeps the
store fed: connect, handshake with the durable position and prefix CRC,
then apply checkpoint/records/heartbeat messages as they arrive.  Its
failure policy is the robustness headline:

* **Channel damage** (checksum mismatch, truncated envelope, out-of-
  order batch) quarantines the stream — drop the connection, count it,
  re-handshake from the last *durable* position.  Nothing damaged is
  ever applied, so the published snapshot is always a committed prefix
  of the primary's history.
* **Divergence** (a shipped record the engine rejects) latches a full
  resync: the next handshake requests a checkpoint ship uncondition-
  ally, replacing local state wholesale rather than guessing.
* **Disconnection** degrades to *stale-read mode* instead of failing
  closed: reads keep serving the last snapshot, staleness is measured
  (and exported) rather than hidden, and ``/readyz`` flips only when
  ``max_staleness`` says so.  Reconnects use the storage layer's
  :class:`~repro.storage.reliability.RetryPolicy` backoff (with jitter,
  so a restarted primary is not met by a thundering herd).
* **Fencing**: the client remembers the highest lease epoch it has
  synced from and refuses any primary offering a lower one
  (:class:`~repro.core.errors.StaleEpochError`) — the replica-side half
  of double-primary protection.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
import zlib
from pathlib import Path
from typing import Callable

from ..concurrent import SchemaSnapshot
from ..core.config import LatticePolicy
from ..core.errors import (
    CorruptRecordError,
    EvolutionError,
    JournalError,
    ReplicaDivergedError,
    ReplicationError,
    StaleEpochError,
)
from ..core.lattice import TypeLattice
from ..core.operations import SchemaOperation, operation_from_dict
from ..obs.metrics import REGISTRY
from ..obs.tracing import trace
from ..storage.faults import StorageFS
from ..storage.framing import (
    FramedRecord,
    frame_payload,
    timed_fsync,
)
from ..storage.journal import JournalFile, lattice_from_checkpoint
from ..storage.reliability import RetryPolicy
from .channel import Channel, ChannelClosed
from .protocol import PROTOCOL_VERSION, Position

__all__ = ["ReplicaStore", "ReplicationClient"]

logger = logging.getLogger(__name__)

_REPLAYED = REGISTRY.counter(
    "repro_replication_replayed_records_total",
    "Shipped WAL records durably applied by this replica",
)
_CHECKPOINTS_INSTALLED = REGISTRY.counter(
    "repro_replication_checkpoints_installed_total",
    "Full checkpoint ships installed by this replica",
)
_RECONNECTS = REGISTRY.counter(
    "repro_replication_reconnects_total",
    "Replication stream reconnect attempts",
)
_QUARANTINED_STREAMS = REGISTRY.counter(
    "repro_replication_quarantined_streams_total",
    "Streams dropped for channel damage or protocol violations",
)
_STALE_MODE = REGISTRY.gauge(
    "repro_replication_stale_mode",
    "1 while this replica serves reads beyond its staleness bound",
)
_LAG = REGISTRY.gauge(
    "repro_replication_lag_records",
    "Records the primary has committed beyond this replica's position",
)
_DIVERGENCES = REGISTRY.counter(
    "repro_replication_divergences_total",
    "Shipped records the replica could not apply (forced full resync)",
)

class ReplicaStore:
    """The replica's durable state + published read snapshot.

    Read surface mirrors :class:`~repro.concurrent.ConcurrentObjectbase`
    (``snapshot``/``card``/``types``/``degraded``) so the HTTP service
    can serve from either interchangeably.  All mutation comes from the
    replication client thread; a mutex serializes it against the
    re-load in :meth:`reload`.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        policy: LatticePolicy | None = None,
        fs: StorageFS | None = None,
    ) -> None:
        # A replica never checkpoints on its own, so it takes no policy.
        self.wal = JournalFile(path, fs=fs)
        self.path = self.wal.path
        self.policy = policy
        self.fs = self.wal.fs
        self._mutex = threading.Lock()
        self._lattice: TypeLattice
        self._snapshot: SchemaSnapshot
        self._position = Position(0, 0)
        self._tail_crc = 0
        self.reload()

    # -- lock-free read surface ----------------------------------------

    @property
    def snapshot(self) -> SchemaSnapshot:
        return self._snapshot

    def types(self) -> frozenset[str]:
        return self._snapshot.types()

    def card(self, name: str):
        return self._snapshot.card(name)

    def __contains__(self, name: str) -> bool:
        return name in self._snapshot

    def __len__(self) -> int:
        return len(self._snapshot)

    @property
    def degraded(self) -> bool:
        # A replica never latches write-degraded (it takes no writes);
        # staleness is the client's dimension, reported separately.
        return False

    @property
    def durable(self) -> bool:
        return True

    @property
    def position(self) -> Position:
        """The durable replication position (what we resume from)."""
        return self._position

    @property
    def tail_crc(self) -> int:
        """CRC-32 of the live WAL prefix — our handshake fingerprint."""
        return self._tail_crc

    # -- durable mutation (replication client only) ---------------------

    def reload(self) -> None:
        """(Re)build the lattice and position from local durable state —
        process start and crash recovery share this one path."""
        with self._mutex:
            crc = 0

            def apply(lattice: TypeLattice, record: FramedRecord) -> None:
                nonlocal crc
                record.decoded.apply(lattice)
                crc = _crc32(record.line + b"\n", crc)

            replay = self.wal.replay(
                lambda state: lattice_from_checkpoint(state, self.policy),
                apply,
                mode="salvage",
            )
            self._lattice = replay.base
            self._position = Position(self.wal.generation, replay.replayed)
            self._tail_crc = crc
            self._snapshot = SchemaSnapshot.capture(replay.base)

    def install_checkpoint(self, state: dict | None, generation: int) -> None:
        """Replace everything with a shipped checkpoint (full resync)."""
        with self._mutex:
            with trace.span(
                "replication.install-checkpoint", generation=generation
            ):
                self.wal.checkpoint(state, generation=generation)
                lattice = lattice_from_checkpoint(state, self.policy)
                self._lattice = lattice
                self._position = Position(generation, 0)
                self._tail_crc = 0
                self._snapshot = SchemaSnapshot.capture(lattice)
        _CHECKPOINTS_INSTALLED.inc()
        logger.info(
            "installed shipped checkpoint generation %d (%d type(s))",
            generation, len(self._snapshot),
        )

    def apply_records(
        self, generation: int, from_index: int, frames: list[str]
    ) -> int:
        """Durably apply one shipped batch; returns records applied.

        Durability before visibility: the whole batch is appended to the
        local WAL and fsynced once, and only then applied and published.
        A crash between the two replays it on reload — the same
        write-ahead contract as the primary.  A failed append or fsync
        truncates the WAL back to the batch start and changes no
        in-memory state.

        Raises :class:`ReplicationError` for a batch that does not line
        up with our position (reordered/duplicated delivery — refuse,
        never reorder), :class:`CorruptRecordError` for a frame whose
        own checksum fails (channel damage the envelope CRC missed --
        still structurally caught), and :class:`ReplicaDivergedError`
        when a structurally valid record will not apply (local state is
        not the prefix it claimed to be; resync).
        """
        with self._mutex:
            expected = self._position
            if generation != expected.generation \
                    or from_index != expected.index:
                raise ReplicationError(
                    f"out-of-order batch: stream offers "
                    f"{generation}:{from_index}, replica is at {expected}"
                )
            batch = [_decode_frame(text) for text in frames]
            applied = 0
            with trace.span(
                "replication.replay", records=len(frames),
                position=str(expected),
            ):
                offset = (
                    self.fs.size(self.path)
                    if self.fs.exists(self.path) else 0
                )
                try:
                    self.fs.append_bytes(
                        self.path, b"".join(frame for frame, _ in batch)
                    )
                    timed_fsync(self.fs, self.path)
                except (OSError, JournalError):
                    # Roll partial bytes back so the next batch does not
                    # land on top of a torn line; if even that fails,
                    # reload() heals it as a torn tail.
                    try:
                        self.fs.truncate(self.path, offset)
                    except OSError:  # pragma: no cover
                        pass
                    raise
                for frame, operation in batch:
                    try:
                        operation.apply(self._lattice)
                    except EvolutionError as exc:
                        # Roll the unapplied frames back out so durable
                        # state matches the applied prefix exactly.
                        self.fs.truncate(self.path, offset)
                        _DIVERGENCES.inc()
                        raise ReplicaDivergedError(
                            f"shipped record rejected by the engine at "
                            f"{self._position}: {exc}"
                        ) from exc
                    offset += len(frame)
                    self._tail_crc = _crc32(frame, self._tail_crc)
                    self._position = Position(
                        self._position.generation,
                        self._position.index + 1,
                    )
                    applied += 1
            self._snapshot = SchemaSnapshot.capture(
                self._lattice, self._snapshot
            )
        _REPLAYED.inc(applied)
        return applied


def _decode_frame(text: str) -> tuple[bytes, SchemaOperation]:
    """One shipped frame as WAL bytes plus the operation it carries."""
    frame = text.rstrip("\n").encode("utf-8") + b"\n"
    payload = frame_payload(frame)  # verifies frame CRC
    try:
        return frame, operation_from_dict(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise ReplicaDivergedError(
            f"shipped record decodes to no operation: {exc}"
        ) from exc


def _crc32(data: bytes, crc: int = 0) -> int:
    return zlib.crc32(data, crc) & 0xFFFFFFFF


class ReplicationClient(threading.Thread):
    """Background sync thread: keeps a :class:`ReplicaStore` caught up.

    See the module docstring for the failure policy.  ``clock`` is
    injectable (staleness tests advance it instead of sleeping);
    ``channel_factory`` is the fault-injection seam.
    """

    def __init__(
        self,
        store: ReplicaStore,
        host: str,
        port: int,
        *,
        retry: RetryPolicy | None = None,
        max_staleness: float | None = None,
        heartbeat_timeout: float = 5.0,
        connect_timeout: float = 2.0,
        channel_factory: Callable[[socket.socket], Channel] = Channel,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(name="repro-replication-client", daemon=True)
        self.store = store
        self.host = host
        self.port = port
        self.retry = retry or RetryPolicy(
            attempts=6, base_delay=0.05, max_delay=2.0, jitter=0.5,
        )
        self.max_staleness = max_staleness
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.channel_factory = channel_factory
        self.clock = clock
        self.seen_epoch = 0
        self.primary_position: Position | None = None
        self.connected = False
        self.synced = False  #: completed at least one handshake
        self.last_contact: float | None = None
        self.last_error: str | None = None
        self._resync = False
        self._stopped = threading.Event()
        self._channel: Channel | None = None

    # -- health surface -------------------------------------------------

    def staleness(self) -> float:
        """Seconds since the primary was last heard from (inf if never)."""
        if self.last_contact is None:
            return float("inf")
        return max(0.0, self.clock() - self.last_contact)

    @property
    def stale(self) -> bool:
        """Whether reads are beyond the configured staleness bound.

        Latched by construction: it stays true from the moment the
        bound is exceeded until a reconnect actually refreshes
        ``last_contact`` — there is no way to clear it but to hear from
        a primary.  With no bound configured a replica is never "too
        stale" (but the metrics still expose the raw staleness).
        """
        if self.max_staleness is None:
            return False
        is_stale = self.staleness() > self.max_staleness
        _STALE_MODE.set(1 if is_stale else 0)
        return is_stale

    @property
    def lag_records(self) -> int | None:
        """Records behind the primary (None while that is unknowable —
        never connected, or mid-resync across a checkpoint bump)."""
        if self.primary_position is None:
            return None
        local = self.store.position
        if self.primary_position.generation != local.generation:
            return None
        lag = max(0, self.primary_position.index - local.index)
        _LAG.set(lag)
        return lag

    def describe(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------

    def stop(self) -> None:
        self._stopped.set()
        channel = self._channel
        if channel is not None:
            channel.close()
        if self.is_alive():
            self.join(timeout=5.0)

    def run(self) -> None:
        failures = 0
        while not self._stopped.is_set():
            made_contact = False
            try:
                self._sync_once()
            except ChannelClosed as exc:
                self.last_error = str(exc)
                logger.info("replication stream closed: %s", exc)
            except StaleEpochError as exc:
                # A fenced ex-primary: refuse it and keep retrying — if
                # the address is ever repointed at the new primary (or
                # it re-acquires a higher epoch), sync resumes.
                self.last_error = str(exc)
                _QUARANTINED_STREAMS.inc()
                logger.error("%s", exc)
            except ReplicaDivergedError as exc:
                self.last_error = str(exc)
                self._resync = True
                _QUARANTINED_STREAMS.inc()
                logger.error("replica diverged, forcing resync: %s", exc)
            except (
                ReplicationError, CorruptRecordError,
                KeyError, TypeError, ValueError,
            ) as exc:
                self.last_error = str(exc)
                _QUARANTINED_STREAMS.inc()
                logger.warning("replication stream quarantined: %s", exc)
            except (OSError, JournalError) as exc:
                self.last_error = str(exc)
                logger.info("replication connection failed: %s", exc)
            finally:
                made_contact = self.connected
                self.connected = False
                channel, self._channel = self._channel, None
                if channel is not None:
                    channel.close()
            if self._stopped.is_set():
                return
            # A connection that at least handshook resets the backoff
            # ramp; repeated failures walk it up to the (jittered) cap.
            failures = 0 if made_contact else failures + 1
            _RECONNECTS.inc()
            self._stopped.wait(self._reconnect_delay(failures))

    def _reconnect_delay(self, failures: int) -> float:
        """The policy's exponential ramp, jittered, capped — but never
        exhausted: a replica retries forever (stale-read mode is the
        degraded state, not giving up)."""
        exponent = max(0, failures - 1)
        delay = min(
            self.retry.base_delay * (self.retry.multiplier ** exponent),
            self.retry.max_delay,
        )
        if self.retry.jitter:
            delay *= 1.0 - self.retry.jitter * self.retry.rng()
        return delay

    def _sync_once(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        channel = self.channel_factory(sock)
        self._channel = channel
        channel.settimeout(self.heartbeat_timeout)
        channel.send({
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "generation": self.store.position.generation,
            "index": self.store.position.index,
            "crc": self.store.tail_crc,
            "seen_epoch": self.seen_epoch,
            "resync": self._resync,
        })
        welcome = channel.recv()
        if welcome.get("type") == "error":
            raise ReplicationError(
                f"primary refused handshake: {welcome.get('code')}: "
                f"{welcome.get('message')}"
            )
        if welcome.get("type") != "welcome" \
                or welcome.get("protocol") != PROTOCOL_VERSION:
            raise ReplicationError(
                f"expected welcome/v{PROTOCOL_VERSION}, got "
                f"{welcome.get('type')!r}"
            )
        self._observe_epoch(int(welcome.get("epoch", 0)))
        self.primary_position = Position.parse(str(welcome["position"]))
        self.connected = True
        self.synced = True
        self.last_contact = self.clock()
        logger.info(
            "replicating from %s (epoch %d, primary at %s, %s)",
            self.describe(), self.seen_epoch, self.primary_position,
            "resuming" if welcome.get("resume") else "resyncing",
        )
        while not self._stopped.is_set():
            message = channel.recv()
            self.last_contact = self.clock()
            kind = message.get("type")
            if "epoch" in message:
                self._observe_epoch(int(message["epoch"]))
            if kind == "checkpoint":
                self.store.install_checkpoint(
                    message.get("state"), int(message["generation"])
                )
                self._resync = False
                self.primary_position = Position.parse(
                    str(message.get("position", message["generation"]))
                )
            elif kind == "records":
                self.store.apply_records(
                    int(message["generation"]),
                    int(message["from_index"]),
                    list(message["frames"]),
                )
                self._resync = False
                self.primary_position = Position.parse(
                    str(message["position"])
                )
            elif kind == "heartbeat":
                self.primary_position = Position.parse(
                    str(message["position"])
                )
            elif kind == "error":
                raise ReplicationError(
                    f"primary closed the stream: {message.get('code')}: "
                    f"{message.get('message')}"
                )
            else:
                raise ReplicationError(
                    f"unknown message type {kind!r} on the stream"
                )
            # Touch the health surface so gauges track without readers.
            self.lag_records
            self.stale

    def _observe_epoch(self, epoch: int) -> None:
        if epoch < self.seen_epoch:
            raise StaleEpochError(self.seen_epoch, epoch)
        self.seen_epoch = max(self.seen_epoch, epoch)
