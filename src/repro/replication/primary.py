"""The primary's side of replication: tail the durable WAL, ship it.

:class:`ReplicationSource` reads the primary's own on-disk WAL and
checkpoint (the same files :class:`~repro.storage.journal.JournalFile`
writes, through the same :class:`StorageFS` seam).  That "ship only
what is on disk" rule is the heart of the committed-prefix invariant:
a record that was acknowledged but not yet durable *cannot* reach a
replica, so no replica can ever be ahead of what the primary would
itself recover to after a crash.

:class:`ReplicationServer` accepts replica connections and runs one
shipper loop per replica:

1. **Handshake** — verify the lease is still held (a fenced ex-primary
   refuses service here), verify the replica's claimed position is a
   real prefix of our history (same checkpoint generation *and* the
   CRC-32 of its WAL prefix matches ours), then either resume tailing
   from that position or ship a full checkpoint.
2. **Tailing** — poll the WAL (cheap: a size/generation cache makes the
   no-change case two ``stat``\\ s) and ship new records verbatim; each
   batch carries its start index so the replica can refuse anything
   out of order.  A new checkpoint generation on the primary re-ships
   the checkpoint (the WAL was truncated under it).
3. **Heartbeats** — when idle, carry the primary's position and lease
   epoch so replicas can measure staleness and detect stale epochs.

The lease is re-checked before every send batch, so a primary that
loses its lease mid-stream stops shipping within one poll interval.
"""

from __future__ import annotations

import logging
import socket
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import monotonic
from typing import Callable

from ..core.errors import ReplicationError
from ..obs.metrics import REGISTRY
from ..obs.tracing import trace
from ..storage.backend import storage_path
from ..storage.faults import RealFS, StorageFS
from ..storage.framing import load_checkpoint, scan_log
from .channel import Channel, ChannelClosed
from .lease import FileLease
from .protocol import PROTOCOL_VERSION, Position

__all__ = ["ReplicationSource", "ReplicationServer", "SourceState"]

logger = logging.getLogger(__name__)

_SHIPPED = REGISTRY.counter(
    "repro_replication_shipped_records_total",
    "WAL records shipped to replicas",
)
_CHECKPOINT_SHIPS = REGISTRY.counter(
    "repro_replication_checkpoint_ships_total",
    "Full checkpoint ships (resync or post-checkpoint catch-up)",
)
_HANDSHAKES = REGISTRY.counter(
    "repro_replication_handshakes_total",
    "Replication handshakes served, by outcome",
    labelnames=("outcome",),
)
_CONNECTED = REGISTRY.gauge(
    "repro_replication_connected_replicas",
    "Replica connections currently being served",
)
_HEARTBEATS = REGISTRY.counter(
    "repro_replication_heartbeats_total",
    "Heartbeats sent to idle replicas",
)


@dataclass(frozen=True)
class SourceState:
    """One consistent view of the primary's durable history."""

    generation: int
    frames: tuple[bytes, ...]  #: newline-terminated framed WAL lines

    @property
    def position(self) -> Position:
        return Position(self.generation, len(self.frames))


class ReplicationSource:
    """Read-only access to the primary's durable WAL + checkpoint."""

    def __init__(
        self, path: str | Path, *, fs: StorageFS | None = None
    ) -> None:
        self.path = storage_path(path)
        self.checkpoint_path = self.path.with_suffix(
            self.path.suffix + ".checkpoint"
        )
        self.fs = fs or RealFS()
        self._cache_key: tuple[int, int] | None = None
        self._cache: SourceState | None = None
        self._lock = threading.Lock()

    def state(self) -> SourceState:
        """The current durable history (cached until the files change).

        Tolerates a concurrent writer: a torn trailing line is simply
        not part of the valid prefix yet and ships on the next poll.
        """
        with self._lock:
            cp_size = (
                self.fs.size(self.checkpoint_path)
                if self.fs.exists(self.checkpoint_path) else -1
            )
            wal_size = (
                self.fs.size(self.path) if self.fs.exists(self.path) else -1
            )
            key = (cp_size, wal_size)
            if self._cache is not None and key == self._cache_key:
                return self._cache
            _, generation = load_checkpoint(self.checkpoint_path, fs=self.fs)
            data = (
                self.fs.read_bytes(self.path) if wal_size >= 0 else b""
            )
            scan = scan_log(data)
            frames = tuple(
                r.line + b"\n"
                for r in scan.records
                if r.generation >= generation
            )
            self._cache = SourceState(generation=generation, frames=frames)
            self._cache_key = key
            return self._cache

    def checkpoint_state(self) -> tuple[dict | None, int]:
        """The full checkpoint document for a state ship."""
        return load_checkpoint(self.checkpoint_path, fs=self.fs)

    @staticmethod
    def prefix_crc(state: SourceState, index: int) -> int:
        """CRC-32 of the first ``index`` shipped frames — the prefix
        fingerprint replicas present at handshake."""
        crc = 0
        for frame in state.frames[:index]:
            crc = zlib.crc32(frame, crc)
        return crc & 0xFFFFFFFF


class ReplicationServer:
    """Accepts replicas and ships the WAL to each (one thread per peer)."""

    def __init__(
        self,
        source: ReplicationSource,
        *,
        lease: FileLease | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.05,
        heartbeat_interval: float = 1.0,
        channel_factory: Callable[[socket.socket], Channel] = Channel,
        send_timeout: float = 10.0,
    ) -> None:
        self.source = source
        self.lease = lease
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.channel_factory = channel_factory
        self.send_timeout = send_timeout
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._peers: dict[int, tuple[Channel, threading.Event]] = {}
        self._peers_lock = threading.Lock()
        self._peer_seq = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.lease.epoch or 0 if self.lease is not None else 0

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ReplicationError("replication server is not started")
        return self._listener.getsockname()[:2]

    @property
    def connected_replicas(self) -> int:
        with self._peers_lock:
            return len(self._peers)

    def start(self) -> "ReplicationServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-replication-accept",
            daemon=True,
        )
        self._accept_thread.start()
        logger.info(
            "replication listener on %s:%d (epoch %d)",
            *self.address, self.epoch,
        )
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        with self._peers_lock:
            peers = list(self._peers.values())
        for channel, wake in peers:
            wake.set()
            channel.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def notify(self) -> None:
        """Wake every shipper: new records were just committed."""
        with self._peers_lock:
            for _, wake in self._peers.values():
                wake.set()

    # -- internals ------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_peer, args=(conn,),
                name="repro-replication-shipper", daemon=True,
            ).start()

    def _register(self, channel: Channel) -> tuple[int, threading.Event]:
        wake = threading.Event()
        with self._peers_lock:
            self._peer_seq += 1
            peer_id = self._peer_seq
            self._peers[peer_id] = (channel, wake)
        _CONNECTED.set(self.connected_replicas)
        return peer_id, wake

    def _deregister(self, peer_id: int) -> None:
        with self._peers_lock:
            self._peers.pop(peer_id, None)
        _CONNECTED.set(self.connected_replicas)

    def _fenced(self, channel: Channel) -> bool:
        """True (and an error message sent) when our lease is gone."""
        if self.lease is None or self.lease.held():
            return False
        try:
            channel.send({
                "type": "error",
                "code": "lease-lost",
                "message": "primary lost its write lease; find the new "
                           "primary",
            })
        except (ReplicationError, OSError):  # pragma: no cover
            pass
        return True

    def _serve_peer(self, conn: socket.socket) -> None:
        channel = self.channel_factory(conn)
        peer_id, wake = self._register(channel)
        try:
            channel.settimeout(self.send_timeout)
            self._ship_to(channel, wake)
        except (ChannelClosed, ReplicationError, OSError) as exc:
            logger.info("replica connection ended: %s", exc)
        finally:
            self._deregister(peer_id)
            channel.close()

    def _ship_to(self, channel: Channel, wake: threading.Event) -> None:
        hello = channel.recv()
        if hello.get("type") != "hello" or \
                hello.get("protocol") != PROTOCOL_VERSION:
            _HANDSHAKES.labels(outcome="bad-hello").inc()
            channel.send({
                "type": "error", "code": "replication-protocol",
                "message": f"expected hello/v{PROTOCOL_VERSION}, got "
                           f"{hello.get('type')!r}/"
                           f"v{hello.get('protocol')!r}",
            })
            return
        if self._fenced(channel):
            # A fenced ex-primary must refuse the handshake: serving a
            # replica here could extend a superseded history.
            _HANDSHAKES.labels(outcome="fenced").inc()
            return
        epoch = self.epoch
        if int(hello.get("seen_epoch", 0)) > epoch:
            # The replica has synced from a *newer* primary than us.
            _HANDSHAKES.labels(outcome="stale-epoch").inc()
            channel.send({
                "type": "error", "code": "stale-epoch",
                "message": f"replica has seen epoch "
                           f"{hello.get('seen_epoch')}, ours is {epoch}",
            })
            return
        state = self.source.state()
        claimed = Position(
            int(hello.get("generation", 0)), int(hello.get("index", 0))
        )
        resume = (
            not hello.get("resync", False)
            and claimed.generation == state.generation
            and claimed.index <= len(state.frames)
            and int(hello.get("crc", -1))
            == self.source.prefix_crc(state, claimed.index)
        )
        _HANDSHAKES.labels(
            outcome="resume" if resume else "resync"
        ).inc()
        channel.send({
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "epoch": epoch,
            "position": str(state.position),
            "resume": resume,
        })
        if resume:
            generation, index = claimed.generation, claimed.index
        else:
            generation, index = self._ship_checkpoint(channel)
        last_beat = monotonic()
        while not self._stopping.is_set():
            if self._fenced(channel):
                return
            state = self.source.state()
            if state.generation != generation:
                # The primary checkpointed: its WAL restarted under a
                # new generation, so re-base the replica on the fresh
                # checkpoint (the records it missed are folded into it).
                generation, index = self._ship_checkpoint(channel)
                last_beat = monotonic()
                continue
            if len(state.frames) > index:
                batch = state.frames[index:]
                with trace.span(
                    "replication.ship", records=len(batch),
                    position=str(state.position),
                ):
                    channel.send({
                        "type": "records",
                        "generation": generation,
                        "from_index": index,
                        "frames": [
                            f.decode("utf-8").rstrip("\n") for f in batch
                        ],
                        "position": str(state.position),
                        "epoch": self.epoch,
                    })
                index = len(state.frames)
                _SHIPPED.inc(len(batch))
                last_beat = monotonic()
                continue
            now = monotonic()
            if now - last_beat >= self.heartbeat_interval:
                channel.send({
                    "type": "heartbeat",
                    "position": str(state.position),
                    "epoch": self.epoch,
                })
                _HEARTBEATS.inc()
                last_beat = now
            wake.wait(self.poll_interval)
            wake.clear()

    def _ship_checkpoint(self, channel: Channel) -> tuple[int, int]:
        cp_state, generation = self.source.checkpoint_state()
        with trace.span(
            "replication.checkpoint-ship", generation=generation
        ):
            channel.send({
                "type": "checkpoint",
                "generation": generation,
                "state": cp_state,
                "epoch": self.epoch,
                "position": str(Position(generation, 0)),
            })
        _CHECKPOINT_SHIPS.inc()
        return generation, 0
