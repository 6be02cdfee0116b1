"""The response path: one write per response, no delayed-ACK stall, and
the type list encoded once per published snapshot."""

from __future__ import annotations

import http.client
import json
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.core.operations import AddType, DropType
from repro.replication import ReplicaStore, ReplicationClient
from repro.server import ObjectbaseService, ReplicaService, _Handler, make_server
from repro.storage.framing import encode_frame


def at(name: str, supers=()) -> dict:
    return {
        "code": "AT", "name": name,
        "supertypes": list(supers), "properties": [],
    }


@contextmanager
def running(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def served(tmp_path):
    store = ConcurrentObjectbase.open(tmp_path / "schema.wal")
    with running(ObjectbaseService(store)) as server:
        yield store, server


def connect(server) -> http.client.HTTPConnection:
    """A keep-alive connection that leaves Nagle's algorithm on, as a
    client that never heard of TCP_NODELAY would."""
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10)


def exchange(conn, method: str, path: str, body=None):
    conn.request(
        method, path, body=None if body is None else json.dumps(body),
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


class TestNoDelayedAckStall:
    def test_keep_alive_p50_under_10ms(self, served):
        store, server = served
        conn = connect(server)
        try:
            assert exchange(conn, "POST", "/v1/apply", {"op": at("T_p")})[0] \
                == 200
            reads, writes = [], []
            for i in range(30):
                started = perf_counter()
                assert exchange(conn, "GET", "/v1/types/T_p")[0] == 200
                reads.append(perf_counter() - started)
                started = perf_counter()
                status, _ = exchange(
                    conn, "POST", "/v1/apply", {"op": at(f"T_{i}", ["T_p"])}
                )
                writes.append(perf_counter() - started)
                assert status == 200
        finally:
            conn.close()
        # The stall costs a delayed-ACK timeout (40 ms on Linux).
        assert statistics.median(reads) < 0.010
        assert statistics.median(writes) < 0.010


class Recorder:
    """Stands in for a handler's ``wfile`` and keeps every write."""

    def __init__(self, wfile, writes: list[bytes]) -> None:
        self._wfile = wfile
        self.writes = writes

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class TestOneWritePerResponse:
    @pytest.mark.parametrize("path, status", [
        ("/v1/types/T_p", 200),
        ("/v1/types", 200),
        ("/v1/nope", 404),
        ("/metrics", 200),
    ])
    def test_one_write(self, served, monkeypatch, path, status):
        writes: list[bytes] = []
        setup = _Handler.setup

        def recording_setup(handler) -> None:
            setup(handler)
            handler.wfile = Recorder(handler.wfile, writes)

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        _, server = served
        conn = connect(server)
        try:
            exchange(conn, "POST", "/v1/apply", {"op": at("T_p")})
            for _ in range(3):
                del writes[:]
                got, body = exchange(conn, "GET", path)
                assert got == status
                assert len(writes) == 1
                assert writes[0].startswith(b"HTTP/1.1 %d " % status)
                assert writes[0].endswith(b"\r\n\r\n" + body)
        finally:
            conn.close()


def encoded(snap) -> bytes:
    return json.dumps(
        {"types": sorted(snap.types()), "generation": snap.generation},
        sort_keys=True,
    ).encode("utf-8")


class TestTypeListBody:
    def test_primary_body_per_snapshot(self, served):
        store, server = served
        conn = connect(server)
        try:
            bodies = []
            for op in (None, AddType("T_a"), DropType("T_a")):
                if op is not None:
                    store.apply(op)
                status, body = exchange(conn, "GET", "/v1/types")
                assert status == 200
                assert body == encoded(store.snapshot)
                bodies.append(body)
        finally:
            conn.close()
        assert bodies[0] != bodies[1] != bodies[2]
        assert b'"T_a"' in bodies[1] and b'"T_a"' not in bodies[2]

    def test_encoded_once_per_snapshot(self, tmp_path):
        store = ConcurrentObjectbase.open(tmp_path / "schema.wal")
        service = ObjectbaseService(store)
        snap = store.snapshot
        assert service.list_types(snap) is service.list_types(snap)
        store.apply(AddType("T_a"))
        assert service.list_types(store.snapshot) == encoded(store.snapshot)
        assert service.list_types(snap) == encoded(snap)

    def test_replica_body_follows_applied_records(self, tmp_path):
        store = ReplicaStore(tmp_path / "r.wal")
        client = ReplicationClient(store, "127.0.0.1", 1)
        with running(ReplicaService(store, client)) as server:
            conn = connect(server)
            try:
                bodies = []
                for op in (None, AddType("T_a"), DropType("T_a")):
                    if op is not None:
                        pos = store.position
                        frame = encode_frame(
                            json.dumps(op.to_dict()), pos.generation
                        )
                        store.apply_records(
                            pos.generation, pos.index, [frame.decode("utf-8")]
                        )
                    status, body = exchange(conn, "GET", "/v1/types")
                    assert status == 200
                    assert body == encoded(store.snapshot)
                    bodies.append(body)
            finally:
                conn.close()
        assert bodies[0] != bodies[1] != bodies[2]
        assert b'"T_a"' in bodies[1] and b'"T_a"' not in bodies[2]
