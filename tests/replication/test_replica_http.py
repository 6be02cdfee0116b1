"""The HTTP faces of replication: replica reads, 503 writes, readiness.

Covers the satellite contract too: ``/readyz`` reports structured JSON
reasons (degraded, draining, replica-too-stale, replica-syncing) and
every 503 — whatever produced it — carries ``Retry-After``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.core.operations import AddType
from repro.replication import (
    ReplicaStore,
    ReplicationClient,
    ReplicationServer,
    ReplicationSource,
)
from repro.server import (
    ObjectbaseService,
    ReplicaService,
    make_server,
    status_for,
)
from repro.storage.reliability import RetryPolicy



@pytest.fixture
def http():
    """Start a server for a service; yields a request helper."""
    servers = []

    def start(service):
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        host, port = server.server_address[:2]

        def request(method, path, body=None):
            req = urllib.request.Request(
                f"http://{host}:{port}{path}",
                method=method,
                data=json.dumps(body).encode() if body is not None else None,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req, timeout=10) as resp:
                    return resp.status, dict(resp.headers), resp.read()
            except urllib.error.HTTPError as exc:
                return exc.code, dict(exc.headers), exc.read()

        return request

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def make_replica_service(tmp_path, max_staleness=None):
    """A ReplicaService over an unstarted client (state driven by hand)."""
    store = ReplicaStore(tmp_path / "r.wal")
    clock = [1000.0]
    client = ReplicationClient(
        store, "127.0.0.1", 1, max_staleness=max_staleness,
        clock=lambda: clock[0],
    )
    return ReplicaService(store, client), store, client, clock


class TestReadyzReasons:
    def test_ready_body_is_exact(self, tmp_path, http):
        store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        request = http(ObjectbaseService(store))
        status, _, body = request("GET", "/readyz")
        assert status == 200
        assert json.loads(body) == {"ready": True}

    def test_draining_reason(self, tmp_path, http):
        store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        service = ObjectbaseService(store)
        request = http(service)
        service.draining = True
        status, headers, body = request("GET", "/readyz")
        assert status == 503
        payload = json.loads(body)
        assert payload["ready"] is False
        assert [r["code"] for r in payload["reasons"]] == ["draining"]
        assert payload["reason"]  # legacy single-string field survives
        assert headers.get("Retry-After") == "1"

    def test_replica_syncing_reason(self, tmp_path, http):
        service, _, client, _ = make_replica_service(tmp_path)
        request = http(service)
        status, headers, body = request("GET", "/readyz")
        assert status == 503
        payload = json.loads(body)
        assert [r["code"] for r in payload["reasons"]] == ["replica-syncing"]
        assert headers.get("Retry-After") == "1"
        # First completed handshake flips it ready.
        client.synced = True
        status, _, body = request("GET", "/readyz")
        assert status == 200
        assert json.loads(body) == {"ready": True}

    def test_replica_too_stale_reason(self, tmp_path, http):
        service, _, client, clock = make_replica_service(
            tmp_path, max_staleness=5.0
        )
        request = http(service)
        client.synced = True
        client.last_contact = clock[0]
        status, _, _ = request("GET", "/readyz")
        assert status == 200
        clock[0] += 5.1  # silence beyond the bound
        status, headers, body = request("GET", "/readyz")
        assert status == 503
        payload = json.loads(body)
        assert [r["code"] for r in payload["reasons"]] == [
            "replica-too-stale"
        ]
        assert headers.get("Retry-After") == "1"
        # Healing requires actual contact, not time passing.
        client.last_contact = clock[0]
        status, _, _ = request("GET", "/readyz")
        assert status == 200

    def test_reasons_stack(self, tmp_path, http):
        service, _, client, clock = make_replica_service(
            tmp_path, max_staleness=5.0
        )
        service.draining = True
        clock[0] += 99.0  # never contacted: infinitely stale
        request = http(service)
        status, _, body = request("GET", "/readyz")
        assert status == 503
        codes = [r["code"] for r in json.loads(body)["reasons"]]
        assert codes == ["draining", "replica-too-stale"]


class TestReplicaWrites:
    @pytest.mark.parametrize("path,body", [
        ("/v1/apply", {"op": {"code": "AT", "name": "T_x"}}),
        ("/v1/batch", {"operations": []}),
        ("/v1/migrate", {"schema": ""}),
        ("/v1/undo", {}),
        ("/v1/recover", {}),
    ])
    def test_writes_refused_with_the_primary_address(
        self, tmp_path, http, path, body
    ):
        service, store, _, _ = make_replica_service(tmp_path)
        request = http(service)
        status, headers, raw = request("POST", path, body)
        assert status == 503
        error = json.loads(raw)["error"]
        assert error["code"] == "read-only-replica"
        assert "tcp://127.0.0.1:1" in error["message"]
        assert headers.get("Retry-After") == "1"
        assert store.types() - {"T_object", "T_null"} == set()


class TestReadHeaders:
    def test_replica_headers_track_the_durable_position(
        self, tmp_path, http
    ):
        service, _, client, _ = make_replica_service(tmp_path)
        request = http(service)
        _, headers, _ = request("GET", "/v1/types")
        assert headers.get("X-Schema-Generation") == "0:0"
        assert headers.get("X-Replica-Lag") == "unknown"
        # schema route serves the replica's headers too
        _, headers, _ = request("GET", "/v1/schema")
        assert headers.get("X-Schema-Generation") == "0:0"

    def test_primary_headers_carry_the_generation(self, tmp_path, http):
        store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        request = http(ObjectbaseService(store))
        _, headers, _ = request("GET", "/v1/types")
        assert headers.get("X-Schema-Generation") == str(
            store.snapshot.generation
        )
        assert "X-Replica-Lag" not in headers


class TestReplicationStatusRoute:
    def test_standalone(self, tmp_path, http):
        store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        request = http(ObjectbaseService(store))
        status, _, body = request("GET", "/v1/replication")
        assert status == 200
        assert json.loads(body) == {"role": "standalone"}

    def test_replica(self, tmp_path, http):
        service, _, _, _ = make_replica_service(tmp_path)
        request = http(service)
        status, _, body = request("GET", "/v1/replication")
        payload = json.loads(body)
        assert payload["role"] == "replica"
        assert payload["primary"] == "tcp://127.0.0.1:1"
        assert payload["position"] == "0:0"
        assert payload["synced"] is False


class TestFullTopology:
    """Primary HTTP + shipping + replica HTTP, all in-process."""

    def test_write_on_primary_becomes_readable_on_replica(
        self, tmp_path, http
    ):
        primary_store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        hub = ReplicationServer(
            ReplicationSource(tmp_path / "p.wal"),
            poll_interval=0.01, heartbeat_interval=0.05,
        ).start()
        primary_service = ObjectbaseService(primary_store)
        primary_service.replication = hub
        primary = http(primary_service)

        replica_store = ReplicaStore(tmp_path / "r.wal")
        host, port = hub.address
        client = ReplicationClient(
            replica_store, host, port,
            retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05),
            max_staleness=30.0,
        )
        client.start()
        replica = http(ReplicaService(replica_store, client))
        try:
            status, _, _ = primary(
                "POST", "/v1/apply", {"op": {"code": "AT", "name": "T_ship"}}
            )
            assert status == 200

            deadline = time.time() + 10.0
            while time.time() < deadline:
                status, headers, body = replica("GET", "/v1/types")
                if (
                    status == 200
                    and "T_ship" in json.loads(body)["types"]
                    and headers.get("X-Replica-Lag") == "0"
                ):
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("replica never served the write")

            # The primary-side status reflects the connection.
            status, _, body = primary("GET", "/v1/replication")
            payload = json.loads(body)
            assert payload["role"] == "primary"
            assert payload["connected_replicas"] == 1
        finally:
            client.stop()
            hub.stop()


class TestStatusMapping:
    def test_replication_errors_map_to_503(self):
        from repro.core.errors import (
            LeaseLostError,
            ReadOnlyReplicaError,
        )

        assert status_for(ReadOnlyReplicaError("tcp://x:1")) == 503
        assert status_for(LeaseLostError("superseded")) == 503
