"""HTTP service tests: endpoints, status mapping, admission, recovery."""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.core.operations import operation_from_dict
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.server import ObjectbaseService, make_server, status_for


class Client:
    """Tiny urllib wrapper returning (status, headers, parsed body)."""

    def __init__(self, server):
        self.host, self.port = server.server_address[:2]
        self.base = f"http://{self.host}:{self.port}"

    def connection(self) -> http.client.HTTPConnection:
        """A keep-alive connection for tests that need one."""
        return http.client.HTTPConnection(self.host, self.port, timeout=10)

    def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def json(self, method: str, path: str, body=None):
        status, headers, raw = self.request(method, path, body)
        return status, json.loads(raw)


@pytest.fixture
def served(tmp_path):
    """A durable store served on an ephemeral port, torn down cleanly."""
    store = ConcurrentObjectbase.open(
        tmp_path / "schema.wal", lock_timeout=0.5
    )
    service = ObjectbaseService(store, max_inflight=4)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield store, service, Client(server)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def at(name: str, supers=()) -> dict:
    return {
        "code": "AT", "name": name,
        "supertypes": list(supers), "properties": [],
    }


class TestHealthAndMetrics:
    def test_healthz(self, served):
        _, _, client = served
        assert client.json("GET", "/healthz") == (200, {"status": "ok"})

    def test_readyz_ready(self, served):
        _, _, client = served
        assert client.json("GET", "/readyz") == (200, {"ready": True})

    def test_metrics_content_type_and_payload(self, served):
        _, _, client = served
        client.json("GET", "/healthz")
        status, headers, raw = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = raw.decode()
        assert "repro_degraded_mode" in text
        assert 'route="/healthz"' in text

    def test_unknown_route_404(self, served):
        _, _, client = served
        status, body = client.json("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_unsupported_method_405(self, served):
        _, _, client = served
        status, _ = client.json("DELETE", "/v1/types")
        assert status == 405


class TestReadsAndWrites:
    def test_apply_then_query(self, served):
        store, _, client = served
        status, body = client.json(
            "POST", "/v1/apply", {"op": at("T_person")}
        )
        assert (status, body) == (200, {"applied": "AT", "changed": True})
        status, body = client.json("GET", "/v1/types")
        assert status == 200
        assert "T_person" in body["types"]
        status, card = client.json("GET", "/v1/types/T_person")
        assert status == 200
        assert card["name"] == "T_person"
        assert "T_person" in store.types()

    def test_batch_is_atomic(self, served):
        _, _, client = served
        client.json("POST", "/v1/apply", {"op": at("T_person")})
        status, body = client.json("POST", "/v1/batch", {
            "operations": [
                at("T_student", ["T_person"]),
                at("T_student"),  # duplicate: the whole batch dies
            ],
        })
        assert status == 409
        assert body["error"]["code"] == "duplicate-type"
        status, body = client.json("GET", "/v1/types")
        assert "T_student" not in body["types"]

    def test_undo(self, served):
        _, _, client = served
        client.json("POST", "/v1/apply", {"op": at("T_person")})
        status, body = client.json("POST", "/v1/undo")
        assert (status, body) == (200, {"undone": "AT"})
        _, body = client.json("GET", "/v1/types")
        assert "T_person" not in body["types"]

    def test_undo_with_nothing_to_undo_is_409_nothing_to_undo(self, served):
        _, _, client = served
        status, body = client.json("POST", "/v1/undo")
        assert (status, body["error"]["code"]) == (409, "nothing-to-undo")
        client.json("POST", "/v1/apply", {"op": at("T_person")})
        assert client.json("POST", "/v1/undo")[0] == 200
        status, body = client.json("POST", "/v1/undo")
        assert (status, body["error"]["code"]) == (409, "nothing-to-undo")

    def test_error_taxonomy_mapping(self, served):
        _, _, client = served
        # 404: unknown type on read.
        status, body = client.json("GET", "/v1/types/T_missing")
        assert (status, body["error"]["code"]) == (404, "unknown-type")
        # 400: malformed operation.
        status, body = client.json("POST", "/v1/apply", {"op": {"code": "ZZ"}})
        assert status == 400
        # 400: malformed JSON.
        req = urllib.request.Request(
            client.base + "/v1/apply", data=b"{nope", method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
            body = json.loads(exc.read())
        assert status == 400
        assert body["error"]["code"] == "bad-json"
        # 409: well-formed but rejected by the schema.
        client.json("POST", "/v1/apply", {"op": at("T_a")})
        client.json("POST", "/v1/apply", {"op": at("T_b", ["T_a"])})
        status, body = client.json("POST", "/v1/apply", {"op": {
            "code": "MT-ASR", "subject": "T_a", "supertype": "T_b",
        }})
        assert (status, body["error"]["code"]) == (409, "cycle")

    def test_concurrent_clients_all_land(self, served):
        store, _, client = served
        errors: list = []

        def worker(w: int):
            for j in range(5):
                status, body = client.json(
                    "POST", "/v1/apply", {"op": at(f"T_w{w}_{j}")}
                )
                if status != 200:
                    errors.append((w, j, status, body))

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected = {f"T_w{w}_{j}" for w in range(4) for j in range(5)}
        assert expected <= store.types()


class TestBackpressure:
    def test_lock_timeout_maps_to_503_with_retry_after(self, served):
        store, _, client = served
        store._lock.acquire()  # a stuck writer holds the lock
        try:
            status, headers, raw = client.request(
                "POST", "/v1/apply", {"op": at("T_x")}
            )
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert json.loads(raw)["error"]["code"] == "lock-timeout"
        finally:
            store._lock.release()

    def test_admission_control_sheds_with_429(self, served):
        store, service, client = served
        store._lock.acquire()  # make admitted writes pile up
        results: list[int] = []
        lock = threading.Lock()

        def post():
            status, _, _ = client.request(
                "POST", "/v1/apply", {"op": at("T_y")}
            )
            with lock:
                results.append(status)

        threads = [
            threading.Thread(target=post)
            for _ in range(service.max_inflight + 3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store._lock.release()
        # Everyone beyond the admission bound was shed immediately; the
        # admitted ones timed out on the held lock (503) or, for the
        # first to run after release, may even succeed.
        assert results.count(429) >= 1
        assert all(s in (200, 409, 429, 503) for s in results)


class TestDegradedService:
    def test_degraded_store_returns_503_until_recover(self, served):
        store, _, client = served
        client.json("POST", "/v1/apply", {"op": at("T_person")})
        # Latch the store as the retry layer would on exhaustion.
        store._ob._journal.file.latch.trip("test-injected fault")
        try:
            status, body = client.json("GET", "/readyz")
            assert status == 503
            assert body["ready"] is False
            status, body = client.json(
                "POST", "/v1/apply", {"op": at("T_student")}
            )
            assert status == 503
            assert body["error"]["code"] == "degraded-mode"
            # Reads still serve the last consistent state.
            status, body = client.json("GET", "/v1/types")
            assert status == 200
            assert "T_person" in body["types"]
        finally:
            # Heal through the service, as an operator would.
            status, body = client.json("POST", "/v1/recover")
        assert status == 200
        assert body["degraded"] is False
        assert client.json("GET", "/readyz")[0] == 200
        status, _ = client.json("POST", "/v1/apply", {"op": at("T_student")})
        assert status == 200


class TestKeepAlive:
    """A connection stays in step whatever the previous answer was."""

    @pytest.mark.parametrize("method, path, shed, status", [
        ("POST", "/v1/nope", False, 404),
        ("POST", "/v1/apply", True, 429),
        ("PUT", "/v1/types", False, 405),
        ("DELETE", "/v1/types", False, 405),
    ])
    def test_unread_body_does_not_corrupt_next_request(
        self, served, method, path, shed, status
    ):
        _, service, client = served
        conn = client.connection()
        held = 0
        if shed:  # every write slot taken: the next write is shed
            while service.admit():
                held += 1
        try:
            conn.request(method, path, body=json.dumps({"op": at("T_z")}))
            resp = conn.getresponse()
            resp.read()
            assert resp.status == status
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) == (
                200, {"status": "ok"},
            )
        finally:
            for _ in range(held):
                service.release()
            conn.close()

    def test_invalid_content_length_is_400_and_closes(self, served):
        _, _, client = served
        conn = client.connection()
        try:
            conn.putrequest("POST", "/v1/apply")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert resp.will_close
        finally:
            conn.close()


class AdvancingStore:
    """A store that commits one more type after every ``snapshot`` read,
    as if a writer won every race against the reader."""

    def __init__(self, store: ConcurrentObjectbase) -> None:
        self._store = store
        self._reads = 0

    @property
    def snapshot(self):
        snap = self._store.snapshot
        self._reads += 1
        self._store.apply(operation_from_dict(at(f"T_race{self._reads}")))
        return snap

    def __getattr__(self, name):
        return getattr(self._store, name)


class TestOneSnapshotPerRead:
    def test_generation_header_matches_body(self, tmp_path):
        store = ConcurrentObjectbase.open(tmp_path / "schema.wal")
        server = make_server(ObjectbaseService(AdvancingStore(store)), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(server)
            for _ in range(3):
                status, headers, raw = client.request("GET", "/v1/types")
                body = json.loads(raw)
                assert status == 200
                assert headers["X-Schema-Generation"] == str(
                    body["generation"]
                )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestShutdown:
    def test_idle_connection_closed_and_inflight_write_drains(self, tmp_path):
        path = tmp_path / "schema.wal"
        store = ConcurrentObjectbase.open(path, lock_timeout=10)
        server = make_server(ObjectbaseService(store), port=0)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        client = Client(server)
        idle = client.connection()
        idle.request("GET", "/healthz")
        resp = idle.getresponse()
        resp.read()
        assert resp.status == 200 and not resp.will_close
        replies: list[int] = []

        def write() -> None:
            conn = client.connection()
            try:
                conn.request(
                    "POST", "/v1/apply", body=json.dumps({"op": at("T_late")})
                )
                resp = conn.getresponse()
                resp.read()
                replies.append(resp.status)
            finally:
                conn.close()

        def stop() -> None:
            server.shutdown()
            server.server_close()

        writer = threading.Thread(target=write)
        stopper = threading.Thread(target=stop)
        store._lock.acquire()  # the write waits on the lock: in flight
        try:
            writer.start()
            deadline = time.monotonic() + 5
            while store._lock.waiters == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert store._lock.waiters == 1
            started = time.monotonic()
            stopper.start()
            time.sleep(0.2)
            assert stopper.is_alive()  # draining the write in flight
        finally:
            store._lock.release()
        stopper.join(timeout=2)
        alive = stopper.is_alive()
        idle.close()  # lets a server that waits on it finish the test
        stopper.join(timeout=5)
        assert not alive
        assert time.monotonic() - started < 2
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert replies == [200]
        assert "T_late" in ConcurrentObjectbase.open(path).types()


class TestStatusFor:
    def test_unmapped_exception_is_500(self):
        assert status_for(RuntimeError("boom")) == 500
