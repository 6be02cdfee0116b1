"""``POST /v1/migrate`` and ``GET /v1/schema``: the declarative wire API."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.server import ObjectbaseService, make_server

TARGET = (
    "type T_person {\n"
    "    ne person.name as name;\n"
    "    ne person.age as age;\n"
    "}\n"
    "type T_student : T_person;\n"
)

LOSSY = "type T_person;\ntype T_student : T_person;\n"


class Client:
    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

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
        status, _, raw = self.request(method, path, body)
        return status, json.loads(raw)


@pytest.fixture
def served(tmp_path):
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


class TestSchemaEndpoint:
    def test_get_schema_text(self, served):
        store, _, client = served
        status, body = client.json(
            "POST", "/v1/migrate", {"schema": TARGET}
        )
        assert status == 200 and body["applied"]
        status, headers, raw = client.request("GET", "/v1/schema")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert headers["X-Schema-Generation"] == str(
            store.snapshot.generation
        )
        text = raw.decode()
        assert "type T_person {" in text
        assert "ne person.name as name;" in text

    def test_schema_body_printed_once_per_generation(
        self, served, monkeypatch
    ):
        import repro.ddl.printer as printer

        store, _, client = served
        client.json("POST", "/v1/migrate", {"schema": TARGET})
        printed = []
        real = printer.print_schema

        def counting(decl, *args, **kwargs):
            printed.append(decl)
            return real(decl, *args, **kwargs)

        monkeypatch.setattr(printer, "print_schema", counting)
        first = client.request("GET", "/v1/schema")
        second = client.request("GET", "/v1/schema")
        assert len(printed) == 1
        assert first[2] == second[2]
        assert first[2].decode() == real(printed[0])
        assert first[1]["X-Schema-Generation"] == second[1][
            "X-Schema-Generation"
        ]

        # A write publishes a new snapshot: the next GET prints again.
        client.json("POST", "/v1/migrate", {"schema": LOSSY, "lint": "off"})
        status, headers, raw = client.request("GET", "/v1/schema")
        assert status == 200 and len(printed) == 2
        assert raw != first[2]
        assert headers["X-Schema-Generation"] == str(
            store.snapshot.generation
        )
        assert "ne person.name" not in raw.decode()


class TestMigrateEndpoint:
    def test_migrate_and_idempotence(self, served):
        _, _, client = served
        status, body = client.json(
            "POST", "/v1/migrate", {"schema": TARGET}
        )
        assert status == 200
        assert body["applied"] is True and body["changed"] == 2
        assert [op["code"] for op in body["operations"]] == ["AT", "AT"]

        status, body = client.json(
            "POST", "/v1/migrate", {"schema": TARGET}
        )
        assert status == 200
        assert body["applied"] is False and body["operations"] == []

    def test_dry_run(self, served):
        store, _, client = served
        status, body = client.json(
            "POST", "/v1/migrate", {"schema": TARGET, "dry_run": True}
        )
        assert status == 200 and body["applied"] is False
        assert len(body["operations"]) == 2
        assert "T_person" not in store.snapshot.types()

    def test_lint_gate_rejects_lossy_at_warn(self, served):
        _, _, client = served
        client.json("POST", "/v1/migrate", {"schema": TARGET})
        status, body = client.json(
            "POST", "/v1/migrate", {"schema": LOSSY, "lint": "warn"}
        )
        assert status == 409
        assert body["error"]["code"] == "lint-rejected"
        rules = {d["rule"] for d in body["error"]["diagnostics"]}
        assert "lossy-property-drop" in rules

    def test_malformed_ddl_is_400(self, served):
        _, _, client = served
        status, body = client.json(
            "POST", "/v1/migrate", {"schema": "type {"}
        )
        assert status == 400
        assert body["error"]["code"] == "ddl-syntax"
        assert "line" in body["error"]["message"]

    def test_invalid_target_is_400(self, served):
        _, _, client = served
        status, body = client.json(
            "POST", "/v1/migrate", {"schema": "type T_object;"}
        )
        assert status == 400
        assert body["error"]["code"] == "ddl-invalid"

    def test_missing_schema_is_400(self, served):
        _, _, client = served
        status, body = client.json("POST", "/v1/migrate", {})
        assert status == 400

    def test_interference_rejected_with_stale_generation(self, served):
        store, _, client = served
        client.json("POST", "/v1/migrate", {"schema": TARGET})
        stale = store.snapshot.generation
        # another client adds a type the stale writer would drop
        status, _ = client.json(
            "POST", "/v1/migrate",
            {
                "schema": TARGET + "type T_staff : T_person;\n",
                "expect_generation": stale,
            },
        )
        assert status == 200
        status, body = client.json(
            "POST", "/v1/migrate",
            {"schema": TARGET, "expect_generation": stale},
        )
        assert status == 409
        assert body["error"]["code"] == "plan-interference"

    def test_current_generation_admits(self, served):
        store, _, client = served
        client.json("POST", "/v1/migrate", {"schema": TARGET})
        status, body = client.json(
            "POST", "/v1/migrate",
            {
                "schema": TARGET + "type T_staff : T_person;\n",
                "expect_generation": store.snapshot.generation,
            },
        )
        assert status == 200 and body["applied"]
