"""End-to-end tests for event ingestion over HTTP (PR 10).

Everything here runs the real stack — daemon thread, persistent
``http.client`` connection, the versioned request envelope — because
the acceptance bar for the ingestion layer is wire-level: replaying an
event log through ``/sessions/{name}/events`` must leave the session
serving a target byte-identical to a from-scratch chase of the log's
final snapshot, with out-of-order batches and corrections in the mix.
"""

import json

import pytest

from repro.concrete import c_chase
from repro.events import EventLog
from repro.serialize import concrete_instance_to_json, setting_to_json
from repro.server import ClientError, ServerClient, ServerThread
from repro.workloads import (
    exchange_setting_org,
    late_arrival_batches,
    org_event_mapping,
    org_event_stream,
    random_org_history,
)

ORG_SETTING_JSON = setting_to_json(exchange_setting_org())
MAPPING = org_event_mapping()
MAPPING_JSON = MAPPING.to_json()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    spool = tmp_path_factory.mktemp("spool")
    with ServerThread(snapshot_dir=str(spool)) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServerClient(port=server.port) as connection:
        yield connection


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def hire(eid, who, dept, point, **extra):
    return {
        "id": eid,
        "entity_id": who,
        "event_type": "created",
        "timestamp": point,
        "payload": {"type": "employee", "dept": dept},
        **extra,
    }


class TestEventIngestion:
    def test_late_arrival_stream_serves_cold_chase_target(self, client):
        """The acceptance bar: out-of-order batches + corrections over
        real HTTP end in a target byte-identical to a from-scratch
        chase of ``snapshot_at(now)``."""
        events = org_event_stream(people=14, timeline=48, seed=99)
        batches = late_arrival_batches(events, batches=4, late_fraction=0.3, seed=5)
        client.create("feed", ORG_SETTING_JSON, {"facts": []})
        saw_out_of_order = corrections = 0
        for number, batch in enumerate(batches):
            result = client.events(
                "feed", batch, mapping=MAPPING_JSON if number == 0 else None
            )
            saw_out_of_order += result["ingest"]["out_of_order"]
            corrections += result["ingest"]["corrections"]
        assert saw_out_of_order > 0, "workload must exercise late arrival"
        assert corrections > 0, "workload must exercise corrections"

        log = EventLog(MAPPING)
        log.ingest(events)
        cold = c_chase(log.snapshot_at(None), exchange_setting_org())
        assert canonical(client.target("feed")) == canonical(
            concrete_instance_to_json(cold.target)
        )
        info = client.info("feed")
        assert info["event_log"]["events"] == len(log)
        client.evict("feed")

    def test_first_batch_requires_mapping(self, client):
        client.create("bare", ORG_SETTING_JSON, {"facts": []})
        with pytest.raises(ClientError) as excinfo:
            client.events("bare", [hire("e1", "p1", "d1", 0)])
        assert excinfo.value.status == 400
        client.evict("bare")

    def test_mapping_conflict_is_409(self, client):
        client.create("conflict", ORG_SETTING_JSON, {"facts": []})
        client.events("conflict", [hire("e1", "p1", "d1", 0)], mapping=MAPPING_JSON)
        other = json.loads(json.dumps(MAPPING_JSON))
        other["entities"][0]["relation"] = "Division"
        with pytest.raises(ClientError) as excinfo:
            client.events("conflict", [], mapping=other)
        assert excinfo.value.status == 409
        # Repeating the same mapping verbatim is fine.
        client.events("conflict", [], mapping=MAPPING_JSON)
        client.evict("conflict")

    def test_bad_batch_leaves_session_untouched(self, client):
        client.create("atomic", ORG_SETTING_JSON, {"facts": []})
        client.events("atomic", [hire("e1", "p1", "d1", 0)], mapping=MAPPING_JSON)
        before_source = client.source("atomic")
        before_target = client.target("atomic")
        with pytest.raises(ClientError) as excinfo:
            client.events("atomic", [hire("e2", "p2", "d1", 1), {"id": "broken"}])
        assert excinfo.value.status == 400
        assert client.source("atomic") == before_source
        assert client.target("atomic") == before_target
        # The failed batch is not half-remembered: redelivery works.
        result = client.events("atomic", [hire("e2", "p2", "d1", 1)])
        assert result["ingest"]["accepted"] == 1
        client.evict("atomic")

    def test_noop_batch_skips_the_chase(self, client):
        client.create("noop", ORG_SETTING_JSON, {"facts": []})
        batch = [hire("e1", "p1", "d1", 0)]
        client.events("noop", batch, mapping=MAPPING_JSON)
        result = client.events("noop", batch)  # pure redelivery
        assert result["ingest"]["duplicates"] == 1
        assert result["chased"] is False
        assert result["diff"] == {"add": [], "remove": []}
        client.evict("noop")

    def test_snapshot_load_round_trip_carries_log(self, client):
        client.create("persist", ORG_SETTING_JSON, {"facts": []})
        client.events("persist", [hire("e1", "p1", "d1", 0)], mapping=MAPPING_JSON)
        client.snapshot("persist")
        client.evict("persist")
        client.load("persist")
        # No mapping needed: the log came back with the session.
        result = client.events("persist", [hire("e2", "p2", "d2", 3)])
        assert result["ingest"]["accepted"] == 1
        assert result["applied"]["add"] == 1
        client.evict("persist")


class TestEnvelope:
    def test_unknown_version_is_400(self, client):
        client.create("env", ORG_SETTING_JSON, {"facts": []})
        with pytest.raises(ClientError) as excinfo:
            client.request(
                "POST",
                "/sessions/env/delta",
                {"v": 2, "delta": {"add": [], "remove": []}},
            )
        assert excinfo.value.status == 400
        with pytest.raises(ClientError) as excinfo:
            client.request("POST", "/sessions", {"v": "1", "name": "x"})
        assert excinfo.value.status == 400
        client.evict("env")

    def test_versioned_delta_uses_canonical_codec(self, client):
        client.create("codec", ORG_SETTING_JSON, {"facts": []})
        fact = {
            "relation": "Emp",
            "data": [
                {"kind": "const", "value": "p1"},
                {"kind": "const", "value": "d1"},
            ],
            "interval": "[0, 5)",
        }
        result = client.delta("codec", add=[fact])
        assert set(result["diff"]) == {"add", "remove"}
        client.evict("codec")

    def test_bare_delta_body_is_a_400_naming_delta(self, client):
        """A body without ``v`` reads as v1, so the pre-envelope bare
        ``add``/``remove`` delta is rejected, never misread."""
        client.create("bare", ORG_SETTING_JSON, {"facts": []})
        before = canonical(client.source("bare"))
        fact = {
            "relation": "Emp",
            "data": [
                {"kind": "const", "value": "p9"},
                {"kind": "const", "value": "d9"},
            ],
            "interval": "[0, 5)",
        }
        with pytest.raises(ClientError) as excinfo:
            client.request(
                "POST", "/sessions/bare/delta", {"add": [fact], "remove": []}
            )
        assert excinfo.value.status == 400
        assert "'delta'" in str(excinfo.value)
        assert canonical(client.source("bare")) == before
        client.evict("bare")

    def test_unversioned_query_answers_as_v1(self, client):
        source = random_org_history(people=6, timeline=16, seed=2).instance
        client.create(
            "unversioned", ORG_SETTING_JSON, concrete_instance_to_json(source)
        )
        text = "answer(e, m) :- Reports(e, m)"
        bare = client.request(
            "POST", "/sessions/unversioned/query", {"query": text}
        )
        enveloped = client.query("unversioned", text)
        assert bare["answers"] == enveloped["answers"]
        assert bare["answers"]
        client.evict("unversioned")

    def test_version_two_is_still_a_400(self, client):
        client.create("v2", ORG_SETTING_JSON, {"facts": []})
        for path, fields in (
            ("/sessions/v2/query", {"query": "answer(e, m) :- Reports(e, m)"}),
            ("/sessions/v2/delta", {"delta": {"add": [], "remove": []}}),
        ):
            with pytest.raises(ClientError) as excinfo:
                client.request("POST", path, {"v": 2, **fields})
            assert excinfo.value.status == 400
            assert "unsupported protocol version 2" in str(excinfo.value)
        client.evict("v2")


class TestIngestFollowCLI:
    def test_follow_streams_batches_into_session(
        self, server, client, tmp_path, capsys
    ):
        from repro.cli import main

        events = org_event_stream(people=8, timeline=32, seed=13)
        stream = tmp_path / "events.jsonl"
        stream.write_text("\n".join(json.dumps(item) for item in events) + "\n")
        mapping_path = tmp_path / "mapping.json"
        mapping_path.write_text(json.dumps(MAPPING_JSON))

        client.create("cli-feed", ORG_SETTING_JSON, {"facts": []})
        code = main(
            [
                "ingest",
                "--events",
                str(stream),
                "--event-mapping",
                str(mapping_path),
                "--follow",
                "--session",
                "cli-feed",
                "--port",
                str(server.port),
                "--batch",
                "16",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "batch 0:" in captured.err and "pending" in captured.err
        info = json.loads(captured.out)
        assert info["event_log"]["events"] > 0

        log = EventLog(MAPPING)
        log.ingest(events)
        cold = c_chase(log.snapshot_at(None), exchange_setting_org())
        assert canonical(client.target("cli-feed")) == canonical(
            concrete_instance_to_json(cold.target)
        )
        client.evict("cli-feed")

    def test_follow_requires_session(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "events.jsonl"
        stream.write_text("")
        mapping_path = tmp_path / "mapping.json"
        mapping_path.write_text(json.dumps(MAPPING_JSON))
        with pytest.raises(SystemExit):
            main(
                [
                    "ingest",
                    "--events",
                    str(stream),
                    "--event-mapping",
                    str(mapping_path),
                    "--follow",
                ]
            )

    def test_unreachable_server_is_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "events.jsonl"
        stream.write_text(json.dumps(hire("e1", "p1", "d1", 0)) + "\n")
        mapping_path = tmp_path / "mapping.json"
        mapping_path.write_text(json.dumps(MAPPING_JSON))
        code = main(
            [
                "ingest",
                "--events",
                str(stream),
                "--event-mapping",
                str(mapping_path),
                "--follow",
                "--session",
                "ghost",
                "--port",
                "1",
            ]
        )
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err


class TestClientReconnect:
    def test_survives_daemon_restart_on_same_port(self):
        """GETs ride out a daemon restart — both over a stale keep-alive
        socket and on the first request after the client reconnected."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        client = ServerClient(port=port)
        with ServerThread(port=port):
            assert client.healthz()["status"] == "ok"
        # Daemon restarted; the client still holds the dead socket.
        with ServerThread(port=port):
            assert client.healthz()["status"] == "ok"
            client.close()
            # Fresh-connection GET after the restart also works.
            assert client.sessions() == []
        client.close()

    def test_retry_budget_per_method(self, monkeypatch):
        """Fresh-connection failures retry idempotent GETs (up to three
        attempts) but never blind-retry a fresh POST."""
        client = ServerClient(port=1)  # nothing listens here
        calls = []

        def always_down(method, path, payload):
            calls.append(method)
            raise ConnectionError("down")

        monkeypatch.setattr(client, "_request_once", always_down)

        with pytest.raises(ConnectionError):
            client.request("GET", "/healthz")
        assert calls == ["GET", "GET", "GET"]

        calls.clear()
        with pytest.raises(ConnectionError):
            client.request("POST", "/sessions", {"name": "x"})
        assert calls == ["POST"]

        # A reused keep-alive socket may die for any method: one
        # reconnect attempt is allowed before a POST gives up.
        calls.clear()

        class DeadSocket:
            def close(self):
                pass

        client._connection = DeadSocket()
        with pytest.raises(ConnectionError):
            client.request("POST", "/sessions", {"name": "x"})
        assert calls == ["POST", "POST"]
        client._connection = None
