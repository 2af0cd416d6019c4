"""End-to-end tests for the resident chase daemon (repro.server).

Every test runs the real HTTP stack — an in-process daemon on a
background event loop thread, the :class:`ServerClient` on a persistent
``http.client`` connection — so the wire format, the error mapping and
the session state machine are all exercised exactly as an operator
would hit them.
"""

import json
import logging
import pickle
import socket
import threading
from pathlib import Path

import pytest

from repro.abstract_view import abstract_chase, semantics
from repro.cli import main
from repro.concrete import ConcreteInstance, concrete_fact
from repro.query import ConjunctiveQuery
from repro.serialize import (
    concrete_fact_to_json,
    concrete_instance_from_json,
    concrete_instance_to_json,
    setting_to_json,
)
from repro.server import ClientError, ServerClient, ServerThread
from repro.server.sessions import _answers_to_json
from repro.temporal import interval
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    exchange_setting_org,
    org_event_mapping,
    random_org_history,
)
from tests.oracles import query as scan_oracle

ORG_SETTING_JSON = setting_to_json(exchange_setting_org())
ORG_FACTS = list(random_org_history(people=8, timeline=16, seed=11).instance)


def org_instance(count: int) -> ConcreteInstance:
    instance = ConcreteInstance()
    for fact in ORG_FACTS[:count]:
        instance.add(fact)
    return instance


def org_source_json(count: int) -> dict:
    return concrete_instance_to_json(org_instance(count))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    spool = tmp_path_factory.mktemp("spool")
    with ServerThread(snapshot_dir=str(spool)) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServerClient(port=server.port) as connection:
        yield connection


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestLifecycle:
    def test_health(self, client):
        assert client.healthz()["status"] == "ok"

    def test_create_and_info(self, client):
        result = client.create("life", ORG_SETTING_JSON, org_source_json(10))
        assert result["session"]["name"] == "life"
        assert result["session"]["target_facts"] > 0
        info = client.info("life")
        assert info["source_facts"] == 10
        client.evict("life")

    def test_create_twice_conflicts_without_replace(self, client):
        client.create("dup", ORG_SETTING_JSON, org_source_json(5))
        with pytest.raises(ClientError) as err:
            client.create("dup", ORG_SETTING_JSON, org_source_json(5))
        assert err.value.status == 409
        client.create("dup", ORG_SETTING_JSON, org_source_json(6), replace=True)
        assert client.info("dup")["source_facts"] == 6
        client.evict("dup")


class TestChurnByteIdentity:
    """The tentpole guarantee: a session maintained by deltas serves a
    target byte-identical to a from-scratch CLI chase of the cumulative
    source instance."""

    def test_delta_stream_matches_cold_cli_chase(self, client, tmp_path):
        initial = 10
        client.create("churn", ORG_SETTING_JSON, org_source_json(initial))
        count = initial
        for step in range(3):
            batch = [
                concrete_fact_to_json(fact)
                for fact in ORG_FACTS[count : count + 4]
            ]
            result = client.delta("churn", add=batch)
            count += 4
            assert result["source_facts"] == count
            # the diff is relative to the previous target, in the
            # canonical SourceDelta codec (versioned client)
            assert "add" in result["diff"] and "remove" in result["diff"]

        served = client.target("churn")

        mapping = tmp_path / "mapping.json"
        source = tmp_path / "source.json"
        out = tmp_path / "solution.json"
        mapping.write_text(json.dumps(ORG_SETTING_JSON))
        source.write_text(json.dumps(client.source("churn")))
        code = main(
            [
                "chase",
                "--mapping",
                str(mapping),
                "--source",
                str(source),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert canonical(json.loads(out.read_text())) == canonical(served)
        client.evict("churn")

    def test_removals_flow_through(self, client):
        client.create("shrink", ORG_SETTING_JSON, org_source_json(12))
        victim = concrete_fact_to_json(ORG_FACTS[3])
        result = client.delta("shrink", remove=[victim])
        assert result["source_facts"] == 11
        roundtrip = concrete_instance_from_json(client.source("shrink"))
        assert ORG_FACTS[3] not in roundtrip
        client.evict("shrink")

    def test_strict_delta_rejects_drift(self, client):
        client.create("strict", ORG_SETTING_JSON, org_source_json(8))
        present = concrete_fact_to_json(ORG_FACTS[0])
        absent = concrete_fact_to_json(ORG_FACTS[-1])
        with pytest.raises(ClientError) as err:
            client.delta("strict", add=[present])
        assert err.value.status == 400
        with pytest.raises(ClientError) as err:
            client.delta("strict", remove=[absent])
        assert err.value.status == 400
        # the failed delta must not have mutated the session
        assert client.info("strict")["source_facts"] == 8
        client.evict("strict")


class TestQueries:
    def test_query_answers_and_ledger_replay(self, client):
        client.create("q", ORG_SETTING_JSON, org_source_json(14))
        first = client.query("q", "answer(e, m) :- Reports(e, m)")
        assert first["answers"]
        assert first["evaluated"] >= 1
        again = client.query("q", "answer(e, m) :- Reports(e, m)")
        assert again["answers"] == first["answers"]
        assert again["replayed"] >= 1
        assert again["evaluated"] == 0
        client.evict("q")

    def test_union_query(self, client):
        client.create("u", ORG_SETTING_JSON, org_source_json(10))
        result = client.query(
            "u",
            "answer(e) :- Reports(e, m); answer(e) :- Log(e, t, s)",
        )
        assert result["answers"]
        client.evict("u")

    def test_scan_engine_agrees(self, client):
        client.create("eng", ORG_SETTING_JSON, org_source_json(10))
        text = "answer(e, m) :- Reports(e, m)"
        indexed = client.query("eng", text)
        target = concrete_instance_from_json(client.target("eng"))
        scan = scan_oracle.naive_evaluate_concrete(
            ConjunctiveQuery.parse(text), target
        ).to_temporal()
        assert indexed["answers"] == _answers_to_json(scan)
        assert "engine" not in indexed
        client.evict("eng")


class TestCache:
    def test_identical_create_is_a_cache_hit(self, client):
        source = org_source_json(9)
        first = client.create("cache-a", ORG_SETTING_JSON, source)
        second = client.create("cache-b", ORG_SETTING_JSON, source)
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["digest"] == second["digest"]
        assert canonical(client.target("cache-a")) == canonical(
            client.target("cache-b")
        )
        client.evict("cache-a")
        client.evict("cache-b")

    def test_cached_sessions_do_not_alias(self, client):
        source = org_source_json(7)
        client.create("alias-a", ORG_SETTING_JSON, source)
        client.create("alias-b", ORG_SETTING_JSON, source)
        batch = [concrete_fact_to_json(ORG_FACTS[7])]
        client.delta("alias-a", add=batch)
        # b's session must be untouched by a's delta
        assert client.info("alias-b")["source_facts"] == 7
        assert canonical(client.target("alias-a")) != canonical(
            client.target("alias-b")
        )
        client.evict("alias-a")
        client.evict("alias-b")


class TestWritePath:
    """A write chases directly: the cache serves creates only."""

    def test_delta_and_events_leave_the_cache_alone(self, client):
        client.create("write-path", ORG_SETTING_JSON, {"facts": []})
        before = client.stats()["cache"]
        delta = client.delta(
            "write-path", add=[concrete_fact_to_json(fact) for fact in ORG_FACTS[:6]]
        )
        hire = {
            "id": "e1",
            "entity_id": "p9",
            "event_type": "created",
            "timestamp": 0,
            "payload": {"type": "employee", "dept": "d1"},
        }
        events = client.events(
            "write-path", [hire], mapping=org_event_mapping().to_json()
        )
        assert events["chased"] is True
        after = client.stats()["cache"]
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
        info = client.info("write-path")
        for reply in (delta, events):
            assert reply["target_facts"] > 0
            assert reply["chase_steps"] > 0
            assert "digest" not in reply and "cached" not in reply
        assert events["target_facts"] == info["target_facts"]
        client.evict("write-path")

    def test_failing_delta_is_409_and_leaves_the_session(self, client):
        from repro.workloads import medical_conflicting_scenario

        scenario = medical_conflicting_scenario()
        conflict = concrete_fact("Diag", "alice", "flutter", interval=interval(5, 8))
        source = scenario.source.copy()
        assert source.discard(conflict)
        client.create(
            "ward",
            setting_to_json(scenario.setting),
            concrete_instance_to_json(source),
        )
        source_facts = client.info("ward")["source_facts"]
        target = client.target("ward")
        with pytest.raises(ClientError) as err:
            client.delta("ward", add=[concrete_fact_to_json(conflict)])
        assert err.value.status == 409
        assert client.info("ward")["source_facts"] == source_facts
        assert canonical(client.target("ward")) == canonical(target)

        # The next valid delta diffs against the pre-failure target.
        removal = concrete_fact("Diag", "alice", "arrhythmia", interval=interval(4, 10))
        reply = client.delta("ward", remove=[concrete_fact_to_json(removal)])
        served = {canonical(item) for item in target["facts"]}
        removed = {canonical(item) for item in reply["diff"]["remove"]}
        added = {canonical(item) for item in reply["diff"]["add"]}
        assert removed and removed <= served
        assert not added & (served - removed)
        after = {canonical(item) for item in client.target("ward")["facts"]}
        assert after == (served - removed) | added
        client.evict("ward")


class TestSnapshotEvictLoad:
    def test_round_trip_preserves_target_and_ledgers(self, client):
        client.create("snap", ORG_SETTING_JSON, org_source_json(11))
        client.delta("snap", add=[concrete_fact_to_json(ORG_FACTS[11])])
        client.query("snap", "answer(e, m) :- Reports(e, m)")
        before = client.target("snap")

        client.evict("snap", snapshot=True)
        assert "snap" not in [s["name"] for s in client.sessions()]

        client.load("snap")
        assert canonical(client.target("snap")) == canonical(before)
        # the reloaded query ledger still replays
        again = client.query("snap", "answer(e, m) :- Reports(e, m)")
        assert again["replayed"] >= 1
        # and deltas still apply to the reloaded session
        result = client.delta("snap", add=[concrete_fact_to_json(ORG_FACTS[12])])
        assert result["source_facts"] == 13
        client.evict("snap")

    def test_format_two_snapshot_is_refused(self, client):
        # Format 2 also pickled the c-chase's normalization replay
        # state, which format 3 dropped.
        client.create("old-format", ORG_SETTING_JSON, org_source_json(4))
        path = Path(client.snapshot("old-format")["path"])
        client.evict("old-format")
        snapshot = pickle.loads(path.read_bytes())
        snapshot.format = 2
        path.write_bytes(pickle.dumps(snapshot))
        with pytest.raises(ClientError) as err:
            client.load("old-format")
        assert err.value.status == 409
        assert "old-format" not in [s["name"] for s in client.sessions()]

    def test_load_unknown_is_404(self, client):
        with pytest.raises(ClientError) as err:
            client.load("never-snapshotted")
        assert err.value.status == 404


class TestErrorMapping:
    """Malformed requests are 4xx, never 5xx."""

    @pytest.mark.parametrize(
        "method,path,payload,expected",
        [
            ("GET", "/nope", None, 404),
            ("PUT", "/sessions", {}, 405),
            ("POST", "/sessions", {}, 400),
            ("POST", "/sessions", {"name": "x y", "setting": {}, "source": {}}, 400),
            ("POST", "/sessions", {"name": "ok", "setting": {"junk": 1}, "source": {}}, 400),
            ("POST", "/sessions/ghost/delta", {"delta": {"add": []}}, 404),
            ("GET", "/sessions/ghost", None, 404),
            ("POST", "/sessions/ghost/query", {"query": "x"}, 404),
            ("DELETE", "/sessions/ghost", None, 404),
        ],
    )
    def test_statuses(self, client, method, path, payload, expected):
        with pytest.raises(ClientError) as err:
            client.request(method, path, payload)
        assert err.value.status == expected

    def test_bad_fact_payload(self, client):
        client.create("facts", ORG_SETTING_JSON, org_source_json(5))
        with pytest.raises(ClientError) as err:
            client.delta("facts", add=[{"bogus": True}])
        assert err.value.status == 400
        assert "add[0]" in str(err.value)
        client.evict("facts")

    def test_bad_query_text(self, client):
        client.create("badq", ORG_SETTING_JSON, org_source_json(5))
        with pytest.raises(ClientError) as err:
            client.query("badq", "this is not a rule")
        assert 400 <= err.value.status < 500
        client.evict("badq")

    def test_invalid_json_body(self, server):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        connection.request(
            "POST",
            "/sessions",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        response.read()
        connection.close()

    def test_failing_chase_is_409(self, client):
        # The medical key EGD fails on conflicting treatments.
        from repro.workloads import medical_conflicting_scenario

        scenario = medical_conflicting_scenario()
        with pytest.raises(ClientError) as err:
            client.create(
                "doomed",
                setting_to_json(scenario.setting),
                concrete_instance_to_json(scenario.source),
            )
        assert err.value.status == 409


class TestHttpFraming:
    """Malformed framing answers a 4xx and closes the connection; the
    daemon keeps serving and nothing escapes to the event loop."""

    @pytest.mark.parametrize(
        "head,status",
        [
            (b"POST /sessions HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
        ],
        ids=["negative-length", "long-request-line", "long-header-line", "101-headers"],
    )
    def test_framing_error_answers_and_closes(self, server, caplog, head, status):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(head)
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
            assert reply.startswith(f"HTTP/1.1 {status} ".encode())
            with ServerClient(port=server.port) as client:
                assert client.healthz()["status"] == "ok"
        assert "Unhandled exception" not in caplog.text

    def test_hundred_headers_are_served(self, server):
        head = b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 100 + b"\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(head)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")


class TestAbstract:
    def test_sharded_abstract_chase(self, client):
        client.create("abs", ORG_SETTING_JSON, org_source_json(12))
        result = client.abstract("abs", shards=2)
        assert result["regions"] > 0
        assert result["templates"] > 0
        assert len(result["shards"]) == 2
        client.evict("abs")

    def test_worker_death_fails_one_request_not_the_pool(self, monkeypatch):
        with ServerThread(workers=2) as server, ServerClient(port=server.port) as client:
            client.create("crash", ORG_SETTING_JSON, org_source_json(12))
            # Workers inherit the hook when they fork: the next pool has it.
            monkeypatch.setenv("REPRO_SHARD_CRASH", "1")
            server.manager.close()
            with pytest.raises(ClientError) as err:
                client.abstract("crash", shards=2, executor="processes")
            assert err.value.status == 500
            assert "worker process died" in str(err.value)

            monkeypatch.delenv("REPRO_SHARD_CRASH")
            served = client.abstract("crash", shards=2, executor="processes")
        expected = abstract_chase(
            semantics(org_instance(12)), exchange_setting_org(), shards=2
        )
        totals = expected.reuse_totals()
        assert (
            served["regions"],
            served["templates"],
            served["replayed_matches"],
            served["live_matches"],
        ) == (
            len(expected.region_results),
            len(expected.unwrap().templates),
            totals.replayed_matches,
            totals.live_matches,
        )
        assert all(shard["remote"] for shard in served["shards"])


class TestConcurrency:
    def test_concurrent_sessions_make_progress(self, server):
        names = [f"conc-{index}" for index in range(4)]
        errors: list[BaseException] = []

        def worker(name: str, offset: int) -> None:
            try:
                with ServerClient(port=server.port) as mine:
                    mine.create(
                        name, ORG_SETTING_JSON, org_source_json(6 + offset)
                    )
                    for step in range(2):
                        fact = concrete_fact_to_json(
                            ORG_FACTS[6 + offset + step]
                        )
                        mine.delta(name, add=[fact])
                    answers = mine.query(
                        name, "answer(e, m) :- Reports(e, m)"
                    )
                    assert "answers" in answers
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name, index))
            for index, name in enumerate(names)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors

        with ServerClient(port=server.port) as check:
            live = {s["name"] for s in check.sessions()}
            assert set(names) <= live
            for index, name in enumerate(names):
                assert check.info(name)["source_facts"] == 8 + index
                check.evict(name)


class TestEmploymentWorkload:
    """A second mapping through the same daemon (schema independence)."""

    def test_figure9_served(self, client):
        client.create(
            "emp",
            setting_to_json(employment_setting()),
            concrete_instance_to_json(employment_source_concrete()),
        )
        target = client.target("emp")
        assert len(target["facts"]) == 5  # Figure 9
        client.evict("emp")
