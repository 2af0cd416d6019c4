"""Unit tests for the query-log persistence (repro.state)."""

import json
import pickle

import pytest

from repro.cli import main
from repro.query import ConjunctiveQuery, QueryLog, certain_answers_concrete
from repro.serialize import concrete_instance_to_json, setting_to_json
from repro.state import StateError, load_query_log, save_query_log
from repro.workloads import employment_setting, employment_source_concrete


class TestQueryLogRoundTrip:
    def test_absent_file_means_fresh_log(self, tmp_path):
        log = load_query_log(str(tmp_path / "missing.pkl"))
        assert isinstance(log, QueryLog)

    def test_round_trip(self, tmp_path):
        log = QueryLog()
        path = tmp_path / "log.pkl"
        save_query_log(str(path), log)
        assert isinstance(load_query_log(str(path)), QueryLog)

    def test_wrong_payload_type_is_a_state_error(self, tmp_path):
        path = tmp_path / "log.pkl"
        path.write_bytes(pickle.dumps({"not": "a log"}))
        with pytest.raises(StateError, match="query log"):
            load_query_log(str(path))

    def test_garbage_bytes_are_a_state_error(self, tmp_path):
        path = tmp_path / "log.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(StateError, match="cannot read query log"):
            load_query_log(str(path))


class TestCliServerLedgerParity:
    """The CLI persists its ledger through :mod:`repro.state`.

    A query driven through the CLI's ``--query-log`` flag and one driven
    through :mod:`repro.state` directly must produce identical ledger
    files.
    """

    def test_identical_ledger_files(self, tmp_path):
        mapping = tmp_path / "mapping.json"
        source = tmp_path / "source.json"
        mapping.write_text(json.dumps(setting_to_json(employment_setting())))
        source.write_text(
            json.dumps(concrete_instance_to_json(employment_source_concrete()))
        )
        rule = "q(n, s) :- Emp(n, c, s)"
        cli_log = tmp_path / "cli.pkl"
        code = main(
            [
                "query",
                "--mapping",
                str(mapping),
                "--source",
                str(source),
                "--query",
                rule,
                "--query-log",
                str(cli_log),
            ]
        )
        assert code == 0

        # Same inputs the CLI saw (through the JSON codec), answered
        # directly and persisted through repro.state.
        from repro.serialize import concrete_instance_from_json, setting_from_json

        direct_log = tmp_path / "direct.pkl"
        log = QueryLog()
        certain_answers_concrete(
            ConjunctiveQuery.parse(rule),
            concrete_instance_from_json(json.loads(source.read_text())),
            setting_from_json(json.loads(mapping.read_text())),
            log=log,
        )
        save_query_log(str(direct_log), log)

        assert cli_log.read_bytes() == direct_log.read_bytes()
