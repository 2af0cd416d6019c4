"""Integration tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.abstract_view import semantics
from repro.cli import main
from repro.concrete import c_chase
from repro.query import ConjunctiveQuery
from repro.serialize import (
    concrete_instance_to_json,
    render_abstract_snapshots,
    setting_to_json,
)
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    exchange_setting_org,
    medical_conflicting_scenario,
    random_org_history,
)
from tests.oracles import query as scan_oracle
from tests.oracles.chase import per_region_chase, rescan_egd_rounds

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def mapping_file(tmp_path):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(setting_to_json(employment_setting())))
    return str(path)


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "source.json"
    path.write_text(
        json.dumps(concrete_instance_to_json(employment_source_concrete()))
    )
    return str(path)


class TestChaseCommand:
    def test_writes_solution(self, mapping_file, source_file, tmp_path, capsys):
        out = tmp_path / "solution.json"
        code = main(
            [
                "chase",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["facts"]) == 5  # Figure 9

    def test_pretty_prints_tables(self, mapping_file, source_file, capsys):
        code = main(
            ["chase", "--mapping", mapping_file, "--source", source_file, "--pretty"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Emp+" in output and "[2013, 2014)" in output

    def test_trace_flag(self, mapping_file, source_file, capsys):
        code = main(
            ["chase", "--mapping", mapping_file, "--source", source_file, "--trace"]
        )
        assert code == 0
        assert "chase steps" in capsys.readouterr().err

    def test_failure_exit_code(self, tmp_path, capsys):
        scenario = medical_conflicting_scenario()
        mapping = tmp_path / "m.json"
        mapping.write_text(json.dumps(setting_to_json(scenario.setting)))
        source = tmp_path / "s.json"
        source.write_text(
            json.dumps(concrete_instance_to_json(scenario.source))
        )
        code = main(
            ["chase", "--mapping", str(mapping), "--source", str(source)]
        )
        assert code == 1
        assert "chase failed" in capsys.readouterr().err

    def test_missing_file_exits(self, mapping_file):
        with pytest.raises(SystemExit):
            main(["chase", "--mapping", mapping_file, "--source", "/nope.json"])


class TestNormalizeCommand:
    def test_conjunction_normalization(self, mapping_file, source_file, capsys):
        code = main(
            ["normalize", "--mapping", mapping_file, "--source", source_file]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "5 facts -> 9 facts" in captured.err  # Figure 5
        assert len(json.loads(captured.out)["facts"]) == 9

    def test_naive_normalization(self, source_file, capsys):
        code = main(["normalize", "--naive", "--source", source_file])
        assert code == 0
        captured = capsys.readouterr()
        assert "5 facts -> 14 facts" in captured.err  # Figure 6

    def test_mapping_required_without_naive(self, source_file):
        with pytest.raises(SystemExit):
            main(["normalize", "--source", source_file])


class TestQueryCommand:
    def test_certain_answers(self, mapping_file, source_file, capsys):
        code = main(
            [
                "query",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--query",
                "q(n, s) :- Emp(n, c, s)",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "(Ada, 18k)" in output and "[2013, inf)" in output
        assert "(Bob, 13k)" in output

    def test_union_query(self, mapping_file, source_file, capsys):
        code = main(
            [
                "query",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--query",
                "q(n) :- Emp(n, 'IBM', s); q(n) :- Emp(n, 'Google', s)",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "(Ada)" in output and "(Bob)" in output

    QUERY = "q(n, s) :- Emp(n, c, s)"

    def _query(self, mapping_file, source_file, *extra):
        return main(
            [
                "query",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--query",
                self.QUERY,
                *extra,
            ]
        )

    def test_scan_engine_agrees(self, mapping_file, source_file, capsys):
        assert self._query(mapping_file, source_file) == 0
        indexed = capsys.readouterr().out
        solution = c_chase(employment_source_concrete(), employment_setting())
        answers = scan_oracle.naive_evaluate_concrete(
            ConjunctiveQuery.parse(self.QUERY), solution.unwrap()
        ).to_temporal()
        assert answers
        assert indexed == "".join(
            f"({', '.join(str(v) for v in row)})\t{support}\n"
            for row, support in answers
        )

    def test_incremental_replay_chain(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        log = str(tmp_path / "query.log")
        code = self._query(mapping_file, source_file, "--query-log", log)
        assert code == 0
        first = capsys.readouterr()
        assert "0 replayed" in first.err
        code = self._query(mapping_file, source_file, "--query-log", log)
        assert code == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "1 replayed, 0 evaluated" in second.err

    def test_corrupt_query_log_rejected(
        self, mapping_file, source_file, tmp_path
    ):
        log = tmp_path / "query.log"
        log.write_bytes(b"not a pickle")
        with pytest.raises(SystemExit):
            self._query(mapping_file, source_file, "--query-log", str(log))


class TestVerifyAndFigures:
    def test_verify_success(self, mapping_file, source_file, capsys):
        code = main(
            ["verify", "--mapping", mapping_file, "--source", source_file]
        )
        assert code == 0
        assert "correspondence holds" in capsys.readouterr().out

    def test_verify_reports_joint_failure(self, tmp_path, capsys):
        scenario = medical_conflicting_scenario()
        mapping = tmp_path / "m.json"
        mapping.write_text(json.dumps(setting_to_json(scenario.setting)))
        source = tmp_path / "s.json"
        source.write_text(json.dumps(concrete_instance_to_json(scenario.source)))
        code = main(["verify", "--mapping", str(mapping), "--source", str(source)])
        assert code == 0
        assert "both chases fail" in capsys.readouterr().out

    def test_figures_prints_everything(self, capsys):
        code = main(["figures"])
        assert code == 0
        output = capsys.readouterr().out
        for marker in [
            "Figure 1",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 9",
            "Figure 10",
            "holds: True",
        ]:
            assert marker in output


class TestEngineAndShardFlags:
    def test_chase_engine_rescan_matches_delta(
        self, mapping_file, source_file, tmp_path
    ):
        out_delta = tmp_path / "delta.json"
        out_rescan = tmp_path / "rescan.json"
        command = ["chase", "--mapping", mapping_file, "--source", source_file]
        assert main([*command, "--out", str(out_delta)]) == 0
        with rescan_egd_rounds():
            assert main([*command, "--out", str(out_rescan)]) == 0
        assert out_delta.read_text() == out_rescan.read_text()

    def test_verify_with_shards_prints_reports(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "verify",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--shards",
                "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "correspondence holds" in captured.out
        assert "shard 0:" in captured.err and "shard 1:" in captured.err

    def test_verify_engine_rescan(self, mapping_file, source_file, capsys):
        with rescan_egd_rounds():
            code = main(
                ["verify", "--mapping", mapping_file, "--source", source_file]
            )
        assert code == 0
        assert "correspondence holds" in capsys.readouterr().out


class TestSchedulerFlags:
    """--shards/--executor/--workers symmetric on chase/verify."""

    def test_chase_via_abstract_prints_snapshots(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "chase",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--via",
                "abstract",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Emp(Ada, IBM" in out

    def test_chase_via_abstract_incremental_matches_off(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "chase", "--mapping", mapping_file, "--source", source_file,
                "--via", "abstract",
            ]
        )
        assert code == 0
        from_scratch = per_region_chase(
            semantics(employment_source_concrete()), employment_setting()
        ).target
        points = sorted({t.interval.start for t in from_scratch.templates})
        assert capsys.readouterr().out == (
            render_abstract_snapshots(from_scratch, points) + "\n"
        )

    def test_chase_accepts_shards_and_executor(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "chase", "--mapping", mapping_file, "--source", source_file,
                "--via", "abstract", "--shards", "2", "--executor", "threads",
            ]
        )
        assert code == 0
        assert "shard 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chase", "verify"])
    def test_invalid_shards_fails_cleanly(
        self, command, mapping_file, source_file, capsys
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    command, "--mapping", mapping_file, "--source", source_file,
                    "--shards", "0",
                ]
            )
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_verify_accepts_executor_and_incremental(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "verify", "--mapping", mapping_file, "--source", source_file,
                "--shards", "2", "--executor", "threads",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "correspondence holds" in captured.out
        assert "shard 0:" in captured.err

    @pytest.mark.parametrize(
        "extra",
        [["--out", "x.json"], ["--pretty"], ["--coalesce"],
         ["--normalization", "naive"]],
    )
    def test_via_abstract_rejects_concrete_only_flags(
        self, extra, mapping_file, source_file
    ):
        with pytest.raises(SystemExit, match="concrete c-chase only"):
            main(
                [
                    "chase", "--mapping", mapping_file, "--source",
                    source_file, "--via", "abstract", *extra,
                ]
            )

    def test_concrete_chase_rejects_scheduler_flags(
        self, mapping_file, source_file
    ):
        with pytest.raises(SystemExit, match="add --via abstract"):
            main(
                [
                    "chase", "--mapping", mapping_file, "--source",
                    source_file, "--shards", "2",
                ]
            )


class TestBrokenPipe:
    def test_closed_reader_exits_141_without_traceback(self, tmp_path):
        # `repro chase … | head -1`: the reader leaves after one line of
        # an output (~270 kB) several times the pipe buffer.
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps(setting_to_json(exchange_setting_org())))
        source = tmp_path / "source.json"
        workload = random_org_history(people=160, timeline=64, seed=1)
        source.write_text(json.dumps(concrete_instance_to_json(workload.instance)))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "chase",
                "--mapping", str(mapping), "--source", str(source),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert process.stdout.readline() == b"{\n"
        process.stdout.close()
        stderr = process.stderr.read().decode()
        assert process.wait(timeout=120) == 141
        assert "Traceback" not in stderr
        process.stderr.close()


class TestIngestCommand:
    @pytest.fixture
    def event_files(self, tmp_path):
        from repro.workloads import org_event_mapping, org_event_stream

        events = org_event_stream(people=6, timeline=32, seed=4)
        stream = tmp_path / "events.jsonl"
        stream.write_text("\n".join(json.dumps(item) for item in events) + "\n")
        mapping = tmp_path / "event-mapping.json"
        mapping.write_text(json.dumps(org_event_mapping().to_json()))
        return str(stream), str(mapping)

    def test_snapshot_to_file(self, event_files, tmp_path, capsys):
        stream, mapping = event_files
        out = tmp_path / "snapshot.json"
        code = main(
            ["ingest", "--events", stream, "--event-mapping", mapping, "--out", str(out)]
        )
        assert code == 0
        assert "ingested" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["facts"]

    def test_snapshot_matches_library(self, event_files, tmp_path):
        from repro.events import EventLog, EventMapping

        stream, mapping = event_files
        out = tmp_path / "snapshot.json"
        assert (
            main(
                [
                    "ingest",
                    "--events",
                    stream,
                    "--event-mapping",
                    mapping,
                    "--at",
                    "12",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        log = EventLog(EventMapping.from_json(json.loads(open(mapping).read())))
        log.ingest(open(stream).read())
        expected = concrete_instance_to_json(log.snapshot_at(12))
        assert json.loads(out.read_text()) == expected

    def test_delta_between(self, event_files, capsys):
        stream, mapping = event_files
        code = main(
            [
                "ingest",
                "--events",
                stream,
                "--event-mapping",
                mapping,
                "--since",
                "8",
                "--until",
                "16",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"add", "remove"}

    def test_missing_events_file(self, event_files):
        _, mapping = event_files
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["ingest", "--events", "/no/such/file.jsonl", "--event-mapping", mapping]
            )
        assert "cannot read events" in str(excinfo.value)

    def test_stdin_input(self, event_files, capsys, monkeypatch, tmp_path):
        import io

        stream, mapping = event_files
        text = open(stream).read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out = tmp_path / "snapshot.json"
        code = main(
            ["ingest", "--events", "-", "--event-mapping", mapping, "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["facts"]
