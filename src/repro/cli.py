"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``chase``      — run the c-chase on a source instance and a mapping;
* ``normalize``  — normalize an instance w.r.t. a mapping's lhs sets;
* ``query``      — certain answers for a conjunctive query;
* ``verify``     — check the Figure 10 correspondence on an input;
* ``figures``    — print every regenerated figure of the paper;
* ``serve``      — run the resident chase daemon (chase-as-a-service);
* ``client``     — talk to a running daemon (create/delta/query/…);
* ``ingest``     — compile a JSON-lines event log into a source
  instance or delta, or follow it into a server session.

Instances and mappings travel as JSON in the :mod:`repro.serialize`
format.  Exit status: 0 on success, 1 on chase failure (no solution),
2 on bad input, 141 when the reader of standard output goes away (the
shell's SIGPIPE status, e.g. ``repro chase … --pretty | head -1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.concrete import c_chase, naive_normalize, normalize
from repro.correspondence import verify_correspondence
from repro.errors import ReproError
from repro.query import (
    ConjunctiveQuery,
    QueryLog,
    UnionQuery,
    certain_answers_concrete,
)
from repro.serialize import (
    concrete_instance_from_json,
    concrete_instance_to_json,
    render_concrete_instance,
    setting_from_json,
)
from repro.state import StateError, load_query_log, save_query_log

__all__ = ["main", "build_parser"]


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read JSON from {path}: {exc}") from exc


def _load_instance(path: str):
    return concrete_instance_from_json(_load_json(path))


def _load_setting(path: str):
    return setting_from_json(_load_json(path))


# The query-log round-trip lives in repro.state; the CLI's only added
# behavior is turning a StateError into the usual SystemExit.


def _load_query_log(path: str) -> QueryLog:
    try:
        return load_query_log(path)
    except StateError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _save_query_log(path: str, log: QueryLog) -> None:
    try:
        save_query_log(path, log)
    except StateError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _write_instance(instance, out: str | None, pretty: bool) -> None:
    payload = json.dumps(concrete_instance_to_json(instance), indent=2)
    if out:
        Path(out).write_text(payload + "\n")
    elif pretty:
        print(render_concrete_instance(instance))
    else:
        print(payload)


def _print_shard_reports(abstract_result) -> None:
    for shard in abstract_result.shard_reports:
        reuse = ""
        if shard.reuse is not None:
            total = shard.reuse.replayed_matches + shard.reuse.live_matches
            if total:
                percent = 100.0 * shard.reuse.replayed_matches / total
                reuse = f", {percent:.0f}% replayed"
        print(
            f"shard {shard.shard}: {shard.regions} regions, "
            f"{shard.seconds * 1000:.2f} ms{reuse}",
            file=sys.stderr,
        )


def _cmd_chase(args: argparse.Namespace) -> int:
    setting = _load_setting(args.mapping)
    source = _load_instance(args.source)
    if args.via == "abstract":
        from repro.abstract_view import abstract_chase, semantics
        from repro.serialize import render_abstract_snapshots

        for flag, given in (
            ("--out", bool(args.out)),
            ("--pretty", args.pretty),
            ("--coalesce", args.coalesce),
            ("--normalization", args.normalization != "conjunction"),
        ):
            if given:
                raise SystemExit(
                    f"error: {flag} applies to the concrete c-chase only; "
                    "the abstract chase result is printed as snapshot tables"
                )
        abstract_result = abstract_chase(
            semantics(source),
            setting,
            variant=args.variant,
            shards=args.shards,
            executor=args.executor,
            workers=args.workers,
        )
        if args.shards > 1:
            _print_shard_reports(abstract_result)
        if abstract_result.error is not None:
            # A region chase raised: surface shard + region + cause, not
            # a bogus "chase failed" verdict.
            raise abstract_result.error
        if abstract_result.failed:
            print(f"chase failed: {abstract_result.failure}", file=sys.stderr)
            return 1
        target = abstract_result.unwrap()
        points = sorted(
            {template.interval.start for template in target.templates}
        )
        print(render_abstract_snapshots(target, points))
        if args.trace:
            steps = sum(
                len(result.trace)
                for result in abstract_result.region_results.values()
            )
            print(f"-- {steps} chase steps across regions --", file=sys.stderr)
        return 0
    for flag, given in (
        ("--shards", args.shards != 1),
        ("--executor", args.executor != "serial"),
        ("--workers", args.workers is not None),
    ):
        if given:
            raise SystemExit(
                f"error: {flag} configures the abstract chase's region "
                "scheduler; add --via abstract to use it"
            )
    result = c_chase(
        source,
        setting,
        normalization=args.normalization,
        variant=args.variant,
        coalesce_result=args.coalesce,
    )
    if result.failed:
        print(f"chase failed: {result.failure}", file=sys.stderr)
        return 1
    _write_instance(result.target, args.out, args.pretty)
    if args.trace:
        print(f"-- {len(result.trace)} chase steps --", file=sys.stderr)
        for step in result.trace.steps:
            print(f"   {step}", file=sys.stderr)
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    source = _load_instance(args.source)
    if args.naive:
        normalized = naive_normalize(source)
    else:
        setting = _load_setting(args.mapping)
        conjunctions = (
            setting.lifted_egd_lhs_conjunctions()
            if args.phase == "egd"
            else setting.lifted_st_lhs_conjunctions()
        )
        normalized = normalize(source, conjunctions)
    _write_instance(normalized, args.out, args.pretty)
    print(
        f"{len(source)} facts -> {len(normalized)} facts",
        file=sys.stderr,
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    setting = _load_setting(args.mapping)
    source = _load_instance(args.source)
    rules = [rule for rule in args.query.split(";") if rule.strip()]
    query: ConjunctiveQuery | UnionQuery
    if len(rules) == 1:
        query = ConjunctiveQuery.parse(rules[0])
    else:
        query = UnionQuery.of(*rules)
    log = _load_query_log(args.query_log) if args.query_log else None
    mark = log.answers.counters() if log is not None else None
    answers = certain_answers_concrete(query, source, setting, log=log)
    if log is not None:
        _save_query_log(args.query_log, log)
        # The ledger's counters are cumulative across the pickled chain;
        # report this run's share only.
        replayed, evaluated = log.answers.delta_since(mark)
        print(
            f"query log: {replayed} replayed, {evaluated} evaluated",
            file=sys.stderr,
        )
    for row, support in answers:
        values = ", ".join(str(v) for v in row)
        print(f"({values})\t{support}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    setting = _load_setting(args.mapping)
    source = _load_instance(args.source)
    report = verify_correspondence(
        source,
        setting,
        shards=args.shards,
        executor=args.executor,
        workers=args.workers,
    )
    if args.shards > 1:
        _print_shard_reports(report.abstract_result)
    if report.both_failed:
        print("both chases fail: no solution exists (square commutes)")
        return 0
    if report.holds:
        print("correspondence holds: ⟦c-chase(Ic)⟧ ∼ chase(⟦Ic⟧)")
        return 0
    print("CORRESPONDENCE VIOLATION — this is a bug, please report it")
    return 1


def _cmd_figures(_args: argparse.Namespace) -> int:
    from repro.abstract_view import abstract_chase, semantics
    from repro.serialize import render_abstract_snapshots
    from repro.workloads import (
        algorithm1_example_conjunctions,
        algorithm1_example_instance,
        employment_setting,
        employment_source_concrete,
        salary_conjunction,
    )

    setting = employment_setting()
    source = employment_source_concrete()
    print("== Figure 1: abstract snapshots of ⟦Ic⟧ ==")
    print(render_abstract_snapshots(semantics(source), range(2012, 2019)))
    print("\n== Figure 4: concrete source instance Ic ==")
    print(render_concrete_instance(source, setting.lifted_source_schema()))
    print("\n== Figure 5: Algorithm 1 normalization ==")
    print(
        render_concrete_instance(
            normalize(source, [salary_conjunction()]),
            setting.lifted_source_schema(),
        )
    )
    print("\n== Figure 6: naive normalization ==")
    print(
        render_concrete_instance(
            naive_normalize(source), setting.lifted_source_schema()
        )
    )
    print("\n== Figures 7/8: Example 14 ==")
    example = algorithm1_example_instance()
    print(render_concrete_instance(example))
    print("   -- normalizes to --")
    print(
        render_concrete_instance(
            normalize(example, algorithm1_example_conjunctions())
        )
    )
    print("\n== Figure 9: c-chase(Ic) ==")
    result = c_chase(source, setting)
    print(render_concrete_instance(result.target, setting.lifted_target_schema()))
    print("\n== Figure 3: chase(⟦Ic⟧) snapshots ==")
    print(
        render_abstract_snapshots(
            abstract_chase(semantics(source), setting).unwrap(),
            range(2012, 2019),
        )
    )
    print("\n== Figure 10: correspondence ==")
    print("holds:", verify_correspondence(source, setting).holds)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import serve

    serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        snapshot_dir=args.snapshot_dir,
        cache_entries=args.cache_entries,
    )
    return 0


def _load_fact_list(path: str | None, flag: str) -> list:
    if path is None:
        return []
    payload = _load_json(path)
    if not isinstance(payload, list):
        raise SystemExit(f"error: {flag} file must hold a JSON list of facts")
    return payload


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.server import ClientError, ServerClient

    def need_session() -> str:
        if not args.session:
            raise SystemExit(f"error: client {args.action} requires --session NAME")
        return args.session

    client = ServerClient(host=args.host, port=args.port)
    try:
        if args.action == "health":
            result = client.healthz()
        elif args.action == "stats":
            result = client.stats()
        elif args.action == "sessions":
            result = {"sessions": client.sessions()}
        elif args.action == "create":
            if not args.mapping or not args.source:
                raise SystemExit(
                    "error: client create requires --mapping and --source"
                )
            result = client.create(
                need_session(),
                _load_json(args.mapping),
                _load_json(args.source),
                replace=args.replace,
            )
        elif args.action == "delta":
            if not args.add and not args.remove:
                raise SystemExit(
                    "error: client delta requires --add and/or --remove "
                    "(JSON files holding fact lists)"
                )
            result = client.delta(
                need_session(),
                add=_load_fact_list(args.add, "--add"),
                remove=_load_fact_list(args.remove, "--remove"),
            )
        elif args.action == "query":
            if not args.query:
                raise SystemExit("error: client query requires --query RULE")
            result = client.query(need_session(), args.query)
        elif args.action in ("target", "source"):
            getter = client.target if args.action == "target" else client.source
            payload = getter(need_session())
            if args.pretty:
                print(render_concrete_instance(
                    concrete_instance_from_json(payload)
                ))
                return 0
            result = payload
        elif args.action == "info":
            result = client.info(need_session())
        elif args.action == "snapshot":
            result = client.snapshot(need_session())
        elif args.action == "load":
            result = client.load(need_session())
        elif args.action == "evict":
            result = client.evict(need_session(), snapshot=args.snapshot)
        else:  # pragma: no cover - argparse restricts the choices
            raise SystemExit(f"error: unknown client action {args.action!r}")
    except ClientError as exc:
        print(f"error: server returned {exc.status}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            f"error: cannot reach server at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    finally:
        client.close()
    print(json.dumps(result, indent=2))
    return 0


def _when(value: str | None) -> "int | str | None":
    """Parse a ``--at``/``--since``/``--until`` value.

    Bare integers are time points on the mapping's scale; anything else
    is handed to the mapping's ISO-8601 parser.
    """
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.events import EventLog, EventMapping

    mapping = EventMapping.from_json(_load_json(args.event_mapping))
    if args.events == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.events).read_text()
        except OSError as exc:
            raise SystemExit(
                f"error: cannot read events from {args.events}: {exc}"
            ) from exc
    lines = [line for line in text.splitlines() if line.strip()]

    if args.follow:
        if not args.session:
            raise SystemExit("error: ingest --follow requires --session NAME")
        from repro.server import ClientError, ServerClient

        client = ServerClient(host=args.host, port=args.port)
        batch = max(1, args.batch)
        mapping_json = mapping.to_json()
        try:
            for number, start in enumerate(range(0, len(lines), batch)):
                chunk = lines[start : start + batch]
                result = client.events(
                    args.session,
                    chunk,
                    mapping=mapping_json if start == 0 else None,
                )
                ingest = result["ingest"]
                diff = result["diff"]
                print(
                    f"batch {number}: {ingest['accepted']} new events, "
                    f"{ingest['corrections']} corrections, "
                    f"{ingest['duplicates']} duplicates, "
                    f"{ingest['out_of_order']} out of order, "
                    f"{ingest['pending']} pending; "
                    f"target +{len(diff['add'])}/-{len(diff['remove'])}",
                    file=sys.stderr,
                )
            info = client.info(args.session)
        except ClientError as exc:
            print(f"error: server returned {exc.status}: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(
                f"error: cannot reach server at {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 2
        finally:
            client.close()
        print(json.dumps(info, indent=2))
        return 0

    log = EventLog(mapping)
    report = log.ingest(lines)
    print(
        f"ingested {len(lines)} lines: {report.accepted} events, "
        f"{report.corrections} corrections, {report.duplicates} duplicates, "
        f"{report.pending} pending; horizon {log.horizon}",
        file=sys.stderr,
    )
    if args.since is not None:
        delta = log.delta_between(_when(args.since), _when(args.until))
        print(json.dumps(delta.to_json(), indent=2))
        return 0
    instance = log.snapshot_at(_when(args.at))
    _write_instance(instance, args.out, args.pretty)
    return 0


def _shard_count(value: str) -> int:
    """Argparse type for ``--shards``: a clean error instead of a traceback."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _add_scheduler_flags(command: argparse.ArgumentParser) -> None:
    """The abstract chase's region-scheduler flags, shared by chase/verify."""
    command.add_argument(
        "--shards",
        type=_shard_count,
        default=1,
        help="partition the abstract chase's regions across N shards "
        "(output is byte-identical to one shard; prints per-shard timing)",
    )
    command.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default="serial",
        help="how sharded region blocks run: one at a time (default), a "
        "thread pool (GIL-bound), or a process pool (true parallelism; "
        "shard tasks and results travel as pickles over the pool's pipe)",
    )
    command.add_argument(
        "--workers",
        type=_shard_count,
        default=None,
        help="pool size for --executor threads/processes "
        "(default: one per shard, processes capped at the CPU count)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal data exchange (Golshanara & Chomicki)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    chase = commands.add_parser("chase", help="run the c-chase")
    chase.add_argument("--mapping", required=True, help="mapping JSON file")
    chase.add_argument("--source", required=True, help="source instance JSON file")
    chase.add_argument("--out", help="write the solution JSON here")
    chase.add_argument("--pretty", action="store_true", help="print ASCII tables")
    chase.add_argument("--trace", action="store_true", help="print chase steps")
    chase.add_argument(
        "--normalization",
        choices=["conjunction", "naive"],
        default="conjunction",
    )
    chase.add_argument(
        "--variant", choices=["standard", "oblivious"], default="standard"
    )
    chase.add_argument("--coalesce", action="store_true")
    chase.add_argument(
        "--via",
        choices=["concrete", "abstract"],
        default="concrete",
        help="chase procedure: the c-chase on the concrete instance "
        "(default) or the abstract chase over region snapshots "
        "(prints snapshot tables; honors --shards/--executor/--workers)",
    )
    _add_scheduler_flags(chase)
    chase.set_defaults(handler=_cmd_chase)

    norm = commands.add_parser("normalize", help="normalize an instance")
    norm.add_argument("--source", required=True)
    norm.add_argument("--mapping", help="mapping JSON (required unless --naive)")
    norm.add_argument("--phase", choices=["st", "egd"], default="st")
    norm.add_argument("--naive", action="store_true")
    norm.add_argument("--out")
    norm.add_argument("--pretty", action="store_true")
    norm.set_defaults(handler=_cmd_normalize)

    query = commands.add_parser("query", help="certain answers")
    query.add_argument("--mapping", required=True)
    query.add_argument("--source", required=True)
    query.add_argument(
        "--query",
        required=True,
        help="rule(s) like \"q(n,s) :- Emp(n,c,s)\"; ';'-separated for unions",
    )
    query.add_argument(
        "--query-log",
        metavar="FILE",
        help="query replay chain: replay the per-disjunct answers recorded "
        "here (if present) and write this run's log back.  Pickle format — "
        "only reuse files this tool wrote",
    )
    query.set_defaults(handler=_cmd_query)

    verify = commands.add_parser(
        "verify", help="check the Figure 10 correspondence"
    )
    verify.add_argument("--mapping", required=True)
    verify.add_argument("--source", required=True)
    _add_scheduler_flags(verify)
    verify.set_defaults(handler=_cmd_verify)

    figures = commands.add_parser(
        "figures", help="print every regenerated paper figure"
    )
    figures.set_defaults(handler=_cmd_figures)

    server = commands.add_parser(
        "serve",
        help="run the resident chase daemon (see docs/server.md)",
    )
    server.add_argument("--host", default="127.0.0.1", help="bind address")
    server.add_argument("--port", type=int, default=8765, help="listen port")
    server.add_argument(
        "--workers",
        type=_shard_count,
        default=None,
        help="process-pool size for sharded abstract chases "
        "(default: one per shard, capped at the CPU count)",
    )
    server.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="spool directory for session snapshot/load "
        "(pickles — treat it like the CLI's --query-log files)",
    )
    server.add_argument(
        "--cache-entries",
        type=_shard_count,
        default=64,
        help="capacity of the content-addressed chase cache (default 64)",
    )
    server.set_defaults(handler=_cmd_serve)

    client = commands.add_parser(
        "client",
        help="talk to a running daemon",
        description="One request against a running `repro serve` daemon; "
        "responses print as JSON.",
    )
    client.add_argument(
        "action",
        choices=[
            "health",
            "stats",
            "sessions",
            "create",
            "delta",
            "query",
            "target",
            "source",
            "info",
            "snapshot",
            "load",
            "evict",
        ],
        help="which endpoint to call",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8765)
    client.add_argument("--session", metavar="NAME", help="session name")
    client.add_argument("--mapping", help="mapping JSON file (create)")
    client.add_argument("--source", help="source instance JSON file (create)")
    client.add_argument(
        "--replace",
        action="store_true",
        help="create: rebuild the session if it already exists",
    )
    client.add_argument(
        "--add", metavar="FILE", help="delta: JSON file with a list of facts to add"
    )
    client.add_argument(
        "--remove",
        metavar="FILE",
        help="delta: JSON file with a list of facts to remove",
    )
    client.add_argument(
        "--query",
        help="query: rule(s) like \"q(n,s) :- Emp(n,c,s)\"; "
        "';'-separated for unions",
    )
    client.add_argument(
        "--pretty",
        action="store_true",
        help="target/source: print ASCII tables instead of JSON",
    )
    client.add_argument(
        "--snapshot",
        action="store_true",
        help="evict: snapshot the session to the spool directory first",
    )
    client.set_defaults(handler=_cmd_client)

    ingest = commands.add_parser(
        "ingest",
        help="compile a JSON-lines event log (see docs/api.md)",
        description="Compile an event log through an event mapping: print "
        "the snapshot-at-T source instance (default), a SourceDelta "
        "between two times (--since/--until), or follow the log into a "
        "running server session in batches (--follow).",
    )
    ingest.add_argument(
        "--events",
        required=True,
        metavar="FILE",
        help="JSON-lines event file, or '-' for stdin",
    )
    ingest.add_argument(
        "--event-mapping",
        required=True,
        metavar="FILE",
        help="event mapping JSON (time scale + entity/relationship rules)",
    )
    ingest.add_argument(
        "--at",
        metavar="T",
        help="snapshot time: a time point or ISO-8601 timestamp "
        "(default: the log's horizon)",
    )
    ingest.add_argument(
        "--since",
        metavar="T0",
        help="emit the SourceDelta from snapshot_at(T0) instead of a snapshot",
    )
    ingest.add_argument(
        "--until",
        metavar="T1",
        help="end time for --since (default: the log's horizon)",
    )
    ingest.add_argument("--out", help="write the snapshot JSON here")
    ingest.add_argument("--pretty", action="store_true", help="print ASCII tables")
    ingest.add_argument(
        "--follow",
        action="store_true",
        help="stream the log into a server session via POST /events "
        "(requires --session; the session becomes a live materialized "
        "view of the log)",
    )
    ingest.add_argument("--session", metavar="NAME", help="target session name")
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument("--port", type=int, default=8765)
    ingest.add_argument(
        "--batch",
        type=_shard_count,
        default=64,
        help="events per request in --follow mode (default 64)",
    )
    ingest.set_defaults(handler=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "normalize":
        if not args.naive and not args.mapping:
            parser.error("normalize requires --mapping unless --naive is given")
    try:
        code = args.handler(args)
        # Flush inside the try: a reader that left surfaces here, not as
        # an unraisable error at interpreter exit.
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  Point stdout at devnull
        # so the interpreter's exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
