"""Command-line SQL shell for the EncDBDB reproduction.

Usage::

    python -m repro.cli                      # interactive shell
    python -m repro.cli --script demo.sql    # run a ;-separated script
    python -m repro.cli --seed 7 --save db.encdbdb --script load.sql
    python -m repro.cli serve --port 7482    # run the DBaaS side over TCP
    python -m repro.cli --connect 127.0.0.1:7482   # shell against it
    python -m repro.cli migrate start t c --kind ED9 --connect 127.0.0.1:7482

The CLI stands up a complete deployment (server + enclave + data owner +
proxy) on startup, optionally restores a persisted database, executes SQL
through the trusted proxy, and pretty-prints results. Meta commands:
``.help``, ``.tables``, ``.schema <table>``, ``.stats`` (enclave cost
counters), ``.quit``.

With ``serve`` the process runs only the *untrusted* half (DBMS + enclave)
as a ``repro.net`` TCP server; with ``--connect`` it runs only the trusted
half (data owner + proxy), attesting and provisioning the remote enclave
over the socket before the first statement.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.client.session import EncDBDBSystem
from repro.exceptions import EncDBDBError
from repro.sql.result import QueryResult


def format_result(result: QueryResult) -> str:
    """Align a query result as a text table."""
    headers = result.column_names
    rows = [[str(cell) for cell in row] for row in result.rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


def split_statements(text: str) -> list[str]:
    """Split a SQL script on semicolons, respecting strings and comments."""
    statements = []
    current = []
    in_string = False
    index = 0
    while index < len(text):
        char = text[index]
        if not in_string and text.startswith("--", index):
            newline = text.find("\n", index)
            index = len(text) if newline == -1 else newline + 1
            current.append(" ")
            continue
        if char == "'":
            in_string = not in_string
        if char == ";" and not in_string:
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
        else:
            current.append(char)
        index += 1
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return statements


class Shell:
    """Executes SQL statements and meta commands against one system."""

    def __init__(self, system: EncDBDBSystem, out=None) -> None:
        self.system = system
        # Bound at call time so test harnesses that swap sys.stdout work.
        self.out = out if out is not None else sys.stdout

    def _print(self, text: str) -> None:
        print(text, file=self.out)

    def execute_line(self, line: str) -> bool:
        """Run one input line; returns False when the shell should exit."""
        line = line.strip()
        if not line:
            return True
        if line.startswith("."):
            return self._meta(line)
        head, _, rest = line.rstrip(";").partition(" ")
        if head.upper() == "EXPLAIN":
            if not rest.strip():
                self._print("usage: explain <statement>")
            else:
                try:
                    self._print(self.system.proxy.explain(rest.strip()))
                except EncDBDBError as error:
                    self._print(f"error: {error}")
            return True
        try:
            result = self.system.execute(line.rstrip(";"))
        except EncDBDBError as error:
            self._print(f"error: {error}")
            return True
        if isinstance(result, QueryResult):
            self._print(format_result(result))
        else:
            self._print(f"ok ({result} row{'s' if result != 1 else ''} affected)")
        return True

    def _meta(self, line: str) -> bool:
        command, _, argument = line.partition(" ")
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            self._print(
                "statements: CREATE TABLE / INSERT / SELECT / UPDATE / DELETE"
                " / MERGE TABLE / EXPLAIN <statement>\n"
                "meta: .tables  .schema <table>  .explain <sql>  .stats  "
                ".pushdown on|off  .save <path>  .quit"
            )
        elif command == ".tables":
            names = self.system.server.catalog.table_names()
            self._print("\n".join(names) if names else "(no tables)")
        elif command == ".schema":
            try:
                table = self.system.server.catalog.table(argument.strip())
            except EncDBDBError as error:
                self._print(f"error: {error}")
                return True
            for spec in table.specs:
                protection = spec.protection.name if spec.protection else "PLAIN"
                bsmax = (
                    f" BSMAX {spec.bsmax}"
                    if spec.protection is not None
                    and spec.protection.repetition.name == "SMOOTHING"
                    else ""
                )
                self._print(
                    f"  {spec.name} {protection} {spec.value_type.sql_name}{bsmax}"
                )
        elif command == ".stats":
            cost = self.system.server.cost_model
            self._print(
                f"ecalls={cost.ecalls} decryptions={cost.decryptions} "
                f"untrusted_loads={cost.untrusted_loads} "
                f"modeled_cycles={cost.estimated_cycles():,}"
            )
        elif command == ".pushdown":
            choice = argument.strip().lower()
            if choice in ("on", "off"):
                self.system.proxy.enable_pushdown(choice == "on")
            elif choice:
                self._print("usage: .pushdown on|off")
                return True
            state = "on" if self.system.proxy.pushdown_enabled else "off"
            self._print(f"analytics pushdown is {state}")
        elif command == ".explain":
            if not argument.strip():
                self._print("usage: .explain <statement>")
            else:
                try:
                    self._print(self.system.proxy.explain(argument.strip()))
                except EncDBDBError as error:
                    self._print(f"error: {error}")
        elif command == ".save":
            path = argument.strip()
            if not path:
                self._print("usage: .save <path>")
            else:
                self.system.save(path)
                self._print(f"saved to {path}")
        else:
            self._print(f"unknown meta command {command!r} (try .help)")
        return True

    def run_script(self, text: str) -> None:
        for statement in split_statements(text):
            self.execute_line(statement)

    def run_interactive(self, input_stream=sys.stdin) -> None:
        self._print("EncDBDB reproduction shell — .help for commands")
        buffered = ""
        while True:
            prompt = "encdbdb> " if not buffered else "     ...> "
            print(prompt, end="", file=self.out, flush=True)
            line = input_stream.readline()
            if not line:
                break
            buffered += line
            # Execute on a terminating semicolon or a meta command line.
            if ";" in line or buffered.strip().startswith("."):
                for statement in split_statements(buffered):
                    if not self.execute_line(statement):
                        return
                buffered = ""


def serve_main(argv: list[str]) -> int:
    """``python -m repro.cli serve``: run the untrusted DBaaS side."""
    import asyncio

    from repro.net.server import NetServer
    from repro.server.dbms import EncDBDBServer

    parser = argparse.ArgumentParser(
        prog="repro.cli serve", description="EncDBDB network server"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=7482, help="TCP port (0 = ephemeral)")
    parser.add_argument("--load", type=Path, help="load a persisted database")
    parser.add_argument(
        "--max-sessions", type=int, default=8, help="admission-control limit"
    )
    parser.add_argument(
        "--sealed-key",
        type=Path,
        help="sealed SKDB blob: restored on boot if present, written after "
        "every provisioning (restart without re-attestation)",
    )
    parser.add_argument(
        "--shard",
        type=int,
        default=None,
        help="shard id advertised in the hello frame (cluster deployments)",
    )
    parser.add_argument(
        "--replica-of",
        metavar="HOST:PORT",
        help="pull SKDB from the (provisioned) primary at this address "
        "before serving: the local enclave offers a secure channel, the "
        "primary enclave wraps the key for it — enclave to enclave, never "
        "through this process in the clear",
    )
    args = parser.parse_args(argv)

    dbms = EncDBDBServer()
    if args.load:
        dbms.load(args.load)
    if args.replica_of:
        host, port = _parse_endpoint(args.replica_of)
        _pull_replica_key(dbms, host, port)
        print(f"replica key pulled from {args.replica_of}", flush=True)
    server = NetServer(
        dbms,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        sealed_key_path=args.sealed_key,
        shard=args.shard,
    )

    async def _serve() -> None:
        await server.start()
        print(f"encdbdb server listening on {server.host}:{server.port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _pull_replica_key(dbms, host: str, port: int, *, attempts: int = 30) -> None:
    """Boot-time key pull for ``serve --replica-of``, patient by design.

    Retries both transport failures (primary not up yet) and the primary's
    "not provisioned yet" rejection, so shard fleets may start in any order;
    the data owner only ever attests and provisions one primary.
    """
    import time as _time

    from repro.cluster import pull_master_key_from
    from repro.exceptions import EnclaveSecurityError, NetworkError
    from repro.net import RetryPolicy

    retry = RetryPolicy(attempts=3, base_delay=0.1)
    for attempt in range(attempts):
        try:
            pull_master_key_from(dbms, host, port, retry=retry)
            return
        except (NetworkError, EnclaveSecurityError) as error:
            if attempt == attempts - 1:
                raise SystemExit(
                    f"could not replicate key from {host}:{port}: {error}"
                )
            _time.sleep(min(2.0, 0.1 * (attempt + 1)))


def cluster_main(argv: list[str]) -> int:
    """``python -m repro.cli cluster``: an in-process cluster + shell.

    Boots ``--shards`` × (1 + ``--replicas``) TCP servers in this process,
    provisions them through the coordinator (one attestation round, then
    enclave-to-enclave key replication), and opens the ordinary shell
    against the scatter-gather router.
    """
    import contextlib

    from repro.cluster import ClusterSystem, ShardMap
    from repro.net import NetServer, ServerThread
    from repro.server.dbms import EncDBDBServer

    parser = argparse.ArgumentParser(
        prog="repro.cli cluster", description="in-process EncDBDB cluster shell"
    )
    parser.add_argument("--shards", type=int, default=2, help="shard count")
    parser.add_argument(
        "--replicas", type=int, default=0, help="replicas per shard"
    )
    parser.add_argument("--seed", type=int, default=0, help="deployment seed")
    parser.add_argument("--script", type=Path, help="run a SQL script and exit")
    parser.add_argument(
        "--max-sessions", type=int, default=16, help="per-server session limit"
    )
    args = parser.parse_args(argv)
    if args.shards < 1 or args.replicas < 0:
        raise SystemExit("need --shards >= 1 and --replicas >= 0")

    with contextlib.ExitStack() as stack:
        endpoints = []
        for shard_id in range(args.shards):
            group = []
            for _replica in range(1 + args.replicas):
                handle = stack.enter_context(
                    ServerThread(
                        NetServer(
                            EncDBDBServer(),
                            max_sessions=args.max_sessions,
                            shard=shard_id,
                        )
                    )
                )
                group.append(("127.0.0.1", handle.port))
            endpoints.append(group)
        shard_map = ShardMap.of_endpoints(endpoints)
        with ClusterSystem.connect(shard_map, seed=args.seed) as system:
            print(
                f"cluster up: {args.shards} shard(s) x "
                f"{1 + args.replicas} endpoint(s), all enclaves keyed",
                flush=True,
            )
            shell = Shell(system)
            if args.script:
                shell.run_script(args.script.read_text())
            else:
                shell.run_interactive()
    return 0


def migrate_main(argv: list[str]) -> int:
    """``python -m repro.cli migrate``: drive an online rotation.

    Operator tooling for the *untrusted* side: starting, watching, or
    rolling back a rotation needs no keys — the actual re-encryption runs
    inside the server's enclave — so this connects a bare wire client
    without attestation or provisioning.
    """
    from repro.net.client import NetConnection, RemoteServer
    from repro.sql.printer import migration_lines

    parser = argparse.ArgumentParser(
        prog="repro.cli migrate",
        description="online ED-kind / key-epoch rotation of one column",
    )
    parser.add_argument(
        "action", choices=("start", "status", "rollback"), help="what to do"
    )
    parser.add_argument("table", nargs="?", help="table name")
    parser.add_argument("column", nargs="?", help="column name")
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="server (`repro.cli serve`) to operate on",
    )
    parser.add_argument(
        "--kind", metavar="EDn", help="target ED kind (start; default: keep)"
    )
    parser.add_argument(
        "--rotate-key",
        action="store_true",
        help="advance the column's storage-key epoch (start)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        metavar="N",
        help="start only: advance N plan steps and return instead of "
        "driving the rotation to completion",
    )
    args = parser.parse_args(argv)
    if args.action in ("start", "rollback") and not (args.table and args.column):
        raise SystemExit(f"migrate {args.action} needs <table> <column>")

    host, port = _parse_endpoint(args.connect)
    connection = NetConnection(host, port)
    try:
        server = RemoteServer(connection)
        if args.action == "start":
            if not args.kind and not args.rotate_key:
                raise SystemExit("migrate start needs --kind and/or --rotate-key")
            server.migrate_start(
                args.table,
                args.column,
                new_kind=args.kind,
                rotate_key=args.rotate_key,
            )
            if args.steps is not None:
                statuses = [
                    server.migrate_step(args.table, args.column, args.steps)
                ]
            else:
                statuses = [server.migrate_run(args.table, args.column)]
        elif args.action == "rollback":
            statuses = [server.migrate_rollback(args.table, args.column)]
        else:
            statuses = server.migrate_status(args.table, args.column)
        lines = migration_lines(statuses)
        print("\n".join(lines) if lines else "(no migrations)", flush=True)
        failed = [s for s in statuses if s.state == "failed"]
        return 1 if failed else 0
    except EncDBDBError as error:
        print(f"error: {error}", file=sys.stderr, flush=True)
        return 1
    finally:
        connection.close()


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected host:port, got {endpoint!r}")
    return host, int(port)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "cluster":
        return cluster_main(argv[1:])
    if argv and argv[0] == "migrate":
        return migrate_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="EncDBDB reproduction SQL shell"
    )
    parser.add_argument("--seed", type=int, default=0, help="deployment seed")
    parser.add_argument("--script", type=Path, help="run a SQL script and exit")
    parser.add_argument("--load", type=Path, help="load a persisted database")
    parser.add_argument("--save", type=Path, help="save the database on exit")
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="run against a remote `repro.cli serve` deployment instead of "
        "an in-process one (attests + provisions over the socket)",
    )
    args = parser.parse_args(argv)

    if args.connect:
        if args.load:
            raise SystemExit("--load is server-side; use `serve --load` instead")
        host, port = _parse_endpoint(args.connect)
        system = EncDBDBSystem.connect(host, port, seed=args.seed)
    else:
        system = EncDBDBSystem.create(seed=args.seed)
        if args.load:
            # Loading replaces the catalog; re-register schemas with the proxy.
            system.server.load(args.load)
            for name in system.server.catalog.table_names():
                system.proxy.register_schema(
                    name, system.server.catalog.table(name).specs
                )
    shell = Shell(system)
    try:
        if args.script:
            shell.run_script(args.script.read_text())
        else:
            shell.run_interactive()
        if args.save:
            system.save(args.save)
    finally:
        system.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
