"""An interactive WebTassili shell over a deployed federation.

Run::

    python -m repro                 # healthcare testbed, QUT session
    python -m repro --home "Royal Brisbane Hospital"
    python -m repro --tcp           # same, over real TCP sockets

The shell accepts WebTassili statements plus a few meta-commands:

``\\tree``
    the Figure-4 information tree from the current entry point
``\\session``
    current home / coalition / entry point
``\\metrics``
    middleware counters so far
``\\health``
    circuit-breaker state per co-database (the degraded-space view);
    with ``--replicas N`` it also lists per-replica epoch, breaker
    state, and journal lag
``\\replicas [source]``
    replica availability of one source (or all): epoch, lag, journal
    length, restarts, durability; with ``--quorum`` also the lease
    holder, its fence epoch, and each replica's promised fence
``\\shards``
    consistent-hash ring and per-shard registry state; with
    ``--cache-tier`` also the shared cache tier's hit/invalidation
    counters (see ``docs/sharding.md``)
``\\home <database>``
    switch the session to another participating database
``\\help`` / ``\\quit``

``--deadline SECONDS`` bounds every statement by a total time budget
shared by all its hops; a resolution that runs out of budget reports
the part of the information space it could not explore instead of
silently returning less, any other statement fails with the deadline.
``--replicas N`` deploys N co-database replica servants per source
(see ``docs/availability.md``).  ``--quorum`` turns the implicit
primary into majority-quorum writes under lease-fenced election, and
``--sync {never,batch,always}`` picks the journal's group-commit fsync
policy with ``--durable-dir`` (see ``docs/quorum.md``).
``--shards N`` splits the registry over N consistent-hash shards, each
exported on its own ORB endpoint, and ``--cache-tier`` adds the shared
metadata cache tier with epoch-floored invalidation broadcasts (see
``docs/sharding.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Optional

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.errors import ReproError

_BANNER = """WebFINDIT — WebTassili shell (healthcare federation: 14 databases,
5 coalitions, 9 service links over Orbix/OrbixWeb/VisiBroker)
Type WebTassili statements, \\help for meta-commands, \\quit to leave."""

_HELP = """Meta-commands:
  \\tree            information tree from the current entry point
  \\session         show session state
  \\metrics         middleware counters
  \\health          circuit-breaker state per co-database (and replica)
  \\replicas [name] replica availability: epoch, lag, journal, restarts
  \\shards          registry shard ring, per-shard state, cache tier
  \\home <name>     re-home the session at another database
  \\help            this text
  \\quit            exit

WebTassili statements (examples):
  Find Coalitions With Information Medical Research
  Find Sources With Information 'Medical Insurance' Structure (Funding)
  Connect To Coalition Research
  Display Instances of Class Research
  Display Documentation of Instance Royal Brisbane Hospital
  Display Access Information of Instance Royal Brisbane Hospital
  Invoke Funding Of Type ResearchProjects On 'Royal Brisbane Hospital'
      With ('AIDS and drugs')
  Query 'Royal Brisbane Hospital' Native 'select * from MedicalStudent'"""


class Shell:
    """The REPL: owns one deployment and one browser session."""

    def __init__(self, deployment, home_database: str,
                 output: Optional[IO[str]] = None):
        self.deployment = deployment
        self.output = output or sys.stdout
        self.browser = deployment.browser(home_database)

    def _print(self, text: str = "") -> None:
        print(text, file=self.output)

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the shell should
        exit."""
        line = line.strip()
        if not line:
            return True
        if line.startswith("\\"):
            return self._meta(line)
        try:
            result = self.browser.submit(line)
            self._print(result.text)
        except ReproError as exc:
            self._print(f"error: {type(exc).__name__}: {exc}")
        return True

    def _meta(self, line: str) -> bool:
        command, __, argument = line[1:].partition(" ")
        command = command.lower()
        argument = argument.strip()
        if command in ("quit", "exit", "q"):
            return False
        if command == "help":
            self._print(_HELP)
        elif command == "tree":
            self._print(self.browser.information_tree())
        elif command == "session":
            session = self.browser.session
            self._print(f"home:      {session.home_database}")
            self._print(f"coalition: {session.current_coalition or '(none)'}")
            self._print(f"entry:     {session.metadata_source}")
        elif command == "metrics":
            metrics = self.deployment.system.metrics()
            self._print(f"GIOP messages: {metrics['giop_messages']}")
            self._print(f"bytes sent:    {metrics['giop_bytes_sent']}")
            for product, stats in metrics["orbs"].items():
                if stats["requests_handled"]:
                    self._print(f"  {product}: "
                                f"{stats['requests_handled']} handled, "
                                f"{stats['cross_product_requests']} "
                                f"cross-product")
        elif command == "health":
            snapshot = self.deployment.system.resilience.health.snapshot()
            if not snapshot:
                self._print("no co-database consulted yet "
                            "(all circuits closed)")
            for name in sorted(snapshot):
                stats = snapshot[name]
                self._print(
                    f"  {name}: {stats['state']}  "
                    f"({stats['successes']} ok, {stats['failures']} failed, "
                    f"{stats['trips']} trip(s), "
                    f"{stats['rejections']} rejected)")
            self._print_replicas(self.deployment.system.replica_status())
        elif command == "replicas":
            system = self.deployment.system
            try:
                status = (system.replica_status(argument) if argument
                          else system.replica_status())
            except ReproError as exc:
                self._print(f"error: {exc}")
                return True
            if argument:
                status = {argument: status}
            if not status:
                self._print("no replicated co-databases "
                            "(run with --replicas N)")
            self._print_replicas(status)
        elif command == "shards":
            report = self.deployment.system.shard_report()
            self._print(f"registry shards: {report['shards']} "
                        f"(naming generation "
                        f"{report['naming_generation']})")
            ring = report["ring"]
            points = ", ".join(
                f"shard{node}={count}"
                for node, count in sorted(ring["points"].items()))
            self._print(f"ring: {ring['vnodes']} vnodes/shard ({points})")
            for status in report["statuses"]:
                self._print(
                    f"  shard{status['shard']}: "
                    f"{status['sources']} source(s), "
                    f"{status['coalitions']} coalition(s), "
                    f"{status['service_links']} link(s), "
                    f"{status['update_operations']} update(s), "
                    f"mutation epoch {status['mutation_epoch']}")
            tier = report["cache_tier"]
            if tier is None:
                self._print("cache tier: (not deployed — run with "
                            "--cache-tier)")
            else:
                state = "up" if tier["alive"] else "DOWN"
                servant = tier["servant"] or {}
                cache = servant.get("cache", {})
                pending = sum(b["pending_floors"]
                              for b in tier["broadcasters"])
                self._print(
                    f"cache tier: {state}, "
                    f"{tier['restarts']} restart(s), "
                    f"{cache.get('hits', 0)} hit(s) / "
                    f"{cache.get('misses', 0)} miss(es), "
                    f"{servant.get('invalidation_batches', 0)} "
                    f"invalidation batch(es), "
                    f"{pending} pending floor(s)")
        elif command == "home":
            if not argument:
                self._print("usage: \\home <database name>")
            else:
                try:
                    self.browser = self.deployment.browser(argument)
                    self._print(f"session re-homed at {argument}")
                except ReproError as exc:
                    self._print(f"error: {exc}")
        else:
            self._print(f"unknown meta-command \\{command} (try \\help)")
        return True

    def _print_replicas(self, status: dict) -> None:
        """One line per replica: epoch, breaker, journal lag —
        plus the lease holder and fence epoch in quorum mode."""
        for name in sorted(status):
            entry = status[name]
            lease = entry.get("lease")
            if lease is not None:
                holder = lease["holder"] or "(none)"
                self._print(
                    f"  {name} (epoch {entry['epoch']}, quorum "
                    f"{lease['majority']}/{len(entry['replicas'])}, "
                    f"lease {holder} @ fence {lease['fence']}):")
            else:
                self._print(f"  {name} (epoch {entry['epoch']}):")
            for replica in entry["replicas"]:
                state = "up" if replica["alive"] else "DOWN"
                breaker = replica.get("breaker", "closed")
                durable = ", durable" if replica["durable"] else ""
                fence = ""
                if lease is not None:
                    fence = f", promised fence {replica['promised_fence']}"
                self._print(
                    f"    {replica['name']}: {state}, "
                    f"epoch {replica['epoch']} (lag {replica['lag']}), "
                    f"breaker {breaker}, "
                    f"journal {replica['journal_entries']} entr"
                    f"{'y' if replica['journal_entries'] == 1 else 'ies'}, "
                    f"{replica['restarts']} restart(s){fence}{durable}")

    def run(self, input_stream: Optional[IO[str]] = None,
            interactive: bool = True) -> None:
        """Read statements until EOF or ``\\quit``."""
        stream = input_stream or sys.stdin
        self._print(_BANNER)
        while True:
            if interactive:
                self.output.write("webtassili> ")
                self.output.flush()
            line = stream.readline()
            if not line:
                break
            if not interactive:
                self._print(f"webtassili> {line.rstrip()}")
            if not self.handle(line):
                break
        self._print("bye.")


def main(argv: Optional[list[str]] = None,
         input_stream: Optional[IO[str]] = None,
         output: Optional[IO[str]] = None) -> int:
    """CLI entry point (``python -m repro``)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="WebFINDIT WebTassili shell")
    parser.add_argument("--home", default=topo.QUT,
                        help="participating database the session belongs to")
    parser.add_argument("--tcp", action="store_true",
                        help="run the federation over real TCP sockets")
    parser.add_argument("--stripes", type=int, default=None,
                        help="with --tcp: enable GIOP request pipelining "
                             "with this many striped connections per "
                             "endpoint (implies --transport-loop; see "
                             "docs/pipelining.md)")
    parser.add_argument("--pipeline-depth", type=int, default=32,
                        help="with --tcp --stripes: max requests in "
                             "flight per pipelined connection "
                             "(default 32)")
    parser.add_argument("--transport-loop", action="store_true",
                        help="with --tcp: run the transport on the "
                             "selector event loop instead of threads, "
                             "promoting busy endpoints to pipelining on "
                             "demand (see docs/event-loop.md)")
    parser.add_argument("--loop-workers", type=int, default=6,
                        help="with --tcp --transport-loop: servant "
                             "dispatch threads shared by all endpoints "
                             "(default 6)")
    parser.add_argument("--shedding", action="store_true",
                        help="with --tcp: deadline-aware admission "
                             "control and load shedding on every "
                             "endpoint (see docs/overload.md)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="total time budget (seconds) that bounds "
                             "every statement; a resolution reports "
                             "partial coverage")
    parser.add_argument("--statement", "-s", action="append", default=[],
                        help="execute statement(s) and exit")
    parser.add_argument("--replicas", type=int, default=1,
                        help="co-database replica servants per source "
                             "(failover + crash recovery; default 1)")
    parser.add_argument("--durable-dir", default=None,
                        help="directory for on-disk replica journals and "
                             "snapshots (enables crash recovery across "
                             "runs)")
    parser.add_argument("--quorum", action="store_true",
                        help="majority-quorum writes under lease-fenced "
                             "primary election (see docs/quorum.md)")
    parser.add_argument("--sync", default="never",
                        choices=["never", "batch", "always"],
                        help="journal group-commit fsync policy with "
                             "--durable-dir (default: never)")
    parser.add_argument("--shards", type=int, default=1,
                        help="consistent-hash registry shards, each on "
                             "its own ORB endpoint (default 1; see "
                             "docs/sharding.md)")
    parser.add_argument("--cache-tier", action="store_true",
                        help="deploy the shared metadata cache tier "
                             "with epoch-floored invalidation "
                             "broadcasts")
    options = parser.parse_args(argv)

    transport = None
    if options.tcp:
        from repro.orb.overload import OverloadPolicy
        from repro.orb.transport import TcpTransport
        overload = OverloadPolicy(shed=True) if options.shedding else None
        # Plain --tcp is the default transport — serial round trips
        # against the thread-per-connection server, the faster pair for
        # one sequential shell.  --transport-loop lets the transport
        # watch demand and promote busy endpoints to pipelining on its
        # own; --stripes forces pipelining (loop implied).
        pipelined = (True if options.stripes is not None
                     else "auto" if options.transport_loop else False)
        transport = TcpTransport(pipelined=pipelined,
                                 stripes=options.stripes,
                                 pipeline_depth=options.pipeline_depth,
                                 loop=options.transport_loop or None,
                                 loop_workers=options.loop_workers,
                                 overload=overload)
    resilience = None
    if options.deadline is not None:
        from repro.core.resilience import ResiliencePolicy
        resilience = ResiliencePolicy(default_deadline=options.deadline)
    deployment = build_healthcare_system(transport=transport,
                                         resilience=resilience,
                                         replication_factor=options.replicas,
                                         durable_dir=options.durable_dir,
                                         quorum=options.quorum,
                                         journal_sync=options.sync,
                                         shards=options.shards,
                                         cache_tier=options.cache_tier)
    shell = Shell(deployment, options.home, output=output)
    try:
        if options.statement:
            for statement in options.statement:
                shell.handle(statement)
            return 0
        stream = input_stream or sys.stdin
        shell.run(stream, interactive=stream.isatty())
        return 0
    finally:
        if transport is not None:
            transport.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
