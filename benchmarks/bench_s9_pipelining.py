"""S9 — GIOP pipelining and striping against a hot co-database.

The scenario the ROADMAP's transport item names: many concurrent
clients converge on *one* popular co-database over real TCP with a
modelled WAN latency.  The pooled-serial baseline needs one
connection per in-flight caller, so a client storm slams the server's
accept queue all at once — connection setup, accept-loop
serialisation, and (past the listen backlog) kernel SYN retransmits
dominate wall-clock.  The pipelined transport multiplexes the same
burst onto ``stripes`` warm connections, matching replies by
``request_id``, so the storm costs four TCP handshakes total — and
since pipelining lives on the event loop, its whole server side is one
loop thread plus a bounded worker pool, with the modelled latency
parked on the loop's timer heap instead of sleeping threads.

Each client makes three sequential metadata calls against the hot
co-database the moment the barrier drops — ``find_coalitions``,
``service_links``, ``neighbor_databases``: what a depth-0 discovery
cost before it became one ``consult``, kept as this bench's load so its
numbers stay comparable.  Completeness is checked per client: a run
only counts if every client was answered the expected coalition.

Expected shape: at small client counts the baseline's
connection-per-caller model keeps up (each connection is its own
server thread, and pipelining pays submit -> loop -> worker -> loop
hops per request) — the 8-client point is reported without a gate; as
the burst grows past the accept backlog the baseline falls off a cliff
while pipelining stays flat.  The acceptance gate is the hot-endpoint
point: >= 1.5x lower wall-clock with pipelining+striping, completeness
1.00.  A final 1,000-client storm runs pipelined only (the baseline
would need a thousand threads): completeness 1.00 with the server side
bounded at <= 8 OS threads.

Results persist to ``BENCH_pipelining.json``.
"""

import json
import threading
import time
from pathlib import Path

from repro.bench import print_table
from repro.core.discovery import CoDatabaseClient
from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.orb import ORBIX, TcpTransport, create_orb

TOPIC = "astronomy catalogues"
HOT_DB = "sky_survey_main"
LATENCY = 0.005          # modelled one-way WAN delay, seconds
CLIENT_COUNTS = (8, 32, 96, 160)
HOT_CLIENTS = 96         # the acceptance-gate point (past the backlog)
STRIPES = 4
PIPELINE_DEPTH = 32
MIN_SPEEDUP = 1.5
STORM_CLIENTS = 1000     # pipelined only
STORM_STRIPES = 8
STORM_DEPTH = 256        # stripes x depth holds the whole storm
LOOP_WORKERS = 6         # 1 loop + 6 workers = 7 <= 8 thread bound
MAX_SERVER_THREADS = 8
STORM_TIMEOUT = 60.0     # generous: 3000 GIL-bound replies take a while


def _registry():
    registry = Registry()
    registry.create_coalition("Sky Survey", TOPIC)
    registry.add_source(SourceDescription(name=HOT_DB,
                                          information_type=TOPIC))
    registry.join(HOT_DB, "Sky Survey")
    return registry


def _run_config(transport, clients):
    """All *clients* fire their three reads at the hot co-database at
    once; returns (wall_clock_s, completeness, metrics_snapshot) —
    the snapshot also carrying the event-loop server's OS thread count
    as the first client saw it on finishing."""
    registry = _registry()
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        ior = orb.activate(CoDatabaseServant(registry.codatabase(HOT_DB)),
                           CODATABASE_INTERFACE, object_name="codb-hot")

        def resolver(name):
            return CoDatabaseClient.for_proxy(
                orb.proxy(ior, CODATABASE_INTERFACE), name)

        barrier = threading.Barrier(clients)
        complete = []
        failures = []
        server_threads = [0]

        def client(index):
            codatabase = resolver(HOT_DB)
            barrier.wait()
            try:
                matches = codatabase.find_coalitions(TOPIC)
                codatabase.service_links()
                codatabase.neighbor_databases()
                complete.append(any(match["name"] == "Sky Survey"
                                    for match in matches))
            except Exception as exc:  # noqa: BLE001 - counted below
                failures.append(exc)
            if index == 0:
                server_threads[0] = transport.server_thread_count()

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        completeness = (sum(complete) / clients) if not failures else 0.0
        snapshot = transport.metrics.snapshot()
        return elapsed, completeness, {
            **{key: snapshot[key] for key in (
                "connections_opened", "requests_pipelined",
                "max_in_flight", "pipeline_stalls", "pipeline_overflows",
                "batch_flushes", "frames_batched")},
            "server_threads": server_threads[0],
        }
    finally:
        transport.close()


def _pipelined(clients, **tuning):
    seconds, complete, metrics = _run_config(
        TcpTransport(pipelined=True, latency=LATENCY, **tuning), clients)
    return {
        "clients": clients,
        "calls": clients * 3,
        "pipelined_ms": round(seconds * 1e3, 1),
        "pipelined_completeness": round(complete, 2),
        "pipelined_connections": metrics["connections_opened"],
        "pipelined_metrics": metrics,
    }


def _point(clients):
    baseline_s, base_complete, base_metrics = _run_config(
        TcpTransport(pooled=True, loop=False, latency=LATENCY), clients)
    piped = _pipelined(clients, stripes=STRIPES,
                       pipeline_depth=PIPELINE_DEPTH)
    baseline_ms = round(baseline_s * 1e3, 1)
    return {
        **piped,
        "baseline_ms": baseline_ms,
        "speedup": round(baseline_ms / piped["pipelined_ms"], 2),
        "baseline_completeness": round(base_complete, 2),
        "baseline_connections": base_metrics["connections_opened"],
    }


def test_s9_hot_endpoint_pipelining(benchmark):
    points = [_point(clients) for clients in CLIENT_COUNTS]
    storm = _pipelined(STORM_CLIENTS, stripes=STORM_STRIPES,
                       pipeline_depth=STORM_DEPTH,
                       loop_workers=LOOP_WORKERS, timeout=STORM_TIMEOUT)

    rows = [[p["clients"], p["calls"],
             f"{p['baseline_ms']:.0f}" if "baseline_ms" in p else "-",
             p.get("baseline_connections", "-"),
             f"{p['pipelined_ms']:.0f}", p["pipelined_connections"],
             f"{p['speedup']:.2f}x" if "speedup" in p else "-",
             p["pipelined_metrics"]["server_threads"],
             f"{p['pipelined_completeness']:.2f}"]
            for p in [*points, storm]]
    print_table(
        f"S9: hot co-database storm, pooled-serial threads vs pipelined "
        f"event loop (stripes={STRIPES}, latency={LATENCY * 1e3:.0f}ms "
        f"one-way; storm row: stripes={STORM_STRIPES}, "
        f"{LOOP_WORKERS} loop workers)",
        ["clients", "calls", "serial ms", "conns", "pipelined ms",
         "conns", "speedup", "srv threads", "completeness"], rows)

    # Completeness 1.00 everywhere: nobody lost or cross-wired a reply.
    for p in points:
        assert p["baseline_completeness"] == 1.0
        assert p["pipelined_completeness"] == 1.0
        assert p["pipelined_metrics"]["pipeline_stalls"] == 0
        # The whole point: the storm rides a handful of connections.
        assert p["pipelined_connections"] <= STRIPES + \
            p["pipelined_metrics"]["pipeline_overflows"]
    assert storm["pipelined_completeness"] == 1.0
    assert storm["pipelined_metrics"]["pipeline_stalls"] == 0

    # The architectural bound: a 1000-client storm is served by the
    # loop plus its worker pool — a fixed handful of OS threads.
    assert storm["pipelined_metrics"]["server_threads"] \
        <= MAX_SERVER_THREADS

    # Acceptance gate: at the hot-endpoint point the pipelined
    # transport is >= 1.5x faster than the pooled-serial baseline.
    hot = next(p for p in points if p["clients"] == HOT_CLIENTS)
    assert hot["speedup"] >= MIN_SPEEDUP, \
        f"hot-endpoint speedup {hot['speedup']}x < {MIN_SPEEDUP}x"

    out = {
        "benchmark": "S9 pipelining: hot co-database client storm",
        "scenario": {
            "topic": TOPIC,
            "latency_ms_one_way": LATENCY * 1e3,
            "stripes": STRIPES,
            "pipeline_depth": PIPELINE_DEPTH,
            "hot_clients": HOT_CLIENTS,
            "min_speedup": MIN_SPEEDUP,
            "storm_stripes": STORM_STRIPES,
            "storm_pipeline_depth": STORM_DEPTH,
            "loop_workers": LOOP_WORKERS,
            "max_server_threads": MAX_SERVER_THREADS,
        },
        "points": points,
        "storm": storm,
        "hot_endpoint_speedup": hot["speedup"],
        "notes": (
            "The 8-client point is reported without a gate: with a "
            "handful of clients the loop's submit->loop->worker->loop "
            "hops are pure overhead versus a thread per connection, "
            "and the serial baseline may win that regime. The "
            "pipeline's payoff is the storm: a handful of connections, "
            "bounded threads and timer-heap latency instead of threads "
            "sleeping out the WAN delay."),
    }
    path = Path(__file__).resolve().parents[1] / "BENCH_pipelining.json"
    path.write_text(json.dumps(out, indent=2) + "\n")

    benchmark(lambda: hot["speedup"])
