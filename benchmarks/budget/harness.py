"""Running one workload: set-up, calibrated segments, verification.

A *segment* is: main phase (every client submits its share of the
workload's own mix, closed-loop) · probe phase (one client submits the
classes the mix lacks, untraced runs only) · verification (untimed).
Only ``Browser.submit`` sits between the two clock reads of a
statement.  Between statements the first client runs the calibration
kernel every few milliseconds; answers are kept and checked after the
phase, so checking never competes with a statement in flight.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

import adapter
import measure
import workloads

MIN_SEGMENTS = 16
SETUPS = 3          # set-ups per untraced run; setup_s is their median
WARMUP = -1         # segment index of the warm-up stream

_clock = time.perf_counter_ns


class Phase:
    """What one client did in one phase of a segment."""

    def __init__(self, statements):
        self.statements = statements
        self.results: list = []
        self.starts: list[int] = []
        self.latencies: list[int] = []
        self.direct_ns: list[int] = []     # per paired statement
        self.direct_rows: list = []
        self.kernel_ns: list[int] = []     # interleaved calibration runs


def drive(deployment, oracle, phase: Phase, calibrating: bool) -> None:
    """Submit *phase*'s statements one after another, each timed alone.

    A ``paired`` point select also runs on the native engine: once
    before the federated call, so both sides find the statement parsed
    and cached, and once timed after it — fetch_overhead is the
    difference, the middleware's share and nothing of the SQL parser's.
    """
    browsers: dict[str, object] = {}
    starts, latencies, results = phase.starts, phase.latencies, phase.results
    kernel_due = 0 if calibrating else float("inf")
    for statement in phase.statements:
        browser = browsers.get(statement.home)
        if browser is None or statement.fresh:
            browser = browsers[statement.home] = \
                deployment.browser(statement.home)
        paired = statement.check[0] == "paired"
        if paired:
            oracle.direct(statement.check[1], statement.check[2])
        start = _clock()
        try:
            result = browser.submit(statement.text)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            result = exc
        end = _clock()
        starts.append(start)
        latencies.append(end - start)
        results.append(result)
        if paired:
            start = _clock()
            rows = oracle.direct(statement.check[1], statement.check[2])
            phase.direct_ns.append(_clock() - start)
            phase.direct_rows.append(rows)
        if end >= kernel_due:
            phase.kernel_ns.append(measure.kernel_ns())
            kernel_due = _clock() + measure.CALIB_EVERY_NS


def run_phase(deployment, oracle, streams) -> list[Phase]:
    """All clients concurrently, one thread each (the caller's thread
    when there is one client, so a traced run has one client thread)."""
    phases = [Phase(stream) for stream in streams]
    if len(phases) == 1:
        drive(deployment, oracle, phases[0], calibrating=True)
        return phases
    barrier = threading.Barrier(len(phases))

    def client(phase, first):
        barrier.wait()
        drive(deployment, oracle, phase, calibrating=first)

    threads = [threading.Thread(target=client, args=(phase, index == 0),
                                name=f"client-{index}")
               for index, phase in enumerate(phases)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phases


class Segment:
    """Raw observations of one segment."""

    def __init__(self, main: list[Phase], probe: list[Phase], probed: tuple,
                 wall_ns: int, cpu_ns: int):
        self.main = main
        self.probe = probe
        self.probed = probed                   # classes the mix lacks
        self.wall_ns = wall_ns                 # main phase only
        self.cpu_ns = cpu_ns
        kernel = [ns for phase in main + probe for ns in phase.kernel_ns]
        self.calibrating_ns = sum(kernel)
        #: How fast the machine was while this segment ran.
        self.calib_ms = statistics.fmean(kernel) / 1e6

    def verify(self, oracle) -> None:
        for phase in self.main + self.probe:
            oracle.verify(phase.statements, phase.results, phase.direct_rows)
            phase.results = phase.direct_rows = None  # free the answers

    def metrics(self) -> dict:
        """This segment's end-to-end numbers on the reference machine."""
        def ref(ns):
            return measure.to_reference(ns / 1e3, self.calib_ms)

        out = {}
        everything = [ns for phase in self.main for ns in phase.latencies]
        out["stmt_per_s"] = measure.rate_to_reference(
            sum(len(phase.latencies) / (sum(phase.latencies) / 1e9)
                for phase in self.main), self.calib_ms)
        out["stmt_p50_us"] = ref(measure.percentile(everything, 50))
        out["stmt_p95_us"] = ref(measure.percentile(everything, 95))
        by_class: dict[str, list[int]] = {}
        overheads = []
        phases = [(phase, False) for phase in self.main] \
            + [(phase, True) for phase in self.probe]
        for phase, probing in phases:
            pairs = iter(phase.direct_ns)
            for statement, ns in zip(phase.statements, phase.latencies):
                direct = next(pairs) if statement.check[0] == "paired" \
                    else None
                # A write group's dependent reads in the probe block are
                # of classes the mix has: they are checked, not counted.
                if probing and statement.cls not in self.probed:
                    continue
                by_class.setdefault(statement.cls, []).append(ns)
                if direct is not None:
                    overheads.append(ns - direct)
        for cls, tails in (("discover", (50, 95)), ("explore", (50,)),
                           ("lookup", (50,)), ("scan", (50,)),
                           ("update", (50, 95))):
            for q in tails if cls in by_class else ():
                out[f"{cls}_p{q}_us"] = ref(
                    measure.percentile(by_class[cls], q))
        if overheads:
            out["fetch_overhead_us"] = ref(statistics.median(overheads))
        return out


def run_segment(deployment, oracle, workload, seed, index, probes=True,
                clients=None, tracer=None) -> Segment:
    """Segment *index*.  The traced run passes ``probes=False`` and
    ``clients=1``: one client makes span attribution unambiguous."""
    spec = workloads.WORKLOADS[workload]
    streams = [workloads.stream(workload, seed, client, index)
               for client in range(clients or spec.clients)]
    probe_stream = [workloads.probe_stream(workload, seed, index)] \
        if probes else []
    wall, cpu = _clock(), time.process_time_ns()
    if tracer is not None:
        tracer.recording = True
    try:
        main = run_phase(deployment, oracle, streams)
    finally:
        if tracer is not None:
            tracer.recording = False
    wall, cpu = _clock() - wall, time.process_time_ns() - cpu
    probe = run_phase(deployment, oracle, probe_stream) if probes else []
    return Segment(main, probe, spec.probes if probes else (), wall, cpu)


class Setup:
    """One deployed, loaded and warmed federation."""

    def __init__(self, workload: str, seed: int, oracle,
                 probes: bool = True, clients=None):
        spec = workloads.WORKLOADS[workload]
        grown = workloads.grown_rows()   # making the rows is not set-up
        start = _clock()
        self.deployment = adapter.deploy(spec.transport)
        rbh = self.deployment.relational[workloads.RBH]
        for table, rows in grown.items():
            rbh.load_rows(table, rows)
        self.baseline = adapter.registry_summary(self.deployment)
        oracle.use(self.deployment)
        self.oracle = oracle
        warm = run_segment(self.deployment, oracle, workload, seed, WARMUP,
                           probes=probes, clients=clients)
        # The kernel runs inside the warm-up segment are not set-up
        # work; they do say how fast the machine was during most of it.
        elapsed = _clock() - start - warm.calibrating_ns
        self.seconds = measure.to_reference(elapsed / 1e9, warm.calib_ms)
        warm.verify(oracle)

    def close(self) -> None:
        self.oracle.attempted += 1
        if adapter.registry_summary(self.deployment) != self.baseline:
            self.oracle.fail("registry summary did not return to baseline")
        adapter.close(self.deployment)
        self.deployment = None
        gc.collect()


def measure_segments(setup: Setup, workload, seed, seconds, min_segments,
                     first=0, probes=True, clients=None, tracer=None,
                     on_segment=None):
    """Segments until *seconds* have passed and *min_segments* are done;
    *on_segment* sees each one before its answers are checked and freed."""
    segments = []
    started = time.monotonic()
    while len(segments) < min_segments \
            or time.monotonic() - started < seconds:
        segment = run_segment(setup.deployment, setup.oracle, workload, seed,
                              first + len(segments), probes=probes,
                              clients=clients, tracer=tracer)
        if on_segment is not None:
            on_segment(segment)
        segment.verify(setup.oracle)
        segments.append(segment)
    return segments
