"""``budget``: where a WebTassili statement's microseconds go.

    python3 benchmarks/budget/run.py                 every workload, then traced
    python3 benchmarks/budget/run.py --workload query_mem [--trace]
    python3 benchmarks/budget/run.py --repeat 3      A/A spread against bounds
    python3 benchmarks/budget/run.py --check         one segment each, answers only

Four closed-loop workloads over the paper's 14-database healthcare
federation at zero modelled latency and zero service-time sleeps.  See
README.md beside this file for the design and the metric glossary.

With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
DEFAULT_SEED = 1999


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ------------------------------------------------------------ one workload --

def run_untraced(workload, seed, seconds, check):
    import adapter
    import harness
    import measure
    from oracle import Oracle

    twin = adapter.deploy("mem")
    oracle = Oracle(twin)
    setup, setup_seconds = None, []
    for _ in range(1 if check else harness.SETUPS):
        if setup is not None:
            setup.close()
        setup = harness.Setup(workload, seed, oracle)
        setup_seconds.append(setup.seconds)
    segments = harness.measure_segments(
        setup, workload, seed, 0 if check else seconds,
        1 if check else harness.MIN_SEGMENTS)
    setup.close()
    adapter.close(twin)
    values = measure.median_over_segments([s.metrics() for s in segments])
    values["setup_s"] = statistics.median(setup_seconds)
    values["rss_mb"] = measure.peak_rss_mib()
    values["fail_frac"] = oracle.failed / oracle.attempted
    statements = [ns for s in segments for p in s.main for ns in p.latencies]
    info = {
        "segments": len(segments),
        "statements": len(statements),
        "stmt_p99_us_raw": measure.percentile(statements, 99) / 1e3,
        "calib_ms": statistics.median(s.calib_ms for s in segments),
    }
    return values, info, oracle


def _floors(deployment):
    """Two isolated floors: the smallest GIOP round trip over this
    workload's transport, and CDR encode+decode of a 50-row result."""
    import adapter
    import measure

    probe = adapter.EchoProbe(deployment)
    payload = {"__kind__": "resultset", "rowcount": 50,
               "columns": ["PatientId", "Name", "DateOfBirth", "Gender",
                           "Address"],
               "rows": [[n, f"Patient {n:04d}", "1970-01-01", "MF"[n % 2],
                         f"{n} Example St, Brisbane"] for n in range(50)]}
    try:
        for _ in range(200):
            probe.ping()
        before = measure.calibrate()
        pings, codecs = [], []
        for _ in range(2000):
            start = time.perf_counter_ns()
            probe.ping()
            pings.append(time.perf_counter_ns() - start)
        for _ in range(300):
            start = time.perf_counter_ns()
            size = adapter.cdr_roundtrip(payload)
            codecs.append(time.perf_counter_ns() - start)
        calib = (before + measure.calibrate()) / 2
    finally:
        probe.close()
    return {
        "orb.orb.roundtrip_us": measure.to_reference(
            statistics.median(pings) / 1e3, calib),
        "orb.cdr.us_per_kb": measure.to_reference(
            statistics.median(codecs) / 1e3, calib) / (size / 1024),
    }


def run_traced(workload, seed, seconds, check):
    """Per-layer numbers: a few untraced reference segments (for the
    tracing overhead), then the seams go in and a fresh deployment runs
    the same stream with one client and no probe phase."""
    import adapter
    import harness
    import measure
    import tracing
    from oracle import Oracle

    started = time.monotonic()
    few = 1 if check else 4
    twin = adapter.deploy("mem")
    oracle = Oracle(twin)
    reference = harness.Setup(workload, seed, oracle, probes=False,
                              clients=1)
    plain = harness.measure_segments(reference, workload, seed, 0, few,
                                     probes=False, clients=1)
    plain_p50 = statistics.median(s.metrics()["stmt_p50_us"] for s in plain)
    reference.close()

    tracer = tracing.Tracer()
    tracer.install()
    setup = harness.Setup(workload, seed, oracle, probes=False, clients=1)
    deployment = setup.deployment
    deployment.system.reset_metrics()
    per_segment, budgets, last_rows = [], [], []
    counters = {"threads": 0, "giop": (0, 0)}
    client_thread = threading.current_thread().name

    def analyse(segment):
        phase = segment.main[0]
        n = len(phase.statements)
        windows = [(start, start + ns)
                   for start, ns in zip(phase.starts, phase.latencies)]
        classes = [statement.cls for statement in phase.statements]
        totals, rows = tracing.analyse(tracer, tracer.drain(), windows,
                                       classes, client_thread)

        def us(ns):
            return measure.to_reference(ns / 1e3, segment.calib_ms)

        values = tracing.layer_values(totals, tracer.live_layers(), n, us)
        messages, sent = adapter.giop_counters(deployment)
        values["orb.giop.msgs_per_stmt"] = \
            (messages - counters["giop"][0]) / n
        values["orb.giop.bytes_per_stmt"] = (sent - counters["giop"][1]) / n
        counters["giop"] = (messages, sent)
        values["stmt_p50_us"] = segment.metrics()["stmt_p50_us"]
        values["proc.cpu_frac"] = segment.cpu_ns / segment.wall_ns
        values["proc.calib_ms"] = segment.calib_ms
        per_segment.append(values)
        counts = {cls: classes.count(cls) for cls in set(classes)}
        budgets.append({cls: {layer: us(ns) / counts[cls]
                              for layer, ns in layers.items()}
                        for cls, layers in totals["by_class"].items()})
        counters["threads"] = max(counters["threads"],
                                  threading.active_count())
        last_rows[:] = rows

    remaining = 0.0 if check \
        else max(0.0, seconds - (time.monotonic() - started))
    harness.measure_segments(setup, workload, seed, remaining, few,
                             first=few, probes=False, clients=1,
                             tracer=tracer, on_segment=analyse)
    opened, reused = adapter.connection_counters(deployment)
    floors = _floors(deployment)
    setup.close()
    adapter.close(twin)
    tracer.uninstall()

    values = {}
    for name in per_segment[0]:
        column = [segment[name] for segment in per_segment]
        values[name] = None if column[0] is None \
            else statistics.median(column)
    values["trace.overhead_frac"] = values.pop("stmt_p50_us") / plain_p50 - 1
    values["trace.seams_missing"] = len(tracer.missing)
    values["orb.transport.conns_opened"] = opened
    values["orb.transport.conns_reused_frac"] = \
        reused / (opened + reused) if opened + reused else 0.0
    values["proc.threads_peak"] = counters["threads"]
    values.update(floors)

    budget = {}
    for cls in sorted({cls for segment in budgets for cls in segment}):
        budget[cls] = {
            layer: statistics.median(segment[cls].get(layer, 0.0)
                                     for segment in budgets if cls in segment)
            for layer in tracing.LAYERS}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace_{workload}.jsonl")
    with open(path, "w") as handle:
        for row in last_rows:
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")
    info = {"segments": len(per_segment), "seams_missing": tracer.missing,
            "budget_self_us_by_class": budget,
            "trace_file": os.path.relpath(path, ROOT),
            "untraced_stmt_p50_us": plain_p50}
    return values, info, oracle


def run_one(args) -> int:
    """One workload in this (fresh) process; prints the result line."""
    import measure
    import metrics

    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]   # the program's defaults, not the caller's
    cpu = measure.pin_to_one_cpu()
    runner = run_traced if args.trace else run_untraced
    values, info, oracle = runner(args.workload, args.seed, args.seconds,
                                  args.check)
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    info.update(workload=args.workload, seed=args.seed, traced=args.trace,
                pinned_cpu=cpu, nproc=os.cpu_count(),
                python=platform.python_version(), git_sha=git_sha())
    print(f"# budget {args.workload} "
          + " ".join(f"{key}={value}" for key, value in info.items()
                     if not isinstance(value, (dict, list))))
    for name in info.get("seams_missing", []):
        print(f"# seam missing: {name}")
    for name, unit in units.items():
        value = values.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{args.workload:11s} {name:42s} {shown:>12s} {unit}")
    if not args.trace:
        print(f"{args.workload:11s} {'fail_frac':42s} "
              f"{values['fail_frac']:12.6g} ratio")
        print(f"# ungated: whole-run raw p99 "
              f"{info['stmt_p99_us_raw']:.1f} us over {info['statements']} "
              f"statements; calibration {info['calib_ms']:.3f} ms "
              f"(reference {measure.CALIB_REF_MS} ms)")
    else:
        print_budget(info["budget_self_us_by_class"])
    for example in oracle.examples:
        print(f"# WRONG: {example}", file=sys.stderr)
    sys.stdout.flush()
    # A layer whose seams are all gone prints null above and reads 0 here
    # (trace.seams_missing says why): the result line takes only numbers.
    print(json.dumps({
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {name: {"value": values.get(name) or 0.0, "unit": unit}
                    for name, unit in units.items()}}))
    return 1 if args.check and oracle.failed else 0


def print_budget(budget) -> None:
    """Stacked self time per statement class: where a statement of
    each class spends its microseconds, layer by layer."""
    classes = list(budget)
    print("# self us per statement, by class:")
    print("# " + f"{'layer':22s}" + "".join(f"{cls:>11s}" for cls in classes))
    layers = list(next(iter(budget.values()))) if budget else []
    for layer in layers:
        print("# " + f"{layer:22s}"
              + "".join(f"{budget[cls][layer]:11.1f}" for cls in classes))
    print("# " + f"{'(sum)':22s}"
          + "".join(f"{sum(budget[cls].values()):11.1f}" for cls in classes))


def git_sha() -> str:
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ------------------------------------------------------------ the whole set --

def spawn(workload, args, trace) -> dict:
    """One workload in its own fresh interpreter; returns its result."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(trace))]
    if args.check:
        command.append("--check")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise SystemExit(f"{workload}: run ended without a result line "
                         f"(exit {done.returncode})") from None
    print("\n".join(lines[:-1]), flush=True)
    return result


def run_all(args) -> int:
    import measure
    import workloads

    spec = declared()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    passes, failed = [], 0
    for repeat in range(args.repeat):
        results = {}
        for workload in names:
            results[workload] = spawn(workload, args, trace=False)
            failed += results[workload]["failed"]
            if repeat == 0 and not args.check:
                failed += spawn(workload, args, trace=True)["failed"]
        passes.append(results)
    if args.check:
        print(f"# check: {failed} wrong answers")
        return 1 if failed else 0
    print("# end-to-end summary (last pass), reference-machine units")
    print(f"{'':20s}" + "".join(f"{workload:>14s}" for workload in names))
    for name in bounds:
        print(f"{name:20s}" + "".join(
            f"{passes[-1][workload]['metrics'][name]['value']:14.4g}"
            for workload in names))
    worst = 0
    if args.repeat > 1:
        print(f"# A/A agreement over {args.repeat} runs of the same code: "
              "(max - min) / median, against each metric's bound")
        for workload in names:
            for name, bound in bounds.items():
                column = [results[workload]["metrics"][name]["value"]
                          for results in passes]
                value = measure.spread(column)
                flag = "" if value <= bound else "  <-- exceeds bound"
                worst += value > bound
                print(f"{workload:11s} {name:20s} spread {value:7.4f} "
                      f"bound {bound:5.2f}{flag}")
    return 1 if failed or worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="only this workload; without --repeat it runs "
                             "in this process and ends with the result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="per-layer run instead of the end-to-end one")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="A/A mode: run the set K times, print spreads")
    parser.add_argument("--check", action="store_true",
                        help="one segment per workload; non-zero exit on "
                             "any wrong answer")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.workload and args.repeat == 1:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
