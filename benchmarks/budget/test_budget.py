"""Checks of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/budget -q
"""

from __future__ import annotations

import collections
import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

import measure
import metrics
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ------------------------------------------------------------------ streams --

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_stream_is_a_pure_function_of_the_seed(workload):
    assert workloads.digest(workload, 7) == workloads.digest(workload, 7)
    assert workloads.digest(workload, 7) != workloads.digest(workload, 8)


def _shares(workload, segment=0, client=0):
    stream = workloads.stream(workload, 1999, client, segment)
    classes = collections.Counter(s.cls for s in stream)
    kinds = collections.Counter(s.kind for s in stream)
    return len(stream), classes, kinds


def test_class_shares_match_the_stated_mix():
    n, classes, kinds = _shares("browse_mem")
    assert set(classes) == {"discover", "explore"}
    assert 0.08 <= kinds["find_miss"] / classes["discover"] <= 0.13

    n, classes, kinds = _shares("query_mem")
    assert classes["lookup"] / n == pytest.approx(0.80)
    assert classes["scan"] / n == pytest.approx(0.20)
    scans = sorted(k for k in kinds.elements()
                   if k in ("aggregate", "bulk", "selective", "join"))
    assert scans[len(scans) // 2] == scans[len(scans) // 2 - 1] == "bulk"

    n, classes, kinds = _shares("mixed_tcp")
    data = classes["lookup"] + classes["scan"]
    assert classes["scan"] / data == pytest.approx(0.05)
    assert 0.2 <= data / n <= 0.5 and "update" not in classes

    n, classes, kinds = _shares("evolve_mem")
    assert classes["update"] / n == pytest.approx(0.30, abs=0.01)
    assert "scan" not in classes


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_composition_does_not_depend_on_the_seed(workload):
    def kinds(seed):
        return collections.Counter(
            s.kind for s in workloads.stream(workload, seed, 0, 3))
    assert kinds(1) == kinds(2)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_probes_cover_exactly_the_classes_the_mix_lacks(workload):
    own = {s.cls for s in workloads.stream(workload, 1, 0, 0)}
    probed = {s.cls for s in workloads.probe_stream(workload, 1, 0)}
    every = {"discover", "explore", "lookup", "scan", "update"}
    assert own | probed == every
    assert set(workloads.WORKLOADS[workload].probes) == every - own


def test_write_groups_cancel_themselves():
    for unit in workloads.update_units(rounds=2):
        writes = [s.kind for s in unit if s.cls == "update"]
        assert writes in (["join", "leave"], ["create_link", "drop_link"],
                          ["create_coalition", "join", "dissolve_coalition"],
                          ["insert", "delete"])
        reads = [s for s in unit if s.cls != "update"]
        assert len(reads) == 2 and all(s.check[0] != "twin" for s in reads)


# ------------------------------------------------------------ declarations --

def test_benchmark_json_matches_the_code(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/budget"]
    assert [w["name"] for w in declared["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        metrics.PER_LAYER
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_names_units_and_counts_are_within_the_limits(declared):
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert unit.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


# -------------------------------------------------------------- the program --

def _run(*arguments):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *arguments], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.rstrip("\n").split("\n")


def test_every_declared_end_to_end_metric_is_printed(declared):
    lines = _run("--workload", "evolve_mem", "--check", "--trace", "0")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[1] for line in lines[:-1]
               if not line.startswith("#")}
    assert printed == set(metrics.END_TO_END) | {"fail_frac"}


def test_traced_run_prints_every_layer_metric_and_a_sound_span_tree():
    lines = _run("--workload", "query_mem", "--check", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["trace.seams_missing"] == 0
    assert value["core.discovery.calls_per_stmt"] == 0
    assert value["core.registry.calls_per_stmt"] == 0
    assert value["sql.self_us_per_stmt"] > value["webtassili.self_us_per_stmt"]
    with open(os.path.join(HERE, "out", "trace_query_mem.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans)
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] >= 0:
            parent = by_id[span["parent"]]
            assert parent["stmt"] == span["stmt"]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]


# ------------------------------------------------------------------ tracing --

def _leaf():
    time.sleep(0.001)


def _inner():
    _leaf()
    _leaf()


def _outer():
    _inner()
    time.sleep(0.001)


def test_self_times_sum_to_the_roots_and_missing_seams_degrade():
    seams = [dict(layer="orb.orb", module=__name__, name="_outer"),
             dict(layer="orb.giop", module=__name__, name="_inner"),
             dict(layer="orb.cdr", module=__name__, name="_leaf"),
             dict(layer="sql", module=__name__, name="_gone"),
             dict(layer="oodb", module="no.such.module", name="f")]
    tracer = tracing.Tracer(seams)
    tracer.install()
    try:
        assert tracer.missing == [f"{__name__}:_gone", "no.such.module:f"]
        assert tracer.live_layers() == {"orb.orb", "orb.giop", "orb.cdr"}
        module = sys.modules[__name__]
        module._outer()                       # not recording: no span
        tracer.recording = True
        windows = []
        for _ in range(3):
            start = time.perf_counter_ns()
            module._outer()
            windows.append((start, time.perf_counter_ns()))
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert module._outer.__name__ == "_outer" \
        and not hasattr(module._outer, "__wrapped__")
    name = threading.current_thread().name
    totals, rows = tracing.analyse(tracer, tracer.drain(), windows,
                                   ["lookup"] * 3, name)
    assert [totals[layer][0] for layer in ("orb.orb", "orb.giop",
                                           "orb.cdr")] == [3, 3, 6]
    roots = sum(r["end_ns"] - r["start_ns"] for r in rows if r["parent"] < 0)
    selves = sum(totals[layer][2] for layer in tracing.LAYERS)
    assert selves == roots == totals["orb.orb"][1]
    statement_ns = sum(end - start for start, end in windows)
    assert totals["unattributed"] == statement_ns - roots
    assert 0 <= totals["unattributed"] < 0.05 * statement_ns
    assert totals["orb.cdr"][2] >= 6 * 1_000_000      # six 1 ms leaves
    assert totals["orb.giop"][2] < totals["orb.cdr"][2]
    assert sum(totals["by_class"]["lookup"].values()) == selves
    assert tracer.drain() == []


# ------------------------------------------------------------------ helpers --

def test_percentile_and_normalisation_on_known_inputs():
    assert measure.percentile([5], 95) == 5
    assert measure.percentile(range(1, 102), 50) == 51
    assert measure.percentile([1, 2, 3, 4], 50) == 2.5
    assert measure.percentile([10, 20], 95) == pytest.approx(19.5)
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    slow = 2 * measure.CALIB_REF_MS       # a machine at half speed
    assert measure.to_reference(300.0, slow) == 150.0
    assert measure.rate_to_reference(1000.0, slow) == 2000.0
    assert measure.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    merged = measure.median_over_segments(
        [{"a": 1.0, "b": 5.0}, {"a": 3.0}, {"a": 2.0, "b": 7.0}])
    assert merged == {"a": 2.0, "b": 6.0}
    assert 0.05 < measure.calibrate(runs=3) < 50.0
