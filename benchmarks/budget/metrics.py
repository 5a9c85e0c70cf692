"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` at the root of the repository declares the same
names (plus each end-to-end metric's direction and regression bound);
``test_budget.py`` checks the two agree.
"""

from __future__ import annotations

from tracing import LAYERS

#: What a user of the federation would see.  ``fail_frac`` is printed
#: too, but is gated through ``failed`` / ``attempted`` of the result
#: line, not declared: a metric that is 0 at seed has no relative bound.
END_TO_END = {
    "setup_s": "s",
    "stmt_per_s": "1/s",
    "stmt_p50_us": "us",
    "stmt_p95_us": "us",
    "discover_p50_us": "us",
    "discover_p95_us": "us",
    "explore_p50_us": "us",
    "lookup_p50_us": "us",
    "scan_p50_us": "us",
    "fetch_overhead_us": "us",
    "update_p50_us": "us",
    "update_p95_us": "us",
    "rss_mb": "MiB",
}

PER_LAYER = {
    **{f"{layer}.{suffix}": unit for layer in LAYERS
       for suffix, unit in (("calls_per_stmt", "count"),
                            ("busy_us_per_stmt", "us"),
                            ("self_us_per_stmt", "us"))},
    "orb.giop.msgs_per_stmt": "count",
    "orb.giop.bytes_per_stmt": "B",
    "core.discovery.codbs_per_find": "count",
    "core.discovery.metadata_calls_per_find": "count",
    "orb.transport.conns_opened": "count",
    "orb.transport.conns_reused_frac": "ratio",
    "sql.rows_per_stmt": "count",
    "sql.distinct_text_frac": "ratio",
    "orb.orb.roundtrip_us": "us",
    "orb.cdr.us_per_kb": "us/KiB",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_us_per_stmt": "us",
    "trace.seams_missing": "count",
    "proc.cpu_frac": "ratio",
    "proc.calib_ms": "ms",
    "proc.threads_peak": "count",
}
