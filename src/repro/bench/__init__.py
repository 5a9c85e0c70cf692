"""Benchmark support: synthetic topologies, workloads, and reporting."""

from repro.bench.reporting import format_table, print_table, ratio
from repro.bench.scale import (ScaledSpace, build_scaled_space,
                               build_scaled_system)
from repro.bench.workload import (HEALTHCARE_QUERIES, Query,
                                  discovery_workload, sql_workload)

__all__ = ["build_scaled_space", "build_scaled_system", "ScaledSpace",
           "discovery_workload", "sql_workload", "Query",
           "HEALTHCARE_QUERIES",
           "format_table", "print_table", "ratio"]
