"""Scalability study: coalition routing vs the alternatives.

Run::

    python examples/scalability_study.py

Generates synthetic federations of growing size and compares, per
discovery query, WebFINDIT's coalition/service-link routing against

* **broadcast** — the flat Web: ask every source (linear cost), and
* **global schema** — the tightly-coupled multidatabase: constant-time
  queries bought with quadratic integration work up front.

This prints the S1 and S3 tables of EXPERIMENTS.md;
``tests/apps/test_paper_claims.py`` holds their shape.
"""

from repro.bench import (build_scaled_space, discovery_workload, print_table,
                         ratio)

SIZES = (56, 112, 224)
QUERIES = 20


def main() -> None:
    discovery_rows = []
    construction_rows = []
    for size in SIZES:
        space = build_scaled_space(databases=size, coalitions=size // 8)
        engine = space.discovery_engine()
        workload = discovery_workload(space, QUERIES, seed=11)

        webfindit_contacts = 0
        for query in workload:
            result = engine.discover(query.text, query.start_database,
                                     max_hops=12)
            assert result.resolved
            webfindit_contacts += result.codatabases_contacted
        webfindit_avg = webfindit_contacts / QUERIES

        broadcast_avg = sum(
            space.broadcast.discover(q.text).sources_contacted
            for q in workload) / QUERIES

        discovery_rows.append([
            size, f"{webfindit_avg:.1f}", f"{broadcast_avg:.0f}",
            f"{ratio(broadcast_avg, webfindit_avg):.1f}x"])
        construction_rows.append([
            size, space.global_schema.total_comparisons,
            space.registry.update_operations])

    print_table("Per-query discovery cost (metadata contacts)",
                ["N databases", "WebFINDIT", "broadcast", "advantage"],
                discovery_rows)
    print()
    print_table("Cumulative construction/maintenance work",
                ["N databases", "global-schema comparisons",
                 "WebFINDIT co-db writes"],
                construction_rows)
    print()
    print("Reading: broadcast pays per query, forever; the global schema")
    print("pays quadratically up front (and again on every change);")
    print("WebFINDIT's coalition routing keeps both sides incremental.")


if __name__ == "__main__":
    main()
