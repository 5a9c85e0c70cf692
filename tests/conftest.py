"""Shared fixtures.

The healthcare deployment is expensive (14 engines + data + 28 CORBA
activations), so it is built once per session; tests that mutate
topology build their own systems.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.apps.healthcare import build_healthcare_system
from repro.sql.engine import Database

# Loaded with ``--hypothesis-profile=ci`` by CI's sql-differential,
# cdr-fuzz, discovery-model, tier2-replication and tier2-quorum jobs:
# ten times hypothesis's default example count, examples chosen by
# ``--hypothesis-seed``.  Only tests/sql/test_differential_sqlite.py,
# tests/orb/test_cdr_properties.py, tests/core/test_discovery_model.py,
# tests/core/test_topic_index.py and
# tests/core/test_write_path_properties.py take their settings from the
# loaded profile; tier-1 loads none.
settings.register_profile(
    "ci", max_examples=10 * settings.get_profile("default").max_examples,
    derandomize=False, deadline=None)


@pytest.fixture(scope="session")
def healthcare():
    """The full Figure-1 deployment (read-only across tests)."""
    return build_healthcare_system()


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """Seed for fault-injection scenarios.  CI's tier-2 job sweeps a
    fixed set of seeds via the CHAOS_SEED environment variable."""
    return int(os.environ.get("CHAOS_SEED", "1999"))


@pytest.fixture()
def people_db() -> Database:
    """A small relational database used across SQL tests."""
    db = Database("people")
    db.execute("CREATE TABLE person (id INT PRIMARY KEY, "
               "name VARCHAR(40) NOT NULL, age INT, city VARCHAR(30))")
    db.executemany(
        "INSERT INTO person VALUES (?, ?, ?, ?)",
        [
            [1, "Alice", 34, "Brisbane"],
            [2, "Bob", 28, "Cairns"],
            [3, "Carol", 45, "Brisbane"],
            [4, "Dan", None, "Sydney"],
            [5, "Eve", 28, None],
        ])
    db.execute("CREATE TABLE orders (order_id INT PRIMARY KEY, "
               "person_id INT, amount REAL, placed DATE)")
    db.executemany(
        "INSERT INTO orders VALUES (?, ?, ?, ?)",
        [
            [10, 1, 120.5, "1998-01-10"],
            [11, 1, 75.0, "1998-02-02"],
            [12, 2, 12.25, "1998-02-11"],
            [13, 3, 430.0, "1998-03-01"],
        ])
    return db
