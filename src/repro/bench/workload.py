"""Query workloads over the synthetic and healthcare worlds.

``examples/scalability_study.py`` and ``tests/apps/test_paper_claims.py``
drive the scaled spaces with :func:`discovery_workload`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.scale import ScaledSpace


@dataclass(frozen=True)
class Query:
    """One discovery query with its ground truth."""

    text: str
    #: Topic the query targets (empty for miss queries).
    target_topic: str
    #: Name of a database whose co-database the query starts from.
    start_database: str


def discovery_workload(space: ScaledSpace, queries: int,
                       miss_rate: float = 0.0,
                       seed: int = 99) -> list[Query]:
    """Generate *queries* topic lookups over a scaled space.

    Each query targets a random coalition topic and starts at a random
    database (usually in a *different* coalition, so resolution has to
    travel).  A *miss_rate* fraction asks for topics nobody advertises.
    """
    rng = random.Random(seed)
    topics = list(space.coalition_topics.values())
    result: list[Query] = []
    for index in range(queries):
        start = rng.choice(space.database_names)
        if rng.random() < miss_rate:
            result.append(Query(text=f"nonexistent topic {index}",
                                target_topic="", start_database=start))
        else:
            topic = rng.choice(topics)
            result.append(Query(text=topic, target_topic=topic,
                                start_database=start))
    return result


#: Topics of the healthcare world, one per Figure-1 coalition.
HEALTHCARE_QUERIES = (
    "Medical Research",
    "Medical Insurance",
    "Superannuation",
    "Medical Workers Union",
    "Medical",
)


def sql_workload(seed: int = 7, statements: int = 50) -> list[str]:
    """A mixed read workload against the RBH schema."""
    rng = random.Random(seed)
    templates = [
        "SELECT * FROM MedicalStudent",
        "SELECT Name FROM MedicalStudent WHERE Year >= {year}",
        "SELECT COUNT(*) FROM Patient",
        "SELECT Title, Funding FROM ResearchProjects WHERE Funding > {amount}",
        "SELECT d.Position, COUNT(*) FROM Doctors d GROUP BY d.Position",
        "SELECT p.Name, h.Description FROM Patient p "
        "JOIN History h ON p.PatientId = h.PatientId "
        "WHERE h.DateRecorded > '{date}'",
    ]
    workload = []
    for __ in range(statements):
        template = rng.choice(templates)
        workload.append(template.format(
            year=rng.randint(1, 6),
            amount=rng.randint(50000, 800000),
            date=f"199{rng.randint(4, 8)}-0{rng.randint(1, 9)}-15"))
    return workload
