"""Synthetic information-space generation for scalability benchmarks.

The paper's testbed is 14 databases; its scalability claims (§1, §2)
are architectural.  To measure them we generate topologies of arbitrary
size with the same shape as the healthcare world: databases clustered
into topic coalitions, a sparse mesh of service links between
coalitions, and everything reachable from everything via links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.baselines.broadcast import BroadcastDirectory
from repro.baselines.global_schema import GlobalSchemaMultidatabase
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink

#: Topic vocabulary used to label synthetic coalitions.
TOPIC_NOUNS = ("cardiology", "oncology", "radiology", "pathology",
               "pharmacy", "genetics", "neurology", "immunology",
               "pediatrics", "geriatrics", "surgery", "nursing",
               "insurance", "billing", "transport", "research",
               "nutrition", "psychiatry", "dermatology", "audiology")


@dataclass
class ScaledSpace:
    """A generated topology plus the handles benchmarks need."""

    registry: Registry
    broadcast: BroadcastDirectory
    global_schema: GlobalSchemaMultidatabase
    database_names: list[str]
    coalition_topics: dict[str, str]  # coalition name -> topic

    def local_resolver(self, name: str) -> CoDatabaseClient:
        """Resolver over in-process co-databases (no ORB overhead), so
        counted metadata calls are purely algorithmic."""
        return CoDatabaseClient.for_local(self.registry.codatabase(name))

    def discovery_engine(self, **kwargs) -> DiscoveryEngine:
        return DiscoveryEngine(self.local_resolver, **kwargs)


def build_scaled_system(databases: int, coalitions: int,
                        links_per_coalition: int = 2,
                        seed: int = 1234, **system_options):
    """Deploy a *running* scaled federation: real engines, wrappers,
    co-database servants and naming bindings on an IIOP fabric — the
    in-memory one by default, or any ``transport=`` (e.g. a pooled
    :class:`~repro.orb.transport.TcpTransport`) — so scalability can be
    measured in GIOP messages and wall-clock, not just metadata calls.

    Sources rotate over the three ORB products.  Each source is a tiny
    relational database with one table and one exported function.
    *system_options* are the system's own keywords (``metadata_cache=``,
    ``parallel_discovery=``, ``discovery_workers=``: the S1 hot-path
    knobs).  Returns a :class:`~repro.core.system.WebFinditSystem`.
    """
    import random as _random

    from repro.core.model import SourceDescription
    from repro.core.service_link import EndpointKind, ServiceLink
    from repro.core.system import WebFinditSystem
    from repro.orb.products import ORBIX, ORBIXWEB, VISIBROKER
    from repro.sql.engine import Database
    from repro.wrappers.base import (ExportedAttribute, ExportedFunction,
                                     ExportedType, SqlBinding)

    if coalitions < 1 or databases < coalitions:
        raise ValueError("need at least one database per coalition")
    rng = _random.Random(seed)
    system = WebFinditSystem(**system_options)
    products = (ORBIX, ORBIXWEB, VISIBROKER)

    coalition_names: list[str] = []
    topics: dict[str, str] = {}
    for index in range(coalitions):
        topic = _topic_for(index)
        name = f"C{index:04d} {topic}"
        system.create_coalition(name, topic)
        coalition_names.append(name)
        topics[name] = topic

    for index in range(databases):
        coalition_name = coalition_names[index % coalitions]
        topic = topics[coalition_name]
        name = f"db{index:05d}"
        database = Database(name)
        database.execute("CREATE TABLE items (id INT PRIMARY KEY, "
                         "label VARCHAR(30))")
        database.execute("INSERT INTO items VALUES (1, ?)", [topic])
        exported = ExportedType(
            "Items",
            attributes=[ExportedAttribute("items.label", "string")],
            functions=[ExportedFunction(
                "LabelOf", ("item_id",), "string",
                SqlBinding("SELECT label FROM items WHERE id = ?",
                           ("item_id",)))])
        system.register_relational_source(
            database,
            SourceDescription(name=name, information_type=topic,
                              location=f"{name}.example.net"),
            exported_types=[exported],
            orb_product=products[index % len(products)])
        system.join(name, coalition_name)

    for index, coalition_name in enumerate(coalition_names):
        targets = {coalition_names[(index + 1) % coalitions]}
        while len(targets) < min(links_per_coalition, coalitions - 1):
            candidate = rng.choice(coalition_names)
            if candidate != coalition_name:
                targets.add(candidate)
        for target in targets:
            try:
                system.registry.add_service_link(ServiceLink(
                    from_kind=EndpointKind.COALITION,
                    from_name=coalition_name,
                    to_kind=EndpointKind.COALITION, to_name=target,
                    information_type=topics[target]))
            except Exception:
                pass  # duplicate edge
    return system


def _topic_for(index: int) -> str:
    noun = TOPIC_NOUNS[index % len(TOPIC_NOUNS)]
    generation = index // len(TOPIC_NOUNS)
    return f"{noun} {generation}" if generation else noun


def build_scaled_space(databases: int, coalitions: int,
                       links_per_coalition: int = 2,
                       seed: int = 1234) -> ScaledSpace:
    """Generate a federation of *databases* sources in *coalitions*
    clusters with a ring-plus-random link mesh.

    Databases are distributed round-robin over coalitions; each
    coalition links to its ring successor (guaranteeing reachability)
    plus ``links_per_coalition - 1`` random others.
    """
    if coalitions < 1 or databases < coalitions:
        raise ValueError("need at least one database per coalition")
    rng = random.Random(seed)
    registry = Registry()
    broadcast = BroadcastDirectory()
    global_schema = GlobalSchemaMultidatabase()

    coalition_topics: dict[str, str] = {}
    for index in range(coalitions):
        topic = _topic_for(index)
        name = f"C{index:04d} {topic}"
        registry.create_coalition(name, topic)
        coalition_topics[name] = topic
    coalition_names = list(coalition_topics)

    database_names: list[str] = []
    for index in range(databases):
        coalition_name = coalition_names[index % coalitions]
        topic = coalition_topics[coalition_name]
        name = f"db{index:05d}"
        description = SourceDescription(
            name=name, information_type=topic,
            location=f"{name}.example.net",
            interface=[f"{topic.split()[0].title()}Data"])
        registry.add_source(description)
        registry.join(name, coalition_name)
        broadcast.register(description)
        global_schema.integrate_source(
            description, [f"{topic}_table_{i}" for i in range(3)])
        database_names.append(name)

    for index, coalition_name in enumerate(coalition_names):
        targets = {coalition_names[(index + 1) % coalitions]}
        while len(targets) < min(links_per_coalition, coalitions - 1):
            candidate = rng.choice(coalition_names)
            if candidate != coalition_name:
                targets.add(candidate)
        for target in targets:
            link = ServiceLink(
                from_kind=EndpointKind.COALITION, from_name=coalition_name,
                to_kind=EndpointKind.COALITION, to_name=target,
                information_type=coalition_topics[target])
            try:
                registry.add_service_link(link)
            except Exception:
                pass  # duplicate ring/random edge; keep the mesh sparse

    return ScaledSpace(registry=registry, broadcast=broadcast,
                       global_schema=global_schema,
                       database_names=database_names,
                       coalition_topics=coalition_topics)
