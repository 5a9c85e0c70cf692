"""WebFINDIT core: the paper's primary contribution.

Coalitions, service links, co-databases, topic discovery, the
WebTassili query processor, the browser, and the system facade that
wires the four layers (query, communication, meta-data, data) together.
"""

from repro.core.browser import Browser
from repro.core.coalition import Coalition
from repro.core.codatabase import (CODATABASE_INTERFACE, CoDatabase,
                                   CoDatabaseServant)
from repro.core.discovery import (CoalitionLead, CoDatabaseClient,
                                  DiscoveryEngine, DiscoveryResult)
from repro.core.metacache import MetadataCache
from repro.core.model import (InformationType, Ontology, SourceDescription,
                              topic_score, topic_words)
from repro.core.query_processor import QueryProcessor, Session, WtResult
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.snapshot import (export_topology, import_topology,
                                 load_topology, save_topology)
from repro.core.system import DeploymentRecord, WebFinditSystem

__all__ = [
    "WebFinditSystem", "DeploymentRecord",
    "Registry", "Coalition", "ServiceLink", "EndpointKind",
    "CoDatabase", "CoDatabaseServant", "CODATABASE_INTERFACE",
    "DiscoveryEngine", "DiscoveryResult", "CoalitionLead",
    "CoDatabaseClient",
    "MetadataCache",
    "QueryProcessor", "Session", "WtResult", "Browser",
    "SourceDescription", "InformationType", "Ontology",
    "topic_score", "topic_words",
    "export_topology", "import_topology", "save_topology", "load_topology",
]
