"""WebFINDIT reproduction.

A full-stack Python reimplementation of *Using Java and CORBA for
Implementing Internet Databases* (Bouguettaya, Benatallah, Ouzzani,
Hendra - ICDE 1999): coalition-based organization and discovery of
federated, heterogeneous databases over a CORBA-style middleware.

Quickstart::

    from repro.apps.healthcare import build_healthcare_system

    deployment = build_healthcare_system()
    browser = deployment.browser()           # a QUT Research user
    print(browser.find("Medical Research").text)
    print(browser.fetch("Royal Brisbane Hospital",
                        "SELECT * FROM MedicalStudent").text)

Layer map (Figure 3 of the paper):

* query layer - :mod:`repro.webtassili`, :class:`repro.core.QueryProcessor`,
  :class:`repro.core.Browser`
* communication layer - :mod:`repro.orb` (CDR, GIOP/IIOP, IORs, naming)
* meta-data layer - :class:`repro.core.CoDatabase` on :mod:`repro.oodb`
* data layer - :mod:`repro.wrappers` (the ISIs) over :mod:`repro.gateway`
  (JDBC: one driver per dialect) to :mod:`repro.sql`, and over
  :mod:`repro.oodb`; a :class:`~repro.sql.result.ResultSet` crosses the
  ORB as the ``ResultSet/4`` value type its own module registers
"""

from repro.core import (Browser, Coalition, CoDatabase, DiscoveryEngine,
                        Ontology, QueryProcessor, Registry, ServiceLink,
                        Session, SourceDescription, WebFinditSystem)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "WebFinditSystem", "Registry", "Browser", "QueryProcessor", "Session",
    "Coalition", "ServiceLink", "CoDatabase", "DiscoveryEngine",
    "SourceDescription", "Ontology", "ReproError",
    "__version__",
]
