"""One-call deployment of the paper's healthcare application (§4/§5).

``build_healthcare_system()`` assembles the complete testbed:

* 14 native databases (10 relational across Oracle/mSQL/DB2 dialects,
  3 ObjectStore-style and 1 Ontos-style object database), populated
  with seeded synthetic data;
* 14 co-databases, one per source;
* three ORB products (Orbix, OrbixWeb, VisiBroker for Java) sharing one
  IIOP fabric, with each DBMS behind the product Figure 2 assigns it;
* 5 coalitions and 9 service links per Figure 1;
* the RBH documentation artefacts browsed in Figures 4–5.
"""

from __future__ import annotations

from repro.apps.healthcare import data, schemas
from repro.apps.healthcare import topology as topo
from repro.core.model import SourceDescription
from repro.core.replication import replica_binding
from repro.core.system import WebFinditSystem
from repro.oodb.database import ObjectDatabase
from repro.orb.products import get_product
from repro.sql.engine import Database

#: The HTML document displayed in Figure 5.
RBH_HTML_DOCUMENT = """<html>
<head><title>Royal Brisbane Hospital</title></head>
<body>
<h1>Royal Brisbane Hospital</h1>
<p>The Royal Brisbane Hospital is a teaching hospital conducting
medical research and providing acute care for Queensland.</p>
<ul>
  <li>Exported types: ResearchProjects, PatientHistory</li>
  <li>Member of coalitions: Research, Medical</li>
</ul>
</body>
</html>"""

#: Text documentation shown alongside the HTML format in Figure 4.
RBH_TEXT_DOCUMENT = ("Royal Brisbane Hospital: Oracle database covering "
                     "patients, beds, doctors, research projects and "
                     "medical students.")

_DIALECT_FOR = {"oracle": "oracle", "msql": "msql", "db2": "db2"}
_OODB_PRODUCT = {"objectstore": ("ObjectStore", "5.1"),
                 "ontos": ("Ontos", "3.1")}


class HealthcareDeployment:
    """Handle to the deployed testbed: system plus native engines."""

    def __init__(self, system: WebFinditSystem,
                 relational: dict[str, Database],
                 objects: dict[str, ObjectDatabase]):
        self.system = system
        self.relational = relational
        self.objects = objects

    def browser(self, home_database: str = topo.QUT):
        """A browser session homed (by default) at QUT Research — the
        user the paper's walkthrough follows."""
        return self.system.browser(home_database)

    def codatabase_endpoint(self, name: str):
        """The (host, port) a source's co-database listens on — what a
        fault plan targets to make that co-database misbehave."""
        ior = self.system.naming.resolve(f"webfindit/codb/{name}")
        return ior.primary.endpoint

    def codatabase_replica_endpoint(self, name: str, index: int):
        """The (host, port) of one co-database replica — what a chaos
        plan targets to kill exactly that replica's server."""
        ior = self.system.naming.resolve(replica_binding(name, index))
        return ior.primary.endpoint


def build_healthcare_system(**system_options) -> HealthcareDeployment:
    """Deploy the full healthcare federation and return its handle.

    *system_options* are :class:`~repro.core.system.WebFinditSystem`'s
    own keywords (``transport=``, ``resilience=``, ``isolate_sources=``,
    ``replication_factor=``, ...), declared there and nowhere else.
    """
    system = WebFinditSystem(ontology=topo.healthcare_ontology(),
                             **system_options)
    relational: dict[str, Database] = {}
    objects: dict[str, ObjectDatabase] = {}
    relational_exports = schemas.relational_exports()
    object_exports = schemas.object_exports()

    for spec in topo.DATABASE_SPECS:
        description = SourceDescription(
            name=spec.name,
            information_type=spec.information_type,
            documentation_url=spec.documentation_url,
            location=spec.location)
        product = get_product(spec.orb_product)
        if spec.dbms in _DIALECT_FOR:
            database = Database(spec.name, dialect=_DIALECT_FOR[spec.dbms])
            database.execute_script(schemas.RELATIONAL_DDL[spec.name])
            populate = data.RELATIONAL_POPULATORS[spec.name]
            populate(database)
            system.register_relational_source(
                database, description,
                exported_types=relational_exports[spec.name],
                orb_product=product)
            relational[spec.name] = database
        else:
            product_name, version = _OODB_PRODUCT[spec.dbms]
            database = ObjectDatabase(spec.name, product=product_name,
                                      version=version)
            schemas.OBJECT_SCHEMAS[spec.name](database)
            data.OBJECT_POPULATORS[spec.name](database)
            system.register_object_source(
                database, description,
                exported_types=object_exports[spec.name],
                orb_product=product)
            objects[spec.name] = database

    for coalition in topo.COALITION_SPECS:
        system.create_coalition(coalition.name, coalition.information_type,
                                doc=coalition.doc)
    for coalition in topo.COALITION_SPECS:
        for member in coalition.members:
            system.join(member, coalition.name)
    for link in topo.LINK_SPECS:
        system.link(link.from_kind, link.from_name, link.to_kind,
                    link.to_name, information_type=link.information_type)

    system.attach_document(topo.RBH, "html", RBH_HTML_DOCUMENT,
                           url="http://www.medicine.uq.edu.au/RBH")
    system.attach_document(topo.RBH, "text", RBH_TEXT_DOCUMENT)

    return HealthcareDeployment(system, relational, objects)
