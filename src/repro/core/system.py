"""The WebFINDIT system facade — wiring all four layers together.

:class:`WebFinditSystem` owns the communication fabric (one transport,
one ORB per product, a naming service), the administrative
:class:`~repro.core.registry.Registry`, and the deployment records that
Figure 2 describes: which DBMS sits behind which ORB product through
which gateway kind.

Registering a source:

1. creates its co-database (metadata layer) and activates a
   :class:`~repro.core.codatabase.CoDatabaseServant` on the chosen ORB;
2. wraps the native database in the right ISI — relational sources go
   through the JDBC-style gateway, object sources through direct
   binding (C++ analogue) or JNI-style binding — and activates the
   wrapper as a CORBA object;
3. binds both IORs in the naming service
   (``webfindit/codb/<name>``, ``webfindit/isi/<name>``).

Browsers obtained from :meth:`browser` then exercise the full stack:
WebTassili text → query processor → GIOP over the transport →
co-database / wrapper servants → native engines.  However the
metadata layer is deployed — replicated or not, behind the local cache,
the cache tier or neither — :meth:`codatabase_client` hands the query
layer the same client class, built over a different route and cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.core.browser import Browser
from repro.core.cachetier import (CACHE_TIER_INTERFACE, CacheTierClient,
                                  CacheTierServant, InvalidationBroadcaster)
from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
from repro.core.discovery import CoDatabaseClient
from repro.core.journal import ReplicaJournal
from repro.core.metacache import MetadataCache
from repro.core.model import Ontology, SourceDescription
from repro.core.query_processor import QueryProcessor, Session
from repro.core.registry import Registry
from repro.core.replication import (DEFAULT_LEASE_DURATION, ReplicaRoute,
                                    ReplicaRuntime, ReplicatedCoDatabase,
                                    ReplicaTarget, replica_binding,
                                    replica_key)
from repro.core.resilience import BACKGROUND, ResiliencePolicy, call_policy
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.sharding import (REGISTRY_SHARD_INTERFACE,
                                 RegistryShardServant)
from repro.errors import CommFailure, UnknownDatabase, WebFinditError
from repro.gateway.api import DriverManager
from repro.gateway.drivers import LocalDriver
from repro.oodb.database import ObjectDatabase
from repro.orb.ior import Ior
from repro.orb.naming import start_naming_service
from repro.orb.orb import Orb
from repro.orb.products import (ORBIX, VISIBROKER, OrbProduct, create_orb,
                                get_product)
from repro.orb.transport import InMemoryNetwork, Transport
from repro.sql.engine import Database
from repro.wrappers.base import ExportedType, InformationSourceInterface
from repro.wrappers.objectstore import ObjectDbWrapper
from repro.wrappers.relational import RelationalWrapper
from repro.wrappers.remote import ISI_INTERFACE, RemoteIsi, serve_isi


@dataclass
class DeploymentRecord:
    """How one source is deployed (the rows of Figure 2)."""

    source_name: str
    dbms: str
    orb_product: str
    gateway: str  # "jdbc" | "c++" | "jni"
    location: str


class WebFinditSystem:
    """A running WebFINDIT federation."""

    def __init__(self, transport: Optional[Transport] = None,
                 ontology: Optional[Ontology] = None,
                 metadata_cache: Optional[MetadataCache] = None,
                 parallel_discovery: bool = False,
                 discovery_workers: Optional[int] = None,
                 resilience: Optional[ResiliencePolicy] = None,
                 isolate_sources: bool = False,
                 replication_factor: int = 1,
                 durable_dir: Optional[str] = None,
                 snapshot_every: Optional[int] = None,
                 quorum: bool = False,
                 journal_sync: str = "never",
                 lease_duration: float = DEFAULT_LEASE_DURATION,
                 shards: int = 1,
                 cache_tier: bool = False):
        self.transport = transport if transport is not None \
            else InMemoryNetwork()
        self.ontology = ontology
        #: Hot-path knobs: a process-local cache over co-database reads
        #: (its epoch floors raised by registry mutations) and
        #: concurrent frontier fan-out in every DiscoveryEngine this
        #: system hands out.
        self.metadata_cache = metadata_cache
        self.parallel_discovery = parallel_discovery
        self.discovery_workers = discovery_workers
        #: One ORB (hence one transport endpoint) *per source* instead
        #: of one per product — each site runs its own server, so a
        #: fault plan can kill exactly one co-database's endpoint.
        self.isolate_sources = isolate_sources
        #: Availability knobs: N replica servants per co-database, each
        #: on its own endpoint, with write-ahead journals (on disk when
        #: *durable_dir* is set) and optional snapshot cadence.  The
        #: defaults keep the seed's single-servant behaviour.
        self.replication_factor = max(1, replication_factor)
        self.durable_dir = durable_dir
        self.snapshot_every = snapshot_every
        #: Consistency knobs: majority-quorum writes under lease-fenced
        #: primary election (see ``docs/quorum.md``), and the journal's
        #: group-commit fsync policy ("never" | "batch" | "always").
        self.quorum = quorum
        self.journal_sync = journal_sync
        self.lease_duration = lease_duration
        self._replicated: dict[str, ReplicatedCoDatabase] = {}
        #: Generation-checked proxy cache: naming binding -> (proxy,
        #: generation).  Shared by every replica route so one
        #: re-resolve heals them all.
        self._replica_proxies: dict[str, tuple] = {}
        replicate = (self.replication_factor > 1
                     or durable_dir is not None
                     or snapshot_every is not None
                     or quorum)
        #: Scaling knobs: N registry shards behind a consistent-hash
        #: ring (each exported on its own ORB endpoint, see
        #: ``docs/sharding.md``) and an optional shared cache tier that
        #: peers consult before crossing GIOP to a co-database.
        self.cache_tier = cache_tier
        self.registry = Registry(
            ontology=ontology, shards=shards,
            codatabase_factory=(self._replicated_codatabase
                                if replicate else None))
        #: Fault-tolerance policy every query processor shares.  Its
        #: health board *is* the registry's, so breaker memory persists
        #: across sessions and engines (and `remove_source` clears it).
        if resilience is None:
            resilience = ResiliencePolicy(health=self.registry.health)
        else:
            self.registry.health = resilience.health
        self.resilience = resilience
        self._orbs: dict[str, Orb] = {}
        self._system_orb = Orb(name="webfindit-system",
                               transport=self.transport,
                               host="system.webfindit.net",
                               product="WebFINDIT")
        __, self.naming = start_naming_service(self._system_orb)
        #: Every shard is exported as its own registry servant
        #: (``webfindit/registry/shard<i>``) so remote peers can run the
        #: same ring-routed coordination over GIOP.
        self._shard_orbs: list[Orb] = []
        for index, shard in enumerate(self.registry.shards):
            orb = Orb(name=f"webfindit-registry-shard{index}",
                      transport=self.transport,
                      host=f"registry-shard{index}.webfindit.net",
                      product="WebFINDIT")
            ior = orb.activate(RegistryShardServant(shard),
                               REGISTRY_SHARD_INTERFACE,
                               object_name=f"registry-shard{index}")
            self.naming.bind(f"webfindit/registry/shard{index}", ior)
            self._shard_orbs.append(orb)
        #: The shared cache tier: one CacheTierServant on its own
        #: endpoint.  Whichever cache is deployed — the tier, else the
        #: local one — is kept coherent the same way: one invalidation
        #: broadcaster per registry shard pushing epoch floors at every
        #: mutation.
        self.cache_tier_servant: Optional[CacheTierServant] = None
        self._cache_tier_client: Optional[CacheTierClient] = None
        self._cache_orb: Optional[Orb] = None
        self._cache_tier_alive = False
        self._cache_tier_restarts = 0
        self._broadcasters: list[InvalidationBroadcaster] = []
        deliver = None
        if cache_tier:
            self._start_cache_tier(initial=True)
            deliver = self._deliver_invalidation
        elif metadata_cache is not None:
            # The local cache takes floor batches the way the tier
            # does — same sequence dedup, same retire — minus the wire.
            deliver = CacheTierServant(cache=metadata_cache).invalidate
        if deliver is not None:
            for index, shard in enumerate(self.registry.shards):
                broadcaster = InvalidationBroadcaster(
                    shard, deliver=deliver, origin=f"shard{index}")
                shard.add_invalidation_listener(broadcaster)
                self._broadcasters.append(broadcaster)
        self._deployments: dict[str, DeploymentRecord] = {}
        self._wrappers: dict[str, InformationSourceInterface] = {}
        self._ior_cache: dict[str, Ior] = {}
        self._remote_isi_cache: dict[str, RemoteIsi] = {}
        self.driver_manager = DriverManager()
        self._local_drivers: dict[str, LocalDriver] = {}

    # -------------------------------------------------------------------- ORBs --

    def orb_for(self, product: OrbProduct) -> Orb:
        """The (single) ORB instance for one product, created on demand."""
        key = product.name
        orb = self._orbs.get(key)
        if orb is None:
            host = f"{product.name.lower().replace(' ', '-')}.webfindit.net"
            orb = create_orb(product, self.transport, host=host)
            self._orbs[key] = orb
        return orb

    def orbs(self) -> list[Orb]:
        return list(self._orbs.values())

    def _source_orb(self, source_name: str, product: OrbProduct) -> Orb:
        """A dedicated ORB for one source's servants (isolated mode)."""
        key = f"{product.name}/{source_name}"
        orb = self._orbs.get(key)
        if orb is None:
            host = (f"{source_name.lower().replace(' ', '-')}"
                    f".webfindit.net")
            orb = create_orb(product, self.transport, host=host)
            self._orbs[key] = orb
        return orb

    def _replica_orb(self, source_name: str, index: int,
                     product: OrbProduct) -> Orb:
        """A fresh ORB for one co-database replica.

        Every replica gets its own endpoint so killing one closes
        exactly that replica's port; a restart *replaces* the entry (a
        recovered server is a new process on a new port).
        """
        key = f"{product.name}/{source_name}/r{index}"
        host = (f"{source_name.lower().replace(' ', '-')}"
                f"-r{index}.webfindit.net")
        orb = create_orb(product, self.transport, host=host)
        self._orbs[key] = orb
        return orb

    # ------------------------------------------------------------- registration --

    def register_relational_source(
            self, database: Database, description: SourceDescription,
            exported_types: Optional[list[ExportedType]] = None,
            orb_product: OrbProduct = VISIBROKER) -> RelationalWrapper:
        """Deploy a relational source: JDBC gateway + Java-side CORBA object."""
        driver = self._driver_for(database)
        connection = driver.connect(
            f"jdbc:{driver.subprotocol}:{database.name}")
        wrapper = RelationalWrapper(description.name, connection,
                                    dialect=database.dialect,
                                    exported_types=exported_types)
        self._deploy(wrapper, description, dbms=database.dialect.product,
                     orb_product=orb_product, gateway="jdbc")
        return wrapper

    def register_object_source(
            self, database: ObjectDatabase, description: SourceDescription,
            exported_types: Optional[list[ExportedType]] = None,
            orb_product: OrbProduct = ORBIX) -> ObjectDbWrapper:
        """Deploy an object source.

        Mirrors Figure 2's bindings: a C++ ORB (Orbix) reaches the store
        by direct method invocation, a Java ORB (OrbixWeb/VisiBroker)
        goes through JNI.
        """
        binding_style = "c++" if orb_product.language == "C++" else "jni"
        wrapper = ObjectDbWrapper(description.name, database,
                                  binding_style=binding_style,
                                  exported_types=exported_types)
        self._deploy(wrapper, description, dbms=database.product,
                     orb_product=orb_product, gateway=binding_style)
        return wrapper

    def _driver_for(self, database: Database) -> LocalDriver:
        name = database.dialect.name
        driver = self._local_drivers.get(name)
        if driver is None:
            driver = LocalDriver(name, name)
            self._local_drivers[name] = driver
            self.driver_manager.register(driver)
        driver.register_database(database)
        return driver

    def _replicated_codatabase(self, name: str) -> ReplicatedCoDatabase:
        """Registry hook: build the replica set behind one co-database."""
        journal_factory = None
        if self.durable_dir is not None:
            root = self.durable_dir
            sync = self.journal_sync

            def journal_factory(owner: str, index: int) -> ReplicaJournal:
                slug = owner.lower().replace(" ", "-").replace("/", "-")
                directory = os.path.join(root, slug, f"r{index}")
                # Pre-v2 deployments journalled to journal.jsonl; keep
                # appending to an existing file (the journal sniffs its
                # format), new replicas get the checksummed v2 log.
                legacy = os.path.join(directory, "journal.jsonl")
                path = legacy if os.path.exists(legacy) \
                    else os.path.join(directory, "journal.wal")
                return ReplicaJournal(path, sync=sync)

        # A partition scripted on the transport also cuts replica↔
        # replica links for quorum accounting, via the fault DSL's
        # link oracle (plain transports have none: all links up).
        oracle = getattr(self.transport, "link_oracle", None)
        facade = ReplicatedCoDatabase(
            name, ontology=self.ontology,
            replicas=self.replication_factor,
            journal_factory=journal_factory,
            snapshot_every=self.snapshot_every,
            quorum=self.quorum,
            lease_duration=self.lease_duration,
            link=oracle() if callable(oracle) else None)
        self._replicated[name] = facade
        return facade

    def _deploy_replicas(self, name: str, facade: ReplicatedCoDatabase,
                         product: OrbProduct) -> Ior:
        """Activate one CoDatabaseServant per replica, each on its own
        ORB, bound under ``webfindit/codb/<name>/r<i>``.

        Returns r0's IOR so the base ``webfindit/codb/<name>`` binding
        (what clients outside this system resolve) points at the primary.
        """
        for runtime in facade.runtimes:
            self.naming.bind(replica_binding(name, runtime.index),
                             self._serve_replica(name, runtime, product))
        return facade.runtimes[0].ior

    def _serve_replica(self, name: str, runtime: ReplicaRuntime,
                       product: OrbProduct) -> Ior:
        """Bring one replica up: a servant over its current co-database
        on a fresh ORB.  Binding the returned IOR stays with the caller
        (``bind`` at deployment, ``rebind`` after a restart)."""
        orb = self._replica_orb(name, runtime.index, product)
        servant = CoDatabaseServant(runtime.codatabase)
        ior = orb.activate(servant, CODATABASE_INTERFACE,
                           object_name=f"codb-{name}-r{runtime.index}")
        runtime.orb, runtime.ior, runtime.servant = orb, ior, servant
        # Quorum link checks and partition rules key on the real
        # transport endpoint, not the pre-deployment placeholder.
        runtime.endpoint = ior.primary.endpoint
        return ior

    def _deploy(self, wrapper: InformationSourceInterface,
                description: SourceDescription, dbms: str,
                orb_product: OrbProduct, gateway: str) -> None:
        name = description.name
        if name in self._deployments:
            raise WebFinditError(f"source {name!r} already deployed")
        if not description.wrapper:
            description.wrapper = (f"{description.location or 'localhost'}"
                                   f"/{wrapper.wrapper_name}")
        if not description.dbms:
            description.dbms = dbms
        description.orb_product = orb_product.name
        if not description.interface:
            description.interface = [t.name
                                     for t in wrapper.exported_types()]
        if not description.structure:
            vocabulary: list[str] = []
            for exported in wrapper.exported_types():
                vocabulary.extend(a.name for a in exported.attributes)
                vocabulary.extend(f.name for f in exported.functions)
            description.structure = vocabulary

        codatabase = self.registry.add_source(description)
        orb = self._source_orb(name, orb_product) if self.isolate_sources \
            else self.orb_for(orb_product)
        if isinstance(codatabase, ReplicatedCoDatabase):
            codb_ior = self._deploy_replicas(name, codatabase, orb_product)
        else:
            codb_ior = orb.activate(CoDatabaseServant(codatabase),
                                    CODATABASE_INTERFACE,
                                    object_name=f"codb-{name}")
        isi_ior = serve_isi(orb, wrapper, object_name=f"isi-{name}")
        self.naming.bind(f"webfindit/codb/{name}", codb_ior)
        self.naming.bind(f"webfindit/isi/{name}", isi_ior)
        self._wrappers[name] = wrapper
        self._deployments[name] = DeploymentRecord(
            source_name=name, dbms=dbms, orb_product=orb_product.name,
            gateway=gateway, location=description.location)

    # ----------------------------------------------------------------- topology --

    def create_coalition(self, name: str, information_type: str,
                         parent: Optional[str] = None, doc: str = ""):
        return self.registry.create_coalition(name, information_type,
                                              parent=parent, doc=doc)

    def join(self, database_name: str, coalition_name: str) -> None:
        self.registry.join(database_name, coalition_name)

    def leave(self, database_name: str, coalition_name: str) -> None:
        self.registry.leave(database_name, coalition_name)

    def link(self, from_kind: str, from_name: str, to_kind: str,
             to_name: str, information_type: str = "",
             description: str = "") -> ServiceLink:
        """Establish a service link between the named endpoints."""
        service_link = ServiceLink(
            from_kind=EndpointKind.parse(from_kind), from_name=from_name,
            to_kind=EndpointKind.parse(to_kind), to_name=to_name,
            information_type=information_type, description=description)
        self.registry.add_service_link(service_link)
        return service_link

    def attach_document(self, source_name: str, format_name: str,
                        content: str, url: str = "") -> None:
        self.registry.attach_document(source_name, format_name, content, url)

    # ------------------------------------------------------------ replication --

    def _facade(self, source_name: str) -> ReplicatedCoDatabase:
        facade = self._replicated.get(source_name)
        if facade is None:
            raise WebFinditError(
                f"source {source_name!r} is not replicated (deploy the "
                f"system with replication_factor > 1 or a durable_dir)")
        return facade

    def kill_replica(self, source_name: str, index: int) -> None:
        """Crash one co-database replica server.

        Its ORB endpoint closes, its journal freezes at the crash
        epoch, and its naming binding is left dangling — a crashed
        server cannot unbind itself, which is precisely the stale-IOR
        situation the generation counters exist for.
        """
        facade = self._facade(source_name)
        runtime = facade.mark_dead(index)
        if runtime.orb is not None:
            runtime.orb.shutdown()

    def restart_replica(self, source_name: str, index: int) -> None:
        """Crash-recover one replica and bring it back into rotation.

        Recovery order: rebuild from snapshot + journal replay (with
        anti-entropy from a live peer when the set advanced past the
        crash epoch), re-activate the servant on a fresh endpoint,
        ``rebind`` its name (bumping the binding generation so cached
        proxies self-invalidate), close its breaker, and retire any
        metadata cached from the dead incarnation (one more floor
        batch, to whichever cache is deployed).
        """
        facade = self._facade(source_name)
        runtime = facade.recover(index)
        record = self._deployments.get(source_name)
        product = get_product(record.orb_product) if record is not None \
            else VISIBROKER
        ior = self._serve_replica(source_name, runtime, product)
        binding = replica_binding(source_name, index)
        self.naming.rebind(binding, ior)
        self._replica_proxies.pop(binding, None)
        if index == 0:
            # The base name tracks the primary for clients that resolve it.
            self.naming.rebind(f"webfindit/codb/{source_name}", ior)
            self._ior_cache.pop(f"codb/{source_name}", None)
        # The replica demonstrably answered recovery; close its breaker
        # — and the source-level one discovery keys on, since a source
        # with a live replica is consultable again — so the next call
        # routes to it without waiting out a cooldown.
        self.registry.health.record(replica_key(source_name, index), ok=True)
        self.registry.health.record(source_name, ok=True)
        if self._broadcasters:
            self._broadcasters[self.registry.ring.owner(source_name)](
                [source_name])

    def replica_status(self, source_name: Optional[str] = None) -> dict:
        """Per-replica availability view (the CLI's ``\\replicas``)."""
        health = self.registry.health
        if source_name is not None:
            return self._facade(source_name).status(health=health)
        return {name: facade.status(health=health)
                for name, facade in sorted(self._replicated.items())}

    def reconcile_replicas(self, source_name: Optional[str] = None) -> int:
        """Anti-entropy pass: replay live laggards up to the leader.

        Chaos scenarios call this after healing a partition — the
        minority side missed quorum commits while cut off and catches
        up from the leader's journal.  Returns replicas healed.
        """
        # Anti-entropy is maintenance traffic: tag it background so an
        # overloaded server sheds it long before interactive queries.
        with call_policy(traffic_class=BACKGROUND):
            if source_name is not None:
                return self._facade(source_name).reconcile()
            return sum(facade.reconcile()
                       for facade in self._replicated.values())

    # ------------------------------------------------------ sharding / cache tier --

    def shard_report(self) -> dict:
        """Ring + per-shard inspection (the CLI's ``\\shards``)."""
        return {
            "shards": len(self.registry.shards),
            "ring": self.registry.ring.describe(),
            "statuses": self.registry.shard_statuses(),
            "naming_generation": self.naming.namespace_generation(
                "webfindit/registry/"),
            "cache_tier": self._cache_tier_metrics(),
        }

    def _start_cache_tier(self, initial: bool) -> None:
        """Activate a (fresh) cache-tier servant on a fresh endpoint."""
        self._cache_orb = Orb(name="webfindit-cache-tier",
                              transport=self.transport,
                              host="cache-tier.webfindit.net",
                              product="WebFINDIT")
        self.cache_tier_servant = CacheTierServant()
        ior = self._cache_orb.activate(self.cache_tier_servant,
                                       CACHE_TIER_INTERFACE,
                                       object_name="cache-tier")
        binding = "webfindit/cache/tier0"
        if initial:
            self.naming.bind(binding, ior)
        else:
            self.naming.rebind(binding, ior)
        proxy = self._system_orb.proxy(ior, CACHE_TIER_INTERFACE)
        self._cache_tier_client = CacheTierClient(proxy)
        self._cache_tier_alive = True

    def _deliver_invalidation(self, origin: str, seq: int,
                              floors: dict) -> bool:
        """Broadcast hook: push one floor batch to the current tier."""
        client = self._cache_tier_client
        if client is None:
            raise CommFailure("cache tier is not running")
        return client.invalidate(origin, seq, floors)

    def kill_cache_tier(self) -> None:
        """Crash the cache-tier server: its endpoint closes, lookups
        start raising, and every client degrades to direct GIOP
        (counted in ``cache_bypassed``) — never a failed query."""
        if not self.cache_tier:
            raise WebFinditError(
                "system was deployed without a cache tier "
                "(deploy with cache_tier=True)")
        if self._cache_orb is not None:
            self._cache_orb.shutdown()
        self._cache_tier_alive = False

    def restart_cache_tier(self) -> None:
        """Bring a fresh (cold) cache tier back on a new endpoint.

        The replacement starts empty — floors, sequence numbers and
        entries died with the old process — so the broadcasters flush
        their pending floors at it and read-through refills the rest.
        """
        if not self.cache_tier:
            raise WebFinditError(
                "system was deployed without a cache tier "
                "(deploy with cache_tier=True)")
        self._start_cache_tier(initial=False)
        self._cache_tier_restarts += 1
        for broadcaster in self._broadcasters:
            broadcaster.flush()

    def _cache_tier_metrics(self) -> Optional[dict]:
        if not self.cache_tier:
            return None
        return {
            "alive": self._cache_tier_alive,
            "restarts": self._cache_tier_restarts,
            "servant": (self.cache_tier_servant.stats()
                        if self.cache_tier_servant is not None else None),
            "broadcasters": [broadcaster.status()
                             for broadcaster in self._broadcasters],
        }

    # ----------------------------------------------------------------- access --

    def _resolve_ior(self, kind: str, name: str) -> Ior:
        cache_key = f"{kind}/{name}"
        ior = self._ior_cache.get(cache_key)
        if ior is None:
            ior = self.naming.resolve(f"webfindit/{kind}/{name}")
            self._ior_cache[cache_key] = ior
        return ior

    def _replica_proxy(self, binding: str):
        """The current proxy for one replica binding (cached)."""
        cached = self._replica_proxies.get(binding)
        if cached is not None:
            return cached[0]
        ior, generation = self.naming.resolve_with_generation(binding)
        proxy = self._system_orb.proxy(ior, CODATABASE_INTERFACE)
        self._replica_proxies[binding] = (proxy, generation)
        return proxy

    def _refresh_replica_proxy(self, binding: str):
        """Generation-checked re-resolve: ``(proxy, changed)``.

        ``changed`` is True only when the binding was re-bound since the
        cached proxy was built — the signal that a fresh endpoint is
        worth one immediate retry (the stale-IOR window).
        """
        cached = self._replica_proxies.get(binding)
        ior, generation = self.naming.resolve_with_generation(binding)
        if cached is not None and cached[1] == generation:
            return cached[0], False
        proxy = self._system_orb.proxy(ior, CODATABASE_INTERFACE)
        self._replica_proxies[binding] = (proxy, generation)
        return proxy, True

    def _replica_route(self, name: str,
                       facade: ReplicatedCoDatabase) -> ReplicaRoute:
        targets = []
        for runtime in facade.runtimes:
            binding = replica_binding(name, runtime.index)
            targets.append(ReplicaTarget(
                key=replica_key(name, runtime.index),
                binding=binding,
                proxy=lambda binding=binding: self._replica_proxy(binding),
                refresh=lambda binding=binding:
                    self._refresh_replica_proxy(binding)))
        targets[0].proxy()  # a source never deployed has no binding
        return ReplicaRoute(name, targets, health=self.registry.health,
                            hedge=self.resilience.hedge)

    def codatabase_client(self, database_name: str) -> CoDatabaseClient:
        """A CORBA-backed metadata client for one source's co-database.

        One class for every deployment; only what it is built over
        differs.  The route is the replica set's when the source is
        replicated, else the single servant's proxy.  The cache is the
        shared tier when one is deployed — it supersedes the
        per-process cache: one fleet-wide working set instead of N
        private ones — else the local cache, else none.
        """
        facade = self._replicated.get(database_name)
        try:
            if facade is not None:
                route = self._replica_route(database_name, facade)
            else:
                route = self._system_orb.proxy(
                    self._resolve_ior("codb", database_name),
                    CODATABASE_INTERFACE)
        except Exception as exc:
            raise UnknownDatabase(
                f"no co-database bound for {database_name!r}") from exc
        cache = self._cache_tier_client if self.cache_tier \
            else self.metadata_cache
        return CoDatabaseClient(route, database_name, cache=cache)

    def wrapper_client(self, database_name: str) -> InformationSourceInterface:
        """A CORBA-backed ISI client for one source.

        Clients are cached: the remote interface description is fetched
        once, and subsequent statements cost exactly one GIOP round-trip
        (the stub reuse a real client application would have).
        """
        cached = self._remote_isi_cache.get(database_name)
        if cached is not None:
            return cached
        try:
            ior = self._resolve_ior("isi", database_name)
        except Exception as exc:
            raise UnknownDatabase(
                f"no wrapper bound for {database_name!r}") from exc
        proxy = self._system_orb.proxy(ior, ISI_INTERFACE)
        client = RemoteIsi(proxy)
        self._remote_isi_cache[database_name] = client
        return client

    def local_wrapper(self, database_name: str) -> InformationSourceInterface:
        """The in-process wrapper (bypasses the ORB; used by tests and
        examples)."""
        wrapper = self._wrappers.get(database_name)
        if wrapper is None:
            raise UnknownDatabase(f"no wrapper for {database_name!r}")
        return wrapper

    def query_processor(self, match_threshold: float = 0.5) -> QueryProcessor:
        """A processor whose metadata and data paths cross the ORB."""
        return QueryProcessor(resolver=self.codatabase_client,
                              wrapper_for=self.wrapper_client,
                              registry=self.registry,
                              match_threshold=match_threshold,
                              parallel=self.parallel_discovery,
                              max_workers=self.discovery_workers,
                              policy=self.resilience)

    def browser(self, home_database: str) -> Browser:
        """An interactive session for a user of *home_database*."""
        self.registry.source(home_database)  # validate
        session = Session(home_database=home_database)
        return Browser(self.query_processor(), session)

    # ----------------------------------------------------------------- reports --

    def deployment_map(self) -> list[DeploymentRecord]:
        """Figure-2 style deployment inventory."""
        return list(self._deployments.values())

    def metrics(self) -> dict:
        """Aggregated middleware counters."""
        transport_metrics = getattr(self.transport, "metrics", None)
        # One atomic snapshot instead of field-by-field getattr reads:
        # related counters (messages vs bytes, shed vs expired) must
        # come from the same instant or they tear under load.
        transport_snapshot = (transport_metrics.snapshot()
                              if transport_metrics is not None else {})
        orb_stats = {
            orb.product: {
                "requests_sent": orb.stats.requests_sent,
                "requests_handled": orb.stats.requests_handled,
                "cross_product_requests": orb.stats.cross_product_requests,
            }
            for orb in [self._system_orb, *self._orbs.values()]
        }
        return {
            "giop_messages": transport_snapshot.get("messages_sent", 0),
            "giop_bytes_sent": transport_snapshot.get("bytes_sent", 0),
            "giop_per_endpoint": transport_snapshot.get("per_endpoint", {}),
            "orbs": orb_stats,
            "registry_updates": self.registry.update_operations,
            "metadata_cache": (self.metadata_cache.stats()
                               if self.metadata_cache is not None else None),
            "resilience": self.resilience.health.snapshot(),
            "overload": {
                "requests_shed": transport_snapshot.get("requests_shed", 0),
                "requests_expired": transport_snapshot.get(
                    "requests_expired", 0),
                "retry_budget": (self.resilience.retry.budget.snapshot()
                                 if self.resilience.retry.budget is not None
                                 else None),
                "hedging": (self.resilience.hedge.snapshot()
                            if self.resilience.hedge is not None else None),
            },
            "replication": self._replication_metrics(),
            "sharding": {"shards": len(self.registry.shards),
                         "ring": self.registry.ring.describe(),
                         "per_shard": self.registry.shard_statuses()},
            "cache_tier": self._cache_tier_metrics(),
        }

    def _replication_metrics(self) -> Optional[dict]:
        if not self._replicated:
            return None
        runtimes = [runtime for facade in self._replicated.values()
                    for runtime in facade.runtimes]
        metrics = {
            "sources": len(self._replicated),
            "replicas": len(runtimes),
            "alive": sum(1 for runtime in runtimes if runtime.alive),
            "restarts": sum(runtime.restarts for runtime in runtimes),
            "epochs": {name: facade.epoch
                       for name, facade in sorted(self._replicated.items())},
        }
        if self.quorum:
            metrics["quorum"] = {
                name: facade.lease_status()
                for name, facade in sorted(self._replicated.items())}
            metrics["journal_fsyncs"] = sum(
                getattr(runtime.journal, "fsyncs", 0) for runtime in runtimes)
        return metrics

    def reset_metrics(self) -> None:
        """Zero all counters (benchmarks call this between phases)."""
        transport_metrics = getattr(self.transport, "metrics", None)
        if transport_metrics is not None:
            transport_metrics.reset()
        for orb in [self._system_orb, *self._orbs.values()]:
            orb.stats.reset()
