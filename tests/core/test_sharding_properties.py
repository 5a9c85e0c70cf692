"""Conformance suite for consistent-hash registry sharding.

Two families of invariants:

* **Ring** — every key has exactly one live owner, join/leave remap
  only the arcs that changed hands (minimal remapping), and placement
  is a pure function of the name (identical across processes and
  ``PYTHONHASHSEED`` values).
* **Coordinator** (partition invariance) — for any shard count, local
  or over GIOP, running the same maintenance script through
  :class:`Registry` leaves the federation observably identical to the
  one-shard ring ("singleton" below): the same sorted name sets, the
  same summary counters, the same per-source epochs, the same counted
  co-database writes, and byte-identical co-database *contents* —
  sharding relocates authority, never data.  Absolute behaviour is
  pinned by ``test_registry*.py``, independently of shard count.
"""

import bisect
import inspect
import json
import os
import string
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core import sharding
from repro.core.model import SourceDescription
from repro.core.registry import Registry, RegistryShard
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.sharding import (COMMIT_OPERATIONS, DEFAULT_VNODES,
                                 REGISTRY_SHARD_INTERFACE, HashRing,
                                 RegistryShardServant)
from repro.errors import ReproError, WebFinditError
from repro.orb.orb import Orb
from repro.orb.transport import InMemoryNetwork, TcpTransport

NAME_ALPHABET = string.ascii_letters + string.digits + " -_."

names = st.text(alphabet=NAME_ALPHABET, min_size=1, max_size=24)
key_sets = st.sets(names, min_size=1, max_size=80)
node_counts = st.integers(min_value=1, max_value=8)

TOPICS = ["cardiology", "oncology", "insurance", "research",
          "pathology", "radiology"]


# ---------------------------------------------------------------------------
# Ring properties
# ---------------------------------------------------------------------------


@given(key_sets, node_counts)
@settings(max_examples=60, deadline=None)
def test_every_key_has_exactly_one_owner(keys, node_count):
    ring = HashRing(range(node_count), vnodes=16)
    partition = ring.ownership(keys)
    assert set(partition) == set(range(node_count))
    owned = [key for bucket in partition.values() for key in bucket]
    assert sorted(owned) == sorted(keys)
    for key in keys:
        owner = ring.owner(key)
        assert key in partition[owner]
        assert sum(key in bucket for bucket in partition.values()) == 1


@given(key_sets, st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_leave_remaps_only_the_leavers_keys(keys, node_count, data):
    """Removing a shard moves exactly the keys it owned; every other
    key keeps its owner (the minimal-remapping property)."""
    ring = HashRing(range(node_count), vnodes=16)
    before = {key: ring.owner(key) for key in keys}
    doomed = data.draw(st.sampled_from(range(node_count)))
    ring.remove_node(doomed)
    for key in keys:
        after = ring.owner(key)
        if before[key] == doomed:
            assert after != doomed
        else:
            assert after == before[key]


@given(key_sets, node_counts)
@settings(max_examples=60, deadline=None)
def test_join_steals_keys_only_for_itself(keys, node_count):
    """A joining shard only acquires keys; it never shuffles keys
    between the incumbents."""
    ring = HashRing(range(node_count), vnodes=16)
    before = {key: ring.owner(key) for key in keys}
    ring.add_node(node_count)
    for key in keys:
        after = ring.owner(key)
        assert after == before[key] or after == node_count


@given(key_sets, node_counts)
@settings(max_examples=30, deadline=None)
def test_join_then_leave_restores_placement(keys, node_count):
    ring = HashRing(range(node_count), vnodes=16)
    before = {key: ring.owner(key) for key in keys}
    ring.add_node(node_count)
    ring.remove_node(node_count)
    assert {key: ring.owner(key) for key in keys} == before


def test_ring_rejects_bad_configuration():
    with pytest.raises(WebFinditError):
        HashRing(vnodes=0)
    ring = HashRing([0, 1])
    with pytest.raises(WebFinditError):
        ring.add_node(0)
    with pytest.raises(WebFinditError):
        ring.add_node(2, weight=0)
    with pytest.raises(WebFinditError):
        ring.remove_node(7)
    with pytest.raises(WebFinditError):
        HashRing([]).owner("anything")


def test_weight_scales_vnode_count():
    ring = HashRing([0], vnodes=8)
    ring.add_node(1, weight=3)
    points = ring.describe()["points"]
    assert points["0"] == 8
    assert points["1"] == 24


_CROSS_PROCESS_SCRIPT = """
import json, sys
from repro.core.sharding import HashRing
keys = json.loads(sys.stdin.read())
ring = HashRing(range(5), vnodes=32)
print(json.dumps({key: ring.owner(key) for key in keys}, sort_keys=True))
"""


def test_placement_is_identical_across_processes_and_hash_seeds():
    """Ring placement never depends on interpreter hash randomisation:
    fresh processes with adversarially different ``PYTHONHASHSEED``
    values compute the same owner for every key."""
    import repro
    source_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    keys = [f"db-{index}" for index in range(40)] \
        + ["Royal Brisbane Hospital", "QUT Research", "Medibank"]
    outputs = []
    for seed in ("0", "1", "424242"):
        result = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_SCRIPT],
            input=json.dumps(keys), capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": source_root},
            check=True)
        outputs.append(result.stdout.strip())
    assert outputs[0] == outputs[1] == outputs[2]
    # ...and the in-process ring agrees with the subprocesses.
    ring = HashRing(range(5), vnodes=32)
    assert json.loads(outputs[0]) == {key: ring.owner(key) for key in keys}


@given(key_sets)
@settings(max_examples=20, deadline=None)
def test_two_rings_with_same_nodes_agree(keys):
    first = HashRing(range(4))
    second = HashRing([3, 1, 0, 2])  # join order must not matter
    assert {k: first.owner(k) for k in keys} \
        == {k: second.owner(k) for k in keys}


@given(key_sets, st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_one_node_ring_answers_what_hashing_would(keys, vnodes):
    """A one-node ring may answer without hashing; this pins that
    shortcut to the rule (first vnode clockwise of the key's point),
    restated here over the ring's own points."""
    ring = HashRing(["only"], vnodes=vnodes)
    for key in keys:
        point = HashRing._hash(f"key:{key}")
        index = bisect.bisect_right(ring._points, point) % len(ring._ring)
        assert ring.owner(key) == ring._ring[index][2] == "only"
    ring.add_node("second")
    assert {ring.owner(key) for key in keys} <= {"only", "second"}
    ring.remove_node("second")
    assert {ring.owner(key) for key in keys} == {"only"}


def test_vnodes_spread_load_within_reason():
    """With vnode weighting, random names spread across shards instead
    of piling onto one arc (loose 4x bound: this guards pathological
    imbalance, not perfect uniformity)."""
    ring = HashRing(range(4), vnodes=DEFAULT_VNODES)
    keys = [f"source-{index}" for index in range(2000)]
    partition = ring.ownership(keys)
    sizes = sorted(len(bucket) for bucket in partition.values())
    assert sizes[0] > 0
    assert sizes[-1] <= 4 * sizes[0]


# ---------------------------------------------------------------------------
# Coordinator conformance: sharded == singleton for any partition
# ---------------------------------------------------------------------------


@st.composite
def maintenance_scripts(draw):
    """A random but deterministic federation-maintenance session:
    coalitions (some specialized), sources, joins, service links, then
    a few destructive operations."""
    coalition_count = draw(st.integers(min_value=1, max_value=4))
    specializations = draw(st.lists(
        st.integers(0, coalition_count - 1), max_size=2))
    source_count = draw(st.integers(min_value=1, max_value=8))
    memberships = draw(st.lists(
        st.tuples(st.integers(0, source_count - 1),
                  st.integers(0, coalition_count - 1)),
        max_size=12))
    links = draw(st.lists(
        st.tuples(st.integers(0, coalition_count - 1),
                  st.integers(0, coalition_count - 1)),
        max_size=3))
    removals = draw(st.lists(st.integers(0, source_count - 1), max_size=2))
    readvertise = draw(st.lists(st.integers(0, source_count - 1),
                                max_size=2))
    return (coalition_count, specializations, source_count, memberships,
            links, removals, readvertise)


def run_script(target, script):
    """Apply one maintenance script to a registry-like *target*."""
    (coalition_count, specializations, source_count, memberships,
     links, removals, readvertise) = script
    coalitions = []
    for index in range(coalition_count):
        name = f"C{index} {TOPICS[index % len(TOPICS)]}"
        target.create_coalition(name, TOPICS[index % len(TOPICS)])
        coalitions.append(name)
    for order, parent_index in enumerate(specializations):
        name = f"S{order} {TOPICS[parent_index % len(TOPICS)]}"
        target.create_coalition(
            name, TOPICS[parent_index % len(TOPICS)],
            parent=coalitions[parent_index])
        coalitions.append(name)
    sources = []
    for index in range(source_count):
        name = f"db{index}"
        target.add_source(SourceDescription(
            name=name, information_type=TOPICS[index % len(TOPICS)],
            location=f"{name}.example.net"))
        sources.append(name)
    joined = set()
    for source_index, coalition_index in memberships:
        pair = (sources[source_index], coalitions[coalition_index])
        if pair in joined:
            continue
        joined.add(pair)
        target.join(*pair)
    for a, b in links:
        link = ServiceLink(EndpointKind.COALITION, coalitions[a],
                           EndpointKind.COALITION, coalitions[b],
                           information_type=TOPICS[b % len(TOPICS)])
        try:
            target.add_service_link(link)
        except WebFinditError:
            pass  # duplicate draw: must fail identically on both sides
    for index in readvertise:
        description = target.source(sources[index])
        description.doc = f"refreshed {index}"
        target.advertise(description)
    for index in sorted(set(removals), reverse=True):
        target.remove_source(sources[index])
        sources.pop(index)
    return coalitions, sources


def codb_fingerprint(registry_like, name):
    """Everything observable about one co-database, in wire shape."""
    codb = registry_like.codatabase(name)
    return {
        "owner": codb.owner_name,
        "epoch": codb.epoch,
        "applied": codb.applied,
        "memberships": list(codb.memberships),
        "coalitions": [(c.name, c.information_type, c.parent,
                        list(c.members))
                       for c in codb.known_coalitions()],
        "links": [link.to_wire() for link in codb.service_links()],
        "neighbors": codb.neighbor_databases(),
    }


@given(maintenance_scripts(), st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_sharded_federation_equals_singleton(script, shard_count):
    """The tentpole invariant: for any partition of the name space, the
    sharded coordinator and the singleton registry are observably the
    same federation."""
    singleton = Registry()
    sharded = Registry(shards=shard_count,
                       ring=HashRing(range(shard_count), vnodes=8))
    run_script(singleton, script)
    coalitions, sources = run_script(sharded, script)

    assert sharded.source_names() == sorted(singleton.source_names())
    assert sharded.coalition_names() == sorted(singleton.coalition_names())
    assert sharded.summary() == singleton.summary()
    assert sharded.epochs() == singleton.epochs()
    assert sharded.update_operations == singleton.update_operations
    assert [link.to_wire() for link in sharded.service_links()] \
        == [link.to_wire() for link in singleton.service_links()]
    for name in sources:
        assert codb_fingerprint(sharded, name) \
            == codb_fingerprint(singleton, name)
    for name in coalitions:
        if singleton.has_coalition(name):
            ours, theirs = sharded.coalition(name), \
                singleton.coalition(name)
            assert (ours.name, ours.information_type, ours.parent,
                    list(ours.members)) \
                == (theirs.name, theirs.information_type, theirs.parent,
                    list(theirs.members))


@given(maintenance_scripts(), st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_sharded_errors_match_singleton(script, shard_count):
    """Invalid operations fail identically (same exception type and
    message) whether the name space is sharded or not."""
    singleton = Registry()
    sharded = Registry(shards=shard_count,
                       ring=HashRing(range(shard_count), vnodes=8))
    run_script(singleton, script)
    run_script(sharded, script)
    probes = [
        lambda t: t.source("no such database"),
        lambda t: t.coalition("no such coalition"),
        lambda t: t.create_coalition(t.coalition_names()[0]
                                     if t.coalition_names() else "C0 x",
                                     "dup") if t.coalition_names() else None,
        lambda t: t.join("no such database", "no such coalition"),
        lambda t: t.remove_source("no such database"),
    ]
    for probe in probes:
        outcomes = []
        for target in (singleton, sharded):
            try:
                probe(target)
                outcomes.append(None)
            except Exception as exc:  # noqa: BLE001 — compared below
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]


def export_shard(index, shard, transport):
    """*shard* behind its skeleton on its own ORB; returns ``(orb,
    skeleton, proxy handle over REGISTRY_SHARD_INTERFACE)``."""
    orb = Orb(name=f"shard{index}", transport=transport,
              host="127.0.0.1", product="WebFINDIT")
    skeleton = RegistryShardServant(shard)
    ior = orb.activate(skeleton, REGISTRY_SHARD_INTERFACE,
                       object_name=f"shard{index}")
    return orb, skeleton, orb.proxy(ior, REGISTRY_SHARD_INTERFACE)


def assert_giop_federation_equals_singleton(script, backing, handles):
    """Run *script* through a coordinator over *handles* (proxies onto
    the *backing* shards, or some of those shards themselves) and
    through the singleton: the federations are observably identical."""
    singleton = Registry()
    run_script(singleton, script)
    remote = Registry(shards=handles,
                      ring=HashRing(range(len(handles)), vnodes=8))
    run_script(remote, script)

    assert remote.source_names() == sorted(singleton.source_names())
    assert remote.coalition_names() == sorted(singleton.coalition_names())
    assert remote.summary() == singleton.summary()
    assert remote.epochs() == singleton.epochs()
    assert remote.update_operations == singleton.update_operations
    # Links cross GIOP as ServiceLink value types: equal objects.
    assert remote.service_links() == singleton.service_links()
    # Co-database contents live in the shard processes; compare their
    # fingerprints through the backing registries.
    local = Registry(shards=backing,
                     ring=HashRing(range(len(backing)), vnodes=8))
    for name in singleton.source_names():
        assert codb_fingerprint(local, name) \
            == codb_fingerprint(singleton, name)


@given(maintenance_scripts())
@settings(max_examples=15, deadline=None)
def test_remote_giop_shards_equal_local_shards(script):
    """Exporting the shards over real ORB endpoints changes nothing:
    a coordinator over proxy handles reports the same federation as
    the in-process one and the singleton."""
    backing = [RegistryShard() for __ in range(3)]
    transport = InMemoryNetwork()
    handles = [export_shard(index, shard, transport)[2]
               for index, shard in enumerate(backing)]
    assert_giop_federation_equals_singleton(script, backing, handles)


@given(maintenance_scripts())
@settings(max_examples=15, deadline=None)
def test_mixed_in_process_and_proxy_shards_equal_local_shards(script):
    """One coordinator, one in-process shard, one proxy shard."""
    backing = [RegistryShard(), RegistryShard()]
    handles = [backing[0],
               export_shard(1, backing[1], InMemoryNetwork())[2]]
    assert_giop_federation_equals_singleton(script, backing, handles)


@pytest.fixture(scope="module")
def tcp_shards():
    """Three skeletons on one default ``TcpTransport()``, exported once
    for the module (closing a threaded endpoint costs its 0.5 s poll
    interval); each example rebinds them to fresh shards."""
    transport = TcpTransport()
    exported = [export_shard(index, RegistryShard(), transport)
                for index in range(3)]
    yield ([skeleton for __, skeleton, __ in exported],
           [proxy for __, __, proxy in exported])
    transport.close()


@given(script=maintenance_scripts())
@settings(max_examples=8, deadline=None)
def test_tcp_giop_shards_equal_local_shards(tcp_shards, script):
    """The same statement over loopback sockets."""
    skeletons, handles = tcp_shards
    backing = [RegistryShard() for __ in skeletons]
    for skeleton, shard in zip(skeletons, backing):
        skeleton.registry = shard
    assert_giop_federation_equals_singleton(script, backing, handles)


def test_interface_shard_and_skeleton_agree_on_every_operation():
    """The 31 operations exist once each in three places — the IDL
    table, ``RegistryShard`` and its skeleton — under the same name and
    arity, so a proxy is a drop-in shard handle.  A method added to one
    and not the others fails here, not in production."""
    operations = REGISTRY_SHARD_INTERFACE.all_operations()
    assert len(operations) == 31
    skeleton = RegistryShardServant(RegistryShard())
    REGISTRY_SHARD_INTERFACE.validate_servant(skeleton)
    for name, operation in operations.items():
        parameters = list(inspect.signature(
            getattr(RegistryShard, name)).parameters.values())[1:]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters), \
            name
        assert [p.name for p in parameters] \
            == [p.name for p in operation.parameters], name
    # The skeleton answers for the interface and nothing else...
    assert not hasattr(skeleton, "codatabase")
    assert not hasattr(skeleton, "add_invalidation_listener")
    # ...and every public shard method is either an operation or one of
    # the two deliberately in-process-only ones.
    public = {name for name, member in vars(RegistryShard).items()
              if callable(member) and not name.startswith("_")}
    assert public - set(operations) \
        == {"codatabase", "add_invalidation_listener"}
    assert COMMIT_OPERATIONS <= set(operations)


@pytest.mark.parametrize("operation, arguments, pays", [
    ("add_source", [SourceDescription(name="A", information_type="t"),
                    "ObjectStore"], True),
    ("has_source", ["A"], False),
    ("note_child", ["P", "C"], False),
])
def test_skeleton_locks_every_operation_and_charges_commits(
        operation, arguments, pays, monkeypatch):
    """One lock around every operation; ``service_time`` slept (inside
    it) on the commit operations only; no reply body for ``add_source``,
    whose in-process result is the shard-local CoDatabase."""
    slept, held = [], []
    skeleton = RegistryShardServant(RegistryShard(), service_time=0.25)
    monkeypatch.setattr(sharding.time, "sleep", lambda seconds: (
        slept.append(seconds), held.append(skeleton._lock.locked())))
    primitive = getattr(skeleton.registry, operation)
    monkeypatch.setattr(
        skeleton.registry, operation,
        lambda *args: (held.append(skeleton._lock.locked()),
                       primitive(*args))[1])
    result = getattr(skeleton, operation)(*arguments)
    assert slept == ([0.25] if pays else [])
    assert held and all(held)
    assert not skeleton._lock.locked()
    if operation == "add_source":
        assert result is None and skeleton.registry.has_source("A")


def test_proxy_shard_refuses_undeclared_operations_before_sending():
    """``codatabase`` is not an operation: co-database objects are
    shard-local.  A typed proxy says so without moving a byte."""
    transport = InMemoryNetwork()
    orb, __, proxy_shard = export_shard(0, RegistryShard(), transport)
    sent = orb.stats.requests_sent
    with pytest.raises(ReproError, match="codatabase"):
        proxy_shard.codatabase("RBH")
    with pytest.raises(ReproError, match="codatabase"):
        Registry(shards=[proxy_shard]).codatabase("RBH")
    assert orb.stats.requests_sent == sent
    assert not hasattr(proxy_shard, "failovers")
    assert hasattr(proxy_shard, "source")


def test_shard_of_agrees_with_ring():
    sharded = Registry(shards=4)
    for name in ("Alpha", "Beta", "Royal Brisbane Hospital"):
        assert sharded.shard_of(name) == sharded.ring.owner(name)


def test_shard_statuses_cover_every_shard():
    sharded = Registry(shards=3)
    sharded.add_source(SourceDescription(name="Solo",
                                         information_type="cardiology"))
    statuses = sharded.shard_statuses()
    assert [status["shard"] for status in statuses] == [0, 1, 2]
    assert sum(status["sources"] for status in statuses) == 1
