"""Naming-service generation counters (the stale-IOR window).

A server that crashes and restarts re-binds its name to a fresh IOR.
Clients that cached the old IOR (and proxies built from it) need a
cheap way to notice: every binding carries a generation counter that
``rebind`` bumps, and ``resolve_with_generation`` returns both parts
atomically.
"""

import pytest

from repro.errors import NamingError
from repro.orb.naming import start_naming_service
from repro.orb.orb import Orb
from repro.orb.transport import InMemoryNetwork


INTERFACE = None  # naming is self-describing; no extra IDL needed


def build_naming():
    transport = InMemoryNetwork()
    orb = Orb(name="test", transport=transport, host="test.example")
    __, naming = start_naming_service(orb)
    return orb, naming


def fake_ior(orb, suffix):
    """Any real IOR will do — activate a trivial servant."""
    from repro.orb.idl import InterfaceBuilder

    interface = (InterfaceBuilder(f"Thing{suffix}", module="test")
                 .operation("ping").build())

    class Servant:
        def ping(self):
            return "pong"

    return orb.activate(Servant(), interface, object_name=f"thing-{suffix}")


class TestGenerations:
    def test_first_bind_is_generation_one(self):
        orb, naming = build_naming()
        naming.bind("a/b", fake_ior(orb, 1))
        __, generation = naming.resolve_with_generation("a/b")
        assert generation == 1

    def test_rebind_bumps_the_generation(self):
        orb, naming = build_naming()
        first = fake_ior(orb, 1)
        second = fake_ior(orb, 2)
        naming.bind("a/b", first)
        naming.rebind("a/b", second)
        ior, generation = naming.resolve_with_generation("a/b")
        assert generation == 2
        assert ior.to_string() == second.to_string()

    def test_generation_survives_unbind_rebind(self):
        """Monotonic across the binding's whole history: a client that
        cached generation 1 can never see a *new* IOR under it."""
        orb, naming = build_naming()
        naming.bind("a/b", fake_ior(orb, 1))
        naming.unbind("a/b")
        naming.bind("a/b", fake_ior(orb, 2))
        __, generation = naming.resolve_with_generation("a/b")
        assert generation == 2

    def test_resolve_with_generation_unbound_name(self):
        __, naming = build_naming()
        with pytest.raises(NamingError):
            naming.resolve_with_generation("no/such")

    def test_plain_resolve_untouched(self):
        orb, naming = build_naming()
        ior = fake_ior(orb, 1)
        naming.bind("a/b", ior)
        assert naming.resolve("a/b").to_string() == ior.to_string()


class TestStaleIorRegression:
    def test_cached_proxy_detects_rebind(self):
        """The client pattern the system facade uses: cache (proxy,
        generation); on failure, re-resolve and compare generations to
        decide between 'endpoint is just down' and 'endpoint moved'."""
        orb, naming = build_naming()
        old = fake_ior(orb, 1)
        naming.bind("svc", old)
        __, cached_generation = naming.resolve_with_generation("svc")

        # Server restarts: same name, new IOR.
        new = fake_ior(orb, 2)
        naming.rebind("svc", new)

        ior, generation = naming.resolve_with_generation("svc")
        assert generation != cached_generation  # stale cache detected
        assert ior.to_string() == new.to_string()

        # Unchanged binding: generation equality proves the cached
        # proxy is still the freshest there is — no rebuild needed.
        __, again = naming.resolve_with_generation("svc")
        assert again == generation


class TestConcurrentResolve:
    def test_a_rebind_between_a_resolvers_two_reads_is_not_torn(self):
        """Servants are dispatched concurrently (the event loop's
        workers, in-memory callers' own threads).  A resolver paused
        after reading a binding, while a rebind runs, must still return
        an IOR with *its* generation: never the old IOR under the new
        generation, which would have a cache keep a dead endpoint as
        current until the next rebind."""
        import threading

        from repro.orb.naming import NamingServant

        servant = NamingServant()
        servant.bind("svc", "IOR:old")
        resolve = servant.resolve
        rebound = threading.Event()
        writer = threading.Thread(
            target=lambda: (servant.rebind("svc", "IOR:new"),
                            rebound.set()))

        def paused_resolve(name):
            ior = resolve(name)
            servant.resolve = resolve  # pause this one read only
            # Let the rebind run between the two reads; a resolver that
            # holds the tables' lock makes it wait instead.
            writer.start()
            rebound.wait(timeout=0.3)
            return ior

        servant.resolve = paused_resolve
        answer = servant.resolve_with_generation("svc")
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert (answer["ior"], answer["generation"]) in {
            ("IOR:old", 1), ("IOR:new", 2)}
        assert servant.resolve_with_generation("svc") == {
            "ior": "IOR:new", "generation": 2}

    def test_concurrent_rebinds_never_tear_a_resolve(self):
        """Stress: four resolvers against one rebinding writer, with the
        interpreter switching threads as often as it can.  Generation g
        is always bound to ``IOR:g``, so a torn pair shows at once."""
        import sys
        import threading

        from repro.orb.naming import NamingServant

        servant = NamingServant()
        servant.bind("svc", "IOR:1")
        torn, done = [], threading.Event()

        def resolve():
            while not done.is_set():
                answer = servant.resolve_with_generation("svc")
                if answer["ior"] != f"IOR:{answer['generation']}":
                    torn.append(answer)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=resolve) for _ in range(4)]
        try:
            for reader in readers:
                reader.start()
            for generation in range(2, 20000):
                servant.rebind("svc", f"IOR:{generation}")
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert torn == []
