"""The program surface the ``budget`` benchmark is allowed to touch.

This is the only module of the benchmark that imports ``repro``.  The
rest of the benchmark sees a deployment handle, browsers that take
WebTassili text, the native relational engines (for the direct-access
oracle), and the handful of helpers below.  Nothing here passes a
feature flag, an environment default or a ``WebFinditSystem`` keyword
other than ``transport``, so a change that folds the program's knobs
cannot break the benchmark.
"""

from __future__ import annotations

import importlib
import os
import sys

_SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     "..", "..", "src"))
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.apps.healthcare import build_healthcare_system  # noqa: E402
from repro.orb import (InMemoryNetwork, InterfaceBuilder, Orb,  # noqa: E402
                       TcpTransport, decode_any, encode_any)

TRANSPORTS = {"mem": InMemoryNetwork, "tcp": TcpTransport}


def deploy(transport_kind: str):
    """The paper's 14-database healthcare federation on a fresh
    transport built by its default constructor."""
    return build_healthcare_system(transport=TRANSPORTS[transport_kind]())


def close(deployment) -> None:
    """Stop whatever threads and sockets the deployment's transport owns."""
    closer = getattr(deployment.system.transport, "close", None)
    if closer is not None:
        closer()


def registry_summary(deployment) -> dict:
    return deployment.system.registry.summary()


def giop_counters(deployment) -> tuple[int, int]:
    """(messages, request bytes) the fabric carried since the last reset."""
    metrics = deployment.system.metrics()
    return metrics["giop_messages"], metrics["giop_bytes_sent"]


def connection_counters(deployment) -> tuple[int, int]:
    """(opened, reused) client connections; zeros where the transport
    keeps no such counters (the in-memory fabric)."""
    metrics = getattr(deployment.system.transport, "metrics", None)
    snapshot = metrics.snapshot() if metrics is not None else {}
    return (snapshot.get("connections_opened", 0),
            snapshot.get("connections_reused", 0))


class _Echo:
    def echo(self, value):
        return value


_ECHO_INTERFACE = (InterfaceBuilder("Echo", module="budget")
                   .operation("echo", "value").build())


class EchoProbe:
    """A one-operation servant on the deployment's own transport: the
    smallest GIOP round trip the fabric can make."""

    def __init__(self, deployment):
        self._orb = Orb(name="budget-echo",
                        transport=deployment.system.transport,
                        host="127.0.0.1")
        ior = self._orb.activate(_Echo(), _ECHO_INTERFACE, object_name="echo")
        self._proxy = self._orb.proxy(ior, _ECHO_INTERFACE)

    def ping(self) -> str:
        return self._proxy.invoke("echo", "ping")

    def close(self) -> None:
        self._orb.shutdown()


def cdr_roundtrip(value) -> int:
    """Encode and decode *value* as a CDR ``any``; returns the size."""
    data = encode_any(value)
    decode_any(data)
    return len(data)


def resolve_seam(module_name: str, qualname: str):
    """``(owner, attribute, function)`` for a dotted seam, or ``None``
    when the program no longer has it."""
    try:
        owner = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        function = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
    except (ImportError, AttributeError, KeyError):
        return None
    if not callable(function):
        return None
    return owner, attribute, function
