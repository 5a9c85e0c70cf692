"""JDBC-style database connectivity (DB-API 2.0 shaped).

* :func:`~repro.gateway.api.connect` + :class:`~repro.gateway.api.DriverManager`
* :class:`~repro.gateway.drivers.LocalDriver` — in-process engines
* :class:`~repro.gateway.bridge.RemoteDriver` — databases reached over IIOP
"""

from repro.gateway.api import (Connection, Cursor, DriverManager, connect,
                               default_manager)
from repro.gateway.bridge import (DATABASE_INTERFACE, DatabaseServant,
                                  RemoteConnection, RemoteDriver,
                                  serve_database)
from repro.gateway.drivers import (LocalConnection, LocalDriver,
                                   make_vendor_drivers, parse_url)

__all__ = [
    "connect", "Connection", "Cursor", "DriverManager", "default_manager",
    "LocalDriver", "LocalConnection", "make_vendor_drivers", "parse_url",
    "RemoteDriver", "RemoteConnection", "DatabaseServant", "serve_database",
    "DATABASE_INTERFACE",
]
