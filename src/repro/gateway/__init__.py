"""JDBC-style database connectivity (DB-API 2.0 shaped).

* :func:`~repro.gateway.api.connect` + :class:`~repro.gateway.api.DriverManager`
* :class:`~repro.gateway.drivers.LocalDriver` — in-process engines
* :mod:`repro.gateway.bridge` — the ``ResultSet`` CDR value type
"""

# Imported for its registration: a ResultSet crosses the ORB as a CDR
# value type.
import repro.gateway.bridge  # noqa: F401
from repro.gateway.api import (Connection, Cursor, DriverManager, connect,
                               default_manager)
from repro.gateway.drivers import LocalDriver, make_vendor_drivers, parse_url

__all__ = [
    "connect", "Connection", "Cursor", "DriverManager", "default_manager",
    "LocalDriver", "make_vendor_drivers", "parse_url",
]
