"""JDBC-style database connectivity (DB-API 2.0 shaped).

:class:`~repro.gateway.api.LocalDriver` (one per vendor dialect) →
:class:`~repro.gateway.api.Connection` → :class:`~repro.gateway.api.Cursor`.
"""

from repro.gateway.api import Connection, Cursor, LocalDriver, parse_url

__all__ = ["Connection", "Cursor", "LocalDriver", "parse_url"]
