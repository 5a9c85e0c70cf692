"""Library-wide exception hierarchy.

Every subsystem raises exceptions derived from :class:`ReproError` so
applications can catch at whatever granularity they need: a single
``except ReproError`` for "anything this library did", or the specific
subclass for targeted handling.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------

class SqlError(ReproError):
    """Base class for relational-engine errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.line:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class CatalogError(SqlError):
    """A table, column, or index is missing or duplicated."""


class IntegrityError(SqlError):
    """A constraint (primary key, not-null, type) was violated."""


class SqlTypeError(SqlError):
    """A value could not be coerced to the declared column type."""


class TransactionError(SqlError):
    """Invalid transaction state transition (e.g. commit with no begin)."""


# ---------------------------------------------------------------------------
# Object-oriented engine
# ---------------------------------------------------------------------------

class OodbError(ReproError):
    """Base class for object-database errors."""


class SchemaError(OodbError):
    """Class/attribute definitions are inconsistent."""


class ObjectNotFound(OodbError):
    """No object matches the requested identity or predicate."""


class OqlError(OodbError):
    """An object query was malformed."""


# ---------------------------------------------------------------------------
# ORB substrate
# ---------------------------------------------------------------------------

class OrbError(ReproError):
    """Base class for ORB-layer errors."""


class MarshalError(OrbError):
    """A value could not be encoded to or decoded from CDR."""


class CommFailure(OrbError):
    """Transport-level failure (connection refused, truncated message)."""


class ObjectNotExist(OrbError):
    """The object reference does not designate a live servant."""


class ServerBusy(CommFailure):
    """The server refused the request under overload (GIOP ``BUSY``).

    Derives from :class:`CommFailure` so failover routing and
    idempotence-gated retries treat a shedding server like any other
    unreachable endpoint — but retries against it are additionally
    capped by the client's :class:`~repro.deadline.RetryBudget`, so a
    brownout never amplifies into a retry storm.
    """


class QuorumError(CommFailure):
    """Base class for quorum-replication failures.

    Derives from :class:`CommFailure` so the resilience layer treats a
    lost quorum exactly like any other transport-level outage: callers
    that survive partitions by retrying elsewhere keep working.
    """


class QuorumLost(QuorumError):
    """Fewer than a majority of replicas acknowledged the write."""


class FencedOut(QuorumError):
    """The write carried a stale fencing epoch: a majority of replicas
    promised a newer lease, so the issuing primary has been deposed."""


class ElectionLost(QuorumError):
    """The candidate could not collect a majority of lease grants."""


class LeaseExpired(QuorumError):
    """The primary's lease lapsed before the write could be issued."""


class BadOperation(OrbError, AttributeError):
    """The operation is not part of the target interface.  Also an
    :class:`AttributeError`: a typed stub has no such attribute, so
    ``hasattr(proxy, name)`` answers from the interface."""


class IdlError(OrbError):
    """An interface definition is malformed."""


class NamingError(OrbError):
    """Name-service binding/resolution failure."""


# ---------------------------------------------------------------------------
# Resilience (deadlines, retries, circuit breakers)
# ---------------------------------------------------------------------------

class ResilienceError(ReproError):
    """Base class for failures raised by the fault-tolerance layer."""


class DeadlineExceeded(ResilienceError):
    """The call's total time budget ran out before it completed."""


class CircuitOpen(ResilienceError):
    """A circuit breaker is refusing calls to an unhealthy endpoint."""


# ---------------------------------------------------------------------------
# Gateway (DB connectivity)
# ---------------------------------------------------------------------------

class GatewayError(ReproError):
    """Base class for the DB-API-style connectivity layer."""


class DriverNotFound(GatewayError):
    """No registered driver accepts the connection URL."""


class ConnectionClosed(GatewayError):
    """Operation attempted on a closed connection or cursor."""


# ---------------------------------------------------------------------------
# Wrappers (Information Source Interfaces)
# ---------------------------------------------------------------------------

class WrapperError(ReproError):
    """Base class for wrapper/ISI errors."""


class TranslationError(WrapperError):
    """A WebTassili request could not be translated for the source."""


# ---------------------------------------------------------------------------
# WebTassili language
# ---------------------------------------------------------------------------

class WebTassiliError(ReproError):
    """Base class for WebTassili language errors."""


class WebTassiliSyntaxError(WebTassiliError):
    """The WebTassili statement could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# WebFINDIT core
# ---------------------------------------------------------------------------

class WebFinditError(ReproError):
    """Base class for WebFINDIT-core errors."""


class UnknownCoalition(WebFinditError):
    """The named coalition is not registered."""


class UnknownDatabase(WebFinditError):
    """The named information source is not registered."""


class MembershipError(WebFinditError):
    """Invalid coalition join/leave operation."""


class DiscoveryFailure(WebFinditError):
    """Query resolution exhausted the reachable information space."""


class AccessError(WebFinditError):
    """The exported interface does not allow the requested access."""
