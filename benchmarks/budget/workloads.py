"""Statement streams for the four ``budget`` workloads.

A stream is a pure function of ``(workload, seed, client, segment)``:
the program under test only ever sees the generated WebTassili text.
Each segment has a *fixed composition* — the same number of statements
of every kind whatever the seed — so the seed changes the order, the
pairing of homes with topics and coalitions, and the literals, but not
the mix.  That keeps a percentile of a heterogeneous class (a local
discovery hit costs 0.4 ms, a full exploration 3 ms) from moving with
the luck of the draw.

Statement classes (what the end-to-end metrics are split by):

``discover``  ``Find Coalitions/Sources With Information`` (§2 resolution)
``explore``   ``Connect To`` / ``Display ...``             (Figures 4–5)
``lookup``    ``Invoke`` and point / indexed native selects (Figure 6)
``scan``      aggregate, selective scan, bulk and join native selects
``update``    maintenance statements and native DML

The names below restate the paper's Figure 1 topology; they are inputs
of the benchmark, not imports from the program.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from typing import NamedTuple

SGF = "State Government Funding"
RBH = "Royal Brisbane Hospital"
RBH_WORKERS = "RBH Workers Union"
CENTRE_LINK = "Centre Link"
MEDIBANK = "Medibank"
MBF = "MBF"
RMIT = "RMIT Medical Research"
QLD_CANCER = "Queensland Cancer Fund"
ATO = "Australian Taxation Office"
MEDICARE = "Medicare"
QUT = "QUT Research"
AMBULANCE = "Ambulance"
AMP = "AMP"
PRINCE_CHARLES = "Prince Charles Hospital"

HOMES = (SGF, RBH, RBH_WORKERS, CENTRE_LINK, MEDIBANK, MBF, RMIT, QLD_CANCER,
         ATO, MEDICARE, QUT, AMBULANCE, AMP, PRINCE_CHARLES)

#: Coalition -> members, in join order (Figure 1).
COALITIONS = {
    "Research": (QUT, RMIT, QLD_CANCER, RBH),
    "Medical": (RBH, PRINCE_CHARLES),
    "Medical Insurance": (MEDIBANK, MBF),
    "Superannuation": (AMP,),
    "Medical Workers Union": (RBH_WORKERS,),
}

#: The five advertised healthcare topics (the coalitions' information
#: types) and topics nobody advertises (worst-case full exploration).
TOPICS = ("Medical Research", "Medical", "Medical Insurance",
          "Superannuation", "Medical Workers Union")
MISS_TOPICS = ("Astronomy", "Marine Biology", "Civil Engineering", "Opera")

#: Exported structure elements used as ``Structure (...)`` qualifiers.
STRUCTURE = ("Funding", "Title", "Name", "Amount", "PlanName")

#: Coalitions ``Connect To Coalition`` can reach from each home (its own
#: coalitions, or ones a service link leads to).  Elsewhere the session
#: enters through ``Connect To Database`` instead, so no statement fails.
_VIA_MEDICAL = ("Research", "Medical", "Medical Insurance")
REACHABLE = {
    SGF: _VIA_MEDICAL, RBH: _VIA_MEDICAL, CENTRE_LINK: _VIA_MEDICAL,
    RMIT: _VIA_MEDICAL, QLD_CANCER: _VIA_MEDICAL, ATO: _VIA_MEDICAL,
    QUT: _VIA_MEDICAL, AMBULANCE: _VIA_MEDICAL,
    PRINCE_CHARLES: _VIA_MEDICAL,
    RBH_WORKERS: _VIA_MEDICAL + ("Medical Workers Union",),
    AMP: _VIA_MEDICAL + ("Superannuation",),
    MEDIBANK: ("Medical Insurance",), MBF: ("Medical Insurance",),
    MEDICARE: (),
}

#: RBH's Patient/History are grown to these sizes in set-up.
PATIENTS = 2000
HISTORY_ROWS = 8000
_CONDITIONS = ("influenza", "fracture", "pneumonia", "appendicitis",
               "hypertension", "asthma")
_DOCTORS = 15


class Statement(NamedTuple):
    """One WebTassili statement and how its answer is checked."""

    home: str        # the participating database the user belongs to
    text: str        # what Browser.submit receives
    cls: str         # discover | explore | lookup | scan | update
    kind: str        # finer label (composition tests, per-kind budget)
    check: tuple     # oracle instruction, see oracle.py
    fresh: bool = False   # start a new browser session for this home
    state: tuple = ()     # earlier ``Connect To`` texts of the session


def quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def native(database: str, sql: str) -> str:
    return f"Query {quote(database)} Native {quote(sql)}"


#: Indexed selects alternate between a small hot set of keys (texts the
#: SQL engine's 512-entry statement cache holds) and cold keys no
#: earlier segment used (texts it has to parse), so the hit share is
#: the same in every segment.  A run sees several thousand distinct
#: native texts all told, a few times the cache's size.
_HOT_KEYS = 32


@functools.lru_cache(maxsize=4)
def _key_order(seed) -> tuple[int, ...]:
    keys = list(range(1, PATIENTS + 1))
    random.Random(f"keys/{seed}").shuffle(keys)
    return tuple(keys)


class Draw:
    """What one segment's builders draw from: the stream's own RNG, the
    seed's key order, and a slot number unique to (client, segment)
    that keeps one segment's cold keys clear of another's."""

    def __init__(self, workload: str, seed: int, client, segment: int):
        self.rng = random.Random(f"{workload}/{seed}/{client}/{segment}")
        probe = client == "probe"
        # The probe block takes its keys from the other end of the order.
        self.keys = _key_order(seed)[::-1] if probe else _key_order(seed)
        clients = WORKLOADS[workload].clients
        self.slot = (segment + 1) * clients + (0 if probe else client)
        self.client = client
        self.segment = segment


@functools.lru_cache(maxsize=1)
def grown_rows(seed: int = 1999):
    """Rows that grow RBH's ``Patient`` (ids 61..2000) and ``History``
    in set-up; fixed, not workload-seeded, so every run queries the
    same data."""
    rng = random.Random(seed)
    patients = [[pid, f"Patient {pid:04d}", f"19{rng.randint(20, 89)}-0"
                 f"{rng.randint(1, 9)}-1{rng.randint(0, 9)}",
                 "MF"[pid % 2], f"{pid} Example St, Brisbane"]
                for pid in range(61, PATIENTS + 1)]
    history = [[rng.randint(1, PATIENTS),
                f"199{rng.randint(4, 8)}-0{rng.randint(1, 9)}-"
                f"1{rng.randint(0, 9)}",
                rng.choice(_CONDITIONS), "routine notes",
                rng.randint(1, _DOCTORS)]
               for _ in range(HISTORY_ROWS - 120)]
    return {"Patient": patients, "History": history}


# ---------------------------------------------------------------- browsing --

def _browse_session(home: str, topic: str, coalition: str
                    ) -> list[Statement]:
    """Figures 4–5 as one browser session: locate a topic, enter a
    coalition, read its classes, instances and one member's documents."""
    members = COALITIONS[coalition]
    # Which member's documents are read depends on the home alone, so
    # every segment reads the same set whatever the seed.
    member = members[HOMES.index(home) % len(members)]
    other = members[(HOMES.index(home) + 1) % len(members)]
    if coalition in REACHABLE[home]:
        entry = f"Connect To Coalition {quote(coalition)}"
        entry_kind = "connect_coalition"
    else:
        entry = f"Connect To Database {quote(member)}"
        entry_kind = "connect_database"
    final = f"Connect To Database {quote(other)}"
    steps = [
        (f"Find Coalitions With Information {quote(topic)}",
         "discover", "find_coalitions", ()),
        (entry, "explore", entry_kind, ()),
        (f"Display SubClasses of Class {quote(coalition)}",
         "explore", "subclasses", (entry,)),
        (f"Display Instances of Class {quote(coalition)}",
         "explore", "instances", (entry,)),
        (f"Display Document of Instance {quote(member)}",
         "explore", "document", (entry,)),
        (f"Display Access Information of Instance {quote(member)}",
         "explore", "access", (entry,)),
        (f"Display Interface of Instance {quote(member)}",
         "explore", "interface", (entry,)),
        (f"Display Service Links of Coalition {quote(coalition)}",
         "explore", "links", (entry,)),
        (final, "explore", "connect_database", (entry,)),
    ]
    return [Statement(home, text, cls, kind, ("twin",), fresh=(i == 0),
                      state=state)
            for i, (text, cls, kind, state) in enumerate(steps)]


def _find(home: str, text: str, kind: str, missing: bool) -> list[Statement]:
    check = ("unresolved",) if missing else ("twin",)
    return [Statement(home, text, "discover", kind, check, fresh=True)]


def browse_units(rng: random.Random, homes=HOMES, sessions_per_home: int = 5,
                 extras: bool = True) -> list[list[Statement]]:
    """Per home: *sessions_per_home* browse sessions covering distinct
    topics and coalitions, and (with *extras*) a ``Find Sources`` and a
    structure-qualified ``Find Coalitions`` per topic plus two topics
    nobody advertises — 12 % of the finds, the worst-case exploration."""
    units: list[list[Statement]] = []
    coalition_names = list(COALITIONS)
    for home in homes:
        topics = rng.sample(TOPICS, len(TOPICS))
        coalitions = rng.sample(coalition_names, len(coalition_names))
        for topic, coalition in list(zip(topics, coalitions))[
                :sessions_per_home]:
            units.append(_browse_session(home, topic, coalition))
        if not extras:
            continue
        for topic in TOPICS:
            units.append(_find(
                home, f"Find Sources With Information {quote(topic)}",
                "find_sources", missing=False))
            element = STRUCTURE[rng.randrange(len(STRUCTURE))]
            units.append(_find(
                home, f"Find Coalitions With Information {quote(topic)} "
                      f"Structure ({element})", "find_structure",
                missing=False))
        for topic in rng.sample(MISS_TOPICS, 2):
            units.append(_find(
                home, f"Find Coalitions With Information {quote(topic)}",
                "find_miss", missing=True))
    return units


# ------------------------------------------------------------- data access --

def _invoke(function: str, type_name: str, database: str, argument) -> str:
    literal = quote(argument) if isinstance(argument, str) else repr(argument)
    return (f"Invoke {quote(function)} Of Type {quote(type_name)} "
            f"On {quote(database)} With ({literal})")


#: (function, type, database, arguments to rotate over, check builder).
#: Oracle-, mSQL-, DB2-, ObjectStore- and Ontos-backed sources all
#: appear; constants are the seeded values the program's data carries.
_INVOKES = (
    ("Funding", "ResearchProjects", RBH, ("AIDS and drugs",),
     lambda a: ("equals", 1250000.0)),
    ("ProjectsByKeyword", "ResearchProjects", RBH, ("%medical%", "%qld%"),
     lambda a: ("direct", RBH, "SELECT Title, Funding FROM ResearchProjects "
                               f"WHERE Keywords LIKE {quote(a)}", True)),
    ("GrantAmount", "Projects", RMIT,
     ("Telehealth", "Tumour imaging", "Prosthetic joints"),
     lambda a: ("scalar", RMIT, "SELECT Grant_Amount FROM Project "
                                f"WHERE Title = {quote(a)}")),
    ("PlanPremium", "Cover", MBF, ("Extras", "Hospital Plus"),
     lambda a: ("equals", {"Extras": 33.75, "Hospital Plus": 96.5}[a])),
    ("SurveyLead", "Surveys", QUT,
     ("Insurance uptake", "Aged care access"),
     lambda a: ("scalar", QUT, "SELECT Lead FROM Survey "
                               f"WHERE Topic = {quote(a)}")),
    ("ProgramBudget", "Funding", SGF, ("Rural Clinics",),
     lambda a: ("equals", 6500000.0)),
    ("FundsByCategory", "Superannuation", AMP, ("growth", "balanced"),
     lambda a: ("twin",)),
    ("MembersInRole", "UnionMembers", RBH_WORKERS, ("nurse", "clerk"),
     lambda a: ("twin",)),
    ("PatientsInWard", "CardiacCare", PRINCE_CHARLES,
     ("Cardiac A", "Cardiac B"), lambda a: ("twin",)),
    ("CalloutsTo", "Callouts", AMBULANCE, (PRINCE_CHARLES,),
     lambda a: ("twin",)),
)


def _lookup(kind: str, home: str, rng: random.Random, index: int,
            key: int = 0) -> Statement:
    if kind == "invoke":
        function, type_name, database, arguments, check = \
            _INVOKES[index % len(_INVOKES)]
        argument = arguments[rng.randrange(len(arguments))]
        return Statement(home, _invoke(function, type_name, database,
                                       argument),
                         "lookup", "invoke", check(argument))
    if kind == "point":
        sql = ("SELECT Name, Gender, DateOfBirth FROM Patient "
               f"WHERE PatientId = {rng.randint(1, PATIENTS)}")
        # ("paired", ...): the runner primes and times the same text on
        # the native engine around the federated call (fetch_overhead).
        return Statement(home, native(RBH, sql), "lookup", "point",
                         ("paired", RBH, sql))
    sql = ("SELECT DateRecorded, Description FROM History "
           f"WHERE PatientId = {key}")
    return Statement(home, native(RBH, sql), "lookup", "indexed",
                     ("direct", RBH, sql, False))


def _scan(kind: str, home: str, rng: random.Random) -> Statement:
    condition = _CONDITIONS[rng.randrange(len(_CONDITIONS))]
    doctor = rng.randint(1, _DOCTORS)
    if kind == "aggregate":
        floor = 100 * rng.randrange(10)
        sql = ("SELECT Gender, COUNT(*) FROM Patient "
               f"WHERE PatientId > {floor} GROUP BY Gender")
    elif kind == "bulk":
        first = 1 + 100 * rng.randrange(16)
        sql = (f"SELECT * FROM Patient WHERE PatientId BETWEEN {first} "
               f"AND {first + 499}")
    elif kind == "selective":
        sql = ("SELECT PatientId, DateRecorded FROM History "
               f"WHERE Description = '{condition}' AND DoctorId = {doctor}")
    else:
        sql = ("SELECT p.Name, h.Description FROM History h "
               "JOIN Patient p ON h.PatientId = p.PatientId "
               f"WHERE h.DoctorId = {doctor} "
               f"AND h.Description = '{condition}'")
    # Scan texts repeat and their tables never change, so the direct
    # answer may be cached (the True): re-running a 50 ms scan to check
    # a 50 ms scan would double the run for no information.
    return Statement(home, native(RBH, sql), "scan", kind,
                     ("direct", RBH, sql, True))


#: lookups per ten: Invoke bindings repeat; point selects are primed
#: (see the runner); every other indexed select has a cold key.
_LOOKUP_KINDS = ("invoke",) * 4 + ("point",) * 3 + ("indexed",) * 3
#: scans per twenty: 7 aggregates, 8 bulk fetches, 4 selective scans
#: and a join, so the median falls well inside the bulk group; the
#: order is interleaved so that a short prefix (a probe block) has
#: about the same shares.
_SCAN_KINDS = ("bulk", "aggregate", "bulk", "selective", "aggregate",
               "bulk", "aggregate", "bulk", "selective", "aggregate",
               "bulk", "aggregate", "bulk", "selective", "aggregate",
               "bulk", "join", "bulk", "selective", "aggregate")


def query_units(draw: Draw, lookups: int, scans: int
                ) -> list[list[Statement]]:
    """The first ``_HOT_KEYS`` of the key order are hot; this segment's
    cold keys follow at an offset no other segment shares."""
    rng, keys = draw.rng, draw.keys
    cold_from = draw.slot * (lookups * 3 // 20 + 1)
    units = []
    invokes, indexed = itertools.count(), itertools.count()
    for index in range(lookups):
        home = HOMES[index % len(HOMES)]
        kind = _LOOKUP_KINDS[index % len(_LOOKUP_KINDS)]
        number = next(invokes) if kind == "invoke" else 0
        key = 0
        if kind == "indexed":
            nth = next(indexed)
            cold = _HOT_KEYS + (cold_from + nth // 2) % (PATIENTS - _HOT_KEYS)
            key = keys[cold] if nth % 2 else keys[rng.randrange(_HOT_KEYS)]
        units.append([_lookup(kind, home, rng, number, key)])
    for index in range(scans):
        home = HOMES[index % len(HOMES)]
        units.append([_scan(_SCAN_KINDS[index % len(_SCAN_KINDS)],
                            home, rng)])
    return units


# ------------------------------------------------------------- maintenance --

#: A database outside every coalition and away from every link's
#: contact: what joins, links and leaves again in the write groups.
_GUEST = MEDICARE
_SCRATCH_COALITION = "Telehealth"
_LINK_TOPIC = "Telemedicine"
_LINK_TARGETS = ("Research", "Medical", "Medical Insurance")


def _update(home: str, text: str, kind: str) -> Statement:
    return Statement(home, text, "update", kind, ("ack",))


def _group_membership(index: int) -> list[Statement]:
    """Join a coalition, be seen by an existing member, leave again.
    The locality rule fans both writes out to every member."""
    coalition = "Research"
    witness = COALITIONS[coalition][index % len(COALITIONS[coalition])]
    show = f"Display Instances of Class {quote(coalition)}"
    return [
        _update(witness, f"Join Database {quote(_GUEST)} To Coalition "
                         f"{quote(coalition)}", "join"),
        Statement(witness, show, "explore", "instances",
                  ("lists", _GUEST, True)),
        _update(witness, f"Leave Database {quote(_GUEST)} From Coalition "
                         f"{quote(coalition)}", "leave"),
        Statement(witness, show, "explore", "instances",
                  ("lists", _GUEST, False)),
    ]


def _group_link(index: int) -> list[Statement]:
    """Advertise a topic through a new service link, discover it, drop it."""
    target = _LINK_TARGETS[index % len(_LINK_TARGETS)]
    find = f"Find Coalitions With Information {quote(_LINK_TOPIC)}"
    return [
        _update(_GUEST, f"Create Service Link From Database {quote(_GUEST)} "
                        f"To Coalition {quote(target)} With Description "
                        f"{quote(_LINK_TOPIC)}", "create_link"),
        Statement(_GUEST, find, "discover", "find_coalitions",
                  ("leads", target, True)),
        _update(_GUEST, f"Drop Service Link From Database {quote(_GUEST)} "
                        f"To Coalition {quote(target)}", "drop_link"),
        Statement(_GUEST, find, "discover", "find_miss", ("unresolved",)),
    ]


def _group_coalition(index: int) -> list[Statement]:
    """Create a coalition, join it, see the member, dissolve it."""
    show = f"Display Instances of Class {quote(_SCRATCH_COALITION)}"
    return [
        _update(_GUEST, f"Create Coalition {quote(_SCRATCH_COALITION)} With "
                        f"Information {quote(_SCRATCH_COALITION)}",
                "create_coalition"),
        _update(_GUEST, f"Join Database {quote(_GUEST)} To Coalition "
                        f"{quote(_SCRATCH_COALITION)}", "join"),
        Statement(_GUEST, show, "explore", "instances",
                  ("lists", _GUEST, True)),
        _update(_GUEST, f"Dissolve Coalition {quote(_SCRATCH_COALITION)}",
                "dissolve_coalition"),
        Statement(_GUEST, show, "explore", "instances",
                  ("lists", _GUEST, False)),
    ]


def _group_dml(index: int) -> list[Statement]:
    """Insert a row through the wrapper, read it back, delete it."""
    student = 9000 + index
    home = HOMES[index % len(HOMES)]
    read_sql = f"SELECT Name FROM MedicalStudent WHERE StudentId = {student}"
    return [
        _update(home, native(RBH, "INSERT INTO MedicalStudent VALUES "
                                  f"({student}, 'Bench Student', 'MBBS', 1)"),
                "insert"),
        Statement(home, native(RBH, read_sql), "lookup", "point_after_write",
                  ("rows", (("Bench Student",),))),
        _update(home, native(RBH, "DELETE FROM MedicalStudent "
                                  f"WHERE StudentId = {student}"), "delete"),
        Statement(home, native(RBH, read_sql), "lookup", "point_after_write",
                  ("rows", ())),
    ]


_GROUPS = (_group_membership, _group_link, _group_coalition, _group_dml)


def update_units(rounds: int, start: int = 0) -> list[list[Statement]]:
    """*rounds* of the four self-cancelling write groups (9 writes, 8
    dependent reads a round).  A group stays contiguous in the stream,
    so every other statement sees the baseline information space."""
    units = []
    for index in range(start, start + rounds):
        for group in _GROUPS:
            statements = group(index)
            statements[0] = statements[0]._replace(fresh=True)
            units.append(statements)
    return units


# -------------------------------------------------------------- the streams --

def _flatten(units, rng: random.Random) -> list[Statement]:
    rng.shuffle(units)
    return [statement for unit in units for statement in unit]


def _rotate(count: int, offset: int) -> list[str]:
    """*count* homes starting at *offset*: which homes a partial mix
    uses depends on the segment, never on the seed."""
    return [HOMES[(offset + step) % len(HOMES)] for step in range(count)]


def _browse_mem(draw):
    return browse_units(draw.rng) + browse_units(draw.rng, extras=False)


def _query_mem(draw):
    return query_units(draw, lookups=160, scans=40)


def _mixed_tcp(draw):
    # One client's half of the segment; the scan share is cut to 5 %
    # of the data statements so sockets, not SQL, carry the time.
    return (browse_units(draw.rng, homes=HOMES[draw.client::2], extras=False)
            + browse_units(draw.rng, homes=_rotate(
                3, 3 * draw.segment + 7 * draw.client))
            + query_units(draw, lookups=152, scans=8))


def _evolve_mem(draw):
    # 864 writes in 2862 statements: 30 %.  The 768 dependent reads and
    # the 1230 free ones are the browse and lookup mixes' statements.
    return (update_units(rounds=96, start=draw.rng.randrange(1000))
            + browse_units(draw.rng, extras=False)
            + query_units(draw, lookups=600, scans=0))


class Workload(NamedTuple):
    name: str
    transport: str     # adapter.TRANSPORTS key
    clients: int       # closed-loop clients, each with its own browsers
    units: object      # Draw -> the workload's own mix, as units
    probes: tuple      # classes the mix lacks, see probe_stream()
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("browse_mem", "mem", 1, _browse_mem,
             ("lookup", "scan", "update"),
             "metadata browsing only: discovery, co-databases, the object "
             "store and per-message ORB cost do the work; SQL, wrappers, "
             "gateway and sockets do none"),
    Workload("query_mem", "mem", 1, _query_mem,
             ("discover", "explore", "update"),
             "data access only: wrappers, gateway, SQL and result "
             "marshalling dominate and discovery does nothing; smallest to "
             "largest GIOP message"),
    Workload("mixed_tcp", "tcp", 2, _mixed_tcp, ("update",),
             "both mixes over loopback sockets with the default "
             "TcpTransport(): the only workload with framing, pooling, "
             "server threads and GIL hand-offs on the path"),
    Workload("evolve_mem", "mem", 1, _evolve_mem, ("scan",),
             "30 % maintenance writes beside reads: a read-side gain bought "
             "with caching or extra propagation on the write path costs "
             "here"),
)}


def stream(workload: str, seed: int, client: int, segment: int
           ) -> list[Statement]:
    """The statements *client* submits in *segment* of *workload*."""
    draw = Draw(workload, seed, client, segment)
    return _flatten(WORKLOADS[workload].units(draw), draw.rng)


def probe_stream(workload: str, seed: int, segment: int) -> list[Statement]:
    """Statements of the classes *workload*'s own mix lacks.

    The contract this benchmark is run under wants every end-to-end
    metric from every workload.  A class a workload does not contain is
    therefore measured by a small fixed block after each segment's main
    phase, by one client alone; it feeds only that class's metrics —
    never ``stmt_*`` — and is left out of the traced run, so the
    per-layer separation between workloads stays clean.
    """
    draw = Draw(workload, seed, "probe", segment)
    probes = WORKLOADS[workload].probes
    units: list[list[Statement]] = []
    # Sized so that a block's percentile is of a hundred samples or so
    # (ten scans: they cost 15 ms apiece), at a tenth of the segment.
    if "discover" in probes:  # explore rides along in the same sessions
        units += browse_units(draw.rng, homes=_rotate(7, 7 * segment),
                              sessions_per_home=2, extras=False)
        units += browse_units(draw.rng, homes=_rotate(5, 5 * segment),
                              sessions_per_home=0)
    if "lookup" in probes:
        units += query_units(draw, lookups=80, scans=0)
    if "scan" in probes:
        units += query_units(draw, lookups=0, scans=10)
    if "update" in probes:
        units += update_units(rounds=24, start=draw.rng.randrange(1000))
    return _flatten(units, draw.rng)


def digest(workload: str, seed: int, segments: int = 2) -> str:
    """Fingerprint of the first *segments* segments of every client."""
    sha = hashlib.sha256()
    for client in range(WORKLOADS[workload].clients):
        for segment in range(segments):
            for statement in stream(workload, seed, client, segment):
                sha.update(f"{statement.home}\t{statement.text}\n".encode())
    return sha.hexdigest()
