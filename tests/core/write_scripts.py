"""Maintenance-write scripts generated from the declaration.

:data:`repro.core.codatabase.MAINTENANCE_WRITES` names every mutator and
the value type of each argument; :data:`ARGUMENTS` holds one strategy
per value type, so a mutator added to the declaration is generated here
— and exercised by ``test_write_path_properties.py`` and the crash-
recovery property of ``test_replication.py`` — with no test edit.
"""

from hypothesis import strategies as st

from repro.core.coalition import Coalition
from repro.core.codatabase import MAINTENANCE_WRITES
from repro.core.model import SourceDescription
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import WebFinditError

OWNER = "Alpha"
COALITIONS = ["C1", "C2", "C3"]
LEASE = 10.0

topics = st.sampled_from(["cardiology", "insurance", "pædiatric care", ""])

#: One strategy per value type the declaration uses.  Names come from
#: small pools so that writes mostly land (and a fair share is refused:
#: an unknown coalition, an advertisement for somebody else).
ARGUMENTS = {
    str: st.sampled_from([OWNER, *COALITIONS]),
    SourceDescription: st.builds(
        SourceDescription, name=st.sampled_from([OWNER, "Beta", "Gamma"]),
        information_type=topics, location=st.sampled_from(["", "a.example"]),
        interface=st.lists(st.sampled_from(["Wards", "Trials"]), max_size=2)),
    # Parents stay outside the pool: the lattice is the golden script's.
    Coalition: st.builds(
        Coalition, name=st.sampled_from(COALITIONS), information_type=topics,
        parent=st.sampled_from([None, "Elsewhere"]), doc=topics),
    ServiceLink: st.builds(
        ServiceLink, from_kind=st.sampled_from(EndpointKind),
        from_name=st.sampled_from([OWNER, "C1"]),
        to_kind=st.sampled_from(EndpointKind),
        to_name=st.sampled_from(["Beta", "C2"]), information_type=topics,
        description=topics, contact=st.sampled_from(["", "Beta"])),
}

writes = st.sampled_from(sorted(MAINTENANCE_WRITES)).flatmap(
    lambda operation: st.tuples(st.just(operation), st.tuples(*(
        ARGUMENTS[kind] for kind in MAINTENANCE_WRITES[operation]))))


def protocol(script):
    """*script* minus the steps that name a forgotten coalition.

    ``forget_coalition`` deletes a coalition's record and instances but
    keeps its class (append-only schema), so a live co-database still
    accepts writes naming it while a snapshot cannot represent them.
    The registry re-registers before it writes; so do these scripts.
    """
    forgotten: set[str] = set()
    kept = []
    for operation, args in script:
        if forgotten.intersection(a for a in args if isinstance(a, str)):
            continue
        if operation == "register_coalition":
            forgotten.discard(args[0].name)
        elif operation == "forget_coalition" and args[0] in COALITIONS:
            forgotten.add(args[0])
        kept.append((operation, args))
    return kept


scripts = st.lists(writes, min_size=1, max_size=24).map(protocol)


def run(target, script, before_step=None):
    """Issue *script*; returns the indexes of the steps *target*
    refused.  A refusal must leave a replica set exactly as it was: no
    epoch consumed, nothing journaled, nobody quarantined."""
    def snapshot():
        return target.epoch, [
            (runtime.alive, runtime.epoch, runtime.journal.last_epoch,
             len(runtime.journal))
            for runtime in getattr(target, "runtimes", ())]

    refused = []
    for step, (operation, args) in enumerate(script):
        if before_step is not None:
            before_step(step)
        before = snapshot()
        try:
            getattr(target, operation)(*args)
        except WebFinditError:
            refused.append(step)
            assert snapshot() == before
    return refused
